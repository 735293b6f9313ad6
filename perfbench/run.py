"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in one worker process
(``worker.py``) with the BLAS thread count capped at ``nproc``; set-up is
also repeated in short probe processes, which the worker starts between
ops, so that ``setup_s`` is a median over the whole run.
With ``--trace 0`` the result carries the end-to-end metrics named in
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.  A human-readable
summary comes first; the last stdout line is the JSON result.  The full
record, with the environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 20
# Room past --seconds for the worker's set-up, its set-up probes (about
# 0.4 s each) and its last op, which starts before the mark and may end
# after it (a verify op takes about 7 s).
MARGIN_S = 60.0
TIME_LIMIT_S = 170.0


def _worker(root, args, extra, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--src", os.path.join(root, "src"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    # its own session, so that a timeout also ends the probes it started
    with subprocess.Popen(cmd, cwd=root, env=_env(), stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def environment(root: str, seed: int, w: dict) -> dict:
    sha = None
    if os.path.exists(os.path.join(root, ".git")):  # not from an enclosing repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "wotsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": w["numpy"],
        "blas": w["blas"],
        "nproc": nproc(),
        "cpu": cpu,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# End-to-end figures BENCHMARK.json does not declare (see README.md); they
# are printed and recorded all the same.  Name: (unit, better).
UNDECLARED = {"ops_per_s": ("1/s", "higher"), "failed_ratio": ("ratio", "lower"),
              "op_p90_ms": ("ms", "lower")}


def end_to_end(w: dict, setups: list[float]) -> tuple[dict, dict]:
    lat = w["latencies_ms"]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(lat),
        "ops_per_s": (w["attempted"] - w["failed"]) / w["elapsed_s"],
        "failed_ratio": w["failed"] / w["attempted"],
        "peak_rss_mb": w["peak_rss_mb"],
    }
    # the highest percentile with at least ten samples beyond it
    if len(lat) >= 100:
        metrics["op_p90_ms"] = statistics.quantiles(lat, n=10)[-1]
    return metrics, {"op_samples": len(lat), "setup_samples_s": setups}


def per_layer(w: dict) -> dict:
    metrics = dict(w["layers"]["metrics"])
    traced = statistics.median(w["traced_latencies_ms"])
    metrics["trace.op_p50_ms"] = traced
    metrics["trace.overhead_ms"] = traced - statistics.median(w["latencies_ms"])
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wotsim", "__init__.py")):
        print("error: run from the root of a wotsim checkout (src/wotsim is missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    if args.workload not in {w["name"] for w in config["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= TIME_LIMIT_S - MARGIN_S:
        print(f"error: --seconds must be above 0 and at most {TIME_LIMIT_S - MARGIN_S:g}, "
              f"so that a run ends within {TIME_LIMIT_S:g} s", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(HERE, ".work")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    extra = ["--workdir", os.path.join(work, f"{tag}-{os.getpid()}")]
    if args.trace:
        extra += ["--spans", os.path.join(results, f"spans-{tag}.json.gz")]
    else:
        extra += ["--probes", str(SETUP_PROBES)]
    timeout = TIME_LIMIT_S - (time.monotonic() - started)
    try:
        w = _worker(root, args, extra, min(args.seconds + MARGIN_S, timeout))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, details = per_layer(w), {"layers": w["layers"]}
        wanted = config["per_layer"]
    else:
        values, details = end_to_end(w, w["setup_samples_s"])
        wanted = config["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": w["failed"] == 0,
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=environment(root, args.seed, w),
                  failures=w["failures"], kind_counts=w["kind_counts"],
                  all_values=values, **details)
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={w['attempted']} failed={w['failed']}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, (unit, _) in UNDECLARED.items():
            if name in values:
                print(f"#   {name} = {values[name]:.6g} {unit} (not declared)")
        print(f"#   op samples = {details['op_samples']}")
    for failure in w["failures"]:
        print(f"#   FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
