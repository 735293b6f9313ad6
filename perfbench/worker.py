"""One workload process: set up, run ops in a closed loop, gate each op.

Usage (``run.py`` starts it with the BLAS thread count capped):

    python3 perfbench/worker.py --src src --workload analyze --seed 1 \
        --seconds 30 --trace 0 --workdir perfbench/.work/x [--setup-only] \
        [--probes N] [--spans PATH]

Prints one JSON object on its last stdout line.  With ``--probes N`` it
starts N fresh ``--setup-only`` copies of itself at even points of the run,
between ops and off the op clock, and reports their set-up times beside its
own.  With ``--trace 1`` ops alternate between untraced and traced, so the
tracing overhead is the difference of the two p50s measured under the same
conditions.
"""

from time import perf_counter

T0 = perf_counter()  # set-up starts before numpy and wotsim are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

PROBE_TIMEOUT_S = 30.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True, help="directory holding the wotsim package")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--probes", type=int, default=0,
                   help="set-up probe processes to run between ops")
    p.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    os.makedirs(args.workdir, exist_ok=True)
    try:
        return _run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def _run(args) -> int:
    import workloads
    import wotsim

    src = os.path.abspath(args.src)
    if not os.path.abspath(wotsim.__file__).startswith(src + os.sep):
        print(f"error: wotsim imported from {wotsim.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.prepare()
    setup_s = perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, traced_latencies, kinds, traced_ops = [], [], [], []
    failures: list[str] = []
    setups = [setup_s]
    attempted = 0
    min_ops = 2 if tracer else 1  # a traced run needs an untraced and a traced op
    probe_every = args.seconds / (args.probes + 1)
    paused = 0.0  # time spent in set-up probes, which the op clock leaves out
    t_start = perf_counter()
    t_end = t_start
    while attempted < min_ops or t_end - t_start - paused < args.seconds:
        # probes run between ops, spread over the run, so that set-up is
        # measured under the same host conditions as the ops
        while (len(setups) <= args.probes
               and t_end - t_start - paused >= probe_every * len(setups)):
            t = perf_counter()
            setups.append(_probe(args, len(setups)))
            paused += perf_counter() - t
            t_end = perf_counter()
        kind, arg = wl.next_op()
        traced = bool(tracer) and attempted % 2 == 1
        if traced:
            tracer.install(attempted)
        t = perf_counter()
        try:
            result = wl.run(arg)
            error = None
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        t_op = perf_counter()
        if traced:
            tracer.uninstall()
        if error is None:
            try:
                error = wl.check(kind, result)
            except Exception as exc:
                error = f"gate raised {type(exc).__name__}: {exc}"
        t_end = perf_counter()
        (traced_latencies if traced else latencies).append((t_op - t) * 1e3)
        if traced:
            traced_ops.append((attempted, kind))
        kinds.append(kind)
        attempted += 1
        if error is not None:
            failures.append(f"op {attempted - 1} ({kind}): {error}")

    while len(setups) <= args.probes:
        setups.append(_probe(args, len(setups)))

    out = {
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "elapsed_s": t_end - t_start - paused,
        "latencies_ms": latencies,
        "traced_latencies_ms": traced_latencies,
        "kind_counts": {k: kinds.count(k) for k in sorted(set(kinds))},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": _blas_info(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer:
        out["layers"] = _layer_summary(tracer, traced_ops)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


def _probe(args, i: int) -> float:
    """Set-up time of a fresh process for the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--src", args.src,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", f"{args.workdir}-probe{i}",
           "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _layer_summary(tracer, traced_ops) -> dict:
    from tracing import median_metrics, op_metrics
    from wotsim.verification import SUITES

    per_op = tracer.per_op()
    suite_names = [n for n, _ in SUITES]

    def summary(ops) -> dict:
        metrics = [op_metrics(per_op.get(op, {})) for op in ops]
        incl: dict[str, list[float]] = {}
        for op in ops:
            for name, d in per_op.get(op, {}).items():
                incl.setdefault(name, []).append(d["incl_ns"] / 1e6 / d["calls"])
        return {
            "traced_ops": len(ops),
            "metrics": median_metrics(metrics, suite_names),
            "incl_ms_per_call": {k: statistics.median(v) for k, v in sorted(incl.items())},
        }

    kinds = sorted({kind for _, kind in traced_ops})
    out = summary([op for op, _ in traced_ops])
    out["by_kind"] = {k: summary([op for op, kind in traced_ops if kind == k]) for k in kinds}
    return out


def _blas_info() -> dict:
    """The BLAS numpy was built against and the thread count it runs with."""
    import ctypes

    import numpy as np

    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


if __name__ == "__main__":
    sys.exit(main())
