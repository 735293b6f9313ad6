"""Paired benchmark: alternate ``perfbench/run.py`` between two checkouts.

    python3 tools/paired_bench.py --parent ../parent --change . --name mychange \
        --parent-sha <sha> --change-desc "what changed" --seeds 1-10

For each workload of ``BENCHMARK.json`` (or those given with ``--workloads``)
it first runs both sides once for ``WARMUP_S`` seconds, so that both have
warm file and bytecode caches, then one end-to-end run (``--trace 0``) of
``run_seconds`` (from ``BENCHMARK.json``) per side and seed.  Odd seeds run
the parent first, even seeds the change, so a drift of the host does not
favour one side.  Each run is a fresh process from its own checkout, which
need not be a git checkout: a copy of the commit's files will do.  Each
side's runs read and write their bytecode in a fresh directory of their own
(``PYTHONPYCACHEPREFIX``), so neither side reads a ``__pycache__`` that its
checkout already holds.  A run whose ops fail stops the pairing.

The result goes to ``BENCH_<name>.json`` next to the change's
``BENCHMARK.json``: the full record of every run, and
per end-to-end metric the two lists, their medians, the relative change of
the median, the parent's interquartile range (``statistics.quantiles``,
exclusive method; ``null`` with fewer than two pairs), the number of pairs
in which the change is better, and whether the change stays within the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from spread import parse_seeds  # noqa: E402

WARMUP_S = 3


def side_envs(names, tmpdir: str, environ=os.environ) -> dict[str, dict[str, str]]:
    """The child environment of each named side: ``environ`` with
    ``PYTHONPYCACHEPREFIX`` set to a new, empty directory of the side's own
    under ``tmpdir``, and without ``PYTHONDONTWRITEBYTECODE``.  The prefix
    holds every module's bytecode, numpy's and the standard library's too,
    so the warm-up run must be able to fill it: a child that may not write
    there compiles them from source in every run, which would time that
    compilation in ``setup_s``."""
    base = {k: v for k, v in environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    envs = {}
    for name in names:
        prefix = os.path.join(tmpdir, name)
        os.mkdir(prefix)
        envs[name] = {**base, "PYTHONPYCACHEPREFIX": prefix}
    return envs


def run_once(side: str, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One ``perfbench/run.py`` run in checkout ``side`` with environment
    ``env``; its full record.  Like ``perfbench/spread.py``, it reads the
    verdict off the last stdout line, and it raises unless the run was
    correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{side}: {' '.join(cmd)} exited {proc.returncode}")
    if not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]:
        raise RuntimeError(f"{side}: {workload} seed {seed}: an op failed")
    path = os.path.join(side, "perfbench", "results", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def paired(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The paired summary of one metric, in the layout of the BENCH files."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    # quantiles needs two values; one pair has no spread to report
    q = statistics.quantiles(parent, n=4) if len(parent) > 1 else None
    rel = c_med / p_med - 1.0
    sign = 1.0 if better == "lower" else -1.0
    return {
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "change_median": c_med,
        "change_vs_parent": rel,
        "parent_iqr": None if q is None else q[2] - q[0],
        # pairs in which the change is better, whichever direction that is
        "change_lower_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "bound": bound,
        "within_bound": sign * rel <= bound,
    }


def host(record: dict) -> str:
    env = record["environment"]
    blas = env["blas"]
    return (f"{env['nproc']}-CPU {env['cpu']}, Python {env['python']}, numpy {env['numpy']}, "
            f"{blas.get('name')} {blas.get('version')} at {blas.get('threads')} BLAS threads")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", default=ROOT, help="checkout of the change (default: this one)")
    p.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    p.add_argument("--parent-sha", default=None)
    p.add_argument("--change-desc", default="")
    p.add_argument("--claim", default=None, help="the metric a gain is claimed on, if any")
    p.add_argument("--workloads", nargs="*", default=None)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    workloads = args.workloads or [w["name"] for w in config["workloads"]]
    seeds, seconds = parse_seeds(args.seeds), config["run_seconds"]
    out = {
        "seconds": seconds,
        "method": (f"tools/paired_bench.py: perfbench/run.py --seconds {seconds:g} "
                   f"--trace 0, one parent run and one change run per seed and workload, "
                   f"odd seeds parent first; each side from its own checkout, with its own "
                   f"fresh PYTHONPYCACHEPREFIX, written by its runs, so that neither reads a "
                   f"checkout's __pycache__; warmed by one {WARMUP_S} s run per workload and "
                   f"side before the pairs"),
        "host": None,
        "parent": args.parent_sha,
        "change": args.change_desc,
        "claim": args.claim,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="paired_bench-") as tmp:
        envs = side_envs(sides, tmp)
        for workload in workloads:
            for name, side in sides.items():
                run_once(side, workload, 0, WARMUP_S, envs[name])
            runs = {"parent": [], "change": []}
            first = []
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                first.append(order[0])
                for name in order:
                    runs[name].append(run_once(sides[name], workload, seed, seconds, envs[name]))
                    rec = runs[name][-1]
                    print(f"{workload} seed {seed} {name}: "
                          + ", ".join(f"{k} {v['value']:.4g}" for k, v in rec["metrics"].items())
                          + f", failed {rec['failed']}", flush=True)
            out["host"] = out["host"] or host(runs["parent"][0])
            out["workloads"][workload] = {
                "seeds": seeds,
                "first": first,
                "parent_runs": runs["parent"],
                "change_runs": runs["change"],
                "paired": {
                    m["name"]: paired([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                                      [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                                      m["better"], m["bound"])
                    for m in config["end_to_end"]
                },
                "failed_ops": {name: sum(r["failed"] for r in rs) for name, rs in runs.items()},
            }
            path = os.path.join(sides["change"], f"BENCH_{args.name}.json")
            with open(path, "w", encoding="utf-8") as fh:  # rewritten after each workload
                json.dump(out, fh, indent=1)
    for workload, w in out["workloads"].items():
        for metric, s in w["paired"].items():
            iqr = "none" if s["parent_iqr"] is None else f"{s['parent_iqr']:.4g}"
            print(f"# {workload} {metric}: {s['parent_median']:.4g} -> {s['change_median']:.4g} "
                  f"({100 * s['change_vs_parent']:+.1f}%, better in {s['change_lower_pairs']} "
                  f"of {len(s['parent'])}, parent IQR {iqr})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
