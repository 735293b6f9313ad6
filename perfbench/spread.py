"""Run-to-run spread of the end-to-end metrics, and a held-out seed check.

    python3 perfbench/spread.py --workloads analyze verify --seeds 1-10
    python3 perfbench/spread.py --workloads analyze --trace-seeds 1,2 --seeds ""

Run from the root of a checkout.  For each workload it runs ``run.py`` once
per seed and reports, for every end-to-end metric in ``BENCHMARK.json``,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median, against the metric's
bound.  The seeds are split into a first and a held-out half; the held-out
median must not be worse than the first by more than the bound.  With
``--trace-seeds`` it also makes traced runs and checks that every
``*.calls`` count is identical across them.  Runs last ``run_seconds`` from
``BENCHMARK.json``.  The report is written to
``perfbench/results/spread-<time>.json``.

The exit code is 0 only if every op passed its gate, every declared spread
is within its bound and every held-out median is within its bound.  A
spread of a third of its bound or more is marked ``NOT STEADY`` and counted
in the last line; that mark is the tuning target, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import UNDECLARED

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    wall = time.monotonic() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    record_path = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    result["environment"] = record["environment"]
    for key in ("all_values", "layers", "op_samples"):
        if record.get(key) is not None:
            result[key] = record[key]
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def summarize(values: list[float], metric: dict) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    half = len(values) // 2
    first, held_out = statistics.median(values[:half]), statistics.median(values[half:])
    spread = (q3 - q1) / statistics.median(values)
    drift = worse_by(first, held_out, metric["better"])
    bound = metric.get("bound")
    return {
        "values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
        "spread": spread, "bound": bound,
        "spread_ok": bound is None or spread <= bound,
        "steady": bound is None or spread < bound / 3,
        "first_half_median": first, "held_out_median": held_out,
        "held_out_worse_by": drift, "held_out_ok": bound is None or drift <= bound,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace-seeds", default="", help="seeds for traced runs, e.g. 1,2")
    args = p.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        config = json.load(fh)
    seconds = config["run_seconds"]
    seeds, trace_seeds = parse_seeds(args.seeds), parse_seeds(args.trace_seeds)

    report: dict = {"seconds": seconds, "seeds": seeds, "trace_seeds": trace_seeds,
                    "workloads": {}}
    ok = True
    unsteady = 0
    for workload in args.workloads:
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        entry: dict = {"runs": runs, "metrics": {}}
        for r in runs:
            ok &= r["correct"]
        if len(runs) >= 2:
            # an undeclared figure that is 0 (failed_ratio at a correct commit)
            # has no relative spread
            metrics = config["end_to_end"] + [
                {"name": n, "better": b} for n, (_, b) in UNDECLARED.items()
                if all(r["all_values"].get(n) for r in runs)]
            for metric in metrics:
                values = [r["all_values"][metric["name"]] for r in runs]
                s = summarize(values, metric)
                entry["metrics"][metric["name"]] = s
                ok &= s["spread_ok"] and s["held_out_ok"]
                unsteady += not s["steady"]
                bound = f"{s['bound']:.0%}" if s["bound"] is not None else "none"
                print(f"{workload:13s} {metric['name']:12s} median {s['median']:11.5g} "
                      f"spread {s['spread']:7.2%} (bound {bound}) "
                      f"held-out worse by {s['held_out_worse_by']:+7.2%}"
                      f"{'' if s['steady'] else '  NOT STEADY'}")
            print(f"{workload:13s} wall per run: median {statistics.median(r['wall_s'] for r in runs):.1f} s, "
                  f"max {max(r['wall_s'] for r in runs):.1f} s")
        traced = [run_once(workload, s, seconds, 1) for s in trace_seeds]
        if traced:
            calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
                     for r in traced]
            same = all(c == calls[0] for c in calls)
            ok &= same and all(r["correct"] for r in traced)
            entry["traced"] = traced
            entry["calls_identical"] = same
            print(f"{workload:13s} traced seeds {trace_seeds}: *.calls identical: {same}")
        report["workloads"][workload] = entry

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"report: {path}; {'all checks pass' if ok else 'SOME CHECKS FAIL'}; "
          f"{unsteady} declared spread(s) at a third of the bound or more")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
