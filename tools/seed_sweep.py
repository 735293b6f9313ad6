"""Verify over many derived seeds: the worst range of every check.

    python3 tools/seed_sweep.py --seeds 1-10

For each seed ``s`` of ``--seeds`` (the syntax of ``perfbench/spread.py``)
and each ``k`` below :func:`per_seed` it runs every verify suite at the
derived seed ``(s * 1000003 + k) mod 2**31``, the seeds that the
benchmark's ``verify`` workload runs in that order.  It prints each
``FAIL`` line with its derived seed as it occurs, then, per check, the
lowest and highest value it measured over all derived seeds and how many
of them it failed at.
The exit code is 1 if any check failed, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))
from spread import parse_seeds  # noqa: E402
from wotsim import verification  # noqa: E402


def per_seed() -> int:
    """Derived seeds per seed: half again the most operations that any
    verify run recorded in the repository's ``BENCH_*.json`` files
    attempted, so that the sweep also covers a faster host's runs."""
    attempted = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        with open(path, encoding="utf-8") as fh:
            verify = json.load(fh)["workloads"].get("verify", {})
        attempted += [run["attempted"] for key in ("parent_runs", "change_runs")
                      for run in verify.get(key, ())]
    return math.ceil(1.5 * max(attempted))


def derived_seeds(seeds: list[int], count: int) -> list[int]:
    return [(s * 1_000_003 + k) % 2**31 for s in seeds for k in range(count)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)

    start = time.monotonic()
    # (suite, check) -> failed derived seeds, and the lowest and highest value
    # measured, for checks that measure one; np.minimum and np.maximum keep
    # a NaN, which also fails its check
    failures: dict[tuple[str, str], int] = {}
    spans: dict[tuple[str, str], tuple[float, float]] = {}
    derived = derived_seeds(parse_seeds(args.seeds), per_seed())
    for seed in derived:
        for suite, fn in verification.SUITES:
            for c in fn(seed):
                key = (suite, c.name)
                failures[key] = failures.get(key, 0) + (not c.ok)
                if c.span is not None:
                    lo, hi = spans.get(key, c.span)
                    spans[key] = (np.minimum(lo, c.span[0]), np.maximum(hi, c.span[1]))
                if not c.ok:
                    print(f"seed {seed}: FAIL {suite}: {c.name} ({c.detail})", flush=True)
    for key, bad in failures.items():
        span = "range [{:.4e}, {:.4e}]".format(*spans[key]) if key in spans else "no range"
        print(f"{key[0]}: {key[1]} {span}, failed at {bad} of {len(derived)}")
    failed = sum(failures.values())
    print(f"{len(derived)} derived seeds in {time.monotonic() - start:.0f} s: "
          + ("FAILED" if failed else "OK"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
