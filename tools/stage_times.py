"""Per-stage timings of the analysis in two checkouts, interleaved per op.

    python3 tools/stage_times.py --parent ../parent/src --change src --count 2000

Each ``--parent``/``--change`` is a directory holding a ``wotsim`` package.
The two load in one process under names of their own (``wotsim_parent``,
``wotsim_change``), which the package's relative imports allow.  For every
stage and spec, one call of each side runs in turn, the side that goes first
alternating, ``--count`` times; the script prints each side's median in
microseconds and their ratio, change over parent.

The stages are the layers of one report: ``all_final_states`` (the
execution), ``_completeness``, the pair kernel, ``_purified_success`` and the
whole ``cheat_report``.  The pair kernel is ``attacks._pair_kernel``, the one
SVD of the four cross products.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
from time import perf_counter

import numpy as np


def load(src: str, name: str):
    """The ``wotsim`` package under ``src``, imported as ``name``."""
    pkg = os.path.join(os.path.abspath(src), "wotsim")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("attacks", "catalog", "protocol", "qcore")}


def specs(w) -> dict:
    """The catalog protocols and cks with a Bob register of dims 2 and 16,
    which adds x0 + x1 to the register, each built by the checkout."""
    cat = w["catalog"]

    def register(dim):
        shifts = np.array([[np.roll(np.eye(dim), x0 + x1, axis=0) for x1 in (0, 1)]
                           for x0 in (0, 1)])
        blocks = cat._CKS_BLOCKS[..., :, None, :, None] * shifts[..., None, :, None, :]
        return cat._assemble(f"register-{dim}", cat._CKS_FACTORS + (w["qcore"].Factor(
            "B", dim, w["qcore"].BOB),), cat._householder(cat._CKS_PAIRS),
            blocks.reshape(2, 2, 3 * dim, 3 * dim), cat._CKS_POS)

    return {"cks": cat.build_cks(), "trivial": cat.build_trivial(),
            "leaky-0.3": cat.build_leaky(0.3), "mixture-0.25": cat.build_mixture(0.25),
            "rotated-x10": cat.random_complete_protocol(np.arange(10)),
            "register-2": register(2), "register-16": register(16)}


def stages(w, spec) -> dict:
    """The calls to time on one spec, each with its inputs computed once."""
    att, proto = w["attacks"], w["protocol"]
    an = proto._analyze(spec)
    return {"all_final_states": lambda: proto.all_final_states(spec),
            "_completeness": lambda: proto._completeness(spec, an.reduced),
            "pair_kernel": lambda: att._pair_kernel(an.reduced),
            "_purified_success": lambda: att._purified_success(an),
            "cheat_report": lambda: att.cheat_report(spec)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="directory holding the parent's wotsim")
    p.add_argument("--change", required=True, help="directory holding the change's wotsim")
    p.add_argument("--count", type=int, default=2000, help="calls per side, stage and spec")
    args = p.parse_args(argv)
    sides = [load(args.parent, "wotsim_parent"), load(args.change, "wotsim_change")]
    built = [specs(w) for w in sides]
    print(f"{'stage':18s} {'spec':13s} {'parent_us':>10s} {'change_us':>10s} {'ratio':>6s}")
    for name in built[0]:
        calls = [stages(w, b[name]) for w, b in zip(sides, built)]
        for stage in calls[0]:
            times = ([], [])
            for i in range(args.count):
                for side in ((0, 1) if i % 2 else (1, 0)):
                    start = perf_counter()
                    calls[side][stage]()
                    times[side].append(perf_counter() - start)
            parent, change = (1e6 * statistics.median(t) for t in times)
            print(f"{stage:18s} {name:13s} {parent:10.1f} {change:10.1f} {change / parent:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
