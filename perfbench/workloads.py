"""Workload inputs, the operation each workload times, and its correctness gate.

Importing this module imports numpy and wotsim; ``worker.py`` starts its
set-up clock before the import so that ``setup_s`` covers both.

Every workload is a closed loop with one client.  Inputs are derived from
the workload seed only; the program under test sees the generated protocol
files, protocol objects or verify seeds and nothing else.
"""

from __future__ import annotations

import json
import os
import numpy as np

from wotsim import attacks, catalog, cli, verification
from wotsim.protocol import ProtocolSpec, Round, spec_to_dict
from wotsim.qcore import ALICE, BOB, BOB_INPUT, MESSAGE, Factor, RegisterLayout

TOL = 1e-6
CKS_BOUNDS = (0.5, 0.75)
TRIVIAL_BOUNDS = (1.0, 0.5)

# analyze: each cycle of four ops runs one file of every kind, in a seeded
# order, so every seed gives the same latency mix and p50/p90 stay inside
# one kind's mode instead of jumping between kinds.
ANALYZE_KINDS = ("cks", "trivial", "cks-register", "rotated")
ROTATED_FILES = 8
# analyze-wide: Bob-register dims 8 and 16 give layout dims 288 and 576.
WIDE_REGISTER_DIMS = (8, 16)
WIDE_PAIRS = 3


def build_cks_with_register(dim: int, shift, name: str) -> ProtocolSpec:
    """The qutrit protocol plus a Bob-held register of the given dim.

    Bob's round phases the message as in ``build_cks`` and adds
    ``shift[x0][x1]`` (mod dim) to his register.  The register stays in a
    basis state on every honest run, so Alice's view and both bounds are
    those of ``cks``, while the purified attack needs a nontrivial Uhlmann
    block on the register.  With dim 2 and shift ``x0 xor x1`` this is the
    variant ``tests/conftest.py`` builds.
    """
    layout = RegisterLayout((
        Factor("A", 3, ALICE),
        Factor("M", 3, MESSAGE),
        Factor("B", dim, BOB),
        Factor("X0", 2, BOB_INPUT),
        Factor("X1", 2, BOB_INPUT),
    ))
    base = catalog.build_cks()
    size = 3 * dim * 4
    u = np.zeros((size, size), dtype=complex)
    phases = {0: lambda x0, x1: (-1.0) ** x0, 1: lambda x0, x1: (-1.0) ** x1,
              2: lambda x0, x1: 1.0}
    for m in range(3):
        for b in range(dim):
            for x0 in (0, 1):
                for x1 in (0, 1):
                    col = ((m * dim + b) * 2 + x0) * 2 + x1
                    row = ((m * dim + (b + shift[x0][x1]) % dim) * 2 + x0) * 2 + x1
                    u[row, col] = phases[m](x0, x1)
    return ProtocolSpec(
        name=name,
        layout=layout,
        alice_prep=base.alice_prep,
        rounds=(Round(ALICE, np.eye(9, dtype=complex), send=True),
                Round(BOB, u, send=True)),
        alice_output=base.alice_output,
    )


def _bounds_ok(report: dict, expected) -> bool:
    return (abs(report["alice_bound"] - expected[0]) <= TOL
            and abs(report["bob_bound"] - expected[1]) <= TOL
            and report["theorem1_lhs"] >= 2.0 - TOL)


class Analyze:
    """``wotsim analyze <file> --out <tmp>`` in process, over a seeded mix of
    protocol files written with ``spec_to_dict``."""

    name = "analyze"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.out_path = os.path.join(workdir, "report.json")
        specs = {
            "cks": [catalog.build_cks()],
            "trivial": [catalog.build_trivial()],
            "cks-register": [build_cks_with_register(
                2, [[0, 1], [1, 0]], "cks-with-bob-register")],
            "rotated": [catalog.random_complete_protocol(int(s))
                        for s in rng.integers(0, 2**31 - 1, ROTATED_FILES)],
        }
        self.files = {}
        for kind, group in specs.items():
            paths = []
            for i, spec in enumerate(group):
                path = os.path.join(workdir, f"{kind}-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(spec_to_dict(spec), fh)
                paths.append(path)
            self.files[kind] = paths
        self._rng = np.random.default_rng([seed, 2])
        self._order: list[str] = []
        self._cycle = 0

    def next_op(self):
        if not self._order:
            self._order = [ANALYZE_KINDS[i] for i in self._rng.permutation(len(ANALYZE_KINDS))]
            self._cycle += 1
        kind = self._order.pop()
        paths = self.files[kind]
        path = paths[self._cycle % len(paths)]
        return kind, path

    def run(self, path):
        return cli.main(["analyze", path, "--out", self.out_path])

    def check(self, kind, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        with open(self.out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        expected = TRIVIAL_BOUNDS if kind == "trivial" else CKS_BOUNDS
        if not _bounds_ok(report, expected):
            return f"{kind}: bounds {report['alice_bound']}, {report['bob_bound']}"
        return None


class AnalyzeWide:
    """``cheat_report`` in process on cks with a Bob register of dim 8 and
    of dim 16; one op analyses one spec of each size, so that its latency
    has one mode."""

    name = "analyze-wide"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.pairs = []
        for p in range(WIDE_PAIRS):
            pair = []
            for dim in WIDE_REGISTER_DIMS:
                shift = rng.integers(0, dim, size=(2, 2)).tolist()
                pair.append(build_cks_with_register(dim, shift, f"cks-register{dim}-{p}"))
            self.pairs.append(tuple(pair))
        self._count = 0

    def next_op(self):
        pair = self.pairs[self._count % len(self.pairs)]
        self._count += 1
        return "pair", pair

    def run(self, pair):
        return [attacks.cheat_report(spec) for spec in pair]

    def check(self, kind, reports) -> str | None:
        for rep in reports:
            if not _bounds_ok({"alice_bound": rep.alice_bound, "bob_bound": rep.bob_bound,
                               "theorem1_lhs": rep.theorem1_lhs}, CKS_BOUNDS):
                return f"{rep.spec_name}: bounds {rep.alice_bound}, {rep.bob_bound}"
        return None


class Verify:
    """``verification.run_all(seed_i)`` in process, one derived seed per op."""

    name = "verify"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self._count = 0

    def next_op(self):
        seed_i = (self.seed * 1_000_003 + self._count) % 2**31
        self._count += 1
        return "verify", seed_i

    def run(self, seed_i):
        return verification.run_all(seed_i)

    def check(self, kind, result) -> str | None:
        lines, all_ok = result
        bad = [line for line in lines[:-1] if not line.startswith("PASS ")]
        if not all_ok or lines[-1] != "OK" or bad:
            return "; ".join(bad) or lines[-1]
        return None


WORKLOADS = {cls.name: cls for cls in (Analyze, AnalyzeWide, Verify)}
