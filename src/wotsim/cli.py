"""Command-line surface: analyze protocols, sweep the tradeoff curve and the
robustness grid, and run the verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure (including a
``ConsistencyError``: a simulated attack that disagrees with its closed-form
bound), 2 usage or input error, 3 protocol fails structural validation or
completeness.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import verification
from .attacks import cheat_report
from .catalog import build_cks, build_trivial
from .errors import (
    MAX_SWEEP_SIZE,
    CompletenessError,
    ConsistencyError,
    LayoutError,
    NotPSDError,
    RangeError,
    ShapeError,
    SpecError,
)
from .oracle import cks_alice_oracle
from .protocol import spec_from_dict
from .qcore import TOL_SPECTRAL
from .tradeoff import curve, tune_lambda

BUILTIN_PROTOCOLS = {"cks": build_cks, "trivial": build_trivial}


def _num(x: float) -> str:
    """12 significant digits, locale-independent."""
    return f"{x:.12g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _table_text(fmt: str, header: list[str], rows: list[list]) -> str:
    if fmt == "json":
        return _json_text([dict(zip(header, row)) for row in rows])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_num(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _resolve_protocol(name_or_path: str):
    if name_or_path in BUILTIN_PROTOCOLS:
        return BUILTIN_PROTOCOLS[name_or_path]()
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"unknown protocol and unreadable path: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nesting too deep
        raise ValueError(f"malformed protocol JSON: {exc}") from exc
    return spec_from_dict(data)


def cmd_analyze(args) -> int:
    spec = _resolve_protocol(args.protocol)
    report = cheat_report(spec)
    payload = dataclasses.asdict(report)
    keys = sorted(payload)
    text = (_json_text(payload) if args.format == "json"
            else _table_text("csv", keys, [[payload[k] for k in keys]]))
    _emit(text, args.out)
    return 0 if report.theorem1_lhs >= 2.0 - TOL_SPECTRAL else 1


def cmd_curve(args) -> int:
    points = curve(args.epsilon, args.points, args.dyadic_bits)
    header = ["lambda", "epsilon", "p_bob", "p_alice", "combined"]
    rows = [[p.lam, p.epsilon, p.b_bound, p.a_bound, p.combined] for p in points]
    _emit(_table_text(args.format, header, rows), args.out)
    return 0


def cmd_robustness(args) -> int:
    if not 0.0 <= args.delta_min <= args.delta_max <= 0.5:
        raise RangeError(
            f"need 0 <= delta-min <= delta-max <= 1/2, got [{args.delta_min}, {args.delta_max}]"
        )
    if not 1 <= args.steps <= MAX_SWEEP_SIZE:
        raise RangeError(f"steps must be in [1, {MAX_SWEEP_SIZE}], got {args.steps}")
    deltas = np.linspace(args.delta_min, args.delta_max, args.steps)
    header = ["delta", "p3", "lambda_star", "max_cheat"]
    if args.oracle_grid:
        header.append("oracle_p3")
    rows = []
    for d in deltas:
        pt = tune_lambda(float(d), 0.0)
        row = [pt.delta, pt.p3, pt.lambda_star, pt.max_cheat]
        if args.oracle_grid:
            row.append(cks_alice_oracle(float(d), args.oracle_grid))
        rows.append(row)
    _emit(_table_text(args.format, header, rows), args.out)
    return 0


def cmd_verify(args) -> int:
    lines, all_ok = verification.run_all(args.seed)
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wotsim",
        description="Cheating-probability analysis for quantum weak oblivious transfer",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, *, default_fmt=None):
        """The flags a verb reads: ``--out`` always and ``--format`` for those
        with a choice of output format."""
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if default_fmt:
            p.add_argument("--format", choices=("json", "csv"), default=default_fmt)

    p = sub.add_parser("analyze", help="cheating report for a protocol")
    p.add_argument("protocol", help="builtin name (cks, trivial) or JSON file path")
    common(p, default_fmt="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("curve", help="tradeoff curve over the mixing weight")
    p.add_argument("--epsilon", type=float, default=0.0, help="coin-flip bias")
    p.add_argument("--points", type=int, default=33, help="grid points (>= 2)")
    p.add_argument("--dyadic-bits", type=int, default=20)
    common(p, default_fmt="csv")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("robustness", help="sweep the certainty relaxation")
    p.add_argument("--delta-min", type=float, default=0.0)
    p.add_argument("--delta-max", type=float, default=0.05)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--oracle-grid", type=int, default=0,
                   help="add a grid-search cross-check column with this resolution")
    common(p, default_fmt="csv")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("verify", help="run the seeded self-check suites")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SpecError, CompletenessError, LayoutError, ShapeError, NotPSDError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RangeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
