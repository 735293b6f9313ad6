"""Spans around the public functions of each wotsim layer, recorded from
outside the package.

``Tracer.install`` rebinds every traced name in every loaded ``wotsim``
module that holds it (``attacks`` imports ``all_final_states`` by name, the
package re-exports most functions), wraps ``DensityOp.__post_init__`` so that
each constructed density operator counts as one validation span, and swaps
``verification.SUITES`` for wrapped suite functions.  ``uninstall`` restores
the originals, so traced and untraced ops can alternate in one process.

Spans stay in memory as ``(name, start_ns, end_ns, parent, op)`` tuples and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
from time import perf_counter_ns

TRACED = {
    "cli": ("main",),
    "protocol": ("spec_from_dict", "all_final_states", "run_honest", "run_purified",
                 "reduce_alice", "validate_completeness"),
    "qcore": ("embed_operator", "partial_trace", "trace_norm", "fidelity", "helstrom",
              "uhlmann_unitary", "haar_unitary"),
    "attacks": ("cheat_report", "delta_quantity", "f_quantity", "bob_purified_attack",
                "controlled_realignment"),
    "oracle": ("helstrom_oracle", "uhlmann_oracle", "cks_alice_oracle"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Values recorded per span beside its times: computed output bytes, the
# protocol an honest run belongs to, and oracle sample counts.
EXTRAS = {
    "qcore.embed_operator": lambda a, k, r: 16 * r.size,
    "protocol.run_honest": lambda a, k, r: _arg(a, k, 0, "spec").name,
    "oracle.helstrom_oracle": lambda a, k, r: _arg(a, k, 2, "samples"),
    "oracle.uhlmann_oracle": lambda a, k, r: _arg(a, k, 3, "samples"),
}

HONEST_RUNS_PER_PROTOCOL = 8


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.extra: dict[int, object] = {}
        self.stack = [-1]
        self.op = -1
        self._bindings: list[tuple[object, str, object, object]] = []

    def _wrap(self, name, fn):
        spans, stack, extras = self.spans, self.stack, self.extra
        extra = EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.op)
            if extra is not None:
                extras[sid] = extra(args, kwargs, result)
            return result

        return traced

    def prepare(self):
        """Build the wrappers and the list of names to rebind."""
        import wotsim  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "wotsim" or n.startswith("wotsim.")]
        for layer, funcs in TRACED.items():
            home = sys.modules[f"wotsim.{layer}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._bindings.append((mod, attr, orig, wrapped))
        qcore = sys.modules["wotsim.qcore"]
        orig = qcore.DensityOp.__post_init__
        self._bindings.append(
            (qcore.DensityOp, "__post_init__", orig, self._wrap("qcore.DensityOp", orig)))
        verification = sys.modules["wotsim.verification"]
        suites = verification.SUITES
        wrapped = tuple((n, self._wrap(f"verification.{n}", fn)) for n, fn in suites)
        self._bindings.append((verification, "SUITES", suites, wrapped))

    def install(self, op: int):
        self.op = op
        for target, attr, _, wrapped in self._bindings:
            setattr(target, attr, wrapped)

    def uninstall(self):
        for target, attr, orig, _ in self._bindings:
            setattr(target, attr, orig)
        self.op = -1

    def write(self, path: str):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "names": names,
                "spans": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans],
                "extra": {str(k): v for k, v in self.extra.items()},
            }, fh)

    def per_op(self) -> dict[int, dict[str, dict]]:
        """Per op and span name: calls, self and inclusive ns, extras.

        A span's self time is its duration minus that of its direct
        children; calls are synchronous, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[int, dict[str, dict]] = {}
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            d = out.setdefault(op, {}).setdefault(
                name, {"calls": 0, "self_ns": 0, "incl_ns": 0, "extra": []})
            d["calls"] += 1
            d["self_ns"] += end - start - child_ns[sid]
            d["incl_ns"] += end - start
            if sid in self.extra:
                d["extra"].append(self.extra[sid])
        return out


def op_metrics(stats: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics of one op, from its per-name stats."""
    def get(name):
        return stats.get(name, {"calls": 0, "self_ns": 0, "incl_ns": 0, "extra": []})

    m: dict[str, float] = {"cli.self_ms": get("cli.main")["self_ns"] / 1e6}
    for layer, funcs in TRACED.items():
        for fname in funcs:
            d = get(f"{layer}.{fname}")
            m[f"{layer}.{fname}.calls"] = d["calls"]
            m[f"{layer}.{fname}.ms"] = d["self_ns"] / 1e6
    d = get("qcore.DensityOp")
    m["qcore.DensityOp.calls"] = d["calls"]
    m["qcore.DensityOp.ms"] = d["self_ns"] / 1e6
    m["qcore.embed_operator.bytes_computed"] = sum(get("qcore.embed_operator")["extra"])
    runs = get("protocol.run_honest")
    protocols = len(set(runs["extra"]))
    m["protocol.honest_run_waste"] = (
        runs["calls"] / (HONEST_RUNS_PER_PROTOCOL * protocols) if protocols else 0.0)
    for fname in ("helstrom_oracle", "uhlmann_oracle"):
        d = get(f"oracle.{fname}")
        m[f"oracle.{fname}.samples_per_s"] = (
            sum(d["extra"]) / (d["incl_ns"] / 1e9) if d["incl_ns"] else 0.0)
    for name, d in stats.items():
        if name.startswith("verification."):
            m[f"{name}.ms"] = d["self_ns"] / 1e6
            m[f"{name}.incl_ms"] = d["incl_ns"] / 1e6
    m["trace.spans_per_op"] = sum(d["calls"] for d in stats.values())
    return m


def median_metrics(per_op: list[dict[str, float]], suite_names) -> dict[str, float]:
    """Median over ops of every per-layer metric; a verification suite that
    did not run in an op counts as 0 there."""
    keys = set().union(*per_op) if per_op else set()
    keys |= {f"verification.{n}.{f}" for n in suite_names for f in ("ms", "incl_ms")}
    return {k: statistics.median(m.get(k, 0.0) for m in per_op) if per_op else 0.0
            for k in sorted(keys)}
