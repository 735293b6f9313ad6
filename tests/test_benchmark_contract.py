"""The benchmark's tracer (``perfbench/tracing.py``) rebinds wotsim functions
by name.  A rename in the package must fail here, in the test suite, rather
than in every traced benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_binds_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads  # noqa: F401  (imports the wotsim modules the workloads use)

    tracing.Tracer().prepare()
