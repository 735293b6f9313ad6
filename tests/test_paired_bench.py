"""The paired benchmark (``tools/paired_bench.py``) runs each side's
processes with a bytecode cache of their own, which they may write."""

import json
import os
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_each_side_gets_its_own_empty_pycache_prefix(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    import paired_bench

    caller = {"PATH": "/bin", "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": "/old"}
    envs = paired_bench.side_envs({"parent": "../p", "change": "."}, str(tmp_path), caller)
    assert sorted(envs) == ["change", "parent"]
    prefixes = [envs[name].pop("PYTHONPYCACHEPREFIX") for name in ("parent", "change")]
    assert len(set(prefixes)) == 2
    for prefix in prefixes:
        assert Path(prefix).parent == tmp_path
        assert os.listdir(prefix) == []
    # the caller's environment otherwise passes through, and is not changed
    assert envs["parent"] == envs["change"] == {"PATH": "/bin"}
    assert caller == {"PATH": "/bin", "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": "/old"}


def test_one_pair_has_no_parent_iqr(monkeypatch):
    # quantiles needs two values: a single pair reports its spread as null
    # and keeps the rest of its summary, so the BENCH file is still written
    monkeypatch.syspath_prepend(str(TOOLS))
    import paired_bench

    summary = paired_bench.paired([1.0], [0.9], "lower", 0.25)
    assert summary["parent_iqr"] is None
    assert summary["change_lower_pairs"] == 1 and summary["within_bound"]
    assert json.loads(json.dumps(summary))["parent_iqr"] is None
