import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_incomplete_protocol
from wotsim import cli
from wotsim.catalog import build_cks, build_mixture, build_trivial
from wotsim.cli import main
from wotsim.errors import MAX_SWEEP_SIZE
from wotsim.protocol import spec_to_dict


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "wotsim", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_analyze_cks(capsys):
    code = main(["analyze", "cks"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["alice_bound"] == pytest.approx(0.5, abs=1e-9)
    assert payload["bob_bound"] == pytest.approx(0.75, abs=1e-6)
    assert set(payload) == {
        "spec_name", "delta", "f", "alice_bound", "bob_bound",
        "bob_sim_s0", "bob_sim_s1", "theorem1_lhs",
    }


def test_analyze_trivial(capsys):
    code = main(["analyze", "trivial"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["alice_bound"] == 1.0
    assert payload["bob_bound"] == 0.5
    assert payload["theorem1_lhs"] == 2.0


def test_analyze_csv_format(capsys):
    code = main(["analyze", "trivial", "--format", "csv"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].split(",")[0] == "alice_bound"
    assert len(out) == 2


def test_analyze_json_file(tmp_path, capsys):
    path = tmp_path / "exported.json"
    path.write_text(json.dumps(spec_to_dict(build_cks())))
    code = main(["analyze", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["bob_bound"] == pytest.approx(0.75, abs=1e-6)


def test_analyze_mixture_file(tmp_path, capsys):
    # the coin-flip mixture at lam = 1/4 lands on combined_bounds
    path = tmp_path / "mixture.json"
    path.write_text(json.dumps(spec_to_dict(build_mixture(0.25))))
    code = main(["analyze", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (payload["alice_bound"], payload["bob_bound"]) == pytest.approx((0.625, 0.6875),
                                                                           abs=1e-12)


def test_analyze_missing_file():
    assert main(["analyze", "missing.json"]) == 2


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2
    path.write_text(json.dumps({"name": "x", "factors": []}))
    assert main(["analyze", str(path)]) == 2
    # an integer entry beyond float range is an input error, not a crash
    data = spec_to_dict(build_cks())
    data["rounds"][1]["matrix"][0][0][0] = 10**400
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    # nesting past the decoder's recursion limit, at the top and in one matrix
    data["rounds"][1]["matrix"] = "deep"
    for text in ("[" * 100_000, json.dumps(data).replace('"deep"', "[" * 100_000)):
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: malformed protocol JSON")


def test_analyze_invalid_spec_exits_3(tmp_path):
    data = spec_to_dict(build_incomplete_protocol())
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 3

    # structurally broken: non-unitary round
    bad = spec_to_dict(build_incomplete_protocol())
    bad["rounds"][0]["matrix"][0][0] = [2.0, 0.0]
    path.write_text(json.dumps(bad))
    assert main(["analyze", str(path)]) == 3


# A protocol file that decodes but breaks a structural invariant: the cks
# wire structure with one node replaced, by its path
@pytest.mark.parametrize("path, value", [
    (("rounds", 0, "actor"), "Eve"),                 # unknown round actor
    (("factors", 0, "owner"), "Bob"),                # no Alice-owned factor
    (("factors", 2, "dim"), 3),                      # input register X0 of dim 3
    (("factors", 1, "owner"), "Alice"),              # a send with no Message factor
    (("alice_output", 0), spec_to_dict(build_trivial())["alice_output"][0]),  # dim 8, not 9
], ids=["actor", "no-alice", "input-dim", "no-message", "output-dim"])
def test_analyze_structurally_broken_spec_exits_3(tmp_path, capsys, path, value):
    data = spec_to_dict(build_cks())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    file = tmp_path / "broken.json"
    file.write_text(json.dumps(data))
    assert main(["analyze", str(file)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_analyze_non_finite_entry_exits_3(tmp_path):
    data = spec_to_dict(build_cks())
    data["rounds"][1]["matrix"][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 3


def test_analyze_layout_beyond_cap_exits_3(tmp_path, capsys):
    data = spec_to_dict(build_cks())
    data["factors"].append({"name": "B", "dim": 1_000_000, "owner": "Bob"})
    data["rounds"] = []
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 3
    assert "MAX_LAYOUT_DIM" in capsys.readouterr().err


def _node_paths(node, path=()):
    """The path of every node of a JSON structure, the root's first."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _node_paths(child, path + (key,))


# The cks wire structure's node paths by depth: drawing the depth first
# reaches the matrix entries (depth 5 and 6) as often as the top-level keys.
_CKS_TEXT = json.dumps(spec_to_dict(build_cks()))
_PATHS_BY_DEPTH: dict[int, list] = {}
for _path in _node_paths(json.loads(_CKS_TEXT)):
    _PATHS_BY_DEPTH.setdefault(len(_path), []).append(_path)

# Values a mutated node may take: one of every JSON type, and numbers
# beyond float range or not finite.
_RETYPED = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                     st.text(max_size=3), st.sampled_from([[], {}, [0.0, 0.0]]))
_EXTREME = st.sampled_from([10**400, -10**400, 2**64, float("nan"), float("inf")])


@st.composite
def _mutated_cks(draw):
    """The cks wire structure with one node mutated: its type changed, a key
    deleted, a list truncated, or set to an extreme number."""
    doc = {"root": json.loads(_CKS_TEXT)}
    path = ("root",) + draw(st.sampled_from(_PATHS_BY_DEPTH[
        draw(st.sampled_from(sorted(_PATHS_BY_DEPTH)))]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    mutation = draw(st.sampled_from(["retype", "extreme", "shrink"]))
    if mutation == "shrink" and isinstance(node, dict) and node:
        del node[draw(st.sampled_from(sorted(node)))]
    elif mutation == "shrink" and isinstance(node, list) and node:
        del node[draw(st.integers(0, len(node) - 1)):]
    else:
        parent[path[-1]] = draw(_EXTREME if mutation == "extreme" else _RETYPED)
    return doc["root"]


@settings(max_examples=150, deadline=None)
@given(doc=_mutated_cks())
def test_analyze_survives_one_mutated_node(tmp_path_factory, doc):
    # a malformed file gets an exit code of 0-3, never an uncaught exception
    workdir = tmp_path_factory.getbasetemp()
    path = workdir / "mutated.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--out", str(workdir / "report.json")]) in (0, 1, 2, 3)


def test_builtin_name_resolves_before_path(tmp_path, monkeypatch, capsys):
    # a file literally named "cks" in cwd must not shadow the builtin
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cks").write_text("garbage")
    assert main(["analyze", "cks"]) == 0
    capsys.readouterr()


def test_curve_rows(capsys):
    code = main(["curve", "--epsilon", "0", "--points", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "lambda,epsilon,p_bob,p_alice,combined"
    assert out[1] == "0,0,0.75,0.5,2"
    assert out[2] == "0.5,0,0.625,0.75,2"
    assert out[3] == "1,0,0.5,1,2"


def test_curve_epsilon_slack(capsys):
    code = main(["curve", "--epsilon", "0.04", "--points", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    for line in out[1:]:
        assert abs(float(line.split(",")[-1]) - 2.04) < 1e-12


def test_curve_rejects_single_point(capsys):
    # and a non-finite bias, a precision past the float range and a size past
    # the cap, each with an error line and no traceback
    for argv in (["--points", "1"], ["--points", "2", "--epsilon", "nan"],
                 ["--points", "2", "--epsilon", "inf"],
                 ["--points", "3", "--dyadic-bits", "2000"],
                 ["--points", str(MAX_SWEEP_SIZE + 1)]):
        assert main(["curve", *argv]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_robustness_rows(capsys):
    code = main(["robustness", "--delta-min", "0", "--delta-max", "0.05", "--steps", "6"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "delta,p3,lambda_star,max_cheat"
    first = out[1].split(",")
    assert float(first[1]) == pytest.approx(0.5)
    assert float(first[2]) == pytest.approx(1 / 3, abs=1e-9)
    assert float(first[3]) == pytest.approx(2 / 3, abs=1e-9)
    code = main(["robustness", "--delta-min", "0.01", "--delta-max", "0.01", "--steps", "1"])
    row_001 = capsys.readouterr().out.splitlines()[1].split(",")
    assert row_001[1] == "0.609498743711"  # 12 significant digits
    assert float(row_001[2]) == pytest.approx(0.2194, abs=1e-3)
    assert float(row_001[3]) == pytest.approx(0.6952, abs=1e-3)
    last = out[-1].split(",")
    assert float(last[2]) == 0.0 and float(last[3]) == 0.75


def test_robustness_oracle_column(capsys):
    code = main(["robustness", "--delta-min", "0", "--delta-max", "0.02",
                 "--steps", "2", "--oracle-grid", "60"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].endswith(",oracle_p3")
    for line in out[1:]:
        vals = line.split(",")
        assert float(vals[4]) <= float(vals[1]) + 1e-6


def test_robustness_range_errors(capsys):
    too_many = str(MAX_SWEEP_SIZE + 1)
    for argv in (["--delta-min", "0.2", "--delta-max", "0.1"],
                 ["--delta-min", "0", "--delta-max", "0.6"],
                 ["--steps", too_many], ["--steps", "1", "--oracle-grid", too_many]):
        assert main(["robustness", *argv]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_output_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["curve", "--points", "3", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("lambda,epsilon")


def test_output_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["robustness", "--steps", "5", "--out", str(a)])
    main(["robustness", "--steps", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_unknown_verb_exits_2():
    code, _, _ = run_cli("frobnicate")
    assert code == 2
    # the Monte Carlo verb is gone: build_mixture gives its completeness exactly
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--lambda", "0.5", "--trials", "500"])
    assert exc.value.code == 2


def test_curve_json_format(capsys):
    code = main(["curve", "--points", "2", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rows[0]["p_bob"] == 0.75 and rows[0]["p_alice"] == 0.5


def test_robustness_json_format(capsys):
    code = main(["robustness", "--steps", "2", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rows[0]["lambda_star"] == pytest.approx(1 / 3, abs=1e-9)


def test_verify_out_file(tmp_path):
    out = tmp_path / "verify.txt"
    code = main(["verify", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert out.read_text().strip().endswith("OK")


def test_verify_rejects_format_flag():
    code, _, err = run_cli("verify", "--seed", "7", "--format", "csv")
    assert code == 2
    assert "--format" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "cks", "--seed", "1"],
    ["curve", "--seed", "1"],
    ["robustness", "--seed", "1"],
])
def test_unread_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_one_process_builds_the_parser_once(monkeypatch, capsys, verify_seed_7_process):
    # analyze, a usage error and verify in one process give what each gives
    # in a fresh process, from one parser
    fresh = {("verify", "--seed", "7"): verify_seed_7_process}
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for argv in (["analyze", "cks"], ["verify", "--seed", "7", "--format", "csv"],
                 ["verify", "--seed", "7"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        expected = fresh[tuple(argv)] if tuple(argv) in fresh else run_cli(*argv)
        assert (code, out, err) == expected, argv
    assert len(built) == 1
