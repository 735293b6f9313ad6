"""A protocol with two Message factors: both travel together on send."""

import json

import numpy as np
import pytest

from conftest import build_two_register_trivial
from wotsim.attacks import cheat_report
from wotsim.cli import main
from wotsim.protocol import run_honest, spec_to_dict, validate_completeness


def test_two_message_factors_travel_together():
    spec = build_two_register_trivial()
    assert spec.alice_end_factors == ("A", "M0", "M1")
    sv = run_honest(spec, 0, 1, 0)
    expected = np.zeros(32, dtype=complex)
    # A=0, M0=1, M1=0, X0=1, X1=0
    expected[((1 * 2 + 0) * 2 + 1) * 2 + 0] = 1.0
    assert np.allclose(sv.amps, expected)


def test_two_message_protocol_is_complete_and_extreme():
    spec = build_two_register_trivial()
    assert validate_completeness(spec).passed
    rep = cheat_report(spec)
    assert rep.alice_bound == pytest.approx(1.0, abs=1e-9)
    assert rep.bob_bound == pytest.approx(0.5, abs=1e-9)


def test_export_analyze_matches_builtin_byte_for_byte(tmp_path, capsys):
    path = tmp_path / "exported.json"
    from wotsim.catalog import build_cks

    path.write_text(json.dumps(spec_to_dict(build_cks())))
    assert main(["analyze", "cks"]) == 0
    builtin_out = capsys.readouterr().out
    assert main(["analyze", str(path)]) == 0
    file_out = capsys.readouterr().out
    assert builtin_out == file_out
