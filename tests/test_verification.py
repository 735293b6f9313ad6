import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import wotsim.verification as verification
from wotsim import attacks, catalog, oracle
from wotsim.cli import main
from wotsim.qcore import TOL_SPECTRAL, fidelity, helstrom


def test_run_all_green_and_deterministic(verify_seed_7):
    lines1, ok1 = verify_seed_7
    lines2, ok2 = verification.run_all(7)
    assert ok1 and ok2
    assert lines1 == lines2
    assert lines1[-1] == "OK"
    assert len(lines1) == len(verification.SUITES) + 1
    assert all(line.startswith("PASS") for line in lines1[:-1])


def test_mutation_is_caught(monkeypatch, tmp_path):
    # squaring the fidelity breaks the trace-distance lower bound; the
    # self-checks must notice, name the failing suite and exit 1
    monkeypatch.setattr(verification, "fidelity", lambda rho, xi: fidelity(rho, xi) ** 2)
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", "0", "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert lines[-1] == "FAILED"
    # each failing line carries the measured range, which shows the slack
    fvdg = [line for line in lines if line.startswith("FAIL qcore.fuchs_van_de_graaf")]
    assert fvdg
    for line in fvdg:
        match = re.fullmatch(r"FAIL qcore\.fuchs_van_de_graaf: \w+ \(range \[(\S+), (\S+)\]\)",
                             line)
        assert match, line
        lo, hi = map(float, match.groups())
        assert lo <= hi and hi > TOL_SPECTRAL, line


def _nan_success(rho, xi):
    meas, success = helstrom(rho, xi)
    return meas, success * np.nan


def _nan_fidelities(rf, kernel=attacks._pair_kernel):
    fidelities, realign = kernel(rf)
    return fidelities * np.nan, realign


# Each primitive patched to return NaN, and the checks that must then fail:
# a worst-value fold with Python's max or min drops a NaN and passes.  The
# f case patches both routes to f: ``f_quantity``, which the inequality
# chain calls on random families, and the pair kernel, from which
# ``cheat_report`` takes f together with the Uhlmann blocks.
_NAN_CASES = {
    "fidelity": ([(verification, "fidelity", lambda rho, xi: fidelity(rho, xi) * np.nan)], {
        verification.suite_fuchs_van_de_graaf: {"lower_inequality", "upper_inequality"},
        verification.suite_purified_attack: {"simulation_matches_closed_form"},
    }),
    "f_quantity": ([(attacks, "f_quantity", lambda rf, f=attacks.f_quantity: f(rf) * np.nan),
                    (attacks, "_pair_kernel", _nan_fidelities)], {
        verification.suite_inequality_chain: {
            "f_plus_delta_at_least_4", "local_rotations_preserve_quantities"},
    }),
    "helstrom": ([(verification, "helstrom", _nan_success)], {
        verification.suite_helstrom: {"matches_guess_prob"},
    }),
    "combined_bounds": ([(catalog, "combined_bounds",
                          lambda wcf, cb=catalog.combined_bounds:
                          dataclasses.replace(cb(wcf), combined=np.nan))], {
        verification.suite_catalog: {"combined_on_line"},
    }),
}


@pytest.mark.parametrize("case", sorted(_NAN_CASES))
def test_nan_fails_the_check(monkeypatch, case):
    patches, expected = _NAN_CASES[case]
    for module, attr, patched in patches:
        monkeypatch.setattr(module, attr, patched)
    for suite, names in expected.items():
        checks = {c.name: c for c in suite(7)}
        assert names <= checks.keys()
        for name in names:
            assert not checks[name].ok, (name, checks[name].detail)
            assert "nan" in checks[name].detail, (name, checks[name].detail)


def _failed_checks(lines: list[str]) -> set[str]:
    """``<suite>: <check>`` of each FAIL line; for a suite that raised, the
    check is ``raised <exception type>``."""
    return {re.match(r"FAIL (\S+: (raised \w+|\w+))", line).group(1)
            for line in lines if line.startswith("FAIL ")}


# Each bound map patched off its closed form, and the FAIL lines verify must
# then print.  Theorem 1 on the attacks is f + delta >= 4 through these two
# maps, and these are the checks that read them: Alice's map through the
# Helstrom simulation and the mixture's line, Bob's through cheat_report's
# check against the purified simulation, whose ConsistencyError fails the
# two suites that call cheat_report.
_BOUND_MAP_CASES = {
    "_alice_bound_of": (lambda d: 0.5 + d / 16.0, {
        "attacks.purified_attack: helstrom_attack_achieves_bound",
        "catalog.protocols: mixture_on_line"}),
    "_bob_bound_of": (lambda f: 0.5 + f / 32.0, {
        "attacks.inequality_chain: raised ConsistencyError",
        "catalog.protocols: raised ConsistencyError"}),
}


@pytest.mark.parametrize("case", sorted(_BOUND_MAP_CASES))
def test_wrong_bound_map_fails_verify(monkeypatch, tmp_path, case):
    wrong, failing = _BOUND_MAP_CASES[case]
    monkeypatch.setattr(attacks, case, wrong)
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", "7", "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert _failed_checks(lines) == failing
    assert all("disagrees with bound" in line for line in lines if "ConsistencyError" in line)
    assert lines[-1] == "FAILED"


def test_a_suite_that_raises_fails_by_name_and_the_rest_still_run(monkeypatch, tmp_path):
    # partial_trace keeping the complement of the named factors: its own
    # suite raises on mismatched shapes, the two suites that compare a
    # reduced state's fidelity with an Uhlmann overlap fail on their values,
    # and every suite still reports
    def keep_complement(state, layout, keep, _orig=verification.partial_trace):
        return _orig(state, layout, [n for n in layout.names if n not in set(keep)])

    monkeypatch.setattr(verification, "partial_trace", keep_complement)
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", "7", "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert _failed_checks(lines) == {"qcore.fidelity_uhlmann: uhlmann_attains_fidelity",
                                     "qcore.partial_trace: raised ValueError",
                                     "oracle.soundness: uhlmann_oracle_brackets"}
    assert [line.split()[1].removesuffix(":") for line in lines[:-1]] == [
        name for name, _ in verification.SUITES]
    assert lines[-1] == "FAILED"


def test_a_raising_suite_prints_one_line(monkeypatch):
    # the exception's message, its whitespace and line breaks folded
    def raises(seed):
        raise ValueError("first line\n  second line ")

    monkeypatch.setattr(verification, "SUITES", (("stub.raises", raises),
                                                  ("qcore.partial_trace",
                                                   verification.suite_partial_trace)))
    assert verification.run_all(7) == ([
        "FAIL stub.raises: raised ValueError: first line second line",
        "PASS qcore.partial_trace (2 checks)",
        "FAILED",
    ], False)


def test_every_failing_check_is_named(monkeypatch):
    def failing(seed):
        return [verification.Check("first", False, "slack -1"),
                verification.Check("holds", True),
                verification.Check("second", False)]

    monkeypatch.setattr(verification, "SUITES", (
        ("qcore.partial_trace", verification.suite_partial_trace),
        ("stub.failing", failing),
    ))
    lines, ok = verification.run_all(7)
    assert not ok
    assert lines == [
        "PASS qcore.partial_trace (2 checks)",
        "FAIL stub.failing: first (slack -1)",
        "FAIL stub.failing: second",
        "FAILED",
    ]


def test_suites_are_seed_sensitive():
    # different seeds draw different instances yet still pass
    _, ok_a = verification.run_all(1)
    _, ok_b = verification.run_all(2)
    assert ok_a and ok_b


@pytest.mark.parametrize("suite, sampler, per_instance, instances", [
    (verification.suite_fuchs_van_de_graaf, "random_density", 2, 500),
    (verification.suite_trace_norm, "haar_unitary", 2, 200),
    (verification.suite_inequality_chain, "random_density", 8, 500),
])
def test_sampled_suites_evaluate_their_instance_counts(monkeypatch, suite, sampler,
                                                       per_instance, instances):
    # count the matrices each sampled suite draws: a density pair, a pair of
    # unitaries, a family of eight densities per instance
    drawn = []
    orig = getattr(verification, sampler)

    def counted(*args, **kwargs):
        out = orig(*args, **kwargs)
        drawn.append(math.prod(np.shape(getattr(out, "mat", out))[:-2]))
        return out

    monkeypatch.setattr(verification, sampler, counted)
    assert all(check.ok for check in suite(7))
    assert sum(drawn) >= per_instance * instances


def test_oracle_suite_orthonormalises_its_preparations_at_once(qr_shapes):
    # the 300 preparations draw their ancilla normals in the loop and share
    # one QR; the only other QRs are the oracles' own, on 2x2 samples: each
    # bracket scores its 20 pairs against one set of samples, 500 + 1000 in
    # all, not 20 sets
    assert all(check.ok for check in verification.suite_oracle(7))
    assert [shape for shape in qr_shapes if shape[-1] == 3] == [(300, 3, 3, 3)]
    assert {shape[-2:] for shape in qr_shapes} == {(3, 3), (2, 2)}
    assert sum(math.prod(shape[:-2]) for shape in qr_shapes if shape[-1] == 2) <= 1600


def test_grid_search_without_a_feasible_candidate_fails_verify(monkeypatch, tmp_path):
    # a success function that never guesses x0 leaves the grid search no
    # feasible candidate: the oracle returns NaN, and verify names the check
    # and exits 1, not 2
    def never_x0(weights, ancillas, orig=oracle.cks_alice_success):
        success = orig(weights, ancillas)
        success[:, 0] = 0.0
        return success

    monkeypatch.setattr(oracle, "cks_alice_success", never_x0)
    assert math.isnan(oracle.cks_alice_oracle(0.01, 100))
    monkeypatch.setattr(verification, "SUITES", (("oracle.soundness", verification.suite_oracle),))
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", "7", "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert "FAIL oracle.soundness: grid_search_below_analytic_bound (range [nan, nan])" in lines
    assert lines[-1] == "FAILED"


def _peak_bytes(suite, seed: int) -> int:
    tracemalloc.start()
    try:
        suite(seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inequality_chain_peaks_below_the_oracle_suite():
    # the chain analyses its 100 rotated protocols as ten family specs of
    # ten; one family of all 100 would peak several times higher.  The
    # catalog suite builds each of its mixtures as its own spec for the same
    # reason
    verification.suite_inequality_chain(7)  # builds the cached base protocol
    oracle = _peak_bytes(verification.suite_oracle, 7)
    for suite in (verification.suite_inequality_chain, verification.suite_catalog):
        peak = _peak_bytes(suite, 7)
        assert peak <= oracle, (suite.__name__, peak, oracle)


@pytest.mark.parametrize("seed", [1000137, 28000163])
def test_oracle_suite_passes_where_500_unitaries_fell_short(seed):
    # with one oracle call per pair, the best of 500 Haar unitaries fell
    # 0.054 and 0.053 short of the fidelity at these seeds, past the
    # bracket's 0.05; the stacked draws must pass there too
    checks = verification.suite_oracle(seed)
    assert all(c.ok for c in checks), [(c.name, c.detail) for c in checks if not c.ok]
