import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wotsim.attacks import cheat_report, delta_quantity, f_quantity
from wotsim.catalog import (
    MAX_DYADIC_BITS,
    QUTRIT_POINT,
    TRIVIAL_POINT,
    WCFPrimitive,
    build_cks,
    build_leaky,
    build_mixture,
    build_trivial,
    combined_bounds,
    dyadic_round,
    random_complete_protocol,
)
from wotsim.errors import RangeError, SpecError
from wotsim import catalog, protocol
from wotsim.protocol import run_honest, spec_from_dict, spec_to_dict, validate_completeness
from wotsim.qcore import TOL_SPECTRAL, haar_unitary


def test_cks_displayed_states_all_inputs():
    spec = build_cks()
    for a in (0, 1):
        for x0 in (0, 1):
            for x1 in (0, 1):
                sv = run_honest(spec, a, x0, x1)
                expected = np.zeros(36, dtype=complex)
                xa = x0 if a == 0 else x1
                col = x0 * 2 + x1
                expected[(4 * a) * 4 + col] = (-1.0) ** xa / np.sqrt(2)
                expected[8 * 4 + col] = 1.0 / np.sqrt(2)
                assert np.allclose(sv.amps, expected, atol=1e-9), (a, x0, x1)


def test_cks_report_endpoint():
    # the constant that combined_bounds mixes is the engine's report of cks
    rep = cheat_report(build_cks())
    assert QUTRIT_POINT == (0.5, 0.75)
    assert (rep.alice_bound, rep.bob_bound) == pytest.approx(QUTRIT_POINT, abs=1e-12)


def test_trivial_report_endpoint():
    rep = cheat_report(build_trivial())
    assert TRIVIAL_POINT == (1.0, 0.5)
    assert (rep.alice_bound, rep.bob_bound) == pytest.approx(TRIVIAL_POINT, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, np.pi / 2))
@example(theta=0.0)
@example(theta=np.pi / 2)
def test_leaky_protocol_matches_closed_form(theta):
    # a family off the two endpoints: a formula that agrees with the closed
    # form only at delta = 0 or f = 0 fails here
    rep = cheat_report(build_leaky(theta))
    sin, cos = np.sin(theta), np.cos(theta)
    assert abs(rep.delta - 4.0 * sin) <= 1e-12
    assert abs(rep.alice_bound - (0.5 + sin / 2.0)) <= 1e-12
    # the states are rank-deficient at theta = pi/2, so this also pins that
    # f picks up no roundoff from the directions outside their supports
    assert abs(rep.f - 4.0 * cos) <= 1e-12
    assert abs(rep.bob_bound - (0.5 + cos / 4.0)) <= 1e-12
    assert abs(rep.theorem1_lhs - (1.5 + (sin + cos) / 2.0)) <= 1e-12
    assert abs((rep.bob_sim_s0 + rep.bob_sim_s1) / 2.0 - rep.bob_bound) <= 1e-12


def test_random_complete_protocol_properties():
    rf0 = protocol._analyze(build_cks()).reduced
    base = (delta_quantity(rf0), f_quantity(rf0))
    for seed in (0, 1, 99):
        spec = random_complete_protocol(seed)
        assert validate_completeness(spec).passed
        rf = protocol._analyze(spec).reduced
        assert delta_quantity(rf) == pytest.approx(base[0], abs=TOL_SPECTRAL)
        assert f_quantity(rf) == pytest.approx(base[1], abs=TOL_SPECTRAL)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_random_complete_protocol_always_complete(seed):
    assert validate_completeness(random_complete_protocol(seed)).passed


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 64), eps=st.floats(0.0, 0.2), bits=st.just(6))
def test_combined_bounds_identity_property(k, eps, bits):
    pt = combined_bounds(WCFPrimitive(k / 64.0, eps, bits))
    assert pt.combined == pytest.approx(2.0 + eps, abs=1e-12)
    assert pt.a_bound >= 0.5 - 1e-12 and pt.b_bound >= 0.5 - 1e-12


def test_random_complete_protocol_deterministic():
    s1, s2 = random_complete_protocol(42), random_complete_protocol(42)
    for a in (0, 1):
        assert np.allclose(s1.alice_prep[a], s2.alice_prep[a])
    assert np.allclose(s1.rounds[1].unitary, s2.rounds[1].unitary)
    s3 = random_complete_protocol(43)
    assert not np.allclose(s1.rounds[1].unitary, s3.rounds[1].unitary)


# --- combination arithmetic ---------------------------------------------------

def test_combined_bounds_examples():
    pt = combined_bounds(WCFPrimitive(0.5, 0.0))
    assert (pt.a_bound, pt.b_bound) == pytest.approx((0.75, 0.625), abs=1e-12)
    pt = combined_bounds(WCFPrimitive(dyadic_round(1 / 3, 40), 0.0, 40))
    assert (pt.a_bound, pt.b_bound) == pytest.approx((2 / 3, 2 / 3), abs=1e-9)
    pt = combined_bounds(WCFPrimitive(0.0, 0.0))
    assert (pt.a_bound, pt.b_bound) == pytest.approx((0.5, 0.75), abs=1e-12)
    pt = combined_bounds(WCFPrimitive(1.0, 0.0))
    assert (pt.a_bound, pt.b_bound) == pytest.approx((1.0, 0.5), abs=1e-12)


def test_combined_bounds_on_line():
    for eps in (0.0, 0.01, 0.04):
        for k in range(17):
            pt = combined_bounds(WCFPrimitive(k / 16.0, eps, 4))
            assert pt.combined == pytest.approx(2.0 + eps, abs=1e-12)
            assert pt.a_bound == pytest.approx(0.5 + pt.lam / 2 + eps / 2, abs=1e-9)
            assert pt.b_bound == pytest.approx(0.75 - pt.lam / 4 + eps / 4, abs=1e-9)


def test_combined_bounds_ranges_after_clamping():
    for eps in (0.0, 0.01):
        for k in range(17):
            pt = combined_bounds(WCFPrimitive(k / 16.0, eps, 4))
            assert 0.5 <= min(max(pt.a_bound, 0.5), 1.0) <= 1.0
            assert 0.5 <= min(max(pt.b_bound, 0.5), 0.75) <= 0.75
            # unclamped values stay within the epsilon-slack envelope
            assert pt.a_bound <= 1.0 + eps / 2 + 1e-12
            assert pt.b_bound <= 0.75 + eps / 4 + 1e-12


def test_wcf_validation():
    with pytest.raises(RangeError):
        WCFPrimitive(1.5, 0.0)
    with pytest.raises(RangeError):
        WCFPrimitive(0.5, -0.1)
    with pytest.raises(RangeError):
        WCFPrimitive(1 / 3, 0.0)  # not dyadic
    for epsilon in (math.nan, math.inf):
        with pytest.raises(RangeError):
            WCFPrimitive(0.5, epsilon)
    with pytest.raises(RangeError):
        WCFPrimitive(0.5, 0.0, MAX_DYADIC_BITS + 1)  # 2.0 ** bits overflows
    WCFPrimitive(1 / 8, 0.0, 3)
    WCFPrimitive(0.5, 0.0, MAX_DYADIC_BITS)


def test_empty_family_is_rejected_with_a_typed_error():
    # a family axis of length 0 stops at the spec's family-axis check, and
    # no seed at all before any normals are stacked
    with pytest.raises(SpecError, match="nonempty leading family axis"):
        build_mixture(np.array([]))
    with pytest.raises(RangeError, match="at least one seed"):
        random_complete_protocol(np.array([], dtype=int))


# --- dyadic rounding -----------------------------------------------------------

def test_dyadic_round_values():
    assert dyadic_round(1 / 3, 20) == 349525 / 2**20
    assert abs(dyadic_round(1 / 3, 20) - 1 / 3) <= 2**-21
    assert dyadic_round(0.5, 1) == 0.5
    assert dyadic_round(0.0, 20) == 0.0
    assert dyadic_round(1.0, 5) == 1.0


def test_dyadic_round_ties_round_down():
    # 0.75 is exactly between 0.5 and 1.0 on a 1-bit grid
    assert dyadic_round(0.75, 1) == 0.5
    assert dyadic_round(3 / 8, 2) == 0.25


def test_dyadic_round_range_errors():
    with pytest.raises(RangeError):
        dyadic_round(1.2, 4)
    with pytest.raises(RangeError):
        dyadic_round(0.5, 0)
    with pytest.raises(RangeError):
        dyadic_round(0.5, MAX_DYADIC_BITS + 1)


# --- the coin-flip mixture on the engine ------------------------------------------

@settings(max_examples=30, deadline=None)
@given(k=st.integers(0, 2**20))
@example(k=0)
@example(k=2**20)
def test_mixture_is_on_the_line_at_combined_bounds(k):
    lam = k / 2**20
    rep = cheat_report(build_mixture(lam))
    pt = combined_bounds(WCFPrimitive(lam, 0.0, 20))
    assert abs(rep.delta - 4.0 * lam) <= 1e-12
    assert abs(rep.f - 4.0 * (1.0 - lam)) <= 1e-12
    assert abs(rep.theorem1_lhs - 2.0) <= 1e-12
    assert abs(rep.alice_bound - pt.a_bound) <= 1e-12
    assert abs(rep.bob_bound - pt.b_bound) <= 1e-12
    # complete: exactly what a Monte Carlo over sampled coins would estimate
    report = validate_completeness(build_mixture(lam))
    assert report.passed and not report.failures
    assert abs(report.min_output_prob - 1.0) <= 1e-12


def test_mixture_extreme_weights_are_the_endpoints():
    for lam, build in ((0.0, build_cks), (1.0, build_trivial)):
        mix, end = cheat_report(build_mixture(lam)), cheat_report(build())
        for field in dataclasses.fields(mix)[1:]:  # all but spec_name
            assert abs(getattr(mix, field.name) - getattr(end, field.name)) <= 1e-12, field.name


def test_mixture_layout_is_direct_sums():
    # A = 2 (+) 3, M = 4 (+) 3, then Bob's coin copy C, X0 and X1: dim 280
    assert build_mixture(0.25).layout.dims == (5, 7, 2, 2, 2)
    assert build_mixture(np.array([0.0, 0.5, 1.0])).name == "mixture-0-0.5-1"


@pytest.mark.parametrize("lam", [-0.25, 1.5, math.nan, math.inf, [0.5, math.nan],
                                 np.full((2, 2), 0.5)])
def test_mixture_rejects_weights_outside_the_unit_interval(lam):
    with pytest.raises(RangeError):
        build_mixture(lam)


def test_random_family_is_orthonormalised_by_one_qr(qr_shapes):
    # each seed draws its normals from its own generator; one QR follows
    random_complete_protocol(np.arange(10))
    assert qr_shapes == [(10, 2, 3, 3)]


# --- the one assembler: Bob's blocks and the wire format ------------------------

def _phases(x0, x1):
    return np.diag([(-1.0) ** x0, (-1.0) ** x1, 1.0])


def _shift(x0, x1):
    shift = np.zeros((4, 4))
    shift[(np.arange(4) + 2 * x0 + x1) % 4, np.arange(4)] = 1.0
    return shift


def _rotation_power(theta, k):
    c, s = math.cos(theta), math.sin(theta)
    return np.linalg.matrix_power(np.array([[c, -s], [s, c]]), k)


# each builder and Bob's block for inputs (x0, x1) on the factors he holds
# besides X0 and X1, written out independently of the catalog
BOB_BLOCKS = {
    "cks": (build_cks, _phases),
    "trivial": (build_trivial, _shift),
    "leaky": (lambda: build_leaky(0.3),
              lambda x0, x1: np.kron(_phases(x0, x1), _rotation_power(0.3, x0 + x1))),
    # (M, C) with M = 4 (+) 3: the shift on the trivial branch, the phases and
    # a flip of C on the qutrit branch
    "mixture": (lambda: build_mixture(0.25), lambda x0, x1: np.block([
        [np.kron(_shift(x0, x1), np.eye(2)), np.zeros((8, 6))],
        [np.zeros((6, 8)), np.kron(_phases(x0, x1), [[0, 1], [1, 0]])]])),
    # the rotation on the message is the second unitary of the seed's draw
    "random": (lambda: random_complete_protocol(5),
               lambda x0, x1: haar_unitary(3, np.random.default_rng(5), 2)[1] @ _phases(x0, x1)),
}


@pytest.mark.parametrize("name", BOB_BLOCKS)
def test_assembled_bob_round_and_wire_round_trip(name):
    build, block = BOB_BLOCKS[name]
    spec = build()
    # Bob holds his factors, then X0 and X1: the entry at (i, x0, x1), (j, x0, x1)
    # is block(x0, x1)[i, j], and every entry across two input pairs is 0
    n = spec.rounds[1].unitary.shape[-1] // 4
    reference = np.zeros((4 * n, 4 * n), dtype=complex)
    for x0, x1 in itertools.product((0, 1), repeat=2):
        reference[2 * x0 + x1::4, 2 * x0 + x1::4] = block(x0, x1)
    assert np.array_equal(spec.rounds[1].unitary, reference)
    again = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
    assert dataclasses.astuple(cheat_report(again)) == dataclasses.astuple(cheat_report(spec))


def test_plan_holds_the_blocks_the_assembler_was_given(monkeypatch):
    # the dense round _assemble writes is what the spec keeps; the compiled
    # plan reads Bob's blocks back off it bit for bit, on one protocol and
    # on families whose blocks are shared or stacked
    given = []

    def recorded(name, factors, prep, blocks, pos, _assemble=catalog._assemble):
        given.append(blocks)
        return _assemble(name, factors, prep, blocks, pos)

    monkeypatch.setattr(catalog, "_assemble", recorded)
    for build in (build_cks, build_trivial, lambda: build_leaky(0.3),
                  lambda: build_mixture(0.25), lambda: build_mixture(np.array([0.0, 0.5, 1.0])),
                  lambda: random_complete_protocol(5),
                  lambda: random_complete_protocol(np.arange(4))):
        given.clear()
        spec = build()
        blocks = np.asarray(given[0], dtype=complex)
        op, _, _ = spec._plan.steps[1]
        assert op.shape == blocks.shape, spec.name
        assert np.ascontiguousarray(op).tobytes() == blocks.tobytes(), spec.name
