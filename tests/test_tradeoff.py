import math

import numpy as np
import pytest

from wotsim.errors import MAX_SWEEP_SIZE, RangeError
from wotsim.tradeoff import curve, delta_star, prop3_bound, prop3_tight, tune_lambda


def test_prop3_bound_values():
    assert prop3_bound(0.0) == 0.5
    assert prop3_bound(0.01) == pytest.approx(0.5 + math.sqrt(0.0099) + 0.01, abs=1e-12)
    assert prop3_bound(0.01) == pytest.approx(0.609499, abs=1e-6)
    assert prop3_bound(0.5) == 1.0  # 3/2 clamped


def test_prop3_bound_range():
    with pytest.raises(RangeError):
        prop3_bound(-0.01)
    with pytest.raises(RangeError):
        prop3_bound(0.51)


def test_prop3_bound_monotone():
    grid = np.linspace(0.0, 0.5, 1000)
    vals = [prop3_bound(float(d)) for d in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_prop3_tight_values():
    assert prop3_tight(0.0) == 0.5
    assert prop3_tight(0.01) == pytest.approx(0.5 + math.sqrt(0.0099), abs=1e-12)
    assert prop3_tight(0.5) == 1.0


def test_prop3_tight_range():
    with pytest.raises(RangeError):
        prop3_tight(-0.01)
    with pytest.raises(RangeError):
        prop3_tight(0.51)


def test_prop3_bound_exceeds_tight_by_delta():
    # below the clamp (near 0.146) the paper's bound is the optimum plus delta
    for d in np.linspace(0.0, 0.14, 141):
        d = float(d)
        assert prop3_bound(d) - prop3_tight(d) == pytest.approx(d, abs=1e-12)


def test_delta_star():
    ds = delta_star()
    assert ds == pytest.approx(0.0443, abs=5e-4)
    # defining equation: p3(ds) = 3/4, i.e. the root of 2d^2 - 1.5d + 1/16
    assert prop3_bound(ds) == pytest.approx(0.75, abs=1e-9)
    assert 2 * ds**2 - 1.5 * ds + 1 / 16 == pytest.approx(0.0, abs=1e-12)
    assert tune_lambda(ds, 0.0).lambda_star == pytest.approx(0.0, abs=1e-6)


def test_tune_lambda_paper_point():
    pt = tune_lambda(0.01, 0.0)
    assert pt.lambda_star == pytest.approx(0.2194, abs=1e-3)
    assert pt.max_cheat == pytest.approx(0.6952, abs=1e-3)
    # the equalizer balances both parties
    alice_side = pt.lambda_star + (1 - pt.lambda_star) * pt.p3
    bob_side = 0.75 - pt.lambda_star / 4
    assert alice_side == pytest.approx(bob_side, abs=1e-12)


def test_tune_lambda_endpoints():
    pt = tune_lambda(0.0, 0.0)
    assert pt.lambda_star == pytest.approx(1 / 3, abs=1e-12)
    assert pt.max_cheat == pytest.approx(2 / 3, abs=1e-12)
    pt = tune_lambda(0.05, 0.0)
    assert pt.lambda_star == 0.0
    assert pt.max_cheat == 0.75


def test_tune_lambda_epsilon_slack():
    base = tune_lambda(0.01, 0.0)
    slacked = tune_lambda(0.01, 0.02)
    assert slacked.lambda_star == base.lambda_star
    assert slacked.max_cheat == pytest.approx(base.max_cheat + 0.01, abs=1e-12)
    for epsilon in (-0.5, math.nan, math.inf):
        with pytest.raises(RangeError):
            tune_lambda(0.01, epsilon)


def test_tune_lambda_monotone_and_continuous():
    def max_jump(n):
        deltas = np.linspace(0.0, delta_star(), n)
        vals = [tune_lambda(float(d), 0.0).max_cheat for d in deltas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        return vals, float(np.abs(np.diff(vals)).max())

    vals, coarse = max_jump(200)
    assert vals[0] == pytest.approx(2 / 3, abs=1e-12)
    assert vals[-1] == pytest.approx(0.75, abs=1e-6)
    # continuity: the largest step (at the sqrt cusp near zero) shrinks
    # under grid refinement
    _, fine = max_jump(800)
    assert coarse < 5e-3
    assert fine < 0.6 * coarse


def test_robustness_point_ranges():
    for d in np.linspace(0.0, 0.5, 21):
        pt = tune_lambda(float(d), 0.0)
        assert 0.5 <= pt.p3 <= 1.0
        assert 0.0 <= pt.lambda_star <= 1.0
        assert 0.5 <= pt.max_cheat <= 0.75
        assert pt.delta == d


def test_curve_three_points():
    pts = curve(0.0, 3)
    expected = [(0.0, 0.75, 0.5), (0.5, 0.625, 0.75), (1.0, 0.5, 1.0)]
    for pt, (lam, b, a) in zip(pts, expected):
        assert pt.lam == lam
        assert pt.b_bound == pytest.approx(b, abs=1e-12)
        assert pt.a_bound == pytest.approx(a, abs=1e-12)
        assert pt.combined == pytest.approx(2.0, abs=1e-12)


def test_curve_epsilon_slack_line():
    for pt in curve(0.04, 7):
        assert pt.combined == pytest.approx(2.04, abs=1e-12)


def test_curve_two_points_are_the_extremes():
    pts = curve(0.0, 2)
    assert (pts[0].b_bound, pts[0].a_bound) == (0.75, 0.5)
    assert (pts[1].b_bound, pts[1].a_bound) == (0.5, 1.0)


def test_curve_lambda_ascending_and_dyadic():
    pts = curve(0.0, 9, dyadic_bits=6)
    lams = [pt.lam for pt in pts]
    assert lams == sorted(lams)
    assert all(float(l * 2**6).is_integer() for l in lams)


def test_curve_rejects_small_grid():
    for args in ((0.0, 1), (0.0, MAX_SWEEP_SIZE + 1), (math.nan, 2), (0.0, 3, 2000)):
        with pytest.raises(RangeError):
            curve(*args)
