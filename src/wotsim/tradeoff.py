"""The cheating tradeoff curve and its robustness under relaxed certainty.

``curve`` sweeps the coin-flip mixture between the two extreme protocols.
``prop3_bound`` is the paper's bound on what Alice gains in the qutrit
protocol if she only needs to learn her chosen bit with probability
1 - delta; ``prop3_tight`` is the exact optimum, which lies delta below it.
``tune_lambda`` re-balances the mixture against the paper's bound, and
``delta_star`` is where the re-balancing stops helping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import QUTRIT_POINT, TradeoffPoint, WCFPrimitive, combined_bounds, dyadic_round
from .errors import MAX_SWEEP_SIZE, RangeError


@dataclass(frozen=True)
class RobustnessPoint:
    """One row of the robustness sweep: the relaxation ``delta``, the
    resulting bound ``p3`` on guessing the other bit, the equalizing
    mixture weight, and the cheating probability at the equalizer."""

    delta: float
    p3: float
    lambda_star: float
    max_cheat: float


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta <= 0.5:
        raise RangeError(f"delta must be in [0, 1/2], got {delta}")


def prop3_bound(delta: float) -> float:
    """Upper bound on guessing the unchosen bit in the qutrit protocol when
    the chosen bit need only be guessed with probability 1 - delta:
    min(1/2 + sqrt(delta (1 - delta)) + delta, 1)."""
    _check_delta(delta)
    return min(0.5 + math.sqrt(delta * (1.0 - delta)) + delta, 1.0)


def prop3_tight(delta: float) -> float:
    """The exact optimum that ``prop3_bound`` bounds: 1/2 + sqrt(delta (1 - delta)).

    A cheating preparation alpha |e0,0> + beta |e1,1> + gamma |e2,2> guesses
    the chosen bit with P(x0) = 1/2 + alpha gamma and the other bit with
    P(x1) = 1/2 + beta gamma, where alpha^2 + beta^2 + gamma^2 = 1.  On the
    binding boundary alpha gamma = 1/2 - delta, with t = gamma^2,
    (beta gamma)^2 = t - t^2 - (1/2 - delta)^2, which is largest at t = 1/2,
    where beta gamma = sqrt(delta (1 - delta)).  This is exactly delta below
    ``prop3_bound`` wherever that is not clamped, and it reaches 1 at
    delta = 1/2 without a clamp.
    """
    _check_delta(delta)
    return 0.5 + math.sqrt(delta * (1.0 - delta))


def delta_star() -> float:
    """The relaxation at which the qutrit protocol stops beating 3/4:
    the smaller root of 2 d^2 - (3/2) d + 1/16 = 0, about 0.0443."""
    return (3.0 - math.sqrt(7.0)) / 8.0


def tune_lambda(delta: float, epsilon: float) -> RobustnessPoint:
    """Re-balance the protocol mixture for a relaxed cheating-Alice.

    Solves lam + (1 - lam) p3(delta) = 3/4 - lam/4 for the weight that
    equalizes both parties' bounds at epsilon = 0, then adds the coin
    bias slack (epsilon/2 on Alice, epsilon/4 on Bob) and reports the
    larger slacked bound, Alice's.  Past ``delta_star()`` the equalizer hits
    lam = 0 and the answer is the plain qutrit protocol at 3/4.
    """
    if not 0.0 <= epsilon < math.inf:
        raise RangeError(f"epsilon must be finite and >= 0, got {epsilon}")
    p3 = prop3_bound(delta)
    if p3 >= QUTRIT_POINT[1]:
        lam, equalized = 0.0, QUTRIT_POINT[1]
    else:
        lam = (QUTRIT_POINT[1] - p3) / (1.25 - p3)
        equalized = QUTRIT_POINT[1] - lam / 4.0
    max_cheat = equalized + epsilon / 2.0
    return RobustnessPoint(delta=delta, p3=p3, lambda_star=lam, max_cheat=max_cheat)


def curve(epsilon: float, n_points: int, dyadic_bits: int = 20) -> list[TradeoffPoint]:
    """The tradeoff curve: combined-protocol bounds over a dyadically
    rounded mixture-weight grid from 0 to 1."""
    if not 2 <= n_points <= MAX_SWEEP_SIZE:
        raise RangeError(f"n_points must be in [2, {MAX_SWEEP_SIZE}], got {n_points}")
    points = []
    for i in range(n_points):
        lam = dyadic_round(i / (n_points - 1), dyadic_bits)
        points.append(combined_bounds(WCFPrimitive(lam, epsilon, dyadic_bits)))
    return points
