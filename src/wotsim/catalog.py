"""Concrete protocol constructors and the coin-flip combination arithmetic.

Two extreme protocols are provided: ``build_cks`` (the qutrit protocol in
which Alice cannot cheat at all but Bob reaches 3/4) and ``build_trivial``
(Bob announces both bits; he cannot cheat, Alice cheats perfectly).  Mixing
them via an unbalanced weak coin flip interpolates between the two
endpoints.  ``build_mixture`` is that mixture as one protocol, with an ideal
coin, that the engine analyses like any other; ``combined_bounds`` is the
arithmetic of the same mixture, in which a cheater may bias the coin by
epsilon.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .protocol import ProtocolSpec, Round
from .qcore import (
    ALICE,
    BOB,
    BOB_INPUT,
    MESSAGE,
    Factor,
    RegisterLayout,
    TwoOutcomeMeasurement,
    dagger,
    haar_orthonormalize,
)

# Cheating probabilities of the two sub-protocols: (alice, bob).
TRIVIAL_POINT = (1.0, 0.5)
QUTRIT_POINT = (0.5, 0.75)

# The largest dyadic precision for which 2.0 ** bits is a finite float.
MAX_DYADIC_BITS = 1023


@dataclass(frozen=True)
class WCFPrimitive:
    """An ideal unbalanced weak coin flip.

    Honest outcome 0 occurs with probability ``lam`` (a dyadic rational,
    an integer over 2**dyadic_bits); a cheater can force outcome 0 with
    probability at most ``lam + epsilon`` and outcome 1 with at most
    ``1 - lam + epsilon``.
    """

    lam: float
    epsilon: float
    dyadic_bits: int = 20

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise RangeError(f"lam must be in [0, 1], got {self.lam}")
        if not 0.0 <= self.epsilon < math.inf:
            raise RangeError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 1 <= self.dyadic_bits <= MAX_DYADIC_BITS:
            raise RangeError(
                f"dyadic_bits must be in [1, {MAX_DYADIC_BITS}], got {self.dyadic_bits}")
        scaled = self.lam * 2.0 ** self.dyadic_bits
        if abs(scaled - round(scaled)) > 1e-9:
            raise RangeError(
                f"lam={self.lam} is not an integer over 2**{self.dyadic_bits}"
            )


@dataclass(frozen=True)
class TradeoffPoint:
    """Cheating bounds of the combined protocol at one (lam, epsilon)."""

    lam: float
    epsilon: float
    a_bound: float
    b_bound: float
    combined: float


def _qutrit_prep(a: int) -> np.ndarray:
    """Unitary on the two qutrits sending |00> to (|aa> + |22>)/sqrt(2)."""
    u = np.eye(9, dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    aa = 4 * a  # |00> -> 0, |11> -> 4
    if a == 0:
        # rotate in span{|00>, |22>}
        u[0, 0], u[8, 0] = s, s
        u[0, 8], u[8, 8] = -s, s
    else:
        # |00> -> (|11>+|22>)/sqrt2, |11> -> |00>, |22> -> (-|11>+|22>)/sqrt2
        u[:, 0] = 0.0
        u[aa, 0], u[8, 0] = s, s
        u[:, aa] = 0.0
        u[0, aa] = 1.0
        u[:, 8] = 0.0
        u[aa, 8], u[8, 8] = -s, s
    return u


def _qutrit_output(a: int) -> TwoOutcomeMeasurement:
    """Alice's final measurement: project onto (|aa> - |22>)/sqrt(2) for
    outcome 1, everything orthogonal for outcome 0."""
    minus = np.zeros(9, dtype=complex)
    minus[4 * a] = 1.0 / math.sqrt(2.0)
    minus[8] = -1.0 / math.sqrt(2.0)
    pos = np.outer(minus, minus.conj())
    return TwoOutcomeMeasurement(pos, np.eye(9) - pos)


def build_cks() -> ProtocolSpec:
    """The qutrit protocol: Alice sends half of (|aa>+|22>)/sqrt(2), Bob
    flips signs according to his bits, Alice measures.

    Registry name ``"cks"``.  Alice cannot cheat (bound 1/2); Bob's bound
    is 3/4.
    """
    layout = RegisterLayout((
        Factor("A", 3, ALICE),
        Factor("M", 3, MESSAGE),
        Factor("X0", 2, BOB_INPUT),
        Factor("X1", 2, BOB_INPUT),
    ))
    # Bob's phase on the message qutrit, controlled on (x0, x1):
    # |0> -> (-1)^x0 |0>, |1> -> (-1)^x1 |1>, |2> -> |2>.
    phases = np.ones((3, 2, 2))
    phases[0, 1, :] = -1.0
    phases[1, :, 1] = -1.0
    bob_unitary = np.diag(phases.reshape(-1)).astype(complex)
    rounds = (
        Round(ALICE, np.eye(9, dtype=complex), send=True),
        Round(BOB, bob_unitary, send=True),
    )
    return ProtocolSpec(
        name="cks",
        layout=layout,
        alice_prep=(_qutrit_prep(0), _qutrit_prep(1)),
        rounds=rounds,
        alice_output=(_qutrit_output(0), _qutrit_output(1)),
    )


@functools.cache
def _cks() -> ProtocolSpec:
    """The qutrit protocol, built and validated once per process."""
    return build_cks()


def build_leaky(theta: float) -> ProtocolSpec:
    """The qutrit protocol plus a Message qubit ``E`` that Bob rotates by
    R(theta)^(x0 + x1) before he sends it back.  Alice's output measures
    only the qutrits, so it is complete for every theta, and delta =
    4 sin(theta), f = 4 cos(theta): 2 P_bob + P_alice is above 2 strictly
    between ``cks`` at theta = 0 and Alice's bound 1 at pi/2."""
    base = build_cks()
    factors = base.layout.factors
    layout = RegisterLayout(factors[:2] + (Factor("E", 2, MESSAGE),) + factors[2:])
    c, s = math.cos(theta), math.sin(theta)
    rotation = np.array([[c, -s], [s, c]])
    powers = np.array([[np.linalg.matrix_power(rotation, x0 + x1) for x1 in (0, 1)]
                       for x0 in (0, 1)])
    phases = np.diagonal(base.rounds[1].unitary).reshape(3, 2, 2)
    eye2 = np.eye(2)
    # Bob holds (M, E, X0, X1): the cks phases on M and R^(x0 + x1) on E
    bob = np.einsum("mab,abef,mn,ac,bd->meabnfcd", phases, powers, np.eye(3), eye2, eye2)
    return ProtocolSpec(
        name=f"leaky-{theta:.6g}",
        layout=layout,
        alice_prep=tuple(np.kron(u, eye2) for u in base.alice_prep),
        rounds=(Round(ALICE, np.eye(18, dtype=complex), send=True),
                Round(BOB, bob.reshape(24, 24), send=True)),
        alice_output=tuple(TwoOutcomeMeasurement(np.kron(m.pos, eye2), np.kron(m.neg, eye2))
                           for m in base.alice_output),
    )


def build_trivial() -> ProtocolSpec:
    """The classical protocol in which Bob announces both bits.

    Registry name ``"trivial"``.  Bob cannot cheat (bound 1/2); Alice
    cheats perfectly.
    """
    layout = RegisterLayout((
        Factor("A", 2, ALICE),
        Factor("M", 4, MESSAGE),
        Factor("X0", 2, BOB_INPUT),
        Factor("X1", 2, BOB_INPUT),
    ))
    # Bob writes (x0, x1) into the message: |m> -> |m + 2*x0 + x1 mod 4>.
    bob = np.zeros((16, 16), dtype=complex)
    for m in range(4):
        for x0 in (0, 1):
            for x1 in (0, 1):
                col = (m * 2 + x0) * 2 + x1
                row = (((m + 2 * x0 + x1) % 4) * 2 + x0) * 2 + x1
                bob[row, col] = 1.0
    outputs = []
    for a in (0, 1):
        ones = [m for m in range(4) if (m >> (1 - a)) & 1]
        pos_m = np.zeros((4, 4), dtype=complex)
        for m in ones:
            pos_m[m, m] = 1.0
        pos = np.kron(np.eye(2), pos_m)
        outputs.append(TwoOutcomeMeasurement(pos, np.eye(8) - pos))
    rounds = (
        Round(ALICE, np.eye(8, dtype=complex), send=True),
        Round(BOB, bob, send=True),
    )
    return ProtocolSpec(
        name="trivial",
        layout=layout,
        alice_prep=(np.eye(8, dtype=complex), np.eye(8, dtype=complex)),
        rounds=rounds,
        alice_output=(outputs[0], outputs[1]),
    )


def build_mixture(lam) -> ProtocolSpec:
    """The coin-flip mixture of ``build_trivial`` (amplitude ``sqrt(lam)``) and
    ``build_cks`` (``sqrt(1 - lam)``) as one protocol on direct sums: ``A`` is
    2 (+) 3, ``M`` is 4 (+) 3, and each branch's preparation, round and output
    sit in its own block.  Bob's round also flips his ``C`` on the qutrit
    branch, which decoheres the coin in Alice's view, so both attack bounds
    are those of ``combined_bounds`` at epsilon = 0.  The coin is not ideal:
    Alice's preparation places it, so a cheating Alice can send in the
    trivial block and learn both bits, and her optimum here is 1; the
    reported ``alice_bound`` is the value of the honest-then-Helstrom
    attack.  A 1-D array of ``lam`` gives the family spec.
    """
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1 or not np.all((lams >= 0.0) & (lams <= 1.0)):  # NaN fails too
        raise RangeError(f"lam must be a number or a 1-D array in [0, 1], got {lam}")
    trivial, cks = build_trivial(), _cks()
    # the (A, M) indices of the trivial block (A < 2, M < 4) and of the qutrit block
    blocks = [np.add.outer(7 * np.arange(2), np.arange(4)).ravel(),
              np.add.outer(7 * np.arange(2, 5), np.arange(4, 7)).ravel()]
    # per choice bit, the Householder reflection I - w w^T (|w|^2 = 2) that
    # takes |0> to sqrt(lam) |0> + sqrt(1 - lam) |qutrit preparation>
    root = np.sqrt(lams)[..., None, None]
    w = np.zeros(lams.shape + (2, 35))
    w[..., :1] = np.sqrt(1.0 - root)
    w[..., blocks[1]] = -np.sqrt(1.0 + root) * np.stack([u[:, 0].real for u in cks.alice_prep])
    prep = np.eye(35) - w[..., :, None] * w[..., None, :]
    # Bob holds (M, X0, X1, C): the trivial round, or the qutrit round and a flip of C
    bob = np.zeros((56, 56), dtype=complex)
    bob[:32, :32] = np.kron(trivial.rounds[1].unitary, np.eye(2))
    bob[32:, 32:] = np.kron(cks.rounds[1].unitary, [[0, 1], [1, 0]])
    pos = np.zeros((2, 35, 35), dtype=complex)
    for block, spec in zip(blocks, (trivial, cks)):
        pos[:, block[:, None], block] = [m.pos for m in spec.alice_output]
    return ProtocolSpec(
        name="mixture-" + "-".join(f"{x:.6g}" for x in lams.ravel()),
        layout=RegisterLayout((Factor("A", 5, ALICE), Factor("M", 7, MESSAGE),
                               Factor("X0", 2, BOB_INPUT), Factor("X1", 2, BOB_INPUT),
                               Factor("C", 2, BOB))),
        alice_prep=(prep[..., 0, :, :], prep[..., 1, :, :]),
        rounds=(Round(ALICE, np.eye(35, dtype=complex), send=True), Round(BOB, bob, send=True)),
        alice_output=tuple(TwoOutcomeMeasurement(p, np.eye(35) - p) for p in pos),
    )


def random_complete_protocol(seed) -> ProtocolSpec:
    """The qutrit protocol dressed with seeded local rotations.

    A rotation on Alice's qutrit is folded into her preparation and an
    input-independent rotation on the message qutrit into Bob's round;
    the output measurements are conjugated to match, so completeness is
    preserved by construction and (delta, f) are unchanged.  A 1-D array
    of seeds gives the family spec of those protocols; each member draws
    from its own ``default_rng(seed)`` the normals that ``haar_unitary(3,
    rng, 2)`` would, and one QR orthonormalises the whole family.
    """
    base, seeds = _cks(), np.asarray(seed)
    if seeds.size == 0:
        raise RangeError("random_complete_protocol needs at least one seed")
    normals = [np.random.default_rng(s).standard_normal((2, 2, 3, 3)) for s in seeds.ravel()]
    rots = haar_orthonormalize(np.stack(normals))
    r_alice, r_msg = np.moveaxis(rots.reshape(seeds.shape + (2, 3, 3)), -3, 0)
    # np.kron of a stack and a matrix is the stack of products; g pairs members
    prep = tuple(np.kron(r_alice, np.eye(3)) @ u for u in base.alice_prep)
    bob_unitary = np.kron(r_msg, np.eye(4)) @ base.rounds[1].unitary
    g = (r_alice[..., :, None, :, None] * r_msg[..., None, :, None, :]).reshape(*seeds.shape, 9, 9)
    outputs = tuple(
        TwoOutcomeMeasurement(g @ m.pos @ dagger(g), g @ m.neg @ dagger(g))
        for m in base.alice_output
    )
    return ProtocolSpec(
        name="cks-rotated-" + "-".join(str(s) for s in seeds.ravel()),
        layout=base.layout,
        alice_prep=prep,
        rounds=(base.rounds[0], Round(BOB, bob_unitary, send=True)),
        alice_output=outputs,
    )


def dyadic_round(lam: float, bits: int) -> float:
    """Round to the nearest integer over 2**bits; ties round down."""
    if not 0.0 <= lam <= 1.0:
        raise RangeError(f"lam must be in [0, 1], got {lam}")
    if not 1 <= bits <= MAX_DYADIC_BITS:
        raise RangeError(f"bits must be in [1, {MAX_DYADIC_BITS}], got {bits}")
    scale = 2.0 ** bits
    k = math.ceil(lam * scale - 0.5)
    k = min(max(k, 0), int(scale))
    return k / scale


def combined_bounds(wcf: WCFPrimitive) -> TradeoffPoint:
    """Cheating bounds of the coin-flip combination of the two extremes.

    A cheater biases the coin toward the sub-protocol favoring them (at most
    lam + epsilon toward the trivial branch, 1 - lam + epsilon toward the
    qutrit branch) and then plays that sub-protocol's optimal cheat.  The
    linear upper-bound arithmetic is kept exact so every point sits on the
    line 2 b + a = 2 + epsilon; for epsilon large enough to push a branch
    weight past 1 the bounds become vacuous (> 1) rather than clamped,
    since clamping would pull endpoint rows off the line.
    """
    force_trivial = wcf.lam + wcf.epsilon
    a_bound = force_trivial * TRIVIAL_POINT[0] + (1.0 - force_trivial) * QUTRIT_POINT[0]
    force_qutrit = 1.0 - wcf.lam + wcf.epsilon
    b_bound = force_qutrit * QUTRIT_POINT[1] + (1.0 - force_qutrit) * TRIVIAL_POINT[1]
    return TradeoffPoint(
        lam=wcf.lam,
        epsilon=wcf.epsilon,
        a_bound=a_bound,
        b_bound=b_bound,
        combined=2.0 * b_bound + a_bound,
    )

