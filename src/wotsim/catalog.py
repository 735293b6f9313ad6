"""Concrete protocol constructors and the coin-flip combination arithmetic.

Two extreme protocols are provided: ``build_cks`` (the qutrit protocol in
which Alice cannot cheat at all but Bob reaches 3/4) and ``build_trivial``
(Bob announces both bits; he cannot cheat, Alice cheats perfectly).  Mixing
them via an unbalanced weak coin flip interpolates between the two
endpoints.  ``build_mixture`` is that mixture as one protocol that the
engine analyses like any other; its coin is not ideal, since Alice's
preparation places it.  ``combined_bounds`` is the arithmetic of the
mixture over an ideal coin, which a cheater may bias by epsilon.

Every protocol here runs one schedule, which ``_assemble`` writes: Alice
prepares and sends the message, Bob applies a unitary controlled on his
inputs and sends it back, and Alice measures.  So each builder states only
Alice's two preparations, Bob's block for each input pair and Alice's
outcome-1 projectors.
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


def _householder(v) -> np.ndarray:
    """The real reflection I - w w^T / w_0, w = e_0 - v, of a real unit
    vector v, or a stack of them: a unitary whose first column is v (bit
    for bit where v_0 is 0 or at least 1/2), and I where v is e_0."""
    w = -np.asarray(v, dtype=float)
    w[..., 0] += 1.0
    w0 = w[..., :1]
    return np.eye(w.shape[-1]) - w[..., :, None] * (w / np.where(w0 == 0.0, 1.0, w0))[..., None, :]


def _assemble(name: str, factors: tuple[Factor, ...], prep, blocks, pos) -> ProtocolSpec:
    """The one schedule of every protocol here.  Alice applies
    ``prep[..., a, :, :]`` to ``factors``' Alice and Message factors and
    sends the message; Bob applies ``blocks[..., x0, x1, :, :]`` to the
    factors he then holds before ``X0`` and ``X1``, which the layout
    appends, and sends it back; Alice's outcome 1 is ``pos[..., a, :, :]``.
    A leading family axis passes through."""
    n = blocks.shape[-1]
    # |i, x0, x1> -> sum_j blocks[x0, x1, j, i] |j, x0, x1>
    bob = np.where(np.eye(4, dtype=bool).reshape(2, 2, 1, 2, 2),
                   np.moveaxis(blocks, -2, -4)[..., None, None], 0)
    eye = np.eye(pos.shape[-1])
    return ProtocolSpec(
        name=name,
        layout=RegisterLayout(factors + (Factor("X0", 2, BOB_INPUT), Factor("X1", 2, BOB_INPUT))),
        alice_prep=tuple(np.moveaxis(prep, -3, 0)),
        rounds=(Round(ALICE, np.eye(prep.shape[-1], dtype=complex), send=True),
                Round(BOB, bob.reshape(blocks.shape[:-4] + (4 * n, 4 * n)), send=True)),
        alice_output=tuple(TwoOutcomeMeasurement(p, eye - p) for p in np.moveaxis(pos, -3, 0)),
    )


_CKS_FACTORS = (Factor("A", 3, ALICE), Factor("M", 3, MESSAGE))
# (|aa> + |22>)/sqrt(2) on (A, M), one row per choice bit a: Alice prepares
# it, and her outcome 1 projects onto the row with the sign of |22> flipped.
_CKS_PAIRS = np.array([[1, 0, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0, 0, 0, 1]]) / math.sqrt(2.0)
_CKS_MINUS = _CKS_PAIRS * np.r_[np.ones(8), -1.0]
_CKS_POS = _CKS_MINUS[:, :, None] * _CKS_MINUS[:, None, :]
# Bob's phases on the message qutrit, [x0, x1]: |0> -> (-1)^x0 |0>,
# |1> -> (-1)^x1 |1>, |2> -> |2>.
_CKS_BLOCKS = np.array([[[1, 1, 1], [1, -1, 1]], [[-1, 1, 1], [-1, -1, 1]]])[..., None] * np.eye(3)
# Bob writes (x0, x1) into the message, |m> -> |m + 2 x0 + x1 mod 4>, and
# Alice's outcome 1 reads bit 1 - a of it: x0 for a = 0, x1 for a = 1.
_TRIVIAL_BLOCKS = np.array([[np.roll(np.eye(4), 2 * x0 + x1, axis=0) for x1 in (0, 1)]
                            for x0 in (0, 1)])
_TRIVIAL_POS = np.kron(np.eye(2), [np.diag(np.arange(4) >> (1 - a) & 1) for a in (0, 1)])


def build_cks() -> ProtocolSpec:
    """The qutrit protocol: Alice sends half of (|aa>+|22>)/sqrt(2), Bob
    flips signs according to his bits, Alice measures.

    Registry name ``"cks"``.  Alice cannot cheat (bound 1/2); Bob's bound
    is 3/4.
    """
    return _assemble("cks", _CKS_FACTORS, _householder(_CKS_PAIRS), _CKS_BLOCKS, _CKS_POS)


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
    c, s = math.cos(theta), math.sin(theta)
    rotation = np.array([[c, -s], [s, c]])
    powers = np.array([[np.linalg.matrix_power(rotation, x0 + x1) for x1 in (0, 1)]
                       for x0 in (0, 1)])
    # Bob holds (M, E): the cks phases on M and R^(x0 + x1) on E
    blocks = _CKS_BLOCKS[..., :, None, :, None] * powers[..., None, :, None, :]
    eye2 = np.eye(2)  # np.kron of a stack and a matrix is the stack of products
    return _assemble(f"leaky-{theta:.6g}", _CKS_FACTORS + (Factor("E", 2, MESSAGE),),
                     np.kron(_householder(_CKS_PAIRS), eye2), blocks.reshape(2, 2, 6, 6),
                     np.kron(_CKS_POS, eye2))


def build_trivial() -> ProtocolSpec:
    """The classical protocol in which Bob announces both bits.

    Registry name ``"trivial"``.  Bob cannot cheat (bound 1/2); Alice
    cheats perfectly.
    """
    return _assemble("trivial", (Factor("A", 2, ALICE), Factor("M", 4, MESSAGE)),
                     np.stack([np.eye(8)] * 2), _TRIVIAL_BLOCKS, _TRIVIAL_POS)


def build_mixture(lam) -> ProtocolSpec:
    """The coin-flip mixture of ``build_trivial`` (amplitude ``sqrt(lam)``) and
    ``build_cks`` (``sqrt(1 - lam)``) as one protocol on direct sums: ``A`` is
    2 (+) 3, ``M`` is 4 (+) 3, and each branch's preparation, round and output
    sit in its own block.  Bob's round also flips his ``C``, the factor
    after ``M``, on the qutrit branch, which decoheres the coin in Alice's
    view, so both attack bounds are those of ``combined_bounds`` at
    epsilon = 0.  The coin is not ideal: Alice's preparation places it, so
    a cheating Alice can send in the trivial block and learn both bits,
    and her optimum here is 1; the reported ``alice_bound`` is the value of
    the honest-then-Helstrom attack.  A 1-D array of ``lam`` gives the
    family spec.
    """
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1 or not np.all((lams >= 0.0) & (lams <= 1.0)):  # NaN fails too
        raise RangeError(f"lam must be a number or a 1-D array in [0, 1], got {lam}")
    # the (A, M) indices of the trivial block (A < 2, M < 4) and of the qutrit block
    branches = [np.add.outer(7 * np.arange(2), np.arange(4)).ravel(),
                np.add.outer(7 * np.arange(2, 5), np.arange(4, 7)).ravel()]
    # per choice bit, sqrt(lam) |0> + sqrt(1 - lam) |qutrit preparation>
    prepared = np.zeros(lams.shape + (2, 35))
    prepared[..., 0] = np.sqrt(lams)[..., None]
    prepared[..., branches[1]] = np.sqrt(1.0 - lams)[..., None, None] * _CKS_PAIRS
    # Bob holds (M, C): the trivial round, or the qutrit round and a flip of C
    bob = np.zeros((2, 2, 14, 14))
    bob[..., :8, :8] = np.kron(_TRIVIAL_BLOCKS, np.eye(2))
    bob[..., 8:, 8:] = np.kron(_CKS_BLOCKS, [[0, 1], [1, 0]])
    pos = np.zeros((2, 35, 35))
    for branch, p in zip(branches, (_TRIVIAL_POS, _CKS_POS)):
        pos[:, branch[:, None], branch] = p
    return _assemble("mixture-" + "-".join(f"{x:.6g}" for x in lams.ravel()),
                     (Factor("A", 5, ALICE), Factor("M", 7, MESSAGE), Factor("C", 2, BOB)),
                     _householder(prepared), bob, pos)


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
    seeds = np.asarray(seed)
    if seeds.size == 0:
        raise RangeError("random_complete_protocol needs at least one seed")
    normals = [np.random.default_rng(s).standard_normal((2, 2, 3, 3)) for s in seeds.ravel()]
    rots = haar_orthonormalize(np.stack(normals))
    r_alice, r_msg = np.moveaxis(rots.reshape(seeds.shape + (2, 3, 3)), -3, 0)
    # g is r_alice (x) r_msg per member; [..., None, :, :] makes room for the choice bit
    g = (r_alice[..., :, None, :, None] * r_msg[..., None, :, None, :]).reshape(*seeds.shape, 9, 9)
    return _assemble("cks-rotated-" + "-".join(str(s) for s in seeds.ravel()), _CKS_FACTORS,
                     np.kron(r_alice, np.eye(3))[..., None, :, :] @ _householder(_CKS_PAIRS),
                     r_msg[..., None, None, :, :] @ _CKS_BLOCKS,
                     g[..., None, :, :] @ _CKS_POS @ dagger(g)[..., None, :, :])


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

