"""The two cheating strategies and the resulting security bounds.

Cheating Alice runs honestly, learns her chosen bit, then applies the optimal
(Helstrom) measurement to her reduced state to guess the other bit.  Cheating
Bob runs his honest strategies in superposition over both input registers,
applies a controlled unitary built from Uhlmann unitaries, and measures one
input register in the +/- basis to estimate Alice's choice bit.

Both bounds are functions of the eight honest reduced states: summing
1 - F <= ||rho - xi||_1 / 2 over the four relevant state pairs shows the two
bounds cannot both be small, which is the tradeoff this package reproduces.

A report reads the four pairs once, as views of the one learned-bit-order
gather of Alice's reduced states (``ReducedFamily.pairs``): delta from the
``eigvalsh`` of their differences, and f and the Uhlmann unitaries of Bob's
attack from one SVD of the cross products F_rho† F_xi of their factors
(:func:`_pair_kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompletenessError, ConsistencyError, RangeError, SpecError
from .protocol import (
    INPUT_NAMES,
    FinalStates,
    ProtocolSpec,
    ReducedFamily,
    _Analysis,
    _analyze,
)
from .qcore import (
    TOL_SPECTRAL,
    CMat,
    StateVector,
    bipartition_matrix,
    fidelity,
    float_or_array,
    helstrom,
    hermitian_trace_norm,
    uhlmann_blocks,
)

@dataclass(frozen=True, eq=False)
class CheatReport:
    """Per-protocol cheating summary; on a family spec every numeric field
    is an ``(F,)`` array, one value per member.

    ``delta`` and ``f`` are the trace-norm and fidelity aggregates of the
    four relevant reduced-state pairs; ``alice_bound = 1/2 + delta/8`` and
    ``bob_bound = 1/2 + f/16`` are the guaranteed cheating probabilities;
    ``bob_sim_s0``/``bob_sim_s1`` are the simulated purified-attack success
    rates; ``theorem1_lhs = 2*bob_bound + alice_bound`` is always >= 2.
    """

    spec_name: str
    delta: float
    f: float
    alice_bound: float
    bob_bound: float
    bob_sim_s0: float
    bob_sim_s1: float
    theorem1_lhs: float


def delta_quantity(rf: ReducedFamily):
    """Half the summed trace distances over the four pairs, in [0, 4]; one
    value per family for a batched family."""
    rho, xi = rf.pairs
    return float_or_array(0.5 * hermitian_trace_norm(rho.mat - xi.mat).sum(axis=-1))


def f_quantity(rf: ReducedFamily):
    """The summed fidelities over the four pairs, in [0, 4]; one value per
    family for a batched family."""
    return float_or_array(fidelity(*rf.pairs).sum(axis=-1))


def _alice_bound_of(delta: float) -> float:
    return 0.5 + delta / 8.0


def _bob_bound_of(f: float) -> float:
    return 0.5 + f / 16.0


def alice_bound(rf: ReducedFamily) -> float:
    """Alice's guaranteed cheating probability, 1/2 + delta/8."""
    return _alice_bound_of(delta_quantity(rf))


def bob_bound(rf: ReducedFamily) -> float:
    """Bob's guaranteed cheating probability, 1/2 + f/16."""
    return _bob_bound_of(f_quantity(rf))


def alice_helstrom_attack(rf: ReducedFamily):
    """Simulate Alice's attack through explicit Helstrom measurements.

    For each choice bit she distinguishes the two states compatible with
    what she learned; the overall success rate (uniform inputs, uniform
    choice of which branch to run) reproduces :func:`alice_bound`.  One
    value per family for a batched family.
    """
    return float_or_array(np.mean(helstrom(*rf.pairs)[1], axis=-1))


# The purified attack reads amplitude matrices indexed [..., s, x_s, x_other]:
# for register choice s, the input register Bob measures, then the other one.
def _by_register(mats: np.ndarray) -> np.ndarray:
    """Amplitude matrices indexed ``[..., x0, x1, :, :]``, stacked for both
    register choices as ``[..., s, x_s, x_other, :, :]``."""
    return np.stack([mats, mats.swapaxes(-3, -4)], axis=-5)


def _pair_kernel(rf: ReducedFamily) -> tuple[np.ndarray, CMat]:
    """From one SVD per pair of F_rho† F_xi, by :func:`uhlmann_blocks`: the
    fidelities ``[..., 4]``, and Bob's realignment unitaries
    ``[..., s, x_other]``, each taking the ``a = 1 - s`` honest state with
    ``X_s = 1`` toward the one with ``X_s = 0`` on his non-input factors."""
    u, s = uhlmann_blocks(*(side.factor for side in rf.pairs))
    # pairs 2 and 3 (a = 1) vary x0, Bob's register choice 0; pairs 0 and 1 vary x1
    u = u[..., (2, 3, 0, 1), :, :]
    return s.sum(axis=-1), u.reshape(u.shape[:-3] + (2, 2) + u.shape[-2:])


def controlled_realignment(spec: ProtocolSpec, fs: FinalStates, s: int,
                           states: tuple[StateVector, ...]) -> tuple[StateVector, ...]:
    """Apply the block unitary of the purified attack to each state.

    The unitary is block-diagonal over the computational basis of the input
    registers: identity everywhere except the sectors where register ``X_s``
    reads 1, which carry the Uhlmann realignment toward the matching 0
    sector on Bob's non-input factors.  Identity on Alice's factors
    throughout.  All states are realigned as one stack.  It takes one
    protocol; the final states of a family raise ``SpecError``.
    """
    if fs.stack.amps.ndim != 4:
        raise SpecError(f"controlled_realignment takes one protocol, not a family "
                        f"{fs.stack.amps.shape[:-4]}")
    lay, names = spec.layout, spec.layout.names
    k, bob = len(names), [names.index(n) for n in fs.bob_factors]
    d_b, new = lay.subset_dim(fs.bob_factors), list(range(len(names), len(names) + len(bob)))
    # block [x_s, x_other] of the unitary, on Bob's non-input factors
    t = _by_register(bipartition_matrix(fs.stack, fs.bob_factors))[1 - s, s]
    blocks = np.stack([np.broadcast_to(np.eye(d_b), (2, d_b, d_b)), uhlmann_blocks(t[0], t[1])[0]])
    ops = blocks.reshape((2, 2) + tuple(lay.dims[i] for i in bob) * 2)
    x = [names.index(n) for n in (INPUT_NAMES[s], INPUT_NAMES[1 - s])]
    out = [dict(zip(bob, new)).get(i, i) for i in range(k)]
    tensor = np.stack([sv.amps for sv in states]).reshape((-1,) + lay.dims)
    realigned = np.einsum(ops, x + new + bob, tensor, [..., *range(k)], [..., *out])
    return tuple(StateVector(lay, amps) for amps in realigned)


def _purified_success(an: _Analysis, realign: CMat | None = None) -> np.ndarray:
    """Bob's success probabilities ``[..., s]`` for register choice s = 0
    and s = 1, from the purified runs of both preparations as one stack,
    with ``realign`` from :func:`_pair_kernel` by default.  Sector
    ``(x0, x1)`` of a purified run is the honest state scaled by 1/2, so
    the honest amplitude matrices, the reduced states' factor, serve for both."""
    if not np.all(an.completeness.passed):
        raise CompletenessError(
            "purified attack needs a complete protocol: " + "; ".join(an.completeness.failures)
        )
    realign = _pair_kernel(an.reduced)[1] if realign is None else realign
    t = _by_register(an.reduced.states.factor)
    # [..., a, s, x_s, x_other, alice, bob]: the x_s = 1 sectors realigned,
    # then projected with the x_s = 0 ones on |+>, a factor 2**-0.5 on top of 1/2
    blocks = realign[..., None, :, :, :, :].swapaxes(-1, -2)
    plus = (t[..., 0, :, :, :] + t[..., 1, :, :, :] @ blocks) / np.sqrt(8.0)
    p_plus = np.sum(np.abs(plus) ** 2, axis=(-3, -2, -1))  # [..., a, s]
    # '-' means guess a = s, '+' means guess a = 1 - s
    return 0.5 * np.where(np.eye(2, dtype=bool), 1.0 - p_plus, p_plus).sum(axis=-2)


def bob_purified_attack(spec: ProtocolSpec, s: int) -> float:
    """Simulate Bob's purified attack for a fixed register choice ``s``.

    Bob runs honestly with both input registers in uniform superposition,
    applies a unitary controlled on them (identity except where the attack
    realigns the branches via Uhlmann unitaries), measures register ``X_s``
    in the +/- basis, and guesses ``a = s`` on '-' and ``a = 1-s`` on '+'.
    Returns his success probability over a uniformly random choice bit.

    Requires a complete protocol: the analysis of the ``a = s`` branch rests
    on Alice's states for different values of her learned bit being
    orthogonal.
    """
    if s not in (0, 1):
        raise RangeError(f"register choice must be 0 or 1, got {s}")
    return float_or_array(_purified_success(_analyze(spec))[..., s])


def cheat_report(spec: ProtocolSpec) -> CheatReport:
    """Full cheating analysis of a protocol.

    Computes the aggregate quantities, both bounds, and the two simulated
    purified attacks from one pass over the protocol, with f and the
    attack's Uhlmann blocks from one SVD of the four pairs, and raises
    ``ConsistencyError`` unless the simulated attack averaged over the
    register choice reproduces Bob's bound, on a family for every member.
    """
    an = _analyze(spec)
    fidelities, realign = _pair_kernel(an.reduced)
    delta, f = delta_quantity(an.reduced), float_or_array(fidelities.sum(axis=-1))
    a_bound, b_bound = _alice_bound_of(delta), _bob_bound_of(f)
    sim0, sim1 = (float_or_array(p) for p in _purified_success(an, realign).T)
    if np.any(np.abs((sim0 + sim1) / 2.0 - b_bound) > TOL_SPECTRAL):
        raise ConsistencyError(
            f"simulated purified attack {(sim0 + sim1) / 2} disagrees with bound {b_bound}"
        )
    return CheatReport(
        spec_name=spec.name,
        delta=delta,
        f=f,
        alice_bound=a_bound,
        bob_bound=b_bound,
        bob_sim_s0=sim0,
        bob_sim_s1=sim1,
        theorem1_lhs=2.0 * b_bound + a_bound,
    )
