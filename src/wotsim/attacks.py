"""The two cheating strategies and the resulting security bounds.

Cheating Alice runs honestly, learns her chosen bit, then applies the optimal
(Helstrom) measurement to her reduced state to guess the other bit.  Cheating
Bob runs his honest strategies in superposition over both input registers,
applies a controlled unitary built from Uhlmann unitaries, and measures one
input register in the +/- basis to estimate Alice's choice bit.

Both bounds are functions of the eight honest reduced states: summing
1 - F <= ||rho - xi||_1 / 2 over the four relevant state pairs shows the two
bounds cannot both be small, which is the tradeoff this package reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompletenessError, ConsistencyError, RangeError
from .protocol import (
    INPUT_NAMES,
    FinalStates,
    ProtocolSpec,
    ReducedFamily,
    _Analysis,
    _analyze,
    input_sector,
)
from .qcore import (
    TOL_SPECTRAL,
    CMat,
    DensityOp,
    StateVector,
    apply_to_tensor,
    fidelity,
    float_or_array,
    helstrom,
    trace_norm,
    uhlmann_unitary,
)

@dataclass(frozen=True)
class CheatReport:
    """Per-protocol cheating summary.

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


# The four reduced-state pairs that differ only in the bit Alice did not
# choose: (a=0, vary x1) for each x0, then (a=1, vary x0) for each x1.  Each
# index picks the first or the second members as (a, x0, x1) index arrays,
# so both sides of all four pairs are read as stacks of shape (..., 4, d, d).
_PAIRS = ((..., (0, 0, 1, 1), (0, 1, 0, 0), (0, 0, 0, 1)),
          (..., (0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 0, 1)))


def _pairs(rf: ReducedFamily) -> tuple[DensityOp, DensityOp]:
    return rf.states[_PAIRS[0]], rf.states[_PAIRS[1]]


def delta_quantity(rf: ReducedFamily):
    """Half the summed trace distances over the four pairs, in [0, 4]; one
    value per family for a batched family."""
    rho, xi = _pairs(rf)
    return float_or_array(0.5 * trace_norm(rho.mat - xi.mat).sum(axis=-1))


def f_quantity(rf: ReducedFamily):
    """The summed fidelities over the four pairs, in [0, 4]; one value per
    family for a batched family."""
    return float_or_array(fidelity(*_pairs(rf)).sum(axis=-1))


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
    return float_or_array(np.mean(helstrom(*_pairs(rf))[1], axis=-1))


def _uhlmann_block(fs: FinalStates, phi_key, psi_key, b_rest: tuple[str, ...]) -> CMat:
    """The unitary on Bob's non-input factors aligning one honest final
    state with another, achieving the reduced-state fidelity as overlap.

    The honest states already omit the input registers, so the block acts
    on the same layout as one input sector of a full-layout state.  When
    Bob holds nothing beyond the input registers the block degenerates to
    a 1x1 phase.
    """
    phi, psi = fs.states[phi_key], fs.states[psi_key]
    if b_rest:
        block, _ = uhlmann_unitary(phi, psi, b_rest)
        return block
    inner = np.vdot(phi.amps, psi.amps)
    phase = 1.0 if abs(inner) < 1e-15 else np.conj(inner) / abs(inner)
    return np.array([[phase]], dtype=complex)


def controlled_realignment(spec: ProtocolSpec, fs: FinalStates, s: int,
                           states: tuple[StateVector, ...]) -> tuple[StateVector, ...]:
    """Apply the block unitary of the purified attack to each state.

    The unitary is block-diagonal over the computational basis of the input
    registers: identity everywhere except the sectors where register ``X_s``
    reads 1, which carry the Uhlmann realignment toward the matching 0
    sector on Bob's non-input factors.  Identity on Alice's factors
    throughout.  Each block acts on its (X0, X1) slice of the state tensor.
    """
    lay = spec.layout
    rest = lay.without(INPUT_NAMES)
    b_rest = tuple(n for n in rest.names if n not in fs.alice_factors)
    # Nontrivial blocks: for s=0 realign x0=1 branches toward x0=0 for each
    # x1 (extracted from the a=1 states); symmetrically for s=1.
    blocks: dict[tuple[int, int], CMat] = {}
    for x in (0, 1):
        if s == 0:
            blocks[(1, x)] = _uhlmann_block(fs, (1, 0, x), (1, 1, x), b_rest)
        else:
            blocks[(x, 1)] = _uhlmann_block(fs, (0, x, 0), (0, x, 1), b_rest)
    out = []
    for sv in states:
        tensor = sv.amps.reshape(lay.dims).copy()
        for (x0, x1), block in blocks.items():
            sector = input_sector(lay, x0, x1)
            tensor[sector] = apply_to_tensor(block, tensor[sector], rest, b_rest)
        out.append(StateVector(lay, tensor))
    return tuple(out)


def _purified_success(an: _Analysis, s: int) -> float:
    if not an.completeness.passed:
        raise CompletenessError(
            "purified attack needs a complete protocol: " + "; ".join(an.completeness.failures)
        )
    lay = an.spec.layout
    axis = lay.names.index(INPUT_NAMES[s])
    attacked = controlled_realignment(an.spec, an.final, s, an.purified)
    success = 0.0
    for a, sv in enumerate(attacked):
        plus_branch = np.tensordot(np.full(2, 2 ** -0.5), sv.amps.reshape(lay.dims),
                                   axes=([0], [axis]))
        p_plus = float(np.vdot(plus_branch, plus_branch).real)
        # '-' means guess a=s, '+' means guess a=1-s
        success += 0.5 * (p_plus if a != s else 1.0 - p_plus)
    return success


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
    return _purified_success(_analyze(spec), s)


def cheat_report(spec: ProtocolSpec) -> CheatReport:
    """Full cheating analysis of a protocol.

    Computes the aggregate quantities, both bounds, and the two simulated
    purified attacks from one pass over the protocol, and raises
    ``ConsistencyError`` unless the simulated attack averaged over the
    register choice reproduces Bob's bound.
    """
    an = _analyze(spec)
    delta, f = delta_quantity(an.reduced), f_quantity(an.reduced)
    a_bound, b_bound = _alice_bound_of(delta), _bob_bound_of(f)
    sim0 = _purified_success(an, 0)
    sim1 = _purified_success(an, 1)
    if abs((sim0 + sim1) / 2.0 - b_bound) > TOL_SPECTRAL:
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
