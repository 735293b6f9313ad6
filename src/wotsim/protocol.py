"""Round-based model of honest oblivious-transfer protocols.

A protocol is a fixed register layout plus a sequence of unitary rounds with
all measurements deferred.  Bob's data bits live in two dedicated dim-2
``BobInput`` registers named ``X0`` and ``X1``; every unitary Bob applies is
controlled on them (block-diagonal in their computational basis), so the
compiled protocol keeps each of his rounds as one block per input pair and
runs the four pairs as a batch axis, not as factors of the state.

Conventions:

* Round matrices act on the factors the actor currently holds, in layout
  order.  Alice holds the Message factors initially; a round with
  ``send=True`` flips the Message holder afterwards.
* Alice never touches Bob-owned or BobInput factors, which round sizing
  enforces by construction.
* ``alice_output[a]`` is a two-outcome measurement on Alice's end-of-protocol
  factors; outcome ``pos`` means "the learned bit is 1".

The analysis (:func:`_analyze`) takes Alice's amplitude matrices straight off
one execution, and gathers her reduced states once more in learned-bit order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, SpecError
from .qcore import (
    ALICE,
    BOB,
    BOB_INPUT,
    MESSAGE,
    TOL_EXACT,
    TOL_SPECTRAL,
    CMat,
    DensityOp,
    Factor,
    RegisterLayout,
    StateVector,
    TwoOutcomeMeasurement,
    as_cmat,
    bipartition_matrix,
    dagger,
    float_or_array,
    hermitize,
    trace_norm,
)

INPUT_NAMES = ("X0", "X1")

# Largest total dimension a protocol layout may have.  The analysis holds
# dense state tensors and Alice's reduced states over it, so a spec beyond
# this is rejected before anything is allocated.  Every factor has dim >= 2,
# so this also bounds the number of factors.
MAX_LAYOUT_DIM = 2**16

# The (a, x0, x1) keys of the eight honest runs, in the order the reduced
# family stores them.
RUN_KEYS = tuple((a, x0, x1) for a in (0, 1) for x0 in (0, 1) for x1 in (0, 1))

# LEARNED[a, x0, x1] is the bit Alice learns on that run: x0 for a = 0, x1
# for a = 1.
LEARNED = np.array([[[0, 0], [1, 1]], [[0, 1], [0, 1]]])

# Index arrays (..., a, x0, x1) [p, o] of the runs in learned-bit order, p = 2a + v.
_A, _V, _O = np.indices((2, 2, 2)).reshape(3, 4, 2)
LEARNED_ORDER = (..., _A, np.where(_A, _O, _V), np.where(_A, _V, _O))


def held_factors(layout: RegisterLayout, actor: str, message_with_alice: bool) -> tuple[str, ...]:
    """Factor names the actor holds, in layout order."""
    if actor == ALICE:
        owners = (ALICE, MESSAGE) if message_with_alice else (ALICE,)
    elif actor == BOB:
        owners = (BOB, BOB_INPUT) if message_with_alice else (BOB, BOB_INPUT, MESSAGE)
    else:
        raise SpecError(f"unknown actor {actor!r}")
    return layout.owned_by(*owners)


def _check_unitary(mat: CMat, dim: int, what: str) -> None:
    mat = as_cmat(mat)
    if mat.shape[-2:] != (dim, dim):
        raise SpecError(f"{what}: shape {mat.shape}, expected ({dim}, {dim})")
    if not np.isfinite(mat).all():
        raise SpecError(f"{what}: non-finite entries")
    if (np.abs(mat).max() > 1.0 + TOL_EXACT  # else the product can overflow to NaN
            or np.abs(dagger(mat) @ mat - np.eye(dim)).max() > TOL_EXACT):
        raise SpecError(f"{what}: not unitary within tolerance")


def _input_blocks(op: np.ndarray, held: tuple[str, ...], dims: tuple[int, ...]) -> np.ndarray:
    """The blocks ``(F?, 2, 2, n, n)``, indexed ``[..., x0, x1]``, of a Bob
    unitary or family of them on his held factors (of dims ``dims``) but X0
    and X1; ``SpecError`` unless it is block-diagonal over their basis."""
    k, lead, n = len(held), op.shape[:-2], op.shape[-1] // 4
    x = [held.index(name) for name in INPUT_NAMES]
    rest = [j for j in range(k) if j not in x]
    # (F?, X0 X1 out, X0 X1 in, rest out, rest in)
    t = op.reshape(lead + dims + dims).transpose(
        *range(len(lead)), *(len(lead) + j for j in (*x, *(k + j for j in x), *rest,
                                                     *(k + j for j in rest))))
    t = t.reshape(lead + (4, 4, n, n))
    if np.abs(np.where(np.eye(4, dtype=bool)[:, :, None, None], 0, t)).max() > TOL_EXACT:
        raise SpecError("Bob round is not controlled on his input registers")
    return t[..., range(4), range(4), :, :].reshape(lead + (2, 2, n, n))


class _Plan(NamedTuple):
    """A protocol compiled once: Alice's prepared states ``(F?, 2, D)`` and
    the axes they fill of ``rest``, the layout without X0 and X1; the rounds
    as ``(op, front, back)``, ``op`` Bob's blocks ``(F?, 2, 2, n, n)`` or
    Alice's unitary ``(F?, 1, 1, d, d)``; her output projectors, ``(F?, 2, d,
    d)``; the axes of ``rest`` with the factors she ends holding first."""

    prepared: np.ndarray
    prep_axes: tuple[int, ...]
    steps: tuple[tuple, ...]
    rest: RegisterLayout
    out_pos: np.ndarray
    split: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Round:
    """One protocol round: an actor applies a unitary to the factors it
    holds; ``send`` flips the Message holder afterwards."""

    actor: str
    unitary: np.ndarray
    send: bool = False


@dataclass(frozen=True, eq=False)
class ProtocolSpec:
    """A complete honest protocol description.

    ``alice_prep[a]`` acts on Alice-owned plus Message factors before any
    round; ``rounds`` run in order; ``alice_output[a]`` measures Alice's
    end-of-protocol factors (``pos`` outcome = bit value 1).

    A family of ``F`` protocols on one layout and round schedule is one
    spec: each preparation, round unitary and output projector is one
    matrix, shared by every member, or a stack ``(F, d, d)``, one per member.
    """

    name: str
    layout: RegisterLayout
    alice_prep: tuple[np.ndarray, np.ndarray]
    rounds: tuple[Round, ...]
    alice_output: tuple[TwoOutcomeMeasurement, TwoOutcomeMeasurement]

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))
        object.__setattr__(self, "alice_prep", tuple(self.alice_prep))
        object.__setattr__(self, "alice_output", tuple(self.alice_output))
        lay = self.layout
        if lay.dim > MAX_LAYOUT_DIM:
            raise SpecError(
                f"layout dim {lay.dim} exceeds the cap MAX_LAYOUT_DIM = {MAX_LAYOUT_DIM}")
        if not lay.owned_by(ALICE):
            raise SpecError("layout needs at least one Alice-owned factor")
        inputs = lay.owned_by(BOB_INPUT)
        if sorted(inputs) != sorted(INPUT_NAMES):
            raise SpecError(f"BobInput factors must be named {INPUT_NAMES}, got {inputs}")
        for name in INPUT_NAMES:
            if lay.subset_dim([name]) != 2:
                raise SpecError(f"input register {name} must have dim 2")
        if len(self.alice_prep) != 2 or len(self.alice_output) != 2:
            raise SpecError("alice_prep and alice_output need one entry per choice bit")
        leads = {np.shape(m)[:-2] for m in (*self.alice_prep, *(r.unitary for r in self.rounds),
                                            *(m.pos for m in self.alice_output))} - {()}
        if len(leads) > 1 or any(len(lead) != 1 or lead == (0,) for lead in leads):
            raise SpecError(
                f"matrices may share one nonempty leading family axis, got {sorted(leads)}")
        lead, rest = (leads.pop() if leads else ()), lay.without(INPUT_NAMES)
        names, dims, rest_names, k = lay.names, lay.dims, rest.names, len(rest.dims)
        held = held_factors(lay, ALICE, True)
        d_prep = lay.subset_dim(held)
        prepared = np.empty(lead + (2, d_prep), dtype=complex)
        for a, prep in enumerate(self.alice_prep):
            _check_unitary(prep, d_prep, f"alice_prep[{a}]")
            # every factor starts in |0>, so a preparation is its first column
            prepared[..., a, :] = as_cmat(prep)[..., 0]
        prep_axes = tuple(rest_names.index(n) for n in held)
        steps = []
        msg_with_alice = True
        for i, rnd in enumerate(self.rounds):
            held = held_factors(lay, rnd.actor, msg_with_alice)
            op, sel = as_cmat(rnd.unitary), tuple(dims[names.index(n)] for n in held)
            _check_unitary(op, math.prod(sel), f"round {i} ({rnd.actor})")
            op = _input_blocks(op, held, sel) if rnd.actor == BOB else op[..., None, None, :, :]
            axes = [rest_names.index(n) for n in held if n not in INPUT_NAMES]
            # the axes (prepared states, x0, x1, *rest) with sector and held ones first, and back
            front = ([-k - 2, -k - 1] + [j - k for j in axes] + [-k - 3]
                     + [j - k for j in range(k) if j not in axes])
            steps.append((op, front, [front.index(j) - k - 3 for j in range(-k - 3, 0)]))
            if rnd.send:
                if not lay.owned_by(MESSAGE):
                    raise SpecError(f"round {i} sends but the layout has no Message factor")
                holder_is_actor = msg_with_alice == (rnd.actor == ALICE)
                if not holder_is_actor:
                    raise SpecError(f"round {i}: {rnd.actor} sends a message it does not hold")
                msg_with_alice = not msg_with_alice
        object.__setattr__(self, "_msg_with_alice_at_end", msg_with_alice)
        split = [rest_names.index(n) for n in self.alice_end_factors]
        d_out = math.prod(rest.factors[i].dim for i in split)
        split += [i for i in range(k) if i not in split]
        out_pos = np.empty(lead + (2, d_out, d_out), dtype=complex)
        for a, meas in enumerate(self.alice_output):
            if meas.pos.shape[-2:] != (d_out, d_out):
                raise SpecError(f"alice_output[{a}] has shape {meas.pos.shape}, "
                                f"Alice ends holding dim {d_out}")
            out_pos[..., a, :, :] = meas.pos
        object.__setattr__(self, "_plan", _Plan(prepared, prep_axes, tuple(steps), rest, out_pos,
                                                tuple(split)))

    @property
    def alice_end_factors(self) -> tuple[str, ...]:
        """Factors Alice holds once all rounds have run, in layout order."""
        return held_factors(self.layout, ALICE, self._msg_with_alice_at_end)


@dataclass(frozen=True, eq=False)
class FinalStates:
    """The eight deferred-measurement final states of a protocol as one
    state stack of shape ``(F?, 2, 2, 2, D)`` indexed ``[..., a, x0, x1]``,
    plus the factors Alice holds at the end.  An honest run leaves the input
    registers in ``|x0 x1>``, so the states omit them."""

    stack: StateVector
    alice_factors: frozenset[str]

    @property
    def bob_factors(self) -> tuple[str, ...]:
        """The factors of the states that Alice does not hold at the end."""
        return tuple(n for n in self.stack.layout.names if n not in self.alice_factors)


@dataclass(frozen=True, eq=False)
class ReducedFamily:
    """Alice's reduced final states as one validated density stack of shape
    ``(..., 2, 2, 2, d, d)``, indexed ``[..., a, x0, x1]``, and ``pairs``, the
    two members of the four pairs, views ``(..., 4, d, d)`` of one gather in
    learned-bit order.  Leading axes, if any, batch independent families."""

    states: DensityOp
    pairs: tuple[DensityOp, DensityOp] = field(init=False, repr=False)

    def __post_init__(self):
        if self.states.mat.shape[-5:-2] != (2, 2, 2):
            raise ShapeError(
                f"reduced family needs shape (..., 2, 2, 2, d, d), got {self.states.mat.shape}")
        learned = self.states[LEARNED_ORDER]
        object.__setattr__(self, "pairs", (learned[..., 0], learned[..., 1]))


@dataclass(frozen=True, eq=False)
class CompletenessReport:
    """Result of the completeness check.

    ``support_overlap[..., a]`` is the trace norm of the product of the
    two support projectors spanned by Alice's states with the learned bit 0
    vs 1; ``one_probs[..., a, x0, x1]`` is the probability that Alice's
    output measurement reports bit 1 on that honest run;
    ``min_output_prob`` is the worst-case probability that it reports the
    correct bit over the 8 runs.  On a family spec each field is per member
    and each failure names its member.
    """

    passed: bool | np.ndarray
    support_overlap: np.ndarray
    one_probs: np.ndarray
    min_output_prob: float | np.ndarray
    failures: tuple[str, ...]


def _execute(spec: ProtocolSpec, prepared: np.ndarray | None = None) -> np.ndarray:
    """The protocol run in one pass from a stack ``(F?, n, D_prep)`` of
    states Alice prepares, by default her two honest ones, for each input
    pair of Bob: the final amplitude tensors ``(F?, n, 2, 2, *rest.dims)``,
    indexed ``[..., x0, x1]``.  A round is one ``matmul`` on the tensor with
    its sector and held axes moved first; the sectors are one until Bob acts."""
    plan = spec._plan
    dims, k = plan.rest.dims, len(plan.rest.dims)
    prepared = plan.prepared if prepared is None else prepared
    # every other factor starts in |0>
    tensor = np.zeros(prepared.shape[:-1] + (1, 1) + dims, dtype=complex)
    tensor[(..., *(slice(None) if i in plan.prep_axes else 0 for i in range(k)))] = \
        prepared.reshape(prepared.shape[:-1] + (1, 1) + tuple(dims[i] for i in plan.prep_axes))
    for op, front, back in plan.steps:
        moved = tensor.transpose(*range(tensor.ndim - k - 3), *front)
        out = np.matmul(op, moved.reshape(moved.shape[:-k - 1] + (op.shape[-1], -1)))
        out = out.reshape(out.shape[:-2] + moved.shape[-k - 1:])
        tensor = out.transpose(*range(out.ndim - k - 3), *back)
    return np.broadcast_to(tensor, tensor.shape[:-k - 2] + (2, 2) + dims)


def _on_layout(spec: ProtocolSpec, a: int, weights: np.ndarray) -> StateVector:
    """The final state for choice bit ``a`` with the input registers put
    back: sector (x0, x1) times ``weights[x0, x1]`` where they read ``|x0 x1>``."""
    names, k = spec.layout.names, len(spec.layout.dims)
    sectors = np.take(_execute(spec), a, -1 - k) * weights.reshape((2, 2) + (1,) * (k - 2))
    return StateVector(spec.layout, np.moveaxis(
        sectors, [-k, 1 - k], [names.index(n) - k for n in INPUT_NAMES]))


def run_honest(spec: ProtocolSpec, a: int, x0: int, x1: int) -> StateVector:
    """The final pure state of an honest run with the given input bits."""
    for bit in (a, x0, x1):
        if bit not in (0, 1):
            raise SpecError(f"input bits must be 0 or 1, got {bit}")
    return _on_layout(spec, a, np.eye(4)[2 * x0 + x1].reshape(2, 2))


def run_purified(spec: ProtocolSpec, a: int) -> StateVector:
    """The final pure state when both input registers start in the uniform
    superposition (Bob running all his honest strategies coherently)."""
    return _on_layout(spec, a, np.full((2, 2), 0.5))


def _reduced_family(m: np.ndarray) -> ReducedFamily:
    """Alice's reduced states M M† of the (Alice, rest) amplitude matrices M,
    kept as their factor; their unit trace checks the states' norm."""
    return ReducedFamily(DensityOp._factored(hermitize(m @ dagger(m)), m))


def reduce_alice(fs: FinalStates) -> ReducedFamily:
    """Alice's reduced states of the eight honest runs as one stack."""
    return _reduced_family(bipartition_matrix(fs.stack, fs.bob_factors))


def _support_bases(rf: ReducedFamily) -> np.ndarray:
    """Orthonormal bases of the spans of the supports of Alice's two states
    with x_a = v, indexed ``[..., a, v, :, :]``, as columns, as many as the
    widest has and zeroed where a support is narrower: from the narrower side
    of the d x k factors, by SVD when 2k <= d (9 x 2 for cks), else by eigh."""
    d, k = rf.states.factor.shape[-2:]
    basis = (_support_bases_svd if 2 * k <= d else _support_bases_eigh)(rf)
    return basis[..., basis.any(axis=tuple(range(basis.ndim - 1)))]


def _support_bases_svd(rf: ReducedFamily) -> np.ndarray:
    """The left singular vectors of [F_0 F_1] with s² above ``TOL_SPECTRAL``."""
    f = np.concatenate([side.factor for side in rf.pairs], axis=-1)  # [..., 2a + v, :, :]
    q, s, _ = np.linalg.svd(f.reshape(f.shape[:-3] + (2, 2) + f.shape[-2:]), full_matrices=False)
    return q * (s * s > TOL_SPECTRAL)[..., None, :]


def _support_bases_eigh(rf: ReducedFamily) -> np.ndarray:
    """The eigenvectors of the sum of the two states with eigenvalue above
    ``TOL_SPECTRAL``."""
    mats = rf.pairs[0].mat + rf.pairs[1].mat
    w, v = np.linalg.eigh(mats.reshape(mats.shape[:-3] + (2, 2) + mats.shape[-2:]))
    return v * (w > TOL_SPECTRAL)[..., None, :]


def _completeness(spec: ProtocolSpec, rf: ReducedFamily) -> CompletenessReport:
    # ||P0 P1||_1 = ||B0† B1||_1 for orthonormal bases B: a product as wide
    # as the widest support (1 x 1 for cks), not one of d x d projectors
    basis = _support_bases(rf)
    overlaps = trace_norm(dagger(basis[..., 0, :, :]) @ basis[..., 1, :, :])
    one = np.einsum("...aij,...axyji->...axy", spec._plan.out_pos, rf.states.mat).real
    correct = np.where(LEARNED == 1, one, 1.0 - one)
    bad_overlap, bad_output = overlaps > TOL_SPECTRAL, correct < 1.0 - TOL_SPECTRAL
    passed = ~(bad_overlap.any(axis=-1) | bad_output.any(axis=(-3, -2, -1)))
    # built when a check fails: a member prefix on a family; nonzero keeps the order
    failures = () if passed.all() else tuple(
        [f"{''.join(f'member {m}: ' for m in lead)}a={a}: learned-bit supports overlap "
         f"({overlaps[(*lead, a)]:.3e})" for *lead, a in zip(*bad_overlap.nonzero())]
        + [f"{''.join(f'member {m}: ' for m in lead)}output measurement misses "
           f"x_{a}={LEARNED[a, x0, x1]} at (a,x0,x1)=({a},{x0},{x1}): "
           f"p={correct[(*lead, a, x0, x1)]:.6f}"
           for *lead, a, x0, x1 in zip(*bad_output.nonzero())])
    return CompletenessReport(
        passed=passed if passed.ndim else bool(passed),
        support_overlap=overlaps,
        one_probs=one,
        min_output_prob=float_or_array(np.minimum(1.0, correct.min(axis=(-3, -2, -1)))),
        failures=failures,
    )


@dataclass(frozen=True, eq=False)
class _Analysis:
    """One pass over a protocol: everything the bounds, both attacks and the
    completeness check read, each computed once; the reduced states hold both
    stacks, in run and in learned-bit order, and the amplitude matrices."""

    reduced: ReducedFamily
    completeness: CompletenessReport


def all_final_states(spec: ProtocolSpec) -> FinalStates:
    """All eight honest final states of a protocol: one execution's sectors."""
    return FinalStates(StateVector(spec._plan.rest, _execute(spec)),
                       frozenset(spec.alice_end_factors))


def _analyze(spec: ProtocolSpec) -> _Analysis:
    """The one place a protocol is analysed: one execution of both preparations
    for all four input pairs, transposed once into Alice's amplitude matrices."""
    plan, amps = spec._plan, _execute(spec)
    lead = amps.ndim - len(plan.split)
    m = np.ascontiguousarray(amps.transpose(*range(lead), *(lead + i for i in plan.split)))
    rf = _reduced_family(m.reshape(amps.shape[:lead] + (plan.out_pos.shape[-1], -1)))
    return _Analysis(rf, _completeness(spec, rf))


def validate_completeness(spec: ProtocolSpec) -> CompletenessReport:
    """Check that honest Alice learns her chosen bit with certainty.

    Passes iff, for each choice bit, the supports of Alice's reduced states
    with learned-bit 0 and learned-bit 1 are orthogonal, and the declared
    output measurement reports the correct bit on every honest run.
    """
    return _analyze(spec).completeness


# ---------------------------------------------------------------------------
# JSON wire format.  Complex entries are [re, im] pairs; matrices are
# row-major nested arrays.  Decoding checks JSON types instead of coercing
# them: a value of any other type raises ValueError.
# ---------------------------------------------------------------------------

def _encode_matrix(mat: CMat) -> list:
    mat = as_cmat(mat)
    return np.stack([mat.real, mat.imag], -1).tolist()


def _decode_matrix(rows) -> np.ndarray:
    """A complex matrix from rows of ``[re, im]`` pairs of JSON numbers."""
    entries = np.array(rows, dtype=object)
    if (entries.ndim != 3 or entries.shape[-1] != 2
            or not {int, float}.issuperset(map(type, entries.flat))):
        raise ValueError("a matrix must be a list of rows of [re, im] pairs of numbers")
    try:
        return entries.astype(float).view(complex)[..., 0]
    except OverflowError as exc:
        raise ValueError(f"matrix entry beyond float range: {exc}") from exc


def _typed(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind`` (so a bool is no int)."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be of type {kind.__name__}, got {type(value).__name__}")
    return value


def spec_to_dict(spec: ProtocolSpec) -> dict:
    """Serialize one protocol to the JSON wire structure; a family raises ``SpecError``."""
    if spec._plan.prepared.ndim > 2:
        raise SpecError(f"{spec.name}: the wire format holds one protocol, not a family")
    return {
        "name": spec.name,
        "factors": [
            {"name": f.name, "dim": f.dim, "owner": f.owner} for f in spec.layout.factors
        ],
        "alice_prep": [_encode_matrix(u) for u in spec.alice_prep],
        "rounds": [
            {"actor": r.actor, "matrix": _encode_matrix(r.unitary), "send": bool(r.send)}
            for r in spec.rounds
        ],
        "alice_output": [
            [_encode_matrix(m.pos), _encode_matrix(m.neg)] for m in spec.alice_output
        ],
    }


def spec_from_dict(data: dict) -> ProtocolSpec:
    """Build a protocol from the JSON wire structure.

    Raises ``ValueError`` on malformed structure or a value of the wrong
    JSON type, and ``SpecError`` (via the constructor and, for layout
    problems, ``LayoutError``) when the decoded protocol violates an
    invariant.
    """
    try:
        factors = tuple(
            Factor(_typed(f["name"], str, "factor name"), _typed(f["dim"], int, "factor dim"),
                   _typed(f["owner"], str, "factor owner"))
            for f in data["factors"]
        )
        prep = tuple(_decode_matrix(m) for m in data["alice_prep"])
        rounds = tuple(
            Round(_typed(r["actor"], str, "round actor"), _decode_matrix(r["matrix"]),
                  _typed(r["send"], bool, "round send"))
            for r in data["rounds"]
        )
        output = tuple(
            TwoOutcomeMeasurement(_decode_matrix(pos), _decode_matrix(neg))
            for pos, neg in data["alice_output"]
        )
        name = _typed(data["name"], str, "name")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed protocol structure: {exc}") from exc
    if len(prep) != 2 or len(output) != 2:
        raise ValueError("alice_prep and alice_output must each have two entries")
    return ProtocolSpec(name, RegisterLayout(factors), prep, rounds, output)
