"""Dense complex linear algebra and two-state discrimination primitives.

Operators and state amplitudes are plain ``numpy`` arrays (``complex128``,
row-major).  Multi-register objects carry a :class:`RegisterLayout` that fixes
the tensor factorization; the leftmost factor is the most significant index
digit, so ``amps.reshape(layout.dims)`` recovers the tensor form.

Density matrices, measurements and the functionals of them take stacks:
an array of shape ``(..., d, d)`` is a batch of ``d x d`` matrices over its
leading axes.  Every check runs once over the whole batch.  A density stack
is two read-only arrays, both set when it is built: its matrix and a factor
F with ``rho = F F†``, the one it was formed from (``random_density``,
``pure_density``, Alice's reduced states in ``protocol``: PSD by
construction, and not decomposed), or the root factor of the ``eigh`` that
validates a matrix given to the constructor.  A single matrix is the
``n = 1`` case; functionals return a Python float for it, an array for a
stack.

Trace norms take one of two kernels.  ``hermitian_trace_norm`` sums the
absolute eigenvalues (``eigvalsh``) of a Hermitian input and serves every
difference of density operators: ``guess_prob``, the Helstrom quantity of
``attacks`` and the oracle's qutrit success.  ``trace_norm`` sums the
singular values (SVD) and serves operands that are not Hermitian, such
as the support overlap of the completeness check; ``fidelity`` takes the
singular values of its cross product of factors, which need not be square.

Two tolerances are used throughout: ``TOL_EXACT`` for algebraic identities on
exactly representable constructions, and ``TOL_SPECTRAL`` for anything that
passed through an eigendecomposition or SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import LayoutError, NotPSDError, ShapeError

TOL_EXACT = 1e-9
TOL_SPECTRAL = 1e-6

ALICE = "Alice"
BOB = "Bob"
MESSAGE = "Message"
BOB_INPUT = "BobInput"
OWNERS = (ALICE, BOB, MESSAGE, BOB_INPUT)

# The universal numeric carrier: a dense complex matrix.
CMat = np.ndarray


def as_cmat(entries) -> CMat:
    """Coerce nested data to a complex matrix."""
    return np.asarray(entries, dtype=complex)


def hermitize(mat: CMat) -> CMat:
    """Symmetrize asymmetric roundoff: (M + M†)/2 of a float or complex
    stack, summed in place in one new array the size of the input."""
    out = np.conjugate(mat.swapaxes(-1, -2), order="C")
    out += mat
    out /= 2
    return out


def dagger(mat: CMat) -> CMat:
    """Conjugate transpose of each matrix in a stack."""
    return mat.conj().swapaxes(-1, -2)


def float_or_array(value):
    """A Python float for a single result, the array itself for a stack."""
    return float(value) if np.ndim(value) == 0 else value


def _check_square(mat: np.ndarray, what: str) -> None:
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ShapeError(f"{what} must be square, got {mat.shape}")


def _frozen(arr: np.ndarray, what: str) -> np.ndarray:
    """A read-only complex copy; NaN or inf entries raise ``ShapeError``."""
    out = np.array(arr, dtype=complex)
    if not np.isfinite(out).all():
        raise ShapeError(f"{what} has non-finite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Factor:
    """One tensor factor: a named register with a dimension and an owner tag."""

    name: str
    dim: int
    owner: str

    def __post_init__(self):
        if self.dim < 2:
            raise LayoutError(f"factor {self.name!r} has dim {self.dim}; need >= 2")
        if self.owner not in OWNERS:
            raise LayoutError(f"unknown owner {self.owner!r} for factor {self.name!r}")


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered tensor factors; defines every bipartition used downstream."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate factor names in {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def owned_by(self, *owners: str) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors if f.owner in owners)

    def select(self, names: Iterable[str]) -> tuple[str, ...]:
        """The given names, reordered to layout order."""
        wanted = set(names)
        unknown = wanted - set(self.names)
        if unknown:
            raise LayoutError(f"unknown factor names {sorted(unknown)}")
        return tuple(n for n in self.names if n in wanted)

    def subset_dim(self, names: Iterable[str]) -> int:
        sel = set(self.select(names))
        return math.prod(f.dim for f in self.factors if f.name in sel)

    def without(self, names: Iterable[str]) -> "RegisterLayout":
        drop = set(self.select(names))
        return RegisterLayout(tuple(f for f in self.factors if f.name not in drop))


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state over a register layout, or a stack of them:
    amplitudes of shape ``(..., layout.dim)``, or ``(..., *layout.dims)``
    in tensor form, stored as the former.  The norm check runs once over
    the whole stack and fails if any member fails it."""

    layout: RegisterLayout
    amps: np.ndarray

    def __post_init__(self):
        amps, dims = np.asarray(self.amps), self.layout.dims
        lead = amps.shape[:-len(dims)] if amps.shape[-len(dims):] == dims else amps.shape[:-1]
        amps = _frozen(amps.reshape(lead + (-1,)), "state")
        object.__setattr__(self, "amps", amps)
        if amps.shape[-1] != self.layout.dim:
            raise ShapeError(
                f"state has {amps.shape[-1]} amplitudes, layout dim is {self.layout.dim}"
            )
        norm = np.linalg.norm(amps, axis=-1)
        off = np.abs(norm - 1.0)
        if off.max() > TOL_EXACT:
            raise ShapeError(f"state norm {norm.flat[off.argmax()]} deviates from 1")


def _check_unit_trace(mat: np.ndarray) -> None:
    tr = np.trace(mat, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if off.max() > TOL_EXACT:
        raise ShapeError(f"density operator trace {tr.flat[off.argmax()]} deviates from 1")


@dataclass(frozen=True, eq=False)
class DensityOp:
    """A density operator, or a stack of them of shape ``(..., d, d)``:
    Hermitian, PSD up to roundoff, unit trace.  Each check runs once over
    the whole stack and fails if any member fails it.

    ``mat`` and ``factor`` are both read-only and both set when the stack is
    built.  ``factor`` is a ``(..., d, k)`` stack F with ``mat = F F†`` up
    to roundoff, which every functional that needs a square root reads: the
    F a state formed as F F† was given (:meth:`_factored`), or the root
    factor of the ``eigh`` the constructor's PSD check runs, without the
    columns zero in every member."""

    mat: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _frozen(np.atleast_2d(np.asarray(self.mat)), "density operator")
        _check_square(mat, "density operator")
        if np.abs(mat - dagger(mat)).max() > TOL_EXACT:
            raise ShapeError("density operator is not Hermitian within tolerance")
        _check_unit_trace(mat)
        w, v = np.linalg.eigh(hermitize(mat))
        if w.min() < -TOL_SPECTRAL:
            raise NotPSDError(f"density operator has eigenvalue {w.min()}")
        root = _root_factor(w, v)
        # eigenvalues ascend, so the zeroed columns lead
        rank = np.count_nonzero(root.any(axis=-2), axis=-1).max()
        self._set(mat, root[..., -rank:])

    @classmethod
    def _factored(cls, mat: CMat, factor: CMat) -> "DensityOp":
        """The state ``mat``, which the caller formed as F F† (Hermitian up to
        roundoff) from the stack of factors F it keeps, and hands over: PSD by
        construction, so only finiteness and the trace are checked, nothing is
        decomposed, and ``mat`` is frozen in place, not copied."""
        if not np.isfinite(mat).all():
            raise ShapeError("density operator has non-finite entries")
        _check_square(mat, "density operator")
        _check_unit_trace(mat)
        return object.__new__(cls)._set(mat, factor)

    def _set(self, mat: np.ndarray, factor: np.ndarray) -> "DensityOp":
        mat.flags.writeable = factor.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "factor", factor)
        return self

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def __getitem__(self, index) -> "DensityOp":
        """The members at ``index``, which indexes the leading axes only (the
        two matrix axes are kept whole), with their part of ``factor``: they
        were checked as part of this stack, not again."""
        index = (*np.index_exp[index], slice(None), slice(None))
        return object.__new__(DensityOp)._set(self.mat[index], self.factor[index])


@dataclass(frozen=True, eq=False)
class TwoOutcomeMeasurement:
    """A projective two-outcome measurement: pos + neg = identity, or a
    stack of them of shape ``(..., d, d)``."""

    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        pos, neg = _frozen(self.pos, "pos projector"), _frozen(self.neg, "neg projector")
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)
        if pos.shape != neg.shape:
            raise ShapeError(f"projector shapes {pos.shape}, {neg.shape} invalid")
        _check_square(pos, "projector")
        for name, p in (("pos", pos), ("neg", neg)):
            if np.abs(p - dagger(p)).max() > TOL_SPECTRAL:
                raise ShapeError(f"{name} projector is not Hermitian")
            if np.abs(p).max() > 1.0 + TOL_SPECTRAL or np.abs(p @ p - p).max() > TOL_SPECTRAL:
                raise ShapeError(f"{name} projector is not idempotent")
        if np.abs(pos + neg - np.eye(pos.shape[-1])).max() > TOL_EXACT:
            raise ShapeError("projectors do not sum to the identity")


def embed_operator(op: CMat, layout: RegisterLayout, names: Iterable[str]) -> CMat:
    """Extend an operator on the named factors (layout order) by identity on
    the remaining factors, returning a full-layout matrix.

    The protocol engine contracts each operator on its own axes instead;
    this dense form is kept as the reference that the tests compare the
    engine against."""
    sel = layout.select(names)
    positions = [i for i, n in enumerate(layout.names) if n in set(sel)]
    rest = [i for i in range(len(layout.factors)) if i not in positions]
    op = as_cmat(op)
    d_sel = layout.subset_dim(sel)
    if op.shape != (d_sel, d_sel):
        raise ShapeError(f"operator shape {op.shape} does not match subsystem dim {d_sel}")
    # op x I lives in (sel..., rest...) digit order; move the digits back to layout order
    digits = [layout.dims[i] for i in positions + rest]
    big = np.kron(op, np.eye(layout.dim // d_sel)).reshape(digits + digits)
    back, k = np.argsort(positions + rest), len(digits)
    return big.transpose(*back, *(k + back)).reshape(layout.dim, layout.dim)


def partial_trace(state: DensityOp, layout: RegisterLayout,
                  keep: Iterable[str]) -> DensityOp:
    """Reduce a density operator, or each member of a stack, to the kept
    factors, in layout order."""
    if state.dim != layout.dim:
        raise LayoutError(f"state dim {state.dim} != layout dim {layout.dim}")
    kept = layout.select(keep)
    k = len(layout.factors)
    kept_pos = [i for i, n in enumerate(layout.names) if n in set(kept)]
    batch = state.mat.shape[:-2]
    tensor = state.mat.reshape(batch + layout.dims + layout.dims)
    row = list(range(k))
    col = [i if i not in kept_pos else k + i for i in range(k)]
    out = [i for i in kept_pos] + [k + i for i in kept_pos]
    reduced = np.einsum(tensor, [...] + row + col, [...] + out)
    d = math.prod(layout.dims[i] for i in kept_pos)
    return DensityOp(hermitize(reduced.reshape(batch + (d, d))))


def trace_norm(mat: CMat):
    """Sum of the singular values, for any square matrix or stack."""
    mat = as_cmat(mat)
    _check_square(mat, "trace norm input")
    return float_or_array(np.linalg.svd(mat, compute_uv=False).sum(axis=-1))


def hermitian_trace_norm(mat: CMat):
    """Trace norm of a Hermitian matrix or stack, such as a difference of
    density operators: the sum of the absolute eigenvalues, by ``eigvalsh``,
    cheaper than the SVD of :func:`trace_norm`.  The input must be
    Hermitian: ``eigvalsh`` reads only its lower triangle, so any other
    matrix gets the trace norm of a different one."""
    mat = as_cmat(mat)
    _check_square(mat, "trace norm input")
    return float_or_array(np.abs(np.linalg.eigvalsh(mat)).sum(axis=-1))


def _check_dims(rho: DensityOp, xi: DensityOp) -> None:
    if rho.dim != xi.dim:
        raise ShapeError(f"dimension mismatch {rho.dim} != {xi.dim}")


def guess_prob(rho: DensityOp, xi: DensityOp):
    """Optimal probability of identifying which of two equiprobable states
    was prepared: 1/2 + ||rho - xi||_1 / 4."""
    _check_dims(rho, xi)
    return 0.5 + 0.25 * hermitian_trace_norm(rho.mat - xi.mat)


def helstrom(rho: DensityOp, xi: DensityOp) -> tuple[TwoOutcomeMeasurement, float]:
    """The optimal two-outcome measurement for equiprobable ``rho`` vs ``xi``.

    Projects onto the nonnegative / negative eigenspaces of ``rho - xi``.
    The returned success probability is computed from the projectors, not
    from the trace-norm formula, so the two routes can be cross-checked:
    verify's ``matches_guess_prob`` compares it with :func:`guess_prob`.
    Both rest on an eigendecomposition of ``rho - xi``; the check against
    the SVD route is ``hermitian_matches_svd`` in verify's trace-norm suite.
    """
    _check_dims(rho, xi)
    w, v = np.linalg.eigh(hermitize(rho.mat - xi.mat))
    pos = (v * (w >= 0)[..., None, :]) @ dagger(v)
    neg = np.eye(rho.dim) - pos
    meas = TwoOutcomeMeasurement(hermitize(pos), hermitize(neg))
    success = 0.5 * np.real(np.trace(meas.pos @ rho.mat, axis1=-2, axis2=-1)
                            + np.trace(meas.neg @ xi.mat, axis1=-2, axis2=-1))
    return meas, float_or_array(success)


def _root_factor(w: np.ndarray, v: np.ndarray) -> CMat:
    """F = V sqrt(W) from an ascending ``eigh`` (w, v), so that sqrt(rho) =
    F V†.  Eigenvalues at or below ``d * eps`` times a member's largest one
    are roundoff and set to zero, as are negative ones: their square roots
    would otherwise reach the fidelity of rank-deficient states."""
    w = np.where(w > w.shape[-1] * np.finfo(float).eps * w[..., -1:], w, 0.0)
    return v * np.sqrt(w)[..., None, :]


def herm_sqrt(rho: DensityOp) -> CMat:
    """Hermitian PSD square root of a density operator, or of each member
    of a stack, from its own ``eigh`` of ``mat``, roundoff eigenvalues
    zeroed: it never reads ``factor``, so it can check :func:`fidelity`."""
    w, v = np.linalg.eigh(hermitize(rho.mat))
    return _root_factor(w, v) @ dagger(v)


def fidelity(rho: DensityOp, xi: DensityOp):
    """Fidelity ||sqrt(rho) sqrt(xi)||_1, in [0, 1]: the trace norm, which is
    unitarily invariant, of the cross product F_rho† F_xi of the two states'
    factors, whatever their widths (1 x d for d x 1 against d x d)."""
    _check_dims(rho, xi)
    cross = dagger(rho.factor) @ xi.factor
    return float_or_array(np.linalg.svd(cross, compute_uv=False).sum(axis=-1))


def bipartition_matrix(sv: StateVector, b_names: Iterable[str]) -> CMat:
    """Reshape amplitudes to a (kept, b) matrix for the given bipartition,
    or each state of a stack to one, as ``(..., d_kept, d_b)``."""
    b = sv.layout.select(b_names)
    b_pos = [i for i, n in enumerate(sv.layout.names) if n in set(b)]
    keep_pos = [i for i in range(len(sv.layout.factors)) if i not in b_pos]
    lead = sv.amps.shape[:-1]
    tensor = sv.amps.reshape(lead + sv.layout.dims)
    tensor = np.transpose(tensor, [*range(len(lead)), *(len(lead) + i for i in keep_pos + b_pos)])
    return tensor.reshape(lead + (math.prod(sv.layout.dims[i] for i in keep_pos), -1))


def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> for each pair of vectors in two stacks of shape ``(..., n)``;
    each sums as ``np.vdot`` sums one pair."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def uhlmann_blocks(phi_mat: CMat, psi_mat: CMat) -> tuple[CMat, np.ndarray]:
    """The Uhlmann recipe on ``(kept, b)`` amplitude matrices, or on stacks
    of them of shape ``(..., d_kept, d_b)``.

    The maximum of <phi|(I x U)|psi> over unitaries U on the b subsystem
    equals the fidelity of the two reduced states on the kept subsystem,
    and is attained at U = conj(W Vh) where W diag(s) Vh is the SVD of the
    cross matrix M[j,k] = <phi|(I x |j><k|)|psi>.  Returns U and the
    singular values s, whose sum is that maximum: the fidelity, for the
    factors of two density operators (``attacks`` reads both from this one
    SVD).
    """
    w, s, vh = np.linalg.svd(dagger(phi_mat) @ psi_mat)
    return np.conj(w @ vh), s


def uhlmann_unitary(phi: StateVector, psi: StateVector,
                    b_factors: Iterable[str]) -> tuple[CMat, float]:
    """A unitary U on the ``b_factors`` subsystem (in layout order)
    maximizing <phi|(I x U)|psi>, by :func:`uhlmann_blocks`, and that real
    overlap, evaluated through the states as a check of the recipe."""
    if phi.layout != psi.layout:
        raise LayoutError("states must share a layout")
    b = phi.layout.select(b_factors)
    if not b or len(b) == len(phi.layout.factors):
        raise LayoutError("b_factors must be a nonempty strict subset of the factors")
    phi_mat, psi_mat = bipartition_matrix(phi, b), bipartition_matrix(psi, b)
    u = uhlmann_blocks(phi_mat, psi_mat)[0]
    return u, float(np.real(inner(phi_mat.reshape(-1), (psi_mat @ u.T).reshape(-1))))


def haar_orthonormalize(normals: np.ndarray) -> CMat:
    """The Haar unitaries of the normals that :func:`haar_unitary` draws,
    real parts then imaginary parts, stacked as ``(..., 2, dim, dim)``: one
    QR over the whole stack, with the R diagonal's phases folded back in
    (Mezzadri, arXiv:math-ph/0609050).  Each matrix is the one its own
    normals alone give, so normals drawn from several generators, or in a
    loop, can be stacked and orthonormalised at once."""
    q, r = np.linalg.qr(normals[..., 0, :, :] + 1j * normals[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator, size=None) -> CMat:
    """Haar-random ``dim x dim`` unitary, or a stack of shape
    ``(*size, dim, dim)``, by :func:`haar_orthonormalize`.  A stack of
    ``n`` consumes ``rng`` exactly as ``n`` sequential calls do and returns
    the same matrices."""
    shape = () if size is None else tuple(np.atleast_1d(size))
    return haar_orthonormalize(rng.standard_normal((*shape, 2, dim, dim)))


def random_density(dim: int, rng: np.random.Generator, size=None) -> DensityOp:
    """A random full-rank density operator of the given dimension, or a
    stack of shape ``(*size, dim, dim)``: G G† / tr(G G†) for a square
    complex Gaussian G, which it keeps as its factor G / sqrt(tr(G G†)), so
    it is not decomposed.  A stack of ``n`` consumes ``rng`` exactly as
    ``n`` sequential calls do and holds the same matrices."""
    shape = () if size is None else tuple(np.atleast_1d(size))
    normals = rng.standard_normal((*shape, 2, dim, dim))
    g = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    m = g @ dagger(g)
    tr = np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    return DensityOp._factored(hermitize(m / tr), g / np.sqrt(tr.real))


def pure_density(sv: StateVector) -> DensityOp:
    """The rank-one density operator of a pure state, or of each state of a
    stack, which keeps the amplitudes as its ``(d, 1)`` factor."""
    col = sv.amps[..., :, None]
    return DensityOp._factored(col * sv.amps.conj()[..., None, :], col)
