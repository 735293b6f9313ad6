"""Brute-force verifiers for the closed forms used elsewhere.

Every oracle here is a lower-bound estimator built from explicit states and
exhaustive or random search, with no reliance on the formula it checks:
``cks_alice_oracle`` grid-searches cheating preparations for the qutrit
protocol, ``helstrom_oracle`` tries random projective measurements, and
``uhlmann_oracle`` tries random unitaries on the purifying system.

The two random oracles take one pair of states or stacks of pairs.  Within
one call every pair is scored against the same candidates, the Haar draws
of one ``default_rng(seed)``, so a stack costs one orthonormalisation per
candidate, not one per candidate and pair, and each pair's value equals
that of its own call with the same seed.

The qutrit oracles hold no copy of the protocol: ``cks_alice_success``, the
one success function of the grid search, verify and the tests, runs a stack
of cheating preparations on the (A, M) factors through one ``build_cks()``
with the engine that analyses every protocol.  The vectors ``|e_c>|c>`` are
orthonormal whatever the ancillas, so the search fixes the orthonormal
ones; ``cks_alice_success`` takes any, so that this is itself checked.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .catalog import _cks
from .errors import MAX_SWEEP_SIZE, RangeError, ShapeError
from .protocol import _execute
from .qcore import (DensityOp, StateVector, bipartition_matrix, float_or_array,
                    haar_unitary, hermitian_trace_norm)
from .tradeoff import _check_delta

# Samples per stacked QR in the measurement and unitary oracles, so their
# memory stays O(_CHUNK * dim^2 + n * _CHUNK * dim) for n pairs whatever
# the sample count.
_CHUNK = 512


def grid_tolerance(grid: int) -> float:
    """Honest error bar for a grid-search maximum: 2 / grid."""
    return 2.0 / grid


def _cheat_states(weights, ancillas) -> np.ndarray:
    """The post-interaction states psi[x0, x1], (n, 2, 2, 9), of the
    preparations of ``cks_alice_success``: one execution of ``build_cks()``
    from all of them, in which Bob's block for (x0, x1) acts on sector
    (x0, x1)."""
    # entry 3 i + c of a preparation is w_c times entry i of e_c
    prepared = (np.asarray(weights)[..., None] * np.asarray(ancillas)).swapaxes(-1, -2)
    return _execute(_cks(), prepared.reshape(-1, 9)).reshape(-1, 2, 2, 9)


def cks_alice_success(weights, ancillas) -> np.ndarray:
    """``[P(x0), P(x1)]``, an (n, 2) array: how well each cheating
    preparation sum_c w_c |e_c>_A |c>_M guesses x0 and x1, for nonnegative
    unit weights as rows of an (n, 3) array and unit ancillas e_c as rows of
    a (3, 3) array, shared by every preparation, or of an (n, 3, 3) array.

    Each probability comes from the trace norm of the difference of two
    conditional mixtures of the explicit 9-dim states; no closed form is
    used.
    """
    weights = np.asarray(weights, dtype=float)
    ancillas = np.asarray(ancillas, dtype=complex)
    if (weights.ndim != 2 or weights.shape[1] != 3 or len(weights) == 0
            or ancillas.shape not in ((3, 3), (len(weights), 3, 3))):
        raise ShapeError(f"need weights (n, 3), n >= 1, and ancillas (3, 3) or (n, 3, 3), "
                         f"got {weights.shape} and {ancillas.shape}")
    # written so that NaN fails each check
    if not np.all(weights >= 0):
        raise RangeError("weights must be nonnegative")
    if not np.all(np.abs(np.sum(weights**2, axis=1) - 1.0) <= 1e-9):
        raise RangeError("weights must have squared norm 1")
    if not np.all(np.abs(np.linalg.norm(ancillas, axis=-1) - 1.0) <= 1e-9):
        raise RangeError("ancilla vectors must be unit vectors")
    psi = _cheat_states(weights, ancillas)
    # rho_0 - rho_1 for each target t, where rho_v averages the states whose
    # target bit reads v; one target at a time, so that no more than two
    # (n, 9, 9) stacks are alive at once (eigvalsh of one (n, 2, 9, 9) stack
    # raises verify's peak memory by about 0.4 MB)
    success = np.empty((len(psi), 2))
    for t, by_bit in enumerate((psi, psi.swapaxes(1, 2))):
        diff = np.einsum("nyi,nyj->nij", by_bit[:, 0], by_bit[:, 0].conj())
        diff -= np.einsum("nyi,nyj->nij", by_bit[:, 1], by_bit[:, 1].conj())
        diff /= 2
        success[:, t] = 0.5 + 0.25 * hermitian_trace_norm(diff)
    return success


def _candidate_weights(delta: float, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, gamma) candidates: the feasibility boundary alpha*gamma =
    1/2 - delta traced along a gamma grid, a coarse interior grid, and the
    honest preparation."""
    threshold = 0.5 - delta
    g = np.arange(1, grid + 1) / grid
    a = threshold / g
    edge = (a <= 1.0) & (a * a + g * g <= 1.0)
    coarse = np.arange(0, grid + 1, max(1, grid // 100)) / grid
    ca, cg = np.meshgrid(coarse, coarse, indexing="ij")
    interior = (ca * ca + cg * cg <= 1.0) & (ca * cg >= threshold - 1e-12)
    honest = [1.0 / np.sqrt(2.0)]
    return (np.concatenate([honest, a[edge], ca[interior]]),
            np.concatenate([honest, g[edge], cg[interior]]))


def cks_alice_oracle(delta: float, grid: int) -> float:
    """Grid-search the best cheating preparation for the qutrit protocol.

    Maximizes the probability of guessing x1 over preparations whose
    probability of guessing x0 is at least 1 - delta, sweeping (alpha,
    gamma) candidates with beta fixed by normalization, each run through
    ``build_cks()`` with the orthonormal ancillas; the success does not
    depend on the ancillas.  A lower-bound estimate of the true maximum with
    grid error about ``grid_tolerance(grid)``; NaN if no candidate passes
    the check of P(x0), which only a faulty success function can cause
    (the honest preparation always passes it).
    """
    _check_delta(delta)
    if not 50 <= grid <= MAX_SWEEP_SIZE:
        raise RangeError(f"grid must be in [50, {MAX_SWEEP_SIZE}], got {grid}")
    alphas, gammas = _candidate_weights(delta, grid)
    betas = np.sqrt(np.clip(1.0 - alphas**2 - gammas**2, 0.0, None))
    success = cks_alice_success(np.stack([alphas, betas, gammas], axis=1), np.eye(3))
    # the honest preparation guesses x0 with certainty, so only a faulty
    # success function leaves no candidate feasible
    feasible = success[:, 0] >= 1.0 - delta - 1e-12
    return float(success[feasible, 1].max()) if feasible.any() else np.nan


def helstrom_oracle(rho0: DensityOp, rho1: DensityOp, samples: int, seed: int):
    """Best success probability among random two-outcome projective
    measurements at distinguishing equiprobable ``rho0`` and ``rho1``: a
    float for one pair, an ``(n,)`` array for stacks ``(n, d, d)`` of pairs.

    Sample ``i`` is the ``i``-th Haar unitary drawn from one
    ``default_rng(seed)`` and projects onto its first ``1 + i mod (dim - 1)``
    columns, so the ranks cycle and more samples only add candidates.  Every
    pair of a stack is scored against the same samples, so a stacked call
    equals the per-pair calls with the same seed.  A lower bound on the
    optimal guessing probability; with enough samples in low dimension it
    concentrates near it.
    """
    if rho0.dim != rho1.dim:
        raise RangeError("states must have equal dimension")
    if samples < 1:
        raise RangeError(f"samples must be >= 1, got {samples}")
    dim = rho0.dim
    diff = rho0.mat - rho1.mat
    rng = np.random.default_rng(seed)
    best = np.zeros(diff.shape[:-2])
    for start in range(0, samples, _CHUNK):
        u = haar_unitary(dim, rng, size=min(_CHUNK, samples - start))
        ranks = 1 + (start + np.arange(len(u))) % max(dim - 1, 1)
        # tr(P diff) for P onto the first `rank` columns: the running sum of
        # the per-column forms <u_k|diff|u_k>, read off at column rank - 1;
        # one contraction, so no (n, samples, dim, dim) product is built
        forms = np.real(np.einsum("cji,...jk,cki->...ci", u.conj(), diff, u))
        traces = np.cumsum(forms, axis=-1)[..., np.arange(len(u)), ranks - 1]
        best = np.maximum(best, np.abs(traces).max(axis=-1))
    return float_or_array(0.5 + 0.5 * best)


def uhlmann_oracle(phi: StateVector, psi: StateVector, b_factors: Iterable[str],
                   samples: int, seed: int):
    """Best overlap |<phi|(I x V)|psi>| among random unitaries V on the
    ``b_factors`` subsystem: a float for one pair, an ``(n,)`` array for
    stacks ``(n, D)`` of pairs, each scored against the same unitaries, the
    ``i``-th Haar draw of one ``default_rng(seed)``.

    A lower bound on the reduced-state fidelity, approaching it with enough
    samples in low dimension.
    """
    if phi.layout != psi.layout:
        raise RangeError("states must share a layout")
    if samples < 1:
        raise RangeError(f"samples must be >= 1, got {samples}")
    b = phi.layout.select(b_factors)
    phi_mat = bipartition_matrix(phi, b)
    psi_mat = bipartition_matrix(psi, b)
    d_b = phi_mat.shape[-1]
    rng = np.random.default_rng(seed)
    best = np.zeros(np.broadcast_shapes(phi_mat.shape, psi_mat.shape)[:-2])
    for start in range(0, samples, _CHUNK):
        vs = haar_unitary(d_b, rng, size=min(_CHUNK, samples - start))
        # <phi|(I x V)|psi> for each pair and sample, evaluated through the states
        overlaps = np.einsum("...ij,...ik,njk->...n", phi_mat.conj(), psi_mat, vs)
        best = np.maximum(best, np.abs(overlaps).max(axis=-1))
    return float_or_array(best)
