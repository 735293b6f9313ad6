import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wotsim.attacks import delta_quantity, f_quantity
from wotsim.catalog import build_leaky
from wotsim.errors import LayoutError, NotPSDError, ShapeError
from wotsim.protocol import FinalStates, ReducedFamily, _analyze, reduce_alice
from wotsim.qcore import (
    ALICE,
    BOB,
    TOL_SPECTRAL,
    DensityOp,
    Factor,
    RegisterLayout,
    StateVector,
    TwoOutcomeMeasurement,
    bipartition_matrix,
    embed_operator,
    fidelity,
    guess_prob,
    haar_orthonormalize,
    haar_unitary,
    helstrom,
    herm_sqrt,
    hermitian_trace_norm,
    hermitize,
    inner,
    partial_trace,
    pure_density,
    random_density,
    trace_norm,
    uhlmann_unitary,
)

KET0 = DensityOp(np.diag([1.0, 0.0]).astype(complex))
KET1 = DensityOp(np.diag([0.0, 1.0]).astype(complex))
PLUS = DensityOp(np.full((2, 2), 0.5, dtype=complex))


def qubit_pair_layout():
    return RegisterLayout((Factor("L", 2, ALICE), Factor("R", 2, BOB)))


# --- constructors -----------------------------------------------------------

@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_constructors_reject_non_finite_entries(value):
    amps = np.array([1.0, 0.0, 0.0, value])
    with pytest.raises(ShapeError):
        StateVector(qubit_pair_layout(), amps)
    with pytest.raises(ShapeError):
        DensityOp(np.diag([1.0, value]))
    with pytest.raises(ShapeError):
        TwoOutcomeMeasurement(np.diag([1.0, value]), np.diag([0.0, 1.0]))


# --- partial trace ---------------------------------------------------------

def test_partial_trace_product_state():
    lay = qubit_pair_layout()
    rho = partial_trace(pure_density(StateVector(lay, [1, 0, 0, 0])), lay, ["L"])
    assert np.allclose(rho.mat, KET0.mat)


def test_partial_trace_bell_state():
    lay = qubit_pair_layout()
    bell = StateVector(lay, np.array([1, 0, 0, 1]) / np.sqrt(2))
    for keep in (["L"], ["R"]):
        rho = partial_trace(pure_density(bell), lay, keep)
        assert np.allclose(rho.mat, np.eye(2) / 2)


def test_partial_trace_dim_mismatch():
    lay = qubit_pair_layout()
    with pytest.raises(LayoutError):
        partial_trace(DensityOp(np.eye(2) / 2), lay, ["L"])


def test_partial_trace_unknown_name():
    lay = qubit_pair_layout()
    rho = random_density(4, np.random.default_rng(0))
    with pytest.raises(LayoutError):
        partial_trace(rho, lay, ["nope"])


def test_partial_trace_preserves_trace_and_psd(rng):
    lay = RegisterLayout((Factor("L", 2, ALICE), Factor("R", 3, BOB)))
    for _ in range(25):
        rho = random_density(6, rng)
        red = partial_trace(rho, lay, ["R"])
        assert abs(np.trace(red.mat) - 1.0) < TOL_SPECTRAL
        assert np.linalg.eigvalsh(red.mat).min() > -TOL_SPECTRAL


# --- trace norm and guessing probability ------------------------------------

def test_trace_norm_diag():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)
    assert trace_norm(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-12)


def test_trace_norm_ket0_minus_plus():
    # eigenvalues of |0><0| - |+><+| are +/- 1/sqrt(2), derived by eigensolver
    diff = KET0.mat - PLUS.mat
    eigs = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    assert np.allclose(sorted(np.abs(eigs)), [1 / np.sqrt(2)] * 2)
    assert trace_norm(diff) == pytest.approx(np.sqrt(2), abs=1e-12)


def test_trace_norm_rejects_nonsquare():
    with pytest.raises(ShapeError):
        trace_norm(np.ones((2, 3)))


def test_guess_prob_examples():
    rho = random_density(3, np.random.default_rng(5))
    assert guess_prob(rho, rho) == pytest.approx(0.5, abs=1e-9)
    assert guess_prob(KET0, KET1) == pytest.approx(1.0, abs=1e-12)
    assert guess_prob(KET0, PLUS) == pytest.approx(0.5 + np.sqrt(2) / 4, abs=1e-12)


def test_guess_prob_dim_mismatch():
    with pytest.raises(ShapeError):
        guess_prob(KET0, random_density(3, np.random.default_rng(0)))


# --- helstrom ----------------------------------------------------------------

def test_helstrom_orthogonal_states():
    meas, success = helstrom(KET0, KET1)
    assert success == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(meas.pos, KET0.mat)
    assert np.allclose(meas.neg, KET1.mat)


def test_helstrom_identical_states(rng):
    rho = random_density(3, rng)
    _, success = helstrom(rho, rho)
    assert success == pytest.approx(0.5, abs=1e-9)


def test_helstrom_beats_random_measurements(rng):
    from wotsim.oracle import helstrom_oracle

    rho, xi = random_density(2, rng), random_density(2, rng)
    _, success = helstrom(rho, xi)
    assert success >= helstrom_oracle(rho, xi, 1000, seed=0) - 1e-6


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
def test_helstrom_matches_guess_prob(seed, dim):
    gen = np.random.default_rng(seed)
    rho, xi = random_density(dim, gen), random_density(dim, gen)
    _, success = helstrom(rho, xi)
    assert success == pytest.approx(guess_prob(rho, xi), abs=TOL_SPECTRAL)


# --- herm_sqrt and fidelity --------------------------------------------------

def test_herm_sqrt_examples():
    assert np.allclose(herm_sqrt(DensityOp(np.eye(2) / 2)), np.eye(2) / np.sqrt(2))
    assert np.allclose(herm_sqrt(KET0), KET0.mat)
    root = herm_sqrt(DensityOp(np.diag([0.25, 0.75]).astype(complex)))
    assert np.allclose(root, np.diag([0.5, np.sqrt(0.75)]))


def test_herm_sqrt_squares_back(rng):
    rho = random_density(4, rng)
    root = herm_sqrt(rho)
    assert np.allclose(root @ root, rho.mat, atol=1e-9)
    assert np.allclose(root, root.conj().T)


def test_herm_sqrt_rejects_negative():
    mat = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(NotPSDError):
        DensityOp(mat)


def test_fidelity_extremes(rng):
    rho = random_density(3, rng)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    assert fidelity(KET0, KET1) == pytest.approx(0.0, abs=1e-9)
    # orthogonal pure states in random bases: the roundoff eigenvalues of
    # rank-deficient states must not reach the fidelity through their roots
    for dim in (2, 3, 4):
        cols = haar_unitary(dim, rng, size=50)[..., :2]
        pair = DensityOp(np.einsum("nik,njk->nkij", cols, cols.conj()))
        assert np.max(fidelity(pair[:, 0], pair[:, 1])) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fidelity_pure_states_inner_product(seed):
    gen = np.random.default_rng(seed)
    phi = haar_unitary(3, gen)[:, 0]
    psi = haar_unitary(3, gen)[:, 0]
    f = fidelity(
        DensityOp(np.outer(phi, phi.conj())), DensityOp(np.outer(psi, psi.conj()))
    )
    assert f == pytest.approx(abs(np.vdot(phi, psi)), abs=TOL_SPECTRAL)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
def test_fidelity_symmetric_and_fuchs_van_de_graaf(seed, dim):
    gen = np.random.default_rng(seed)
    rho, xi = random_density(dim, gen), random_density(dim, gen)
    f = fidelity(rho, xi)
    assert f == pytest.approx(fidelity(xi, rho), abs=TOL_SPECTRAL)
    tn = trace_norm(rho.mat - xi.mat)
    assert 1.0 - tn / 2.0 <= f + TOL_SPECTRAL
    assert f <= np.sqrt(max(0.0, 1.0 - tn**2 / 4.0)) + TOL_SPECTRAL


# --- uhlmann -----------------------------------------------------------------

def _random_state(lay, gen):
    amps = gen.standard_normal(lay.dim) + 1j * gen.standard_normal(lay.dim)
    return StateVector(lay, amps / np.linalg.norm(amps))


def test_uhlmann_identical_states(rng):
    lay = qubit_pair_layout()
    phi = _random_state(lay, rng)
    _, overlap = uhlmann_unitary(phi, phi, ["R"])
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_uhlmann_orthogonal_reduced_states():
    lay = qubit_pair_layout()
    phi = StateVector(lay, [1, 0, 0, 0])  # reduced |0><0| on L
    psi = StateVector(lay, [0, 0, 1, 0])  # reduced |1><1| on L
    _, overlap = uhlmann_unitary(phi, psi, ["R"])
    assert overlap == pytest.approx(0.0, abs=1e-9)


def test_uhlmann_rejects_bad_subsets(rng):
    lay = qubit_pair_layout()
    phi = _random_state(lay, rng)
    with pytest.raises(LayoutError):
        uhlmann_unitary(phi, phi, [])
    with pytest.raises(LayoutError):
        uhlmann_unitary(phi, phi, ["L", "R"])
    other = RegisterLayout((Factor("L", 2, ALICE), Factor("R", 2, ALICE)))
    with pytest.raises(LayoutError):
        uhlmann_unitary(phi, StateVector(other, phi.amps), ["R"])
    with pytest.raises(ShapeError):
        embed_operator(np.eye(4), lay, ["R"])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_uhlmann_attains_fidelity_and_is_unitary(seed):
    gen = np.random.default_rng(seed)
    lay = RegisterLayout((Factor("S", 2, ALICE), Factor("E", 3, BOB)))
    phi, psi = _random_state(lay, gen), _random_state(lay, gen)
    u, overlap = uhlmann_unitary(phi, psi, ["E"])
    assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-9)
    f = fidelity(
        partial_trace(pure_density(phi), lay, ["S"]),
        partial_trace(pure_density(psi), lay, ["S"]),
    )
    assert overlap == pytest.approx(f, abs=TOL_SPECTRAL)
    assert overlap >= -TOL_SPECTRAL
    # the overlap really is <phi|(I x U)|psi>
    full = embed_operator(u, lay, ["E"])
    direct = np.vdot(phi.amps, full @ psi.amps)
    assert abs(direct - overlap) < 1e-9


def test_uhlmann_noncontiguous_bipartition(rng):
    # b factors straddle a kept factor in layout order
    lay = RegisterLayout((
        Factor("B1", 2, BOB), Factor("K", 2, ALICE), Factor("B2", 2, BOB),
    ))
    phi, psi = _random_state(lay, rng), _random_state(lay, rng)
    u, overlap = uhlmann_unitary(phi, psi, ["B1", "B2"])
    f = fidelity(
        partial_trace(pure_density(phi), lay, ["K"]),
        partial_trace(pure_density(psi), lay, ["K"]),
    )
    assert overlap == pytest.approx(f, abs=TOL_SPECTRAL)
    full = embed_operator(u, lay, ["B1", "B2"])
    assert abs(np.vdot(phi.amps, full @ psi.amps) - overlap) < 1e-9


# --- trace norm is a norm ----------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
def test_trace_norm_properties(seed, dim):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    b = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    assert trace_norm(a) >= 0.0
    assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + TOL_SPECTRAL
    u, v = haar_unitary(dim, gen), haar_unitary(dim, gen)
    assert trace_norm(u @ a @ v) == pytest.approx(trace_norm(a), abs=TOL_SPECTRAL)


# --- validation of the domain types ------------------------------------------

def test_layout_rejects_duplicates_and_small_dims():
    with pytest.raises(LayoutError):
        RegisterLayout((Factor("A", 2, ALICE), Factor("A", 2, BOB)))
    with pytest.raises(LayoutError):
        Factor("A", 1, ALICE)
    with pytest.raises(LayoutError):
        Factor("A", 2, "Nobody")


def test_state_vector_requires_unit_norm():
    lay = qubit_pair_layout()
    with pytest.raises(ShapeError):
        StateVector(lay, [1, 0, 0, 1])


def test_density_op_validation():
    with pytest.raises(ShapeError):
        DensityOp(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not hermitian
    with pytest.raises(ShapeError):
        DensityOp(np.eye(2))  # trace 2


def test_measurement_validation():
    pos = np.diag([1.0, 0.0]).astype(complex)
    TwoOutcomeMeasurement(pos, np.eye(2) - pos)
    with pytest.raises(ShapeError):
        TwoOutcomeMeasurement(pos, pos)  # does not sum to identity
    with pytest.raises(ShapeError):
        TwoOutcomeMeasurement(0.5 * pos, np.eye(2) - 0.5 * pos)  # not idempotent
    huge = np.array([[0.5, 1e200 + 1e200j], [1e200 - 1e200j, 0.5]])
    with pytest.raises(ShapeError):
        TwoOutcomeMeasurement(huge, np.eye(2) - huge)  # P @ P is NaN
    with pytest.raises(ShapeError):
        TwoOutcomeMeasurement(pos, np.eye(3))  # unequal shapes


def test_haar_unitary_is_unitary_and_deterministic():
    u1 = haar_unitary(4, np.random.default_rng(11))
    u2 = haar_unitary(4, np.random.default_rng(11))
    assert np.allclose(u1, u2)
    assert np.allclose(u1.conj().T @ u1, np.eye(4), atol=1e-12)


def _haar_unitary_reference(dim, gen):
    # the single-matrix recipe that haar_unitary must keep reproducing bitwise
    z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7])
def test_haar_unitary_single_draw_is_unchanged(dim):
    for seed in range(10):
        assert np.array_equal(
            haar_unitary(dim, np.random.default_rng(seed)),
            _haar_unitary_reference(dim, np.random.default_rng(seed)),
        )


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_haar_unitary_stack_equals_sequential_calls(dim):
    for seed in range(5):
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
        stack = haar_unitary(dim, g1, size=33)
        sequential = np.stack([haar_unitary(dim, g2) for _ in range(33)])
        assert stack.shape == (33, dim, dim)
        assert np.array_equal(stack, sequential)
        assert g1.random() == g2.random()  # both streams consumed alike
        grid = haar_unitary(dim, np.random.default_rng(seed), size=(3, 11))
        assert np.array_equal(grid, sequential.reshape(3, 11, dim, dim))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7])
def test_one_orthonormalisation_of_per_seed_normals_equals_per_seed_draws(dim):
    # normals drawn from separate generators, stacked, give each generator's
    # own unitaries, bit for bit
    normals = [np.random.default_rng(s).standard_normal((2, 2, dim, dim)) for s in range(6)]
    per_seed = np.stack([haar_unitary(dim, np.random.default_rng(s), 2) for s in range(6)])
    assert np.array_equal(haar_orthonormalize(np.stack(normals)), per_seed)


def test_hermitian_trace_norm_matches_the_svd():
    gen = np.random.default_rng(19)
    for dim in range(1, 10):
        z = gen.standard_normal((2, 25, dim, dim))
        h = z[0] + 1j * z[1]
        h = h + h.conj().swapaxes(-1, -2)
        assert np.max(np.abs(hermitian_trace_norm(h) - trace_norm(h))) <= 1e-12
        single = hermitian_trace_norm(h[0])
        assert isinstance(single, float) and abs(single - trace_norm(h[0])) <= 1e-12
    # the pair differences of a leaky protocol's reduced states
    rho, xi = _analyze(build_leaky(0.3)).reduced.pairs
    diff = rho.mat - xi.mat
    assert np.max(np.abs(hermitian_trace_norm(diff) - trace_norm(diff))) <= 1e-12
    with pytest.raises(ShapeError):
        hermitian_trace_norm(np.ones((2, 3)))



@pytest.mark.parametrize("dtype", [complex, float])
def test_hermitize_allocates_only_its_output(dtype):
    # (M + M†)/2 with a conjugated copy of M peaked at twice the output
    z = np.random.default_rng(23).standard_normal((2, 200, 64, 64))
    mat = z[0] + 1j * z[1] if dtype is complex else z[0]
    before = mat.copy()
    tracemalloc.start()
    try:
        out = hermitize(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.nbytes
    assert np.array_equal(mat, before)
    assert np.array_equal(out, (mat + mat.conj().swapaxes(-1, -2)) / 2)

def _final_states(m: np.ndarray) -> FinalStates:
    """Final states on Alice's 9-dim factor and a k-dim rest whose (Alice,
    rest) amplitude matrices are the normalized ``(..., 2, 2, 2, 9, k)``
    stack ``m``."""
    k = m.shape[-1]
    factors = (Factor("A", 9, ALICE),) + ((Factor("R", k, BOB),) if k > 1 else ())
    amps = m / np.linalg.norm(m, axis=(-2, -1), keepdims=True)
    return FinalStates(StateVector(RegisterLayout(factors), amps.reshape(amps.shape[:-2] + (-1,))),
                       frozenset({"A"}))


@pytest.mark.parametrize("k", range(1, 10))
def test_density_from_amplitudes_matches_the_eigh_route(k, monkeypatch):
    # 9 x k amplitude matrices, narrower or wider than tall: the reduced
    # states are M M† and keep M as their factor, with no eigh at
    # construction; an eigh of their matrix gives the ascending spectrum
    # with an orthonormal eigenbasis
    z = np.random.default_rng(k).standard_normal((2, 3, 2, 2, 2, 9, k))
    fs = _final_states(z[0] + 1j * z[1])
    m = bipartition_matrix(fs.stack, fs.bob_factors)
    calls = _eigh_counter(monkeypatch)
    rho = reduce_alice(fs).states
    assert calls == []
    assert np.array_equal(rho.mat, hermitize(m @ m.conj().swapaxes(-1, -2)))
    assert np.array_equal(rho.factor, m)
    w, v = np.linalg.eigh(rho.mat)
    assert np.all(np.diff(w, axis=-1) >= 0)
    assert np.abs(w - np.linalg.eigvalsh(rho.mat)).max() <= 1e-12
    assert np.abs(v.conj().swapaxes(-1, -2) @ v - np.eye(9)).max() <= 1e-12
    assert np.abs((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2) - rho.mat).max() <= 1e-12


def test_every_density_route_keeps_a_factor():
    # rho = F F† for a read-only F, whichever way the stack was built
    gen = np.random.default_rng(41)
    z = gen.standard_normal((2, 4, 3, 2))
    low_rank = z[0] + 1j * z[1]
    low_rank = low_rank @ low_rank.conj().swapaxes(-1, -2)
    low_rank /= np.trace(low_rank, axis1=-2, axis2=-1)[:, None, None]
    amps = gen.standard_normal((5, 4)) + 1j * gen.standard_normal((5, 4))
    sv = StateVector(qubit_pair_layout(), amps / np.linalg.norm(amps, axis=-1, keepdims=True))
    z = gen.standard_normal((2, 2, 2, 2, 9, 4))
    states = {
        "constructor": DensityOp(hermitize(low_rank)),
        "partial_trace": partial_trace(pure_density(sv), qubit_pair_layout(), ["L"]),
        "random_density": random_density(3, gen, size=(2, 3)),
        "pure_density": pure_density(sv),
        "reduce_alice": reduce_alice(_final_states(z[0] + 1j * z[1])).states,
    }
    states["indexing"] = states["constructor"][2]
    for route, rho in states.items():
        f = rho.factor
        assert f.shape[:-1] == rho.mat.shape[:-1], route
        assert np.abs(f @ f.conj().swapaxes(-1, -2) - rho.mat).max() <= 1e-12, route
        assert not f.flags.writeable, route
    # the constructor drops the columns of the zeroed roundoff eigenvalues
    assert states["constructor"].factor.shape == (4, 3, 2)


def test_fidelity_over_the_widest_support_matches_the_square_roots():
    # pure and full-rank members in one stack: the cross product is as wide
    # as the largest rank, and agrees with ||sqrt(rho) sqrt(xi)||_1
    gen = np.random.default_rng(23)
    for dim in (2, 3, 5):
        mixed = random_density(dim, gen, size=(4, 2)).mat
        z = gen.standard_normal((2, 4, 2, dim))
        psi = z[0] + 1j * z[1]
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        pure = psi[..., :, None] * psi[..., None, :].conj()
        for mats in (np.concatenate([mixed, pure]), pure):
            rho, xi = DensityOp(mats[:, 0]), DensityOp(mats[:, 1])
            reference = trace_norm(herm_sqrt(rho) @ herm_sqrt(xi))
            assert np.abs(fidelity(rho, xi) - reference).max() <= 1e-12
        overlap = np.abs(np.sum(psi[:, 0].conj() * psi[:, 1], axis=-1))
        assert np.abs(fidelity(DensityOp(pure[:, 0]), DensityOp(pure[:, 1])) - overlap).max() <= 1e-12



# --- states that keep their factor ---------------------------------------------

def _eigh_counter(monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, _o=np.linalg.eigh: calls.append(1) or _o(*a))
    return calls


def test_random_family_bounds_run_no_eigh(monkeypatch):
    # random densities are PSD by construction and keep their Gaussian
    # factor: the bound chain reads the factor, and the trace distances take
    # eigvalsh, so nothing is eigendecomposed
    calls = _eigh_counter(monkeypatch)
    rf = ReducedFamily(random_density(3, np.random.default_rng(29), size=(28, 2, 2, 2)))
    f, d = f_quantity(rf), delta_quantity(rf)
    assert calls == []
    assert np.all(f + d >= 4.0 - TOL_SPECTRAL)


def test_indexing_a_factored_state_slices_its_factor(monkeypatch):
    gen = np.random.default_rng(31)
    amps = gen.standard_normal((5, 2, 3)) + 1j * gen.standard_normal((5, 2, 3))
    pure = pure_density(StateVector(RegisterLayout((Factor("Q", 3, ALICE),)),
                                    amps / np.linalg.norm(amps, axis=-1, keepdims=True)))
    calls = _eigh_counter(monkeypatch)
    for rho in (random_density(3, gen, size=(5, 2)), pure):
        assert np.abs(rho.factor @ rho.factor.conj().swapaxes(-1, -2) - rho.mat).max() <= 1e-14
        for index in ((2, 1), 3, (slice(1, 4), 0)):
            member = rho[index]
            assert np.array_equal(member.mat, rho.mat[index])
            assert np.array_equal(member.factor, rho.factor[index])
            assert not member.mat.flags.writeable and not member.factor.flags.writeable
        assert not rho.mat.flags.writeable and not rho.factor.flags.writeable
    assert calls == []


def test_density_op_is_its_matrix_and_its_factor():
    assert [f.name for f in dataclasses.fields(DensityOp)] == ["mat", "factor"]


def test_herm_sqrt_runs_one_eigh_of_its_own(monkeypatch):
    # the reference square root reads mat alone, whichever way the stack
    # was built, so the tests that compare fidelity with it compare two
    # kernels, not the factor with itself
    gen = np.random.default_rng(43)
    z = gen.standard_normal((2, 4, 3, 2))
    low_rank = z[0] + 1j * z[1]
    low_rank = low_rank @ low_rank.conj().swapaxes(-1, -2)
    low_rank /= np.trace(low_rank, axis1=-2, axis2=-1)[:, None, None]
    factored = random_density(3, gen, size=(2, 3))
    states = (DensityOp(hermitize(low_rank)), factored, factored[1], factored[:, 2])
    for rho in states:
        w, v = np.linalg.eigh(rho.mat)
        # the low-rank members' zero eigenvalues are roundoff of order 1e-17
        w = np.where(w > 1e-12, w, 0.0)
        reference = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        calls = _eigh_counter(monkeypatch)
        root = herm_sqrt(rho)
        assert len(calls) == 1
        monkeypatch.undo()
        assert np.abs(root - reference).max() <= 1e-12


def test_fidelity_of_pure_against_mixed_states_matches_the_square_roots():
    # a d x 1 factor against a d x d one: the cross product is 1 x d
    gen = np.random.default_rng(37)
    for dim in (2, 3, 4):
        amps = gen.standard_normal((6, dim)) + 1j * gen.standard_normal((6, dim))
        pure = pure_density(StateVector(RegisterLayout((Factor("Q", dim, ALICE),)),
                                        amps / np.linalg.norm(amps, axis=-1, keepdims=True)))
        mixed = random_density(dim, gen, size=6)
        reference = trace_norm(herm_sqrt(pure) @ herm_sqrt(mixed))
        for got in (fidelity(pure, mixed), fidelity(mixed, pure)):
            assert got.shape == (6,)
            assert np.abs(got - reference).max() <= 1e-12
        single = fidelity(pure[0], mixed[0])
        assert isinstance(single, float) and abs(single - reference[0]) <= 1e-12


# --- stacks ------------------------------------------------------------------

def _random_density_reference(dim, gen):
    # the single-matrix recipe that random_density must keep reproducing bitwise
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m)
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_random_density_stack_equals_sequential_calls(dim):
    for seed in range(5):
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
        stack = random_density(dim, g1, size=17)
        sequential = np.stack([random_density(dim, g2).mat for _ in range(17)])
        assert stack.mat.shape == (17, dim, dim)
        assert np.array_equal(stack.mat, sequential)
        assert g1.random() == g2.random()  # both streams consumed alike
        grid = random_density(dim, np.random.default_rng(seed), size=(1, 17))
        assert np.array_equal(grid.mat, sequential.reshape(1, 17, dim, dim))
        single = random_density(dim, np.random.default_rng(seed)).mat
        assert np.array_equal(single, _random_density_reference(dim, np.random.default_rng(seed)))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stacked_primitives_equal_per_matrix_calls(dim):
    gen = np.random.default_rng(dim)
    rho, xi = random_density(dim, gen, size=(3, 4)), random_density(dim, gen, size=(3, 4))
    arbitrary = gen.standard_normal((3, 4, dim, dim)) + 1j * gen.standard_normal((3, 4, dim, dim))
    tn, gp, f = trace_norm(arbitrary), guess_prob(rho, xi), fidelity(rho, xi)
    meas, success = helstrom(rho, xi)
    root = herm_sqrt(rho)
    for shaped in (tn, gp, f, success):
        assert isinstance(shaped, np.ndarray) and shaped.shape == (3, 4)
    for i in np.ndindex(3, 4):
        r, x = rho[i], xi[i]
        single = [trace_norm(arbitrary[i]), guess_prob(r, x), fidelity(r, x), helstrom(r, x)[1]]
        assert all(isinstance(v, float) for v in single)
        for stacked, value in zip((tn, gp, f, success), single):
            assert abs(stacked[i] - value) <= 1e-15
        m, _ = helstrom(r, x)
        assert np.abs(meas.pos[i] - m.pos).max() <= 1e-15
        assert np.abs(meas.neg[i] - m.neg).max() <= 1e-15
        assert np.abs(root[i] - herm_sqrt(r)).max() <= 1e-15
        assert r.factor.tobytes() == rho.factor[i].tobytes()


def _bad_members():
    # (matrix, error) pairs that the scalar constructor rejects
    nan = np.eye(2, dtype=complex) / 2
    nan[0, 1] = nan[1, 0] = np.nan
    return [
        (np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex), ShapeError),  # not Hermitian
        (np.eye(2, dtype=complex), ShapeError),  # trace 2
        (np.diag([1.5, -0.5]).astype(complex), NotPSDError),  # not PSD
        (nan, ShapeError),  # non-finite
    ]


@pytest.mark.parametrize("bad, error", _bad_members())
def test_stacked_density_op_rejects_one_bad_member(bad, error):
    with pytest.raises(error):
        DensityOp(bad)
    stack = random_density(2, np.random.default_rng(0), size=(3, 5)).mat.copy()
    stack[2, 3] = bad
    with pytest.raises(error):
        DensityOp(stack)


def test_density_op_member_read_keeps_matrix_axes():
    stack = random_density(3, np.random.default_rng(1), size=(3, 3))
    assert np.array_equal(stack[1, 2].mat, stack.mat[1, 2])
    assert np.array_equal(stack[..., 0].mat, stack.mat[:, 0])
    assert stack[1].mat.shape == (3, 3, 3)
    with pytest.raises(IndexError):
        stack[1, 2, 0]


def test_state_primitives_take_stacks():
    lay = RegisterLayout((Factor("A", 2, ALICE), Factor("B", 3, BOB), Factor("C", 2, ALICE)))
    gen = np.random.default_rng(3)
    amps = gen.standard_normal((4, 2, 12)) + 1j * gen.standard_normal((4, 2, 12))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    stack = StateVector(lay, amps)
    # the tensor form gives the same stack
    assert np.array_equal(StateVector(lay, amps.reshape(4, 2, 2, 3, 2)).amps, stack.amps)
    mats, rho = bipartition_matrix(stack, ["A", "C"]), pure_density(stack)
    assert mats.shape == (4, 2, 3, 4) and rho.mat.shape == (4, 2, 12, 12)
    # rows are B, columns (A, C)
    tensor = amps.reshape(4, 2, 2, 3, 2)
    assert np.array_equal(mats, tensor.transpose(0, 1, 3, 2, 4).reshape(4, 2, 3, 4))
    overlaps = inner(amps[:, 0], amps[:, 1])
    for i in np.ndindex(4, 2):
        single = StateVector(lay, amps[i])
        assert np.array_equal(mats[i], bipartition_matrix(single, ["A", "C"]))
        assert np.array_equal(rho.mat[i], np.outer(amps[i], amps[i].conj()))
        assert np.array_equal(rho.mat[i], pure_density(single).mat)
    for n in range(4):
        assert overlaps[n] == np.vdot(amps[n, 0], amps[n, 1])


def test_stacked_state_vector_rejects_one_bad_member():
    lay = qubit_pair_layout()
    amps = np.tile(np.array([1, 0, 0, 0], dtype=complex), (3, 1))
    StateVector(lay, amps)
    amps[1, 3] = 1.0
    with pytest.raises(ShapeError):
        StateVector(lay, amps)
    with pytest.raises(ShapeError):
        StateVector(lay, np.zeros((3, 5)))
