import math

import numpy as np
import pytest

from wotsim import catalog, oracle, protocol
from wotsim.errors import MAX_SWEEP_SIZE, RangeError, ShapeError
from wotsim.oracle import (
    _CHUNK,
    _candidate_weights,
    _cheat_states,
    cks_alice_oracle,
    cks_alice_success,
    grid_tolerance,
    helstrom_oracle,
    uhlmann_oracle,
)
from wotsim.qcore import (
    ALICE,
    BOB,
    TOL_SPECTRAL,
    DensityOp,
    Factor,
    RegisterLayout,
    StateVector,
    bipartition_matrix,
    fidelity,
    guess_prob,
    haar_unitary,
    partial_trace,
    pure_density,
    random_density,
    uhlmann_unitary,
)
from wotsim.tradeoff import prop3_bound, prop3_tight


def random_preparation(gen):
    raw = gen.random(3)
    weights = np.sqrt(raw / raw.sum())
    ancillas = np.stack([haar_unitary(3, gen)[:, 0] for _ in range(3)])
    return weights, ancillas


def test_honest_state_successes():
    success = cks_alice_success([[1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)]], np.eye(3))
    assert success.shape == (1, 2)
    assert success[0] == pytest.approx([1.0, 0.5], abs=1e-9)


def test_uniform_state_success():
    w = 1 / math.sqrt(3)
    assert cks_alice_success([[w, w, w]], np.eye(3))[0] == pytest.approx([5 / 6, 5 / 6], abs=1e-9)


def test_closed_forms_random_sweep():
    gen = np.random.default_rng(7)
    weights, ancillas = (np.stack(parts) for parts in
                         zip(*(random_preparation(gen) for _ in range(300))))
    a, b, g = weights.T
    success = cks_alice_success(weights, ancillas)
    assert np.abs(success[:, 0] - (0.5 + a * g)).max() <= TOL_SPECTRAL
    assert np.abs(success[:, 1] - (0.5 + b * g)).max() <= TOL_SPECTRAL


def test_closed_forms_random_phases():
    # phases on the weights are absorbed into the ancilla vectors
    gen = np.random.default_rng(8)
    weights, ancillas = np.empty((100, 3)), np.empty((100, 3, 3), dtype=complex)
    for i in range(100):
        raw = gen.random(3)
        weights[i] = np.sqrt(raw / raw.sum())
        ancillas[i] = [np.exp(1j * gen.uniform(0, 2 * np.pi)) * haar_unitary(3, gen)[:, 0]
                       for _ in range(3)]
    a, b, g = weights.T
    success = cks_alice_success(weights, ancillas)
    assert np.abs(success[:, 0] - (0.5 + a * g)).max() <= TOL_SPECTRAL
    assert np.abs(success[:, 1] - (0.5 + b * g)).max() <= TOL_SPECTRAL


def test_cheat_state_validation():
    e = np.eye(3, dtype=complex)
    honest = [1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)]
    with pytest.raises(RangeError):
        cks_alice_success([honest, [1.0, 1.0, 1.0]], e)
    with pytest.raises(RangeError):
        cks_alice_success([[-0.5, 0.5, math.sqrt(0.5)]], e)
    with pytest.raises(RangeError):
        cks_alice_success([[1.0, 0.0, 0.0]], np.stack([e[0], e[1], 2 * e[2]]))
    with pytest.raises(RangeError):
        cks_alice_success([[math.nan, 0.0, 1.0]], e)
    with pytest.raises(RangeError):
        cks_alice_success([honest, honest], np.stack([e, np.stack([e[0], e[1], 2 * e[2]])]))
    with pytest.raises(ShapeError):
        cks_alice_success(honest, e)
    with pytest.raises(ShapeError):
        cks_alice_success([honest], np.stack([e, e]))


def test_empty_preparation_stack_is_a_shape_error():
    # no preparation at all stops at the shape check, not inside numpy
    with pytest.raises(ShapeError, match="n >= 1"):
        cks_alice_success(np.empty((0, 3)), np.eye(3))


def test_success_builds_the_spec_once(monkeypatch):
    # the qutrit protocol is built and validated once per process, not once
    # per call, and the rotated protocols start from the same one
    built = []
    original = protocol.ProtocolSpec.__post_init__
    monkeypatch.setattr(protocol.ProtocolSpec, "__post_init__",
                        lambda spec: (built.append(spec.name), original(spec)))
    catalog._cks.cache_clear()
    cks_alice_oracle(0.01, 100)
    cks_alice_oracle(0.02, 100)
    cks_alice_success([[1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)]], np.eye(3))
    catalog.random_complete_protocol(np.arange(2))
    assert built == ["cks", "cks-rotated-0-1"]


# --- the grid search -----------------------------------------------------------

def test_oracle_at_zero_delta():
    val = cks_alice_oracle(0.0, 200)
    assert val == pytest.approx(0.5, abs=1 / 200)


def test_oracle_attains_the_constrained_optimum():
    # the best preparation holding the chosen bit at probability 1 - delta
    # reaches prop3_tight(delta); the grid search finds it
    for delta in (0.01, 0.02):
        val = cks_alice_oracle(delta, 200)
        assert val == pytest.approx(prop3_tight(delta), abs=2e-3)


def test_oracle_never_exceeds_analytic_bound():
    for delta in (0.0, 0.005, 0.01, 0.02, 0.0443):
        val = cks_alice_oracle(delta, 100)
        assert val <= prop3_bound(delta) + 1e-6
        assert val <= prop3_bound(delta) + grid_tolerance(100)


def test_oracle_feasible_points_respect_proof_intermediates():
    # every feasible preparation obeys beta^2 <= 2 delta and
    # (alpha - gamma)^2 <= 2 delta up to grid slack
    delta, grid = 0.02, 100
    alphas, gammas = _candidate_weights(delta, grid)
    betas = np.sqrt(np.clip(1 - alphas**2 - gammas**2, 0, None))
    p0 = cks_alice_success(np.stack([alphas, betas, gammas], 1), np.eye(3))[:, 0]
    feas = p0 >= 1 - delta - 1e-12
    slack = grid_tolerance(grid)
    assert np.all(betas[feas] ** 2 <= 2 * delta + slack)
    assert np.all((alphas[feas] - gammas[feas]) ** 2 <= 2 * delta + slack)


def test_oracle_batch_matches_single_calls():
    gen = np.random.default_rng(11)
    raw = gen.random((5, 3))
    weights = np.sqrt(raw / raw.sum(axis=1, keepdims=True))
    shared = np.eye(3, dtype=complex)
    per_sample = haar_unitary(3, gen, size=(5, 3))[..., 0]
    # one ancilla configuration for the batch, (3, 3), or one per preparation
    for ancillas, ancillas_of in ((shared, lambda i: shared),
                                  (per_sample, lambda i: per_sample[i])):
        batch = cks_alice_success(weights, ancillas)
        for i in range(5):
            row = cks_alice_success(weights[i:i + 1], ancillas_of(i))
            assert np.abs(batch[i] - row[0]).max() <= 1e-12


def test_cheat_states_are_the_signed_preparations():
    # the successes do not depend on the ancillas, so check the states
    # themselves: Bob's round flips the sign of |e0>|0> when x0 = 1 and of
    # |e1>|1> when x1 = 1
    gen = np.random.default_rng(12)
    raw = gen.random((4, 3))
    weights = np.sqrt(raw / raw.sum(axis=1, keepdims=True))
    ancillas = haar_unitary(3, gen, size=(4, 3))[..., 0]
    psi = _cheat_states(weights, ancillas)
    assert psi.shape == (4, 2, 2, 9)
    for i in range(4):
        for x0 in (0, 1):
            for x1 in (0, 1):
                signs = ((-1) ** x0, (-1) ** x1, 1)
                expected = sum(signs[c] * weights[i, c] * np.kron(ancillas[i, c], np.eye(3)[c])
                               for c in range(3))
                assert np.abs(psi[i, x0, x1] - expected).max() <= 1e-12, (i, x0, x1)


def _three_configuration_search(delta, grid, gen):
    # the grid search over explicit 9-dim states under the orthonormal and
    # two Haar-random ancilla configurations, each success from the spectrum
    # of the difference of the two conditional mixtures
    alphas, gammas = _candidate_weights(delta, grid)
    betas = np.sqrt(np.clip(1 - alphas**2 - gammas**2, 0, None))
    signs = np.array([[[(-1) ** x0, (-1) ** x1, 1] for x1 in (0, 1)] for x0 in (0, 1)])
    weights = np.stack([alphas, betas, gammas], axis=1)[:, None, None, :] * signs

    def success(psi, target):
        outer = np.einsum("nxyi,nxyj->nxyij", psi, psi.conj())
        rho = outer.mean(axis=2) if target == 0 else outer.mean(axis=1)
        diff = rho[:, 0] - rho[:, 1]
        diff = (diff + np.conj(np.swapaxes(diff, 1, 2))) / 2
        return 0.5 + 0.25 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)

    best = 0.5
    for ancillas in [np.eye(3)] + [haar_unitary(3, gen, size=3)[..., 0] for _ in range(2)]:
        # entry 3 i + c of psi[x0, x1] is weight c times entry i of ancilla c
        psi = np.einsum("nxyc,ci->nxyic", weights, ancillas).reshape(len(alphas), 2, 2, 9)
        feasible = success(psi, 0) >= 1 - delta - 1e-12
        if feasible.any():
            best = max(best, float(success(psi[feasible], 1).max()))
    return best


@pytest.mark.parametrize("grid", [100, 400])
def test_oracle_equals_three_configuration_search(grid):
    # the frame is an isometry, so searching the weights alone loses nothing
    # against the explicit states under any ancilla configuration
    gen = np.random.default_rng(13)
    for delta in (0.0, 0.005, 0.01, 0.0443, 0.1, 0.2):
        reference = _three_configuration_search(delta, grid, gen)
        assert abs(cks_alice_oracle(delta, grid) - reference) <= 1e-12, (delta, grid)


def test_full_state_space_search_confirms_optimum():
    # Unstructured search over arbitrary joint states of the kept system and
    # the sent qutrit (no weight/ancilla parametrization): nothing beats
    # prop3_tight(d) = 1/2 + sqrt(d(1-d)), which the parametrized grid search
    # attains.  The paper's bound prop3_bound(d) therefore holds with slack d.
    gen = np.random.default_rng(99)
    n, delta = 30000, 0.05
    raw = gen.standard_normal((n, 3, 3)) + 1j * gen.standard_normal((n, 3, 3))
    raw /= np.linalg.norm(raw.reshape(n, -1), axis=1)[:, None, None]

    phases = np.empty((2, 2, 3))
    for x0 in (0, 1):
        for x1 in (0, 1):
            phases[x0, x1] = [(-1.0) ** x0, (-1.0) ** x1, 1.0]

    def successes(states, target):
        m = states.shape[0]
        psi = (states[:, None, None, :, :] * phases[None, :, :, None, :]).reshape(m, 2, 2, 9)
        outer = np.einsum("nxyi,nxyj->nxyij", psi, psi.conj())
        rho = outer.mean(axis=2) if target == 0 else outer.mean(axis=1)
        diff = rho[:, 0] - rho[:, 1]
        diff = (diff + np.conj(np.swapaxes(diff, 1, 2))) / 2
        return 0.5 + 0.25 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)

    feasible = successes(raw, 0) >= 1 - delta
    assert feasible.sum() > 100
    best = successes(raw[feasible], 1).max()
    tight = prop3_tight(delta)
    assert best <= tight + 1e-9
    assert best >= tight - 0.02
    assert best <= prop3_bound(delta) + 1e-9


def test_oracle_filters_infeasible_candidates(monkeypatch):
    # candidates the closed form calls infeasible must be dropped by the
    # explicit check of P(x0), not only by the candidate generator
    def with_whole_quarter_disc(delta, grid):
        alphas, gammas = _candidate_weights(delta, grid)
        a, g = np.meshgrid(np.arange(grid + 1) / grid, np.arange(grid + 1) / grid)
        disc = a * a + g * g <= 1.0
        return np.concatenate([alphas, a[disc]]), np.concatenate([gammas, g[disc]])

    grid = 100
    deltas = (0.005, 0.01, 0.02, 0.0443, 0.1)
    unpatched = [cks_alice_oracle(delta, grid) for delta in deltas]
    monkeypatch.setattr(oracle, "_candidate_weights", with_whole_quarter_disc)
    for delta, expected in zip(deltas, unpatched):
        val = cks_alice_oracle(delta, grid)
        assert abs(val - expected) <= 1e-15, delta
        assert val <= prop3_tight(delta) + 1e-12, delta


def test_oracle_rejects_bad_arguments():
    with pytest.raises(RangeError):
        cks_alice_oracle(0.7, 100)
    with pytest.raises(RangeError):
        cks_alice_oracle(0.01, 10)
    with pytest.raises(RangeError):
        cks_alice_oracle(0.01, MAX_SWEEP_SIZE + 1)
    rho2 = DensityOp(np.eye(2, dtype=complex) / 2)
    with pytest.raises(RangeError):
        helstrom_oracle(rho2, DensityOp(np.eye(3, dtype=complex) / 3), 10, seed=0)
    with pytest.raises(RangeError):
        helstrom_oracle(rho2, rho2, 0, seed=0)
    lay = RegisterLayout((Factor("S", 2, ALICE), Factor("E", 2, BOB)))
    other = RegisterLayout((Factor("S", 2, ALICE), Factor("F", 2, BOB)))
    phi = StateVector(lay, [1, 0, 0, 0])
    with pytest.raises(RangeError):
        uhlmann_oracle(phi, StateVector(other, [1, 0, 0, 0]), ["E"], 10, seed=0)
    with pytest.raises(RangeError):
        uhlmann_oracle(phi, phi, ["E"], 0, seed=0)


# --- measurement and unitary oracles ---------------------------------------------

def test_helstrom_oracle_bounds():
    gen = np.random.default_rng(3)
    ket0 = DensityOp(np.diag([1.0, 0.0]).astype(complex))
    ket1 = DensityOp(np.diag([0.0, 1.0]).astype(complex))
    assert helstrom_oracle(ket0, ket1, 100, seed=0) <= 1.0
    rho = random_density(2, gen)
    assert helstrom_oracle(rho, rho, 50, seed=0) == pytest.approx(0.5, abs=1e-12)


def test_helstrom_oracle_concentrates_in_dim_two():
    gen = np.random.default_rng(4)
    for trial in range(10):
        rho, xi = random_density(2, gen), random_density(2, gen)
        gp = guess_prob(rho, xi)
        val = helstrom_oracle(rho, xi, 2000, seed=trial)
        assert gp - 0.02 <= val <= gp + 1e-6


def test_uhlmann_oracle_brackets_fidelity():
    gen = np.random.default_rng(5)
    lay = RegisterLayout((Factor("S", 2, ALICE), Factor("E", 2, BOB)))
    for trial in range(10):
        amps = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        phi = StateVector(lay, amps / np.linalg.norm(amps))
        amps = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        psi = StateVector(lay, amps / np.linalg.norm(amps))
        f = fidelity(
            partial_trace(pure_density(phi), lay, ["S"]),
            partial_trace(pure_density(psi), lay, ["S"]),
        )
        val = uhlmann_oracle(phi, psi, ["E"], 2000, seed=trial)
        assert f - 0.02 <= val <= f + 1e-6
        _, attained = uhlmann_unitary(phi, psi, ["E"])
        assert attained >= val - TOL_SPECTRAL


def test_uhlmann_oracle_trivial_cases(rng):
    lay = RegisterLayout((Factor("S", 2, ALICE), Factor("E", 2, BOB)))
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = StateVector(lay, amps / np.linalg.norm(amps))
    assert uhlmann_oracle(phi, phi, ["E"], 500, seed=1) <= 1.0 + 1e-12
    zero = StateVector(lay, [1, 0, 0, 0])
    one = StateVector(lay, [0, 0, 1, 0])
    assert uhlmann_oracle(zero, one, ["E"], 500, seed=1) == pytest.approx(0.0, abs=1e-9)


def test_helstrom_oracle_deterministic():
    gen = np.random.default_rng(6)
    rho, xi = random_density(2, gen), random_density(2, gen)
    assert helstrom_oracle(rho, xi, 200, seed=5) == helstrom_oracle(rho, xi, 200, seed=5)


# --- batched sampling against per-sample loops -----------------------------------
#
# The two references below are the oracles written as one loop iteration per
# sample: one Haar QR each, drawn in order from the one seeded stream, with
# the projector rank cycling through 1 .. dim - 1.  They are kept here only to
# check the batched code against.

def _helstrom_successes_reference(rho0, rho1, samples, seed):
    dim = rho0.dim
    diff = rho0.mat - rho1.mat
    gen = np.random.default_rng(seed)
    successes = []
    for i in range(samples):
        rank = 1 + i % (dim - 1)
        cols = haar_unitary(dim, gen)[:, :rank]
        proj = cols @ cols.conj().T
        successes.append(0.5 + 0.5 * abs(float(np.real(np.trace(proj @ diff)))))
    return successes


def _helstrom_oracle_reference(rho0, rho1, samples, seed):
    return max(0.5, *_helstrom_successes_reference(rho0, rho1, samples, seed))


def _uhlmann_oracle_reference(phi, psi, b_factors, samples, seed):
    b = phi.layout.select(b_factors)
    phi_mat, psi_mat = bipartition_matrix(phi, b), bipartition_matrix(psi, b)
    gen = np.random.default_rng(seed)
    vs = np.stack([haar_unitary(phi_mat.shape[1], gen) for _ in range(samples)])
    overlaps = np.einsum("ij,ik,njk->n", phi_mat.conj(), psi_mat, vs)
    return float(np.abs(overlaps).max())


SAMPLE_COUNTS = (1, _CHUNK, _CHUNK + 1)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_helstrom_oracle_matches_per_sample_reference(dim):
    gen = np.random.default_rng(40 + dim)
    for seed in (0, 1, 12345):
        rho, xi = random_density(dim, gen), random_density(dim, gen)
        for samples in SAMPLE_COUNTS:
            batched = helstrom_oracle(rho, xi, samples, seed)
            reference = _helstrom_oracle_reference(rho, xi, samples, seed)
            assert abs(batched - reference) <= 1e-12, (dim, seed, samples)


@pytest.mark.parametrize("dim", [3, 4])
def test_helstrom_oracle_finds_a_best_sample_past_the_first_chunk(dim):
    # pick a seed whose best sample lies beyond the first chunk: the batched
    # oracle matches only if each chunk continues the stream, and the rank
    # cycle, where the previous one stopped (at dim 3 the chunk size is a
    # multiple of the cycle length dim - 1, at dim 4 it is not)
    gen = np.random.default_rng(45)
    rho, xi = random_density(dim, gen), random_density(dim, gen)
    samples = 2 * _CHUNK + 3
    for seed in range(20):
        successes = _helstrom_successes_reference(rho, xi, samples, seed)
        if int(np.argmax(successes)) >= _CHUNK:
            break
    else:
        pytest.fail("no seed with its best sample past the first chunk")
    best = max(successes)
    assert best > max(successes[:_CHUNK])
    assert abs(helstrom_oracle(rho, xi, samples, seed) - best) <= 1e-12


@pytest.mark.parametrize("d_b", [2, 3])
def test_uhlmann_oracle_equals_per_sample_reference(d_b):
    gen = np.random.default_rng(50 + d_b)
    lay = RegisterLayout((Factor("S", 2, ALICE), Factor("E", d_b, BOB)))
    for seed in (0, 7):
        amps = gen.standard_normal((2, 2 * d_b)) + 1j * gen.standard_normal((2, 2 * d_b))
        phi, psi = (StateVector(lay, v / np.linalg.norm(v)) for v in amps)
        for samples in SAMPLE_COUNTS + (2000,):
            assert uhlmann_oracle(phi, psi, ["E"], samples, seed) == \
                _uhlmann_oracle_reference(phi, psi, ["E"], samples, seed)


def test_helstrom_oracle_grows_with_samples():
    # sample i is the i-th draw of one stream whatever the sample count, so
    # more samples only add candidates
    gen = np.random.default_rng(60)
    for dim in (2, 3):
        rho, xi = random_density(dim, gen), random_density(dim, gen)
        counts = (1, 10, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)
        vals = [helstrom_oracle(rho, xi, n, seed=3) for n in counts]
        assert all(a <= b for a, b in zip(vals, vals[1:]))



@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_oracle_calls_equal_per_pair_calls(dim):
    # every pair of a stack is scored against the same seed's samples, past
    # the first chunk too, so each value is that of its own call, bit for bit
    gen = np.random.default_rng(70 + dim)
    pairs = random_density(dim, gen, size=(6, 2))
    stacked = helstrom_oracle(pairs[:, 0], pairs[:, 1], _CHUNK + 3, seed=9)
    assert stacked.shape == (6,)
    for i in range(6):
        assert stacked[i] == helstrom_oracle(pairs[i, 0], pairs[i, 1], _CHUNK + 3, seed=9)

    lay = RegisterLayout((Factor("S", 2, ALICE), Factor("E", dim, BOB)))
    amps = gen.standard_normal((2, 6, 2 * dim)) + 1j * gen.standard_normal((2, 6, 2 * dim))
    phi, psi = (StateVector(lay, v / np.linalg.norm(v, axis=-1, keepdims=True)) for v in amps)
    stacked = uhlmann_oracle(phi, psi, ["E"], _CHUNK + 3, seed=9)
    assert stacked.shape == (6,)
    for i in range(6):
        single = uhlmann_oracle(StateVector(lay, phi.amps[i]), StateVector(lay, psi.amps[i]),
                                ["E"], _CHUNK + 3, seed=9)
        assert isinstance(single, float) and stacked[i] == single
