import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_cks_shuffled,
    build_cks_with_bob_register,
    build_cks_with_complex_register,
    build_incomplete_protocol,
    build_two_register_trivial,
    family_of,
)
from wotsim import attacks, cli, protocol
from wotsim.attacks import (
    alice_bound,
    alice_helstrom_attack,
    bob_bound,
    bob_purified_attack,
    cheat_report,
    delta_quantity,
    f_quantity,
)
from wotsim.catalog import (
    build_cks,
    build_leaky,
    build_mixture,
    build_trivial,
    random_complete_protocol,
)
from wotsim.errors import CompletenessError, ConsistencyError, RangeError, SpecError
from wotsim.protocol import (
    INPUT_NAMES,
    ReducedFamily,
    all_final_states,
    run_purified,
    validate_completeness,
)
from wotsim.qcore import (
    TOL_SPECTRAL,
    DensityOp,
    StateVector,
    embed_operator,
    fidelity,
    herm_sqrt,
    random_density,
    trace_norm,
    uhlmann_unitary,
)

PLUS_PROJ = np.full((2, 2), 0.5, dtype=complex)


def _family(rng, dim):
    return ReducedFamily(random_density(dim, rng, size=(2, 2, 2)))


def _constant_family(dim=2):
    rho = random_density(dim, np.random.default_rng(3))
    return ReducedFamily(DensityOp(np.broadcast_to(rho.mat, (2, 2, 2, dim, dim))))


# --- aggregate quantities -----------------------------------------------------

def test_delta_and_f_on_catalog():
    rf_cks = protocol._analyze(build_cks()).reduced
    assert delta_quantity(rf_cks) == pytest.approx(0.0, abs=TOL_SPECTRAL)
    assert f_quantity(rf_cks) == pytest.approx(4.0, abs=TOL_SPECTRAL)
    rf_triv = protocol._analyze(build_trivial()).reduced
    assert delta_quantity(rf_triv) == pytest.approx(4.0, abs=TOL_SPECTRAL)
    assert f_quantity(rf_triv) == pytest.approx(0.0, abs=TOL_SPECTRAL)


def test_identical_family_extremes():
    rf = _constant_family()
    assert delta_quantity(rf) == pytest.approx(0.0, abs=1e-9)
    assert f_quantity(rf) == pytest.approx(4.0, abs=1e-7)
    assert alice_bound(rf) == pytest.approx(0.5, abs=1e-9)
    assert bob_bound(rf) == pytest.approx(0.75, abs=1e-7)


def test_bounds_on_catalog():
    rf = protocol._analyze(build_cks()).reduced
    assert alice_bound(rf) == pytest.approx(0.5, abs=1e-9)
    assert bob_bound(rf) == pytest.approx(0.75, abs=TOL_SPECTRAL)
    rf = protocol._analyze(build_trivial()).reduced
    assert alice_bound(rf) == pytest.approx(1.0, abs=1e-9)
    assert bob_bound(rf) == pytest.approx(0.5, abs=1e-9)


def test_alice_bound_consistent_with_delta(rng):
    rf = _family(rng, 3)
    assert alice_bound(rf) == pytest.approx(0.5 + delta_quantity(rf) / 8.0, abs=1e-12)


def test_alice_helstrom_attack_achieves_bound(rng):
    for dim in (2, 3):
        rf = _family(rng, dim)
        assert alice_helstrom_attack(rf) == pytest.approx(alice_bound(rf), abs=TOL_SPECTRAL)
    rf = protocol._analyze(build_trivial()).reduced
    assert alice_helstrom_attack(rf) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_batched_family_equals_per_family_values(rng, dim):
    stack = random_density(dim, rng, size=(6, 2, 2, 2))
    batched = ReducedFamily(stack)
    delta, f, hel = delta_quantity(batched), f_quantity(batched), alice_helstrom_attack(batched)
    for value in (delta, f, hel):
        assert isinstance(value, np.ndarray) and value.shape == (6,)
    for n in range(6):
        single = ReducedFamily(stack[n])
        assert abs(delta[n] - delta_quantity(single)) <= 1e-14
        assert abs(f[n] - f_quantity(single)) <= 1e-14
        assert abs(hel[n] - alice_helstrom_attack(single)) <= 1e-14


# --- the inequality chain -------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
def test_f_plus_delta_at_least_four(seed, dim):
    rf = _family(np.random.default_rng(seed), dim)
    assert f_quantity(rf) + delta_quantity(rf) >= 4.0 - TOL_SPECTRAL
    assert 2.0 * bob_bound(rf) + alice_bound(rf) >= 2.0 - TOL_SPECTRAL


# --- the purified attack ---------------------------------------------------------

def test_purified_attack_cks():
    spec = build_cks()
    for s in (0, 1):
        assert bob_purified_attack(spec, s) == pytest.approx(0.75, abs=TOL_SPECTRAL)


def test_purified_attack_trivial():
    spec = build_trivial()
    for s in (0, 1):
        assert bob_purified_attack(spec, s) == pytest.approx(0.5, abs=TOL_SPECTRAL)


def test_purified_attack_with_bob_side_register():
    # Bob ends holding a register entangled with his inputs, so the attack
    # must extract genuinely nontrivial realignment unitaries.
    spec = build_cks_with_bob_register()
    for s in (0, 1):
        assert bob_purified_attack(spec, s) == pytest.approx(0.75, abs=TOL_SPECTRAL)
    rep = cheat_report(spec)
    assert rep.alice_bound == pytest.approx(0.5, abs=1e-9)
    assert rep.bob_bound == pytest.approx(0.75, abs=TOL_SPECTRAL)


def test_purified_attack_matches_closed_form_on_random_variants():
    for seed in (1, 2, 3, 4, 5):
        spec = random_complete_protocol(seed)
        rho = protocol._analyze(spec).reduced.states
        for s in (0, 1):
            if s == 0:
                fsum = sum(fidelity(rho[1, 0, x], rho[1, 1, x]) for x in (0, 1))
            else:
                fsum = sum(fidelity(rho[0, x, 0], rho[0, x, 1]) for x in (0, 1))
            sim = bob_purified_attack(spec, s)
            assert sim == pytest.approx(0.5 + fsum / 8.0, abs=TOL_SPECTRAL)


def _realignment_matrix(spec, fs, s):
    """The controlled realignment as a full-layout matrix, built column by
    column from its action on the basis vectors."""
    dim = spec.layout.dim
    basis = tuple(StateVector(spec.layout, col) for col in np.eye(dim, dtype=complex))
    cols = attacks.controlled_realignment(spec, fs, s, basis)
    return np.column_stack([sv.amps for sv in cols])


def test_purified_attack_equal_outcomes_when_choice_matches():
    # when Alice's choice equals Bob's register pick, the +/- outcomes are
    # equiprobable (the orthogonality that completeness provides)
    for spec in (build_cks(), build_cks_with_bob_register()):
        fs = all_final_states(spec)
        for s in (0, 1):
            cont = _realignment_matrix(spec, fs, s)
            dim = spec.layout.dim
            assert np.allclose(cont.conj().T @ cont, np.eye(dim), atol=1e-9)
            xi = run_purified(spec, s)  # a = s branch
            attacked = cont @ xi.amps
            plus = embed_operator(PLUS_PROJ, spec.layout, [f"X{s}"])
            p_plus = float(np.real(np.vdot(attacked, plus @ attacked)))
            assert p_plus == pytest.approx(0.5, abs=TOL_SPECTRAL)


def _dense_realignment(spec, fs, s):
    """Reference: the controlled realignment as a sum over input sectors of
    embedded Uhlmann blocks times embedded sector projectors."""
    lay = spec.layout
    rest = lay.without(INPUT_NAMES)
    b_rest = tuple(n for n in rest.names if n not in fs.alice_factors)

    cont = np.zeros((lay.dim, lay.dim), dtype=complex)
    for x0 in (0, 1):
        for x1 in (0, 1):
            term = np.eye(lay.dim, dtype=complex)
            if (x0, x1)[s] == 1:
                phi_key = (1, 0, x1) if s == 0 else (0, x0, 0)
                psi_key = (1, 1, x1) if s == 0 else (0, x0, 1)
                phi, psi = (StateVector(rest, fs.stack.amps[key]) for key in (phi_key, psi_key))
                if b_rest:
                    term = embed_operator(uhlmann_unitary(phi, psi, b_rest)[0], lay, b_rest)
                else:
                    inner = np.vdot(phi.amps, psi.amps)
                    term = term * (1.0 if abs(inner) < 1e-15 else np.conj(inner) / abs(inner))
            for name, value in zip(INPUT_NAMES, (x0, x1)):
                proj = np.zeros((2, 2), dtype=complex)
                proj[value, value] = 1.0
                term = term @ embed_operator(proj, lay, [name])
            cont += term
    return cont


def test_sector_realignment_matches_dense_reference():
    for spec in (build_cks(), build_trivial(), build_cks_with_bob_register(),
                 build_cks_shuffled(), build_two_register_trivial(),
                 build_cks_with_complex_register()):
        fs = all_final_states(spec)
        for s in (0, 1):
            assert np.abs(_realignment_matrix(spec, fs, s)
                          - _dense_realignment(spec, fs, s)).max() < 1e-12, (spec.name, s)


def test_purified_success_matches_dense_realignment():
    # cheat_report reads Bob's success from _purified_success, which never
    # calls controlled_realignment: check it against the dense realignment
    # applied to both purified runs, with X_s projected on |+>; the complex
    # register gives Uhlmann blocks with imaginary parts
    for spec in (build_cks(), build_trivial(), build_cks_with_bob_register(),
                 build_cks_shuffled(), build_two_register_trivial(), build_leaky(0.3),
                 random_complete_protocol(4), build_cks_with_complex_register()):
        fs = all_final_states(spec)
        sims = attacks._purified_success(protocol._analyze(spec))
        for s in (0, 1):
            cont = _dense_realignment(spec, fs, s)
            plus = embed_operator(PLUS_PROJ, spec.layout, [INPUT_NAMES[s]])
            attacked = [cont @ run_purified(spec, a).amps for a in (0, 1)]
            p_plus = [float(np.real(np.vdot(v, plus @ v))) for v in attacked]
            # '-' means guess a = s, '+' means guess a = 1 - s
            success = 0.5 * sum(1.0 - p if a == s else p for a, p in enumerate(p_plus))
            assert abs(success - sims[s]) <= 1e-12, (spec.name, s)


def test_purified_attack_requires_completeness():
    with pytest.raises(CompletenessError):
        bob_purified_attack(build_incomplete_protocol(), 0)


def test_purified_attack_rejects_bad_register_choice():
    with pytest.raises(RangeError):
        bob_purified_attack(build_cks(), 2)


def test_attack_invariant_under_layout_reordering():
    rep = cheat_report(build_cks_shuffled())
    assert rep.alice_bound == pytest.approx(0.5, abs=1e-9)
    assert rep.bob_bound == pytest.approx(0.75, abs=TOL_SPECTRAL)
    assert rep.bob_sim_s0 == pytest.approx(0.75, abs=TOL_SPECTRAL)
    assert rep.bob_sim_s1 == pytest.approx(0.75, abs=TOL_SPECTRAL)


# --- the report -------------------------------------------------------------------

def test_cheat_report_cks():
    rep = cheat_report(build_cks())
    assert rep.delta == pytest.approx(0.0, abs=TOL_SPECTRAL)
    assert rep.f == pytest.approx(4.0, abs=TOL_SPECTRAL)
    assert rep.alice_bound == pytest.approx(0.5, abs=1e-9)
    assert rep.bob_bound == pytest.approx(0.75, abs=TOL_SPECTRAL)
    assert rep.theorem1_lhs == pytest.approx(2.0, abs=TOL_SPECTRAL)
    assert rep.bob_sim_s0 == pytest.approx(0.75, abs=TOL_SPECTRAL)
    assert rep.bob_sim_s1 == pytest.approx(0.75, abs=TOL_SPECTRAL)


def test_cheat_report_trivial():
    rep = cheat_report(build_trivial())
    assert rep.delta == pytest.approx(4.0, abs=1e-9)
    assert rep.f == pytest.approx(0.0, abs=1e-9)
    assert rep.alice_bound == pytest.approx(1.0, abs=1e-9)
    assert rep.bob_bound == pytest.approx(0.5, abs=1e-9)
    assert rep.theorem1_lhs == pytest.approx(2.0, abs=1e-9)


def test_cheat_report_random_protocols_on_curve():
    for seed in (10, 20, 30):
        rep = cheat_report(random_complete_protocol(seed))
        assert rep.theorem1_lhs >= 2.0 - TOL_SPECTRAL
        assert rep.bob_bound == pytest.approx((rep.bob_sim_s0 + rep.bob_sim_s1) / 2,
                                              abs=TOL_SPECTRAL)


def test_cheat_report_executes_the_protocol_in_one_batched_pass(monkeypatch):
    # one execution serves both preparations, which start as prepared
    # states, all four input pairs of Bob and, on a family spec, every
    # member, with one contraction per round; nothing runs per choice bit,
    # per key or per member
    specs = ((build_cks(), ()), (random_complete_protocol(np.arange(3)), (3,)))
    shapes, contractions = [], []
    execute, matmul = protocol._execute, np.matmul

    def counted_execute(*args):
        out = execute(*args)
        shapes.append(out.shape)
        return out

    def counted_matmul(*args, **kwargs):
        contractions.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(protocol, "_execute", counted_execute)
    monkeypatch.setattr(np, "matmul", counted_matmul)
    for name in ("run_purified", "run_honest"):
        monkeypatch.setattr(protocol, name, lambda *args: pytest.fail("per-choice run"))
    for spec, lead in specs:
        shapes.clear()
        contractions.clear()
        cheat_report(spec)
        # (choice bit, x0, x1) are batch axes of a tensor without the input registers
        assert shapes == [lead + (2, 2, 2) + spec._plan.rest.dims]
        assert len(contractions) == len(spec.rounds)


def test_cheat_report_decomposes_the_reduced_states_once(monkeypatch):
    # Alice's eight reduced states keep their amplitude matrices as factors
    # and are never eigendecomposed, on one spec, on a family and on a
    # register wider than Alice's space (9 x 16 factors) alike.  The
    # Helstrom quantity takes one eigvalsh of the four differences; the
    # other decompositions are the support bases, the support overlap, and
    # one SVD of the four cross products that gives both the fidelities and
    # the Uhlmann blocks.  The support bases come from the narrower side:
    # the SVD of [F_0 F_1] (9 x 2 for cks), or on the wide register the
    # eigh of the 9 x 9 sum of the two states
    narrow = {"eigh": 0, "eigvalsh": 1, "svd": 3}
    specs = ((build_cks(), narrow), (random_complete_protocol(np.arange(3)), narrow),
             (build_cks_with_bob_register(16), {"eigh": 1, "eigvalsh": 1, "svd": 2}))
    members = random_density(3, np.random.default_rng(0), size=2)
    calls = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    for name in calls:
        def counted(*args, _orig=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    for spec, expected in specs:
        calls.update(eigh=0, eigvalsh=0, svd=0)
        cheat_report(spec)
        assert calls == expected, spec.name
    calls.update(eigh=0, eigvalsh=0, svd=0)
    fidelity(members[0], members[1])
    assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 1}


def test_cheat_report_forms_the_amplitude_matrices_once(monkeypatch):
    # Alice's reduced states keep the (Alice, Bob) amplitude matrices as
    # their factor, and the purified attack reads them there
    calls = []
    counted = lambda *args, _orig=protocol.bipartition_matrix: calls.append(1) or _orig(*args)
    monkeypatch.setattr(protocol, "bipartition_matrix", counted)
    monkeypatch.setattr(attacks, "bipartition_matrix", counted)
    for spec in (build_cks(), random_complete_protocol(np.arange(3)),
                 build_cks_with_bob_register(16)):
        calls.clear()
        cheat_report(spec)
        assert len(calls) == 1, spec.name


def test_cheat_report_f_and_delta_match_the_quantities_on_every_spec():
    # cheat_report takes f from the one SVD, with singular vectors, that
    # also gives the Uhlmann blocks; f_quantity takes the singular values
    # alone through fidelity, and delta_quantity is the same call
    specs = (build_cks(), build_trivial(), build_leaky(0.3), build_leaky(np.pi / 4),
             build_mixture(0.25), build_mixture(np.array([0.0, 0.25, 1.0])),
             random_complete_protocol(np.arange(10)), build_cks_with_bob_register(),
             build_cks_with_complex_register(), build_cks_with_bob_register(16))
    for spec in specs:
        rep, rf = cheat_report(spec), protocol._analyze(spec).reduced
        assert np.abs(rep.delta - delta_quantity(rf)).max() <= 1e-12, spec.name
        assert np.abs(rep.f - f_quantity(rf)).max() <= 1e-12, spec.name


def test_f_quantity_matches_the_square_roots_on_every_spec():
    # f reads the same amplitude matrices as the Uhlmann blocks, so it is
    # checked against a second kernel: ||sqrt(rho) sqrt(xi)||_1 from eigh
    specs = (build_cks(), build_trivial(), build_leaky(0.3), build_leaky(np.pi / 4),
             build_mixture(0.25), random_complete_protocol(np.arange(10)),
             build_cks_with_bob_register(), build_cks_with_bob_register(16))
    for spec in specs:
        rf = protocol._analyze(spec).reduced
        rho, xi = attacks._pairs(rf)
        reference = trace_norm(herm_sqrt(rho) @ herm_sqrt(xi)).sum(axis=-1)
        assert np.abs(f_quantity(rf) - reference).max() <= 1e-12, spec.name


def test_family_report_compares_and_hashes():
    # a report holding (F,) arrays compares by identity, as every other
    # array-holding dataclass of the package does
    rep = cheat_report(random_complete_protocol(np.arange(2)))
    assert rep == rep and rep != cheat_report(random_complete_protocol(np.arange(2)))
    assert hash(rep) == hash(rep)
    assert list(dataclasses.asdict(rep)) == [f.name for f in dataclasses.fields(rep)]


def test_controlled_realignment_rejects_a_family():
    spec = random_complete_protocol(np.arange(2))
    fs = all_final_states(spec)
    with pytest.raises(SpecError, match="one protocol"):
        attacks.controlled_realignment(spec, fs, 0, ())


def test_family_report_matches_per_member_reports():
    # a family spec gives each member's report and completeness as (F,)
    # arrays: rotated cks, the leaky family (only Bob's round per member),
    # complex-register specs (imaginary Uhlmann blocks) and the coin-flip
    # mixture (only the preparations per member), whose rows are bitwise
    # those of its members
    seeds = np.random.default_rng(14).integers(0, 2**31 - 1, 12)
    leaky = [build_leaky(t) for t in np.linspace(0.0, np.pi / 2, 7)]
    complex_register = [build_cks_with_complex_register(seed) for seed in range(5)]
    lams = np.array([0.0, 0.125, 0.25, 0.5, 0.625, 0.75, 0.875, 1.0])
    for family, members in (
            (random_complete_protocol(seeds), [random_complete_protocol(int(s)) for s in seeds]),
            (family_of(leaky), leaky), (family_of(complex_register), complex_register),
            (build_mixture(lams), [build_mixture(lam) for lam in lams])):
        rep, comp = cheat_report(family), validate_completeness(family)
        bitwise = family.name.startswith("mixture")
        for i, member in enumerate(members):
            single, single_comp = cheat_report(member), validate_completeness(member)
            for field in dataclasses.fields(rep)[1:]:  # all but spec_name
                value = getattr(rep, field.name)
                assert np.shape(value) == (len(members),), field.name
                assert abs(value[i] - getattr(single, field.name)) <= 1e-12, (member.name, field)
                assert not bitwise or value[i] == getattr(single, field.name), (member.name, field)
            for s in (0, 1):
                assert bob_purified_attack(family, s)[i] == getattr(rep, f"bob_sim_s{s}")[i]
            assert comp.passed[i] == single_comp.passed
            for name in ("support_overlap", "one_probs", "min_output_prob"):
                gap = np.abs(getattr(comp, name)[i] - getattr(single_comp, name)).max()
                assert gap <= 1e-12, (member.name, name)


def test_random_complete_family_holds_the_per_seed_matrices():
    # each member draws from its own default_rng(seed): bitwise the matrices
    # of the single-seed protocol
    seeds = np.array([0, 7, 2**31 - 2, 12345])
    family = random_complete_protocol(seeds)
    assert family.name == "cks-rotated-0-7-2147483646-12345"

    def matrices(spec):
        return (*spec.alice_prep, *(r.unitary for r in spec.rounds),
                *(mat for m in spec.alice_output for mat in (m.pos, m.neg)))

    for i, seed in enumerate(seeds):
        single = random_complete_protocol(int(seed))
        for fam, mat in zip(matrices(family), matrices(single), strict=True):
            member = np.broadcast_to(fam, (len(seeds),) + mat.shape)[i]
            assert np.ascontiguousarray(member).tobytes() == np.asarray(mat).tobytes()


def test_cheat_report_rejects_inconsistent_simulation(monkeypatch):
    # fidelities 1e-3 off the ones whose Uhlmann blocks the simulated
    # attack applies put the closed form off the simulation: a typed
    # error, exit 1
    exact = attacks._pair_kernel

    def off_by(offset):
        return lambda rf: (exact(rf)[0] + offset, exact(rf)[1])

    monkeypatch.setattr(attacks, "_pair_kernel", off_by(1e-3))
    with pytest.raises(ConsistencyError):
        cheat_report(build_cks())
    assert cli.main(["analyze", "cks"]) == 1
    # on a family, one member off is enough
    monkeypatch.setattr(attacks, "_pair_kernel", off_by(np.array([[0.0] * 4, [1e-3] * 4])))
    with pytest.raises(ConsistencyError):
        cheat_report(random_complete_protocol(np.arange(2)))
