import json

import numpy as np
import pytest

from conftest import (
    build_cks_shuffled,
    build_cks_with_bob_register,
    build_cks_with_complex_register,
    build_incomplete_protocol,
    build_two_register_trivial,
    family_of,
)
from wotsim.attacks import cheat_report
from wotsim.catalog import (
    _CKS_BLOCKS,
    _CKS_FACTORS,
    _CKS_PAIRS,
    _CKS_POS,
    _assemble,
    _householder,
    build_cks,
    build_leaky,
    build_mixture,
    build_trivial,
    random_complete_protocol,
)
from wotsim import protocol
from wotsim.errors import CompletenessError, ShapeError, SpecError
from wotsim.protocol import (
    INPUT_NAMES,
    ProtocolSpec,
    ReducedFamily,
    Round,
    all_final_states,
    held_factors,
    reduce_alice,
    run_honest,
    run_purified,
    spec_from_dict,
    spec_to_dict,
    validate_completeness,
)
from wotsim.qcore import (
    ALICE,
    BOB,
    BOB_INPUT,
    TOL_SPECTRAL,
    DensityOp,
    Factor,
    StateVector,
    embed_operator,
    haar_unitary,
    hermitize,
    pure_density,
    partial_trace,
    trace_norm,
)


def test_run_honest_cks_initial_example():
    sv = run_honest(build_cks(), 0, 0, 0)
    # (|00> + |22>)/sqrt2 on the qutrits, inputs |00>
    expected = np.zeros(36, dtype=complex)
    expected[0] = 1 / np.sqrt(2)      # A=0 M=0 x=00
    expected[8 * 4] = 1 / np.sqrt(2)  # A=2 M=2 x=00
    assert np.allclose(sv.amps, expected)


def test_run_honest_cks_phase_example():
    sv = run_honest(build_cks(), 1, 0, 1)
    # (-|11> + |22>)/sqrt2, inputs |01>
    expected = np.zeros(36, dtype=complex)
    expected[4 * 4 + 1] = -1 / np.sqrt(2)
    expected[8 * 4 + 1] = 1 / np.sqrt(2)
    assert np.allclose(sv.amps, expected)


def test_run_honest_trivial_message():
    sv = run_honest(build_trivial(), 0, 1, 0)
    # message register set to |10> = |m=2>, inputs |10>
    expected = np.zeros(32, dtype=complex)
    expected[(2 * 2 + 1) * 2 + 0] = 1.0  # A=0, M=2, X0=1, X1=0
    assert np.allclose(sv.amps, expected)


def test_run_honest_rejects_bad_bits():
    with pytest.raises(SpecError):
        run_honest(build_cks(), 2, 0, 0)


def test_all_final_states_counts_and_norms():
    for spec in (build_cks(), build_trivial()):
        fs = all_final_states(spec)
        assert fs.stack.amps.shape[:3] == (2, 2, 2)
        assert np.abs(np.linalg.norm(fs.stack.amps, axis=-1) - 1.0).max() < 1e-9
        assert not fs.stack.amps.flags.writeable
    assert all_final_states(build_cks()).alice_factors == {"A", "M"}


def test_state_after_prep_ignores_inputs():
    # Alice's preparation acts before any interaction: the pre-round state
    # factorizes with the inputs and its Alice part is input-independent.
    spec = build_cks()
    lay = spec.layout
    for a in (0, 1):
        parts = []
        for x0 in (0, 1):
            for x1 in (0, 1):
                init = np.zeros(36, dtype=complex)
                init[x0 * 2 + x1] = 1.0
                prep = embed_operator(spec.alice_prep[a], lay, ("A", "M"))
                red = partial_trace(
                    pure_density(StateVector(lay, prep @ init)), lay, ("A", "M")
                )
                parts.append(red.mat)
        for other in parts[1:]:
            assert np.allclose(parts[0], other, atol=1e-12)


def test_reduce_alice_cks_pure():
    fs = all_final_states(build_cks())
    rho = reduce_alice(fs).states.mat
    purity = np.real(np.trace(rho @ rho, axis1=-2, axis2=-1))
    assert np.abs(purity - 1.0).max() <= TOL_SPECTRAL


def test_reduce_alice_trivial_basis_states():
    rho = reduce_alice(all_final_states(build_trivial())).states.mat
    for a, x0, x1 in protocol.RUN_KEYS:
        # |0>_A tensor |2*x0+x1>_M under (A, M) ordering
        expected = np.zeros((8, 8), dtype=complex)
        expected[2 * x0 + x1, 2 * x0 + x1] = 1.0
        assert np.allclose(rho[a, x0, x1], expected), (a, x0, x1)


def test_validate_completeness_passes_for_catalog():
    for spec in (build_cks(), build_trivial(), build_cks_with_bob_register()):
        report = validate_completeness(spec)
        assert report.passed, report.failures
        assert report.min_output_prob > 1.0 - TOL_SPECTRAL
        assert max(report.support_overlap) < TOL_SPECTRAL


def test_validate_completeness_fails_without_information():
    report = validate_completeness(build_incomplete_protocol())
    assert not report.passed
    assert report.failures


def test_analysis_rejects_round_entangled_with_inputs():
    # a Bob round that rotates X0 would entangle the final state with the
    # input registers; the spec refuses it when it is built, so the
    # analysis, which runs the inputs as sector indices, never sees one
    base = build_cks()
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    bob = np.kron(np.eye(3), np.kron(hadamard, np.eye(2))).astype(complex)
    with pytest.raises(SpecError, match="not controlled on his input registers"):
        ProtocolSpec("leaky", base.layout, base.alice_prep,
                     (base.rounds[0], Round(BOB, bob, send=True)), base.alice_output)


def test_deferred_measurement_consistency():
    for spec in (build_cks(), build_trivial()):
        end = spec.alice_end_factors
        fs = all_final_states(spec)
        for a, x0, x1 in protocol.RUN_KEYS:
            xa = x0 if a == 0 else x1
            meas = spec.alice_output[a]
            proj = meas.pos if xa == 1 else meas.neg
            amps = fs.stack.amps[a, x0, x1]
            p = np.real(np.vdot(amps, embed_operator(proj, fs.stack.layout, end) @ amps))
            assert p == pytest.approx(1.0, abs=TOL_SPECTRAL)


ENGINE_SPECS = (build_cks, build_trivial, build_cks_with_bob_register,
                build_cks_shuffled, build_two_register_trivial)


def _input_sector(lay, x0, x1) -> tuple:
    """Index of the slice of a state tensor where X0 = x0 and X1 = x1."""
    index: list = [slice(None)] * len(lay.dims)
    for name, value in zip(INPUT_NAMES, (x0, x1)):
        index[lay.names.index(name)] = value
    return tuple(index)


def test_purified_run_is_uniform_superposition_of_honest_runs():
    # the analysis reads the honest states as the sectors of one execution;
    # single runs put the input registers back around the same sectors, so
    # this pins that reading, and test_engine_matches_dense_reference the plan
    for build in ENGINE_SPECS:
        spec = build()
        lay = spec.layout
        fs = all_final_states(spec)
        for a in (0, 1):
            xi = run_purified(spec, a)
            combo = sum(run_honest(spec, a, x0, x1).amps
                        for x0 in (0, 1) for x1 in (0, 1)) / 2.0
            assert np.allclose(xi.amps, combo, atol=1e-12), (spec.name, a)
            for x0 in (0, 1):
                for x1 in (0, 1):
                    honest = run_honest(spec, a, x0, x1).amps.reshape(lay.dims).copy()
                    sector = _input_sector(lay, x0, x1)
                    got = fs.stack.amps[a, x0, x1]
                    assert np.abs(got - honest[sector].ravel()).max() < 1e-12, (spec.name, a, x0, x1)
                    honest[sector] = 0.0
                    assert np.abs(honest).max() < 1e-12, (spec.name, a, x0, x1)


def _support_projector_reference(ops):
    """The per-member construction: each member's eigenvectors with
    eigenvalue above TOL_SPECTRAL side by side, then their span by SVD."""
    cols = []
    for op in ops:
        w, v = np.linalg.eigh(hermitize(op.mat))
        cols.append(v[:, w > TOL_SPECTRAL])
    q, s, _ = np.linalg.svd(np.hstack(cols), full_matrices=False)
    basis = q[:, s > TOL_SPECTRAL]
    return basis @ basis.conj().T


def _completeness_reference(spec, family):
    """The completeness fields computed one key at a time from the
    reduced stack ``family``, indexed ``[a, x0, x1]``."""
    failures, overlaps, one_probs, min_prob = [], [], {}, 1.0
    projectors = {}
    for a in (0, 1):
        for v in (0, 1):
            members = [family[a, x0, x1] for x0 in (0, 1) for x1 in (0, 1)
                       if (x0 if a == 0 else x1) == v]
            projectors[(a, v)] = _support_projector_reference(members)
        overlaps.append(trace_norm(projectors[(a, 0)] @ projectors[(a, 1)]))
        if overlaps[-1] > TOL_SPECTRAL:
            failures.append(f"a={a}: learned-bit supports overlap ({overlaps[-1]:.3e})")
    for a, x0, x1 in protocol.RUN_KEYS:
        rho = family[a, x0, x1]
        xa = x0 if a == 0 else x1
        one = float(np.real(np.trace(spec.alice_output[a].pos @ rho.mat)))
        one_probs[(a, x0, x1)] = one
        p = one if xa == 1 else 1.0 - one
        min_prob = min(min_prob, p)
        if p < 1.0 - TOL_SPECTRAL:
            failures.append(f"output measurement misses x_{a}={xa} at "
                            f"(a,x0,x1)=({a},{x0},{x1}): p={p:.6f}")
    return projectors, overlaps, one_probs, min_prob, failures


def test_support_projectors_and_completeness_match_per_key_reference():
    for build in ENGINE_SPECS + (build_incomplete_protocol,):
        spec = build()
        an = protocol._analyze(spec)
        projectors, overlaps, one_probs, min_prob, failures = _completeness_reference(
            spec, an.reduced.states)
        basis = protocol._support_bases(an.reduced)
        got = basis @ basis.conj().swapaxes(-1, -2)
        for (a, v), ref in projectors.items():
            assert np.abs(got[a, v] - ref).max() < 1e-12, (spec.name, a, v)
        report = an.completeness
        assert report.passed == (not failures) == (spec.name != "no-information")
        assert report.failures == tuple(failures)
        assert np.abs(np.subtract(report.support_overlap, overlaps)).max() < 1e-12
        assert report.one_probs.shape == (2, 2, 2)
        assert max(abs(report.one_probs[k] - one_probs[k]) for k in one_probs) < 1e-12
        assert abs(report.min_output_prob - min_prob) < 1e-12


def _dense_run(spec, a, input_amps):
    """Reference: the initial product state times one embedded full-layout
    matrix per round."""
    lay = spec.layout
    amps = np.ones(1, dtype=complex)
    for f in lay.factors:
        piece = input_amps[f.name] if f.owner == BOB_INPUT else np.eye(f.dim)[0]
        amps = np.kron(amps, piece)
    amps = embed_operator(spec.alice_prep[a], lay, held_factors(lay, ALICE, True)) @ amps
    msg_with_alice = True
    for rnd in spec.rounds:
        amps = embed_operator(rnd.unitary, lay, held_factors(lay, rnd.actor, msg_with_alice)) @ amps
        if rnd.send:
            msg_with_alice = not msg_with_alice
    return amps


def test_support_svd_is_as_wide_as_the_largest_support(monkeypatch):
    # cks leaves Alice pure states, so each support basis takes one kept
    # eigenvector per state: a 9 x 2 SVD per (a, v), not 9 x 18
    an = protocol._analyze(build_cks())
    widths = []

    def counted(a, *args, _orig=np.linalg.svd, **kwargs):
        widths.append(np.shape(a))
        return _orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    protocol._support_bases(an.reduced)
    assert widths == [(2, 2, 9, 2)]


def test_support_kernels_give_one_completeness_report(monkeypatch):
    # a Bob register of dim 16 gives 9 x 16 factors, so the analysis takes
    # the eigh branch; the SVD of [F_0 F_1], 9 x 32, spans the same supports
    spec = build_cks_with_bob_register(16)
    rf = protocol._analyze(spec).reduced
    bases, reports = [], []
    for kernel in (protocol._support_bases_svd, protocol._support_bases_eigh):
        basis = kernel(rf)
        bases.append(basis @ basis.conj().swapaxes(-1, -2))
        monkeypatch.setattr(protocol, "_support_bases", kernel)
        reports.append(protocol._completeness(spec, rf))
    by_svd, by_eigh = reports
    assert np.abs(bases[0] - bases[1]).max() <= 1e-12
    assert by_svd.passed and by_eigh.passed and by_svd.failures == by_eigh.failures == ()
    for name in ("support_overlap", "one_probs", "min_output_prob"):
        gap = np.abs(np.subtract(getattr(by_svd, name), getattr(by_eigh, name))).max()
        assert gap <= 1e-12, name


def _cks_with_register_first(dim: int) -> ProtocolSpec:
    """``build_cks_with_bob_register(dim)`` with the register ahead of Alice's
    factors, so that the analysis must move her end factors first."""
    shifts = np.array([[np.roll(np.eye(dim), x0 + x1, axis=0) for x1 in (0, 1)] for x0 in (0, 1)])
    # Bob holds (B, M): the shift on B and the cks phases on M
    bob = shifts[..., :, None, :, None] * _CKS_BLOCKS[..., None, :, None, :]
    return _assemble(f"cks-with-register-first-{dim}", (Factor("B", dim, BOB),) + _CKS_FACTORS,
                     _householder(_CKS_PAIRS), bob.reshape(2, 2, 3 * dim, 3 * dim), _CKS_POS)


def test_analysis_states_are_bitwise_those_of_the_public_route():
    # _analyze forms the amplitude matrices from the execution with no state
    # vector; reduce_alice forms them from all_final_states; one helper forms
    # the states from both, so nothing may drift between the two
    specs = (build_cks(), build_trivial(), build_leaky(0.3), build_mixture(0.25),
             random_complete_protocol(5), build_cks_with_bob_register(),
             build_cks_with_complex_register(), build_cks_with_bob_register(16),
             random_complete_protocol(np.arange(10)), _cks_with_register_first(4))
    assert _cks_with_register_first(4)._plan.split == (1, 2, 0)
    for spec in specs:
        got, public = protocol._analyze(spec).reduced.states, reduce_alice(all_final_states(spec))
        for name in ("mat", "factor"):
            a, b = getattr(got, name), getattr(public.states, name)
            assert a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes(), \
                (spec.name, name)


def test_analysis_checks_the_norm_through_the_unit_trace():
    # tr(M M†) is the squared norm of the final state, so a Bob block scaled
    # by 1 + 1e-6 (squared norm 1 + 2e-6) fails the analysis as it fails the
    # state vectors of the public route
    spec = build_cks_with_bob_register()
    steps = list(spec._plan.steps)
    op, front, back = steps[-1]
    steps[-1] = (op * (1.0 + 1e-6), front, back)
    object.__setattr__(spec, "_plan", spec._plan._replace(steps=tuple(steps)))
    with pytest.raises(ShapeError, match="trace"):
        protocol._analyze(spec)
    with pytest.raises(ShapeError, match="norm"):
        all_final_states(spec)


def test_support_overlap_svd_is_as_wide_as_the_widest_support(monkeypatch):
    # the support bases are trimmed to the widest kept support before the
    # overlap, so on cks and on the dim-16 register (pure learned-bit states)
    # the overlap is one 1 x 1 SVD per choice bit, not 2 x 2 or 9 x 9
    shapes = []

    def recorded(a, *args, _orig=np.linalg.svd, **kwargs):
        shapes.append(np.shape(a))
        return _orig(a, *args, **kwargs)

    for spec, expected in ((build_cks(), [(2, 2, 9, 2), (2, 1, 1)]),
                           (build_cks_with_bob_register(16), [(2, 1, 1)]),
                           (build_mixture(0.25), [(2, 2, 35, 4), (2, 3, 3)])):
        rf = protocol._analyze(spec).reduced
        monkeypatch.setattr(np.linalg, "svd", recorded)
        shapes.clear()
        protocol._completeness(spec, rf)
        monkeypatch.undo()
        assert shapes == expected, spec.name


def test_all_final_states_runs_no_svd(monkeypatch):
    # the final states are the sectors of one execution; reducing them and
    # checking completeness is the analysis's work, not theirs
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("svd"))
    for spec in (build_cks(), build_cks_with_bob_register(16)):
        assert all_final_states(spec).stack.amps.shape[:3] == (2, 2, 2)


def test_engine_matches_dense_reference():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for build in ENGINE_SPECS:
        spec = build()
        for a in (0, 1):
            for x0 in (0, 1):
                for x1 in (0, 1):
                    ref = _dense_run(spec, a, {"X0": np.eye(2)[x0], "X1": np.eye(2)[x1]})
                    got = run_honest(spec, a, x0, x1).amps
                    assert np.abs(got - ref).max() < 1e-12, (spec.name, a, x0, x1)
            ref = _dense_run(spec, a, {"X0": plus, "X1": plus})
            assert np.abs(run_purified(spec, a).amps - ref).max() < 1e-12, (spec.name, a)


def test_engine_runs_given_prepared_states_like_dense_preparations():
    # a stack of prepared states runs like preparation unitaries with those
    # first columns, applied as dense full-layout operators: sector (x0, x1)
    # is the dense run with basis inputs, where X0 = x0 and X1 = x1
    gen = np.random.default_rng(21)
    for build in ENGINE_SPECS:
        spec = build()
        lay = spec.layout
        us = haar_unitary(lay.subset_dim(held_factors(lay, ALICE, True)), gen, size=3)
        sectors = protocol._execute(spec, us[:, :, 0])
        assert sectors.shape == (3, 2, 2) + spec._plan.rest.dims
        for x0 in (0, 1):
            for x1 in (0, 1):
                amps = {"X0": np.eye(2)[x0], "X1": np.eye(2)[x1]}
                for u, run in zip(us, sectors[:, x0, x1]):
                    haar = ProtocolSpec(spec.name, lay, (u, u), spec.rounds, spec.alice_output)
                    ref = _dense_run(haar, 0, amps).reshape(lay.dims)[_input_sector(lay, x0, x1)]
                    assert np.abs(run - ref).max() < 1e-12, spec.name


def test_reduce_alice_matches_partial_trace_of_pure_density():
    for build in ENGINE_SPECS:
        fs = all_final_states(build())
        ref = partial_trace(pure_density(fs.stack), fs.stack.layout, fs.alice_factors)
        assert np.abs(reduce_alice(fs).states.mat - ref.mat).max() < 1e-12, build.__name__


# --- structural validation ----------------------------------------------------

def test_spec_rejects_non_unitary_round():
    base = build_cks()
    # an entry this large makes U^dagger U NaN, which no tolerance rejects
    for value in (2.0, 1e200 + 1e200j):
        bad = np.eye(12, dtype=complex)
        bad[0, 0] = value
        with pytest.raises(SpecError):
            ProtocolSpec(base.name, base.layout, base.alice_prep,
                         (base.rounds[0], Round(BOB, bad, send=True)),
                         base.alice_output)


def test_spec_rejects_uncontrolled_bob_round():
    base = build_cks()
    # flips X0 instead of being controlled by it; held order (M, X0, X1)
    perm = np.zeros((12, 12), dtype=complex)
    for m in range(3):
        for x0 in (0, 1):
            for x1 in (0, 1):
                perm[(m * 2 + (1 - x0)) * 2 + x1, (m * 2 + x0) * 2 + x1] = 1.0
    with pytest.raises(SpecError):
        ProtocolSpec(base.name, base.layout, base.alice_prep,
                     (base.rounds[0], Round(BOB, perm, send=True)),
                     base.alice_output)


def _with_matrices(base, prep=None, bob=None):
    return ProtocolSpec(base.name, base.layout, base.alice_prep if prep is None else prep,
                        (base.rounds[0], Round(BOB, base.rounds[1].unitary if bob is None else bob,
                                               send=True)),
                        base.alice_output)


def test_family_spec_boundaries(monkeypatch):
    base = build_cks()
    prep, bob = base.alice_prep, base.rounds[1].unitary
    with monkeypatch.context() as m:
        # the family shapes are checked before any matrix is
        m.setattr(protocol, "_check_unitary", lambda *args: pytest.fail("checked a matrix"))
        for bad in (dict(prep=tuple(np.stack([p] * 3) for p in prep), bob=np.stack([bob] * 4)),
                    dict(prep=(prep[0], np.broadcast_to(prep[1], (2, 2, 9, 9))))):
            with pytest.raises(SpecError, match="family axis"):
                _with_matrices(base, **bad)
    with pytest.raises(SpecError, match="not unitary"):
        _with_matrices(base, prep=(np.stack([prep[0], 0.5 * prep[0]]), prep[1]))
    uncontrolled = np.kron(np.eye(3), np.kron([[0, 1], [1, 0]], np.eye(2))) @ bob
    with pytest.raises(SpecError, match="not controlled"):
        _with_matrices(base, bob=np.stack([bob, bob, uncontrolled]))
    family = _with_matrices(base, bob=np.stack([bob, bob]))
    assert validate_completeness(family).passed.tolist() == [True, True]
    with pytest.raises(SpecError, match="one protocol"):
        spec_to_dict(family)


def test_family_completeness_names_the_failing_member():
    family = family_of([build_cks(), build_incomplete_protocol(), build_cks()])
    report = validate_completeness(family)
    single = validate_completeness(build_incomplete_protocol())
    assert report.passed.tolist() == [True, False, True]
    assert report.failures == tuple(f"member 1: {f}" for f in single.failures)
    with pytest.raises(CompletenessError):
        cheat_report(family)


def test_spec_from_dict_rejects_non_finite_entry():
    for value in (float("nan"), float("inf")):
        data = spec_to_dict(build_cks())
        data["rounds"][1]["matrix"][0][0] = [value, 0.0]
        with pytest.raises(SpecError):
            spec_from_dict(data)


def test_spec_rejects_wrong_dimension_round():
    base = build_cks()
    with pytest.raises(SpecError):
        ProtocolSpec(base.name, base.layout, base.alice_prep,
                     (Round(ALICE, np.eye(3, dtype=complex), send=True),),
                     base.alice_output)


def test_constructors_reject_wrong_entry_count_and_family_shape():
    base = build_cks()
    with pytest.raises(SpecError):
        ProtocolSpec(base.name, base.layout, base.alice_prep[:1], base.rounds,
                     base.alice_output)
    with pytest.raises(ShapeError):
        ReducedFamily(DensityOp(np.broadcast_to(np.eye(2) / 2, (2, 2, 2, 2))))


def test_spec_rejects_send_when_not_holding():
    base = build_cks()
    rounds = (base.rounds[0],
              Round(BOB, base.rounds[1].unitary, send=True),
              Round(BOB, np.eye(4, dtype=complex), send=True))
    with pytest.raises(SpecError):
        ProtocolSpec(base.name, base.layout, base.alice_prep, rounds, base.alice_output)


def test_spec_requires_named_inputs():
    base = build_cks()
    lay = base.layout
    renamed = type(lay)(tuple(
        type(f)("Y0" if f.name == "X0" else f.name, f.dim, f.owner) for f in lay.factors
    ))
    with pytest.raises(SpecError):
        ProtocolSpec(base.name, renamed, base.alice_prep, base.rounds, base.alice_output)


def _cks_with_bob_factor(dim: int) -> dict:
    # cks without rounds plus an idle Bob factor: layout dim 36 * dim
    data = spec_to_dict(build_cks())
    data["factors"].append({"name": "B", "dim": dim, "owner": BOB})
    data["rounds"] = []
    return data


def test_spec_rejects_layout_beyond_cap():
    # construction only: nothing of layout size is allocated before the check
    at_cap = protocol.MAX_LAYOUT_DIM // 36
    assert spec_from_dict(_cks_with_bob_factor(at_cap)).layout.dim <= protocol.MAX_LAYOUT_DIM
    with pytest.raises(SpecError, match="MAX_LAYOUT_DIM"):
        spec_from_dict(_cks_with_bob_factor(at_cap + 1))
    with pytest.raises(SpecError, match="MAX_LAYOUT_DIM"):
        spec_from_dict(_cks_with_bob_factor(1_000_000))


# --- JSON round trip -----------------------------------------------------------

def test_spec_json_round_trip(tmp_path):
    spec = build_cks()
    data = spec_to_dict(spec)
    path = tmp_path / "cks.json"
    path.write_text(json.dumps(data))
    loaded = spec_from_dict(json.loads(path.read_text()))
    assert loaded.name == spec.name
    assert loaded.layout.names == spec.layout.names
    for a in (0, 1):
        assert np.allclose(loaded.alice_prep[a], spec.alice_prep[a])
        assert np.allclose(loaded.alice_output[a].pos, spec.alice_output[a].pos)
    for r1, r2 in zip(loaded.rounds, spec.rounds):
        assert r1.actor == r2.actor and r1.send == r2.send
        assert np.allclose(r1.unitary, r2.unitary)
    # loaded spec behaves identically
    sv1 = run_honest(loaded, 1, 0, 1)
    sv2 = run_honest(spec, 1, 0, 1)
    assert np.allclose(sv1.amps, sv2.amps)


def _cks_dict_with(path: tuple, value) -> dict:
    """The cks wire structure with the node at ``path`` set to ``value``."""
    data = spec_to_dict(build_cks())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def test_spec_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        spec_from_dict({"name": "x"})
    data = spec_to_dict(build_cks())
    data["alice_prep"] = data["alice_prep"][:1]
    with pytest.raises(ValueError):
        spec_from_dict(data)
    # a value of the wrong JSON type is rejected, not coerced
    entry = ("rounds", 1, "matrix", 0, 0)
    pos = data["alice_output"][0][0]
    for path, value in ((("rounds", 0, "send"), "false"),
                        (("rounds", 0, "send"), 0),
                        (("factors", 0, "dim"), 3.9),
                        (("factors", 0, "dim"), "3"),
                        (("factors", 0, "dim"), True),
                        (("factors", 0, "owner"), 1),
                        (("name",), None),
                        (entry, [1.0, 0.0, 0.0]),
                        (entry, [1.0]),
                        (entry, [True, 0.0]),
                        (entry, ["1", 0.0]),
                        (entry, [10**400, 0.0]),
                        (("alice_output", 0), [pos, pos, pos])):
        with pytest.raises(ValueError):
            spec_from_dict(_cks_dict_with(path, value))


def test_complex_encoding_round_trip():
    spec = build_cks()
    data = spec_to_dict(spec)
    entry = data["alice_prep"][0][0][0]
    assert isinstance(entry, list) and len(entry) == 2
    assert all(isinstance(v, float) for v in entry)
