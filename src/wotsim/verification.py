"""Seeded self-check suites behind the ``verify`` command.

Each suite re-derives a family of invariants from scratch with a seeded RNG
and reports one named check per assertion.  The suites avoid anything known
to be unattainable; they are meant to be a fast, deterministic green wall.
Every check can fail: none restates another check of its suite, and none
restates the validation of a constructor (``StateVector``, ``DensityOp``)
that raises before the check could read its value.

Every check but completeness gets its verdict from ``_check``: it passes
iff all its measured values lie in its bounds, and a NaN fails it.  A failing
check prints as ``FAIL <suite>: <check> (range [min, max])``, the range of
the values it measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import attacks, catalog, oracle, protocol, tradeoff
from .qcore import (
    Factor,
    RegisterLayout,
    StateVector,
    TOL_SPECTRAL,
    bipartition_matrix,
    dagger,
    fidelity,
    guess_prob,
    haar_orthonormalize,
    haar_unitary,
    helstrom,
    hermitian_trace_norm,
    inner,
    partial_trace,
    pure_density,
    random_density,
    trace_norm,
    uhlmann_blocks,
)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""
    # the lowest and highest value measured, for checks that measure one
    span: tuple[float, float] | None = None


def _check(name: str, values, lo: float = -np.inf, hi: float = np.inf) -> Check:
    """Passes iff every value in ``values`` (a list of scalars and arrays)
    lies in ``[lo, hi]``; ``np.min`` and ``np.max`` propagate NaN, so a NaN
    fails."""
    flat = np.concatenate([np.ravel(v) for v in values])
    vmin, vmax = np.min(flat), np.max(flat)
    return Check(name, bool(lo <= vmin and vmax <= hi), f"range [{vmin:.3e}, {vmax:.3e}]",
                 (float(vmin), float(vmax)))


def _rng(seed: int, lane: int) -> np.random.Generator:
    return np.random.default_rng([seed, lane])


def suite_fuchs_van_de_graaf(seed: int) -> list[Check]:
    rng = _rng(seed, 1)
    lower, upper = [], []  # how far each inequality is broken, <= 0 where it holds
    # five rounds of 34 pairs per dimension: larger calls raise the peak memory
    for dim in (2, 3, 4) * 5:
        pairs = random_density(dim, rng, size=(34, 2))
        rho, xi = pairs[:, 0], pairs[:, 1]
        tn = hermitian_trace_norm(rho.mat - xi.mat)
        f = fidelity(rho, xi)
        lower.append((1.0 - tn / 2.0) - f)
        upper.append(f - np.sqrt(np.maximum(0.0, 1.0 - tn**2 / 4.0)))
    return [_check("lower_inequality", lower, hi=TOL_SPECTRAL),
            _check("upper_inequality", upper, hi=TOL_SPECTRAL)]


def suite_trace_norm(seed: int) -> list[Check]:
    rng = _rng(seed, 2)
    triangle, unitary, hermitian = [], [], []
    # two rounds of 34 instances per dimension, each matrices a and b and
    # unitaries u and v
    for dim in (2, 3, 4) * 2:
        z = rng.standard_normal((2, 2, 34, dim, dim))
        a, b = z[0] + 1j * z[1]
        u, v = haar_unitary(dim, rng, size=(2, 34))
        tn_a = trace_norm(a)
        triangle.append(trace_norm(a + b) - (tn_a + trace_norm(b)))
        unitary.append(np.abs(trace_norm(u @ a @ v) - tn_a))
        # the eigenvalue kernel against the SVD, on the Hermitian a + a†
        h = a + dagger(a)
        hermitian.append(np.abs(hermitian_trace_norm(h) - trace_norm(h)))
    return [_check("triangle", triangle, hi=TOL_SPECTRAL),
            _check("unitarily_invariant", unitary, hi=TOL_SPECTRAL),
            _check("hermitian_matches_svd", hermitian, hi=TOL_SPECTRAL)]


def suite_helstrom(seed: int) -> list[Check]:
    rng = _rng(seed, 3)
    gaps = []
    for dim in (2, 3, 4):
        pairs = random_density(dim, rng, size=(100, 2))
        rho, xi = pairs[:, 0], pairs[:, 1]
        _, success = helstrom(rho, xi)
        gaps.append(np.abs(success - guess_prob(rho, xi)))
    return [_check("matches_guess_prob", gaps, hi=TOL_SPECTRAL)]


def suite_fidelity_and_uhlmann(seed: int) -> list[Check]:
    rng = _rng(seed, 4)
    # per draw: two Haar unitaries, whose first columns are phi and psi
    u = haar_unitary(3, rng, size=(200, 2))[..., 0]
    pure = pure_density(StateVector(RegisterLayout((Factor("Q", 3, "Alice"),)), u))
    f = fidelity(pure[:, 0], pure[:, 1])
    inner_gap = np.abs(f - np.abs(inner(u[:, 0], u[:, 1])))

    lay = RegisterLayout((Factor("S", 2, "Alice"), Factor("E", 3, "Bob")))
    # per draw: phi's real and imaginary amplitudes, then psi's
    normals = rng.standard_normal((100, 4, 6))
    amps = normals[:, 0::2] + 1j * normals[:, 1::2]
    states = StateVector(lay, amps / np.linalg.norm(amps, axis=-1, keepdims=True))
    mats = bipartition_matrix(states, ["E"])
    u = uhlmann_blocks(mats[:, 0], mats[:, 1])[0]
    # <phi|(I x U)|psi>, evaluated through the states
    overlap = np.real(np.sum(mats[:, 0].conj() * (mats[:, 1] @ u.swapaxes(-1, -2)), axis=(-2, -1)))
    reduced = partial_trace(pure_density(states), lay, ["S"])
    return [
        _check("pure_fidelity_inner_product", [inner_gap], hi=TOL_SPECTRAL),
        _check("uhlmann_unitary_is_unitary", [np.abs(dagger(u) @ u - np.eye(3))], hi=1e-9),
        _check("uhlmann_attains_fidelity",
               [np.abs(overlap - fidelity(reduced[:, 0], reduced[:, 1]))], hi=TOL_SPECTRAL),
    ]


def suite_partial_trace(seed: int) -> list[Check]:
    rng = _rng(seed, 5)
    lay = RegisterLayout((Factor("L", 2, "Alice"), Factor("R", 3, "Bob")))
    rho = random_density(6, rng, size=100)
    red = partial_trace(rho, lay, ["L"]).mat
    # tr_R F F† = M M† for M[l, (r, k)] = F[(l, r), k]: a wrong traced factor
    # or axis order fails it on these complex states, unlike on the real Bell state
    m = rho.factor.reshape(100, 2, 18)
    bell = StateVector(
        RegisterLayout((Factor("a", 2, "Alice"), Factor("b", 2, "Bob"))),
        np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    )
    bell_red = partial_trace(pure_density(bell), bell.layout, ["a"]).mat
    return [
        _check("matches_traced_factor", [np.abs(red - m @ dagger(m))], hi=1e-9),
        _check("bell_reduces_to_maximally_mixed", [np.abs(bell_red - np.eye(2) / 2)], hi=1e-9),
    ]


def suite_protocol_honest(seed: int) -> list[Check]:
    checks = []
    for spec in (catalog.build_cks(), catalog.build_trivial()):
        an = protocol._analyze(spec)
        report = an.completeness
        checks.append(Check(f"{spec.name}_complete", report.passed, "; ".join(report.failures)))
        # vary the learned bit (x0 for a = 0, x1 for a = 1), holding the
        # other input fixed
        rho = an.reduced.states
        gaps = [guess_prob(rho[0, 0], rho[0, 1]), guess_prob(rho[1, :, 0], rho[1, :, 1])]
        checks.append(_check(f"{spec.name}_learned_bit_distinguishable",
                             [np.abs(np.subtract(gaps, 1.0))], hi=TOL_SPECTRAL))
    return checks


def suite_inequality_chain(seed: int) -> list[Check]:
    rng = _rng(seed, 6)
    # Theorem 1 on the attacks is f + delta >= 4 through the two bound maps, which
    # helstrom_attack_achieves_bound, mixture_on_line and cheat_report check
    fd = []
    # six rounds of 28 families per dimension, each family eight densities
    # keyed (a, x0, x1): one call over all of them raises verify's peak memory
    for dim in (2, 3, 4) * 6:
        rf = protocol.ReducedFamily(random_density(dim, rng, size=(28, 2, 2, 2)))
        fd.append(attacks.f_quantity(rf) + attacks.delta_quantity(rf))
    devs = []
    base_seeds = rng.integers(0, 2**31 - 1, size=100)
    # ten family specs of ten: one family of 100 would raise verify's peak
    # memory by about 8 MB, ten of ten stay below suite_oracle's peak
    for seeds in np.split(base_seeds, 10):
        rep = attacks.cheat_report(catalog.random_complete_protocol(seeds))
        devs += [np.abs(rep.delta), np.abs(rep.f - 4)]
    return [
        _check("f_plus_delta_at_least_4", fd, lo=4.0 - TOL_SPECTRAL),
        _check("local_rotations_preserve_quantities", devs, hi=TOL_SPECTRAL),
    ]


def suite_purified_attack(seed: int) -> list[Check]:
    rng = _rng(seed, 7)
    specs = [catalog.build_cks(), catalog.build_trivial()]
    specs += [catalog.random_complete_protocol(int(s)) for s in rng.integers(0, 2**31 - 1, 3)]
    closed, alice = [], []
    for spec in specs:
        an = protocol._analyze(spec)
        rf, rho = an.reduced, an.reduced.states
        # register s = 0 realigns the a = 1 states across x0, s = 1 the
        # a = 0 states across x1
        fsum = np.array([np.sum(fidelity(rho[1, 0], rho[1, 1])),
                         np.sum(fidelity(rho[0, :, 0], rho[0, :, 1]))])
        sims = attacks._purified_success(an)
        closed.append(np.abs(sims - (0.5 + fsum / 8.0)))
        alice.append(abs(attacks.alice_helstrom_attack(rf) - attacks.alice_bound(rf)))
    return [_check("simulation_matches_closed_form", closed, hi=TOL_SPECTRAL),
            _check("helstrom_attack_achieves_bound", alice, hi=TOL_SPECTRAL)]


def suite_catalog(seed: int) -> list[Check]:
    # (|aa> (-1)^(learned bit) + |22>) / sqrt(2) on the qutrit pair, |aa> at 0 and 4
    expected = np.zeros((2, 2, 2, 9))
    expected[[0, 1], :, :, [0, 4]] = (-1.0) ** protocol.LEARNED / np.sqrt(2)
    expected[..., 8] = 1.0 / np.sqrt(2)
    final = protocol.all_final_states(catalog.build_cks()).stack.amps
    line, margins = [], []
    for eps in (0.0, 0.01):
        for k in range(17):
            pt = catalog.combined_bounds(catalog.WCFPrimitive(k / 16.0, eps, 4))
            line.append(abs(pt.combined - (2.0 + eps)))
            # within the epsilon-slack envelope; clipping to [1/2,1]x[1/2,3/4]
            # recovers the attainable ranges
            margins += [pt.a_bound - 0.5, 1.0 + eps / 2 + 1e-12 - pt.a_bound,
                        pt.b_bound - 0.5, 0.75 + eps / 4 + 1e-12 - pt.b_bound]
    # the engine on the coin-flip mixture: on the line, at combined_bounds
    devs = []
    for lam in (catalog.dyadic_round(u, 20) for u in _rng(seed, 9).random(2)):
        rep = attacks.cheat_report(catalog.build_mixture(lam))
        pt = catalog.combined_bounds(catalog.WCFPrimitive(lam, 0.0, 20))
        devs += [rep.theorem1_lhs - 2.0, rep.alice_bound - pt.a_bound, rep.bob_bound - pt.b_bound]
    return [
        _check("qutrit_states_exact", [np.abs(final - expected)], hi=1e-9),
        _check("combined_on_line", line, hi=1e-9),
        _check("bounds_in_range", margins, lo=0.0),
        _check("mixture_on_line", [np.abs(devs)], hi=1e-12),
    ]


def suite_tradeoff(seed: int) -> list[Check]:
    vals = [tradeoff.prop3_bound(d) for d in np.linspace(0.0, 0.5, 1000)]
    pts = tradeoff.curve(0.0, 9)
    ends = [pts[0].b_bound - 0.75, pts[0].a_bound - 0.5,
            pts[-1].b_bound - 0.5, pts[-1].a_bound - 1.0]
    dstar = tradeoff.delta_star()
    mc = [tradeoff.tune_lambda(d, 0.0).max_cheat for d in np.linspace(0.0, dstar, 50)]
    return [
        _check("p3_monotone", [np.diff(vals)], lo=-1e-12),
        _check("curve_on_line", [abs(p.combined - 2.0) for p in pts], hi=1e-9),
        _check("curve_endpoints", [np.abs(ends)], hi=1e-12),
        _check("max_cheat_monotone", [np.diff(mc)], lo=-1e-12),
        # the slack left under each endpoint's own tolerance
        _check("tuning_endpoints",
               [1e-9 - abs(mc[0] - 2.0 / 3.0), 1e-6 - abs(mc[-1] - 0.75)], lo=0.0),
    ]


def suite_oracle(seed: int) -> list[Check]:
    rng = _rng(seed, 8)
    checks = []
    # per preparation: its weights, then the normals of its three ancillas
    # as haar_unitary(3, rng, 3) draws them, all orthonormalised by one QR
    raw, normals = np.empty((300, 3)), np.empty((300, 3, 2, 3, 3))
    for i in range(300):
        raw[i] = rng.random(3)
        normals[i] = rng.standard_normal((3, 2, 3, 3))
    weights = np.sqrt(raw / raw.sum(axis=1, keepdims=True))
    ancillas = haar_orthonormalize(normals)[..., 0]
    closed = 0.5 + weights[:, :2] * weights[:, 2:]  # [alpha gamma, beta gamma]
    success = oracle.cks_alice_success(weights, ancillas)
    checks.append(_check("closed_forms", [np.abs(success - closed)], hi=TOL_SPECTRAL))

    excess = [oracle.cks_alice_oracle(d, 100) - tradeoff.prop3_bound(d)
              for d in np.linspace(0.0, 0.05, 6).tolist()]
    checks.append(_check("grid_search_below_analytic_bound", excess, hi=TOL_SPECTRAL))

    # how far each oracle value falls below the exact one: never negative,
    # at most 0.05.  Each bracket scores its 20 pairs in one oracle call,
    # against one seed's samples
    pairs = random_density(2, rng, size=(20, 2))
    rho, xi = pairs[:, 0], pairs[:, 1]
    best = oracle.helstrom_oracle(rho, xi, 500, int(rng.integers(2**31)))
    checks.append(_check("helstrom_oracle_brackets", [guess_prob(rho, xi) - best],
                         lo=-TOL_SPECTRAL, hi=0.05))

    lay = RegisterLayout((Factor("S", 2, "Alice"), Factor("E", 2, "Bob")))
    # per pair: phi's real and imaginary amplitudes, then psi's, each state
    # normalised on its own
    normals = rng.standard_normal((20, 2, 2, 4))
    amps = normals[:, :, 0] + 1j * normals[:, :, 1]
    states = StateVector(lay, amps / np.linalg.norm(amps, axis=-1, keepdims=True))
    reduced = partial_trace(pure_density(states), lay, ["S"])
    f = fidelity(reduced[:, 0], reduced[:, 1])
    # the best of 500 unitaries fell 0.054 short on 2 of 4650 seeds; of 1000,
    # at most 0.0468 over the 5190 derived seeds of tools/seed_sweep.py --seeds 1-10
    phi, psi = (StateVector(lay, states.amps[:, j]) for j in (0, 1))
    best = oracle.uhlmann_oracle(phi, psi, ["E"], 1000, int(rng.integers(2**31)))
    checks.append(_check("uhlmann_oracle_brackets", [f - best], lo=-TOL_SPECTRAL, hi=0.05))
    return checks


SUITES: tuple[tuple[str, Callable[[int], list[Check]]], ...] = (
    ("qcore.fuchs_van_de_graaf", suite_fuchs_van_de_graaf),
    ("qcore.trace_norm", suite_trace_norm),
    ("qcore.helstrom", suite_helstrom),
    ("qcore.fidelity_uhlmann", suite_fidelity_and_uhlmann),
    ("qcore.partial_trace", suite_partial_trace),
    ("protocol.honest_runs", suite_protocol_honest),
    ("attacks.inequality_chain", suite_inequality_chain),
    ("attacks.purified_attack", suite_purified_attack),
    ("catalog.protocols", suite_catalog),
    ("tradeoff.curve_robustness", suite_tradeoff),
    ("oracle.soundness", suite_oracle),
)


def run_all(seed: int) -> tuple[list[str], bool]:
    """Run every suite; returns the report lines, one ``FAIL`` line per
    failing check, and the overall verdict."""
    lines = []
    all_ok = True
    for name, fn in SUITES:
        checks = fn(seed)
        bad = [c for c in checks if not c.ok]
        all_ok &= not bad
        lines += [f"FAIL {name}: {c.name}" + (f" ({c.detail})" if c.detail else "") for c in bad]
        if not bad:
            lines.append(f"PASS {name} ({len(checks)} checks)")
    lines.append("OK" if all_ok else "FAILED")
    return lines, all_ok
