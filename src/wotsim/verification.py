"""Seeded self-check suites behind the ``verify`` command.

Each suite re-derives a family of invariants from scratch with a seeded RNG
and reports one named check per assertion.  The suites avoid anything known
to be unattainable; they are meant to be a fast, deterministic green wall.
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
    haar_unitary,
    helstrom,
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


def _rng(seed: int, lane: int) -> np.random.Generator:
    return np.random.default_rng([seed, lane])


def suite_fuchs_van_de_graaf(seed: int) -> list[Check]:
    rng = _rng(seed, 1)
    checks = []
    worst_lo, worst_hi = 0.0, 0.0
    # five rounds of 34 pairs per dimension: larger calls raise the peak memory
    for dim in (2, 3, 4) * 5:
        pairs = random_density(dim, rng, size=(34, 2))
        rho, xi = pairs[:, 0], pairs[:, 1]
        tn = trace_norm(rho.mat - xi.mat)
        f = fidelity(rho, xi)
        worst_lo = max(worst_lo, float(np.max((1.0 - tn / 2.0) - f)))
        upper = np.sqrt(np.maximum(0.0, 1.0 - tn**2 / 4.0))
        worst_hi = max(worst_hi, float(np.max(f - upper)))
    checks.append(Check("lower_inequality", worst_lo <= TOL_SPECTRAL, f"excess {worst_lo:.2e}"))
    checks.append(Check("upper_inequality", worst_hi <= TOL_SPECTRAL, f"excess {worst_hi:.2e}"))
    return checks


def suite_trace_norm(seed: int) -> list[Check]:
    rng = _rng(seed, 2)
    checks = []
    ok_nonneg = ok_triangle = ok_unitary = True
    # two rounds of 34 instances per dimension, each matrices a and b and
    # unitaries u and v
    for dim in (2, 3, 4) * 2:
        z = rng.standard_normal((2, 2, 34, dim, dim))
        a, b = z[0] + 1j * z[1]
        u, v = haar_unitary(dim, rng, size=(2, 34))
        tn_a = trace_norm(a)
        ok_nonneg &= bool(np.all(tn_a >= 0.0))
        ok_triangle &= bool(np.all(trace_norm(a + b) <= tn_a + trace_norm(b) + TOL_SPECTRAL))
        ok_unitary &= bool(np.all(np.abs(trace_norm(u @ a @ v) - tn_a) <= TOL_SPECTRAL))
    checks.append(Check("nonnegative", ok_nonneg))
    checks.append(Check("triangle", ok_triangle))
    checks.append(Check("unitarily_invariant", ok_unitary))
    return checks


def suite_helstrom(seed: int) -> list[Check]:
    rng = _rng(seed, 3)
    worst = 0.0
    for dim in (2, 3, 4):
        pairs = random_density(dim, rng, size=(100, 2))
        rho, xi = pairs[:, 0], pairs[:, 1]
        _, success = helstrom(rho, xi)
        worst = max(worst, float(np.max(np.abs(success - guess_prob(rho, xi)))))
    return [Check("matches_guess_prob", worst <= TOL_SPECTRAL, f"worst gap {worst:.2e}")]


def suite_fidelity_and_uhlmann(seed: int) -> list[Check]:
    rng = _rng(seed, 4)
    checks = []
    # per draw: two Haar unitaries, whose first columns are phi and psi
    u = haar_unitary(3, rng, size=(200, 2))[..., 0]
    pure = pure_density(StateVector(RegisterLayout((Factor("Q", 3, "Alice"),)), u))
    f = fidelity(pure[:, 0], pure[:, 1])
    worst = float(np.max(np.abs(f - np.abs(inner(u[:, 0], u[:, 1])))))
    checks.append(Check("pure_fidelity_inner_product", worst <= TOL_SPECTRAL, f"{worst:.2e}"))

    lay = RegisterLayout((Factor("S", 2, "Alice"), Factor("E", 3, "Bob")))
    # per draw: phi's real and imaginary amplitudes, then psi's
    normals = rng.standard_normal((100, 4, 6))
    amps = normals[:, 0::2] + 1j * normals[:, 1::2]
    states = StateVector(lay, amps / np.linalg.norm(amps, axis=-1, keepdims=True))
    mats = bipartition_matrix(states, ["E"])
    u, overlap = uhlmann_blocks(mats[:, 0], mats[:, 1])
    worst_unitary = float(np.abs(dagger(u) @ u - np.eye(3)).max())
    reduced = partial_trace(pure_density(states), lay, ["S"])
    worst_overlap = float(np.max(np.abs(overlap - fidelity(reduced[:, 0], reduced[:, 1]))))
    checks.append(Check("uhlmann_unitary_is_unitary", worst_unitary <= 1e-9, f"{worst_unitary:.2e}"))
    checks.append(Check("uhlmann_attains_fidelity", worst_overlap <= TOL_SPECTRAL, f"{worst_overlap:.2e}"))
    return checks


def suite_partial_trace(seed: int) -> list[Check]:
    rng = _rng(seed, 5)
    lay = RegisterLayout((Factor("L", 2, "Alice"), Factor("R", 3, "Bob")))
    red = partial_trace(random_density(6, rng, size=100), lay, ["L"])
    ok_trace = bool(np.all(np.abs(np.trace(red.mat, axis1=-2, axis2=-1) - 1.0) <= TOL_SPECTRAL))
    ok_psd = bool(np.linalg.eigvalsh(red.mat).min() >= -TOL_SPECTRAL)
    bell = StateVector(
        RegisterLayout((Factor("a", 2, "Alice"), Factor("b", 2, "Bob"))),
        np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    )
    red = partial_trace(pure_density(bell), bell.layout, ["a"])
    ok_bell = np.abs(red.mat - np.eye(2) / 2).max() <= 1e-9
    return [
        Check("preserves_trace", ok_trace),
        Check("preserves_psd", ok_psd),
        Check("bell_reduces_to_maximally_mixed", ok_bell),
    ]


def suite_protocol_honest(seed: int) -> list[Check]:
    checks = []
    for spec in (catalog.build_cks(), catalog.build_trivial()):
        # the analysed states are normalised by construction; single runs are not
        norm_ok = all(
            abs(np.linalg.norm(protocol.run_honest(spec, *key).amps) - 1.0) <= 1e-9
            for key in protocol.RUN_KEYS
        )
        checks.append(Check(f"{spec.name}_norms", norm_ok))
        an = protocol._analyze(spec)
        report = an.completeness
        checks.append(Check(f"{spec.name}_complete", report.passed, "; ".join(report.failures)))
        # vary the learned bit (x0 for a = 0, x1 for a = 1), holding the
        # other input fixed
        rho = an.reduced.states
        gaps = [guess_prob(rho[0, 0], rho[0, 1]), guess_prob(rho[1, :, 0], rho[1, :, 1])]
        worst = float(np.max(np.abs(np.subtract(gaps, 1.0))))
        checks.append(Check(f"{spec.name}_learned_bit_distinguishable", worst <= TOL_SPECTRAL,
                            f"{worst:.2e}"))
    return checks


def suite_inequality_chain(seed: int) -> list[Check]:
    rng = _rng(seed, 6)
    worst_fd, worst_t1 = 4.0, 2.0
    # six rounds of 28 families per dimension, each family eight densities
    # keyed (a, x0, x1): one call over all of them raises verify's peak memory
    for dim in (2, 3, 4) * 6:
        rf = protocol.ReducedFamily(random_density(dim, rng, size=(28, 2, 2, 2)))
        f = attacks.f_quantity(rf)
        d = attacks.delta_quantity(rf)
        worst_fd = min(worst_fd, float(np.min(f + d)))
        worst_t1 = min(worst_t1, float(np.min(
            2.0 * attacks._bob_bound_of(f) + attacks._alice_bound_of(d))))
    checks = [
        Check("f_plus_delta_at_least_4", worst_fd >= 4.0 - TOL_SPECTRAL, f"min {worst_fd:.8f}"),
        Check("tradeoff_at_least_2", worst_t1 >= 2.0 - TOL_SPECTRAL, f"min {worst_t1:.8f}"),
    ]
    worst_lhs, worst_df = 2.0, 0.0
    base_seeds = rng.integers(0, 2**31 - 1, size=100)
    # ten family specs of ten: one family of 100 would raise verify's peak
    # memory by about 8 MB, ten of ten stay below suite_oracle's peak
    for seeds in np.split(base_seeds, 10):
        rep = attacks.cheat_report(catalog.random_complete_protocol(seeds))
        worst_lhs = min(worst_lhs, float(np.min(rep.theorem1_lhs)))
        worst_df = max(worst_df, float(np.max(np.abs(rep.delta))), float(np.max(np.abs(rep.f - 4))))
    checks.append(Check("random_protocols_on_curve", worst_lhs >= 2.0 - TOL_SPECTRAL,
                        f"min {worst_lhs:.8f}"))
    checks.append(Check("local_rotations_preserve_quantities", worst_df <= TOL_SPECTRAL,
                        f"max dev {worst_df:.2e}"))
    return checks


def suite_purified_attack(seed: int) -> list[Check]:
    rng = _rng(seed, 7)
    specs = [catalog.build_cks(), catalog.build_trivial()]
    specs += [catalog.random_complete_protocol(int(s)) for s in rng.integers(0, 2**31 - 1, 3)]
    worst_closed, worst_alice = 0.0, 0.0
    for spec in specs:
        an = protocol._analyze(spec)
        rf, rho = an.reduced, an.reduced.states
        # register s = 0 realigns the a = 1 states across x0, s = 1 the
        # a = 0 states across x1
        fsum = np.array([np.sum(fidelity(rho[1, 0], rho[1, 1])),
                         np.sum(fidelity(rho[0, :, 0], rho[0, :, 1]))])
        sims = attacks._purified_success(an)
        worst_closed = max(worst_closed, float(np.max(np.abs(sims - (0.5 + fsum / 8.0)))))
        worst_alice = max(
            worst_alice, abs(attacks.alice_helstrom_attack(rf) - attacks.alice_bound(rf))
        )
    return [
        Check("simulation_matches_closed_form", worst_closed <= TOL_SPECTRAL, f"{worst_closed:.2e}"),
        Check("helstrom_attack_achieves_bound", worst_alice <= TOL_SPECTRAL, f"{worst_alice:.2e}"),
    ]


def suite_catalog(seed: int) -> list[Check]:
    checks = []
    spec = catalog.build_cks()
    worst = 0.0
    for a, x0, x1 in protocol.RUN_KEYS:
        sv = protocol.run_honest(spec, a, x0, x1)
        expected = np.zeros(36, dtype=complex)
        xa = x0 if a == 0 else x1
        base = x0 * 2 + x1
        aa = 4 * a  # |aa| index within the 9-dim qutrit pair
        expected[aa * 4 + base] = (-1.0) ** xa / np.sqrt(2)
        expected[8 * 4 + base] = 1.0 / np.sqrt(2)
        worst = max(worst, np.abs(sv.amps - expected).max())
    checks.append(Check("qutrit_states_exact", worst <= 1e-9, f"{worst:.2e}"))
    worst_line = 0.0
    ok_range = True
    for eps in (0.0, 0.01):
        for k in range(17):
            pt = catalog.combined_bounds(catalog.WCFPrimitive(k / 16.0, eps, 4))
            worst_line = max(worst_line, abs(pt.combined - (2.0 + eps)))
            # within the epsilon-slack envelope; clipping to [1/2,1]x[1/2,3/4]
            # recovers the attainable ranges
            ok_range &= 0.5 <= pt.a_bound <= 1.0 + eps / 2 + 1e-12
            ok_range &= 0.5 <= pt.b_bound <= 0.75 + eps / 4 + 1e-12
    checks.append(Check("combined_on_line", worst_line <= 1e-9, f"{worst_line:.2e}"))
    checks.append(Check("bounds_in_range", ok_range))
    # the engine on the coin-flip mixture: on the line, at combined_bounds
    devs = []
    for lam in (catalog.dyadic_round(u, 20) for u in _rng(seed, 9).random(2)):
        rep = attacks.cheat_report(catalog.build_mixture(lam))
        pt = catalog.combined_bounds(catalog.WCFPrimitive(lam, 0.0, 20))
        devs += [rep.theorem1_lhs - 2.0, rep.alice_bound - pt.a_bound, rep.bob_bound - pt.b_bound]
    worst_mix = np.max(np.abs(devs))  # NaN-propagating, unlike Python's max
    checks.append(Check("mixture_on_line", bool(worst_mix <= 1e-12), f"max dev {worst_mix:.2e}"))
    return checks


def suite_tradeoff(seed: int) -> list[Check]:
    checks = []
    grid = np.linspace(0.0, 0.5, 1000)
    vals = [tradeoff.prop3_bound(d) for d in grid]
    checks.append(Check("p3_monotone", all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))))
    pts = tradeoff.curve(0.0, 9)
    worst = max(abs(p.combined - 2.0) for p in pts)
    checks.append(Check("curve_on_line", worst <= 1e-9, f"{worst:.2e}"))
    end_ok = (
        abs(pts[0].b_bound - 0.75) <= 1e-12 and abs(pts[0].a_bound - 0.5) <= 1e-12
        and abs(pts[-1].b_bound - 0.5) <= 1e-12 and abs(pts[-1].a_bound - 1.0) <= 1e-12
    )
    checks.append(Check("curve_endpoints", end_ok))
    dstar = tradeoff.delta_star()
    mc = [tradeoff.tune_lambda(d, 0.0).max_cheat for d in np.linspace(0.0, dstar, 50)]
    mono = all(b >= a - 1e-12 for a, b in zip(mc, mc[1:]))
    checks.append(Check("max_cheat_monotone", mono))
    checks.append(Check(
        "tuning_endpoints",
        abs(mc[0] - 2.0 / 3.0) <= 1e-9 and abs(mc[-1] - 0.75) <= 1e-6,
        f"{mc[0]:.9f} {mc[-1]:.9f}",
    ))
    return checks


def _bracket_check(name: str, short: list[float]) -> Check:
    """A lower-bound oracle lands at most 0.05 below the exact value, never above."""
    return Check(name, bool(-TOL_SPECTRAL <= np.min(short) and np.max(short) <= 0.05),
                 f"worst shortfall {np.max(short):.4f}")


def suite_oracle(seed: int) -> list[Check]:
    rng = _rng(seed, 8)
    checks = []
    weights, ancillas = np.empty((300, 3)), np.empty((300, 3, 3), dtype=complex)
    for i in range(300):
        raw = rng.random(3)
        weights[i] = np.sqrt(raw / raw.sum())
        ancillas[i] = haar_unitary(3, rng, size=3)[..., 0]
    closed = 0.5 + weights[:, :2] * weights[:, 2:]  # [alpha gamma, beta gamma]
    worst = float(np.abs(oracle.cks_alice_success(weights, ancillas) - closed).max())
    checks.append(Check("closed_forms", worst <= TOL_SPECTRAL, f"{worst:.2e}"))

    excess = [oracle.cks_alice_oracle(d, 100) - tradeoff.prop3_bound(d)
              for d in np.linspace(0.0, 0.05, 6).tolist()]
    checks.append(Check("grid_search_below_analytic_bound", bool(np.max(excess) <= TOL_SPECTRAL),
                        f"max excess {np.max(excess):.2e}"))

    short = []  # how far each oracle value falls below the exact one
    for _ in range(20):
        rho, xi = random_density(2, rng), random_density(2, rng)
        val = oracle.helstrom_oracle(rho, xi, 500, int(rng.integers(2**31)))
        short.append(guess_prob(rho, xi) - val)
    checks.append(_bracket_check("helstrom_oracle_brackets", short))

    lay = RegisterLayout((Factor("S", 2, "Alice"), Factor("E", 2, "Bob")))
    short = []
    # the best of 500 unitaries fell 0.054 short on 2 of 4650 seeds; of 1000, at most 0.031
    for _ in range(20):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi = StateVector(lay, amps / np.linalg.norm(amps))
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = StateVector(lay, amps / np.linalg.norm(amps))
        f = fidelity(
            partial_trace(pure_density(phi), lay, ["S"]),
            partial_trace(pure_density(psi), lay, ["S"]),
        )
        short.append(f - oracle.uhlmann_oracle(phi, psi, ["E"], 1000, int(rng.integers(2**31))))
    checks.append(_bracket_check("uhlmann_oracle_brackets", short))
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
