"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Criterion 7 checks the grid search two ways: it must agree
with the exact optimum ``prop3_tight`` = 1/2 + sqrt(delta (1 - delta)), and
it must never exceed the paper's bound ``prop3_bound``, which is sound but
loose by delta.  Its output line prints the gaps to both.
"""

import json
import subprocess
import sys
import time

import numpy as np

import wotsim as w
from wotsim.protocol import ReducedFamily
from wotsim.qcore import Factor, RegisterLayout, StateVector, random_density


def report(criterion: int, ok: bool, detail: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {criterion}: {detail}")
    return ok


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "wotsim", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def test_criterion_01_qutrit_endpoint():
    t0 = time.time()
    code, out = run_cli("analyze", "cks")
    elapsed = time.time() - t0
    payload = json.loads(out)
    ok = (
        code == 0
        and abs(payload["alice_bound"] - 0.5) < 1e-6
        and abs(payload["bob_bound"] - 0.75) < 1e-6
        and elapsed < 1.0
    )
    assert report(1, ok, f"analyze cks -> (0.5, 0.75) within 1e-6 in {elapsed:.2f}s")


def test_criterion_02_trivial_endpoint():
    code, out = run_cli("analyze", "trivial")
    payload = json.loads(out)
    ok = (
        code == 0
        and abs(payload["alice_bound"] - 1.0) < 1e-6
        and abs(payload["bob_bound"] - 0.5) < 1e-6
    )
    assert report(2, ok, "analyze trivial -> (1.0, 0.5) within 1e-6")


def test_criterion_03_lower_bound_property():
    t0 = time.time()
    rng = np.random.default_rng(20130)
    fds, lhss = [], []
    for _ in range(500):
        dim = int(rng.integers(2, 5))
        rf = ReducedFamily(random_density(dim, rng, size=(2, 2, 2)))
        fds.append(w.f_quantity(rf) + w.delta_quantity(rf))
        lhss.append(2 * w.bob_bound(rf) + w.alice_bound(rf))
    for seed in range(100):
        lhss.append(w.cheat_report(w.random_complete_protocol(seed)).theorem1_lhs)
    # np.min propagates NaN, so a NaN fails the comparison below
    worst_fd, worst_lhs = np.min(fds), np.min(lhss)
    elapsed = time.time() - t0
    ok = worst_fd >= 4.0 - 1e-6 and worst_lhs >= 2.0 - 1e-6 and elapsed < 30.0
    assert report(
        3,
        ok,
        f"min F+Delta {worst_fd:.8f} >= 4-1e-6, min 2b+a {worst_lhs:.8f} >= 2-1e-6 "
        f"in {elapsed:.1f}s",
    )


def test_criterion_04_purified_attack_equivalence():
    gaps = []
    specs = [w.build_cks()] + [w.random_complete_protocol(s) for s in range(20)]
    for spec in specs:
        rho = w.reduce_alice(w.all_final_states(spec)).states
        for s in (0, 1):
            if s == 0:
                fsum = sum(w.fidelity(rho[1, 0, x], rho[1, 1, x]) for x in (0, 1))
            else:
                fsum = sum(w.fidelity(rho[0, x, 0], rho[0, x, 1]) for x in (0, 1))
            gaps.append(abs(w.bob_purified_attack(spec, s) - (0.5 + fsum / 8)))
    worst = np.max(gaps)  # NaN-propagating
    cks_vals = [w.bob_purified_attack(w.build_cks(), s) for s in (0, 1)]
    ok = worst < 1e-6 and all(abs(v - 0.75) < 1e-6 for v in cks_vals)
    assert report(
        4, ok,
        f"purified attack matches closed form within 1e-6 (worst {worst:.2e}); "
        f"qutrit protocol gives {cks_vals[0]:.9f}, {cks_vals[1]:.9f}",
    )


def test_criterion_05_upper_bound_curve():
    # float64 1/3 is an integer over 2**54, so the coin weight is exact; the
    # engine on the mixture protocol gives the same point
    pt = w.combined_bounds(w.WCFPrimitive(1 / 3, 0.0, 54))
    mix = w.cheat_report(w.build_mixture(1 / 3))
    ok = all(abs(b - 2 / 3) < 1e-12
             for b in (pt.a_bound, pt.b_bound, mix.alice_bound, mix.bob_bound))
    worst_line = np.max([abs(p.combined - (2.0 + eps))
                         for eps in (0.0, 0.04) for p in w.curve(eps, 33)])
    pts = w.curve(0.0, 2)
    ok &= worst_line < 1e-12
    ok &= (pts[0].b_bound, pts[0].a_bound) == (0.75, 0.5)
    ok &= (pts[1].b_bound, pts[1].a_bound) == (0.5, 1.0)
    assert report(
        5, ok,
        f"combined_bounds(1/3) = ({pt.a_bound:.12f}, {pt.b_bound:.12f}); "
        f"mixture on the engine ({mix.alice_bound:.12f}, {mix.bob_bound:.12f}); "
        f"max |2b+a-(2+eps)| = {worst_line:.2e}; endpoints exact",
    )


def test_criterion_06_robustness_numbers():
    pt = w.tune_lambda(0.01, 0.0)
    ds = w.delta_star()
    ok = (
        abs(pt.lambda_star - 0.219) <= 1e-3
        and abs(pt.max_cheat - 0.695) <= 1e-3
        and abs(ds - 0.0443) <= 5e-4
        and abs(w.prop3_bound(ds) - 0.75) <= 1e-9
    )
    assert report(
        6, ok,
        f"lambda* = {pt.lambda_star:.4f} (0.219 +/- 1e-3), "
        f"max_cheat = {pt.max_cheat:.4f} (0.695 +/- 1e-3), "
        f"delta* = {ds:.5f} (0.0443 +/- 5e-4), p3(delta*) = {w.prop3_bound(ds):.12f}",
    )


def test_criterion_07_oracle_agreement():
    t0 = time.time()
    tight_gaps, excesses, tight_excesses = [], [], []
    ordered = True
    for d in (0.0, 0.005, 0.01, 0.02, 0.0443):
        val = w.cks_alice_oracle(d, 400)
        tight, bound = w.prop3_tight(d), w.prop3_bound(d)
        tight_gaps.append(abs(val - tight))
        excesses.append(val - bound)
        tight_excesses.append(val - tight)
        ordered &= tight <= bound
    elapsed = time.time() - t0
    sound = np.max(excesses) <= 1e-6 and np.max(tight_excesses) <= 1e-6 and ordered
    agrees = np.max(tight_gaps) <= 3e-3
    ok = sound and agrees and elapsed < 60.0
    assert report(
        7, ok,
        f"sound (max excess over paper bound {np.max(excesses):+.2e}, "
        f"over tight {np.max(tight_excesses):+.2e}, both <= 1e-6; "
        f"tight <= paper bound: {ordered}): {sound}; "
        f"agreement with tight within 3e-3: {agrees} "
        f"(gaps {['%.1e' % g for g in tight_gaps]}); "
        f"paper bound minus search {['%.1e' % -e for e in excesses]} = delta; "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_closed_form_verification():
    rng = np.random.default_rng(20131)
    weights, ancillas = np.empty((1000, 3)), np.empty((1000, 3, 3), dtype=complex)
    for i in range(1000):
        raw = rng.random(3)
        weights[i] = np.sqrt(raw / raw.sum())
        ancillas[i] = [
            np.exp(1j * rng.uniform(0, 2 * np.pi)) * w.haar_unitary(3, rng)[:, 0]
            for _ in range(3)
        ]
    a, b, g = weights.T
    closed = np.stack([0.5 + a * g, 0.5 + b * g], axis=1)
    worst = float(np.abs(w.cks_alice_success(weights, ancillas) - closed).max())
    ok = worst < 1e-6
    assert report(8, ok, f"1000 random preparations: worst closed-form gap {worst:.2e}")


def test_criterion_09_primitive_optimality():
    rng = np.random.default_rng(20132)
    ok_hel = True
    for trial in range(100):
        rho, xi = random_density(2, rng), random_density(2, rng)
        gp = w.guess_prob(rho, xi)
        val = w.helstrom_oracle(rho, xi, 2000, seed=trial)
        ok_hel &= gp - 0.02 <= val <= gp + 1e-6

    lay = RegisterLayout((Factor("S", 2, "Alice"), Factor("E", 2, "Bob")))
    ok_uhl = True
    for trial in range(100):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi = StateVector(lay, amps / np.linalg.norm(amps))
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = StateVector(lay, amps / np.linalg.norm(amps))
        f = w.fidelity(
            w.partial_trace(w.qcore.pure_density(phi), lay, ["S"]),
            w.partial_trace(w.qcore.pure_density(psi), lay, ["S"]),
        )
        val = w.uhlmann_oracle(phi, psi, ["E"], 2000, seed=trial)
        ok_uhl &= f - 0.02 <= val <= f + 1e-6

    ok_fvdg = True
    for _ in range(500):
        dim = int(rng.integers(2, 5))
        rho, xi = random_density(dim, rng), random_density(dim, rng)
        tn = w.trace_norm(rho.mat - xi.mat)
        ok_fvdg &= 1 - tn / 2 <= w.fidelity(rho, xi) + 1e-6
    ok = ok_hel and ok_uhl and ok_fvdg
    assert report(
        9, ok,
        f"helstrom oracle brackets: {ok_hel}; uhlmann oracle brackets: {ok_uhl}; "
        f"trace-norm/fidelity inequality on 500 pairs: {ok_fvdg}",
    )


def test_criterion_10_verify_determinism(verify_seed_7_process):
    code1, out1, _ = verify_seed_7_process
    code2, out2 = run_cli("verify", "--seed", "7")
    ok = code1 == 0 and code2 == 0 and out1 == out2
    assert report(
        10, ok,
        f"verify --seed 7 twice: exits ({code1}, {code2}), byte-identical: {out1 == out2}",
    )
