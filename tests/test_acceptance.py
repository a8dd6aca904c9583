"""Acceptance suite: the package-level exit criteria, each run at its stated
tolerance and time budget, printing one line per criterion."""
import math
import time

import numpy as np
import pytest

from qmm.harness import generate_matrix, generate_vector
from qmm.linalg import compute_svd, exact_product, pad_matrix, vectorize
from qmm.matmul import (
    SVEOperators,
    _sve_setup,
    matmul_hhl,
    matmul_lcu,
    matmul_swaptest,
    matmul_sve,
    sve_error_bound,
    walk_plane_eigenphases,
)
from qmm.readout import readout_hhl, readout_sve, readout_swaptest
from qmm.statevector import fidelity, from_vector
from qmm.stateprep import prep_dyadic, prep_hamiltonian, prep_signshift, synthesize_direct


def _report(number: int, name: str, ok: bool, elapsed: float, budget: float, extra: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {number}: {name} ({elapsed:.2f}s / budget {budget:.0f}s){extra}")
    assert ok, f"criterion {number} violated"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_walk_spectral_identity():
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for seed in range(50):
        n = 2 + seed % 7  # sizes 2..8
        a = generate_matrix(n, 1.0 + (seed % 5), seed=seed)
        ops = SVEOperators.from_matrix(a)
        padded = pad_matrix(a)
        bundle = compute_svd(padded)
        frob = np.linalg.norm(a)
        for k in range(padded.shape[1]):
            sigma = bundle.sigmas[k] if k < bundle.sigmas.size else 0.0
            phases = walk_plane_eigenphases(
                ops, bundle.left_vectors[:, k], bundle.right_vectors[:, k]
            )
            worst = max(worst, abs(math.cos(phases[-1] / 2.0) - sigma / frob))
            checked += 1
    elapsed = time.perf_counter() - started
    _report(1, f"walk eigenphases encode sigma/frob on {checked} planes (worst {worst:.2e})",
            worst <= 1e-8, elapsed, 10.0)


def test_criterion_2_swaptest_pipeline_error_budget():
    started = time.perf_counter()
    violations = 0
    for seed in range(30):
        a = generate_matrix(4, 1.0 + (seed % 4), seed=seed, sigma_max=1.0 + 0.2 * (seed % 3))
        b = generate_matrix(4, 1.0 + ((seed + 2) % 4), seed=seed + 1000)
        c = exact_product(a, b)
        r2 = (np.linalg.norm(a) * np.linalg.norm(b) / np.linalg.norm(c)) ** 2
        for t in (8, 10):
            res = matmul_swaptest(a, b, phase_bits=t)
            eps = math.pi / (1 << t)
            budget_sq = 2 * r2 * eps**2 + 2 * r2**2 * eps**2
            if res.realized_error**2 > budget_sq:
                violations += 1
    elapsed = time.perf_counter() - started
    _report(2, f"swap-test pipeline squared error within budget on 60 runs",
            violations == 0, elapsed, 120.0)


def test_criterion_3_sve_pipeline_error_budget():
    started = time.perf_counter()
    violations = 0
    for seed in range(30):
        a = generate_matrix(4, 1.5 + (seed % 3), seed=seed + 7)
        b = generate_matrix(4, 2.0, seed=seed + 2000)
        res = matmul_sve(a, b, phase_bits=10)
        # the instance-evaluated budget, recomputed from scratch
        _, _, _, _, _, d, _, bundle, col_norms, _, alpha = _sve_setup(a, b)
        sigmas = np.zeros(d)
        sigmas[: bundle.sigmas.size] = bundle.sigmas
        budget = sve_error_bound(
            res.details["eps1_eff"], col_norms, alpha,
            np.asarray(res.details["sigma_eff"]), sigmas,
        )
        if res.realized_error > budget or abs(budget - res.predicted_bound) > 1e-12:
            violations += 1
    elapsed = time.perf_counter() - started
    _report(3, "sve pipeline state distance within instance budget on 30 runs",
            violations == 0, elapsed, 120.0)


def test_criterion_4_entrywise_readout_contract():
    started = time.perf_counter()
    violations = 0
    for idx in range(20):
        n = 3 + idx % 2
        a = generate_matrix(n, 1.5 + (idx % 3), seed=idx + 31)
        b = generate_matrix(n, 2.0, seed=idx + 4000)
        for eps in (0.1, 0.05):
            for fn in (readout_swaptest, readout_sve, readout_hhl):
                rep = fn(a, b, eps)
                if rep.max_observed_error > eps:
                    violations += 1
    elapsed = time.perf_counter() - started
    _report(4, "entrywise readout within eps_abs on 120 runs (3 methods x 20 pairs x 2 eps)",
            violations == 0, elapsed, 120.0)


def test_criterion_5_small_angle_preparation_bounds():
    started = time.perf_counter()
    violations = 0
    rng = np.random.default_rng(123)
    run = 0
    while run < 30:
        for kappa in (1.0, 2.0, 8.0, 32.0):
            f = np.geomspace(1.0, 1.0 / kappa, 8)
            rng.shuffle(f)
            f = f * rng.choice([-1.0, 1.0], size=8)
            base = from_vector("x", np.abs(rng.normal(size=8)) + 0.05)
            rep = prep_hamiltonian(f, base, eps=0.05)
            p = rep.result.success_probability
            ok = (
                rep.realized_distance <= math.sqrt(kappa / 3.0) * rep.epsilon1
                and rep.epsilon0**2 <= p <= rep.epsilon1**2
            )
            violations += 0 if ok else 1
            run += 1
            if run >= 30:
                break
    elapsed = time.perf_counter() - started
    _report(5, "small-angle preparation distance and probability sandwich on 30 runs",
            violations == 0, elapsed, 30.0)


def test_criterion_6_state_prep_cross_method_agreement():
    started = time.perf_counter()
    eps = 0.05
    ok = True
    for seed in range(20):
        dim = (8, 16, 32, 64)[seed % 4]
        kappa = 2.0 ** (2 + seed % 9)  # up to 2^10
        x = generate_vector(dim, kappa, seed=seed)
        direct = synthesize_direct(x).state
        dyadic = prep_dyadic(x, eps).result.state
        shift = prep_signshift(x, eps).result.state
        floor = 1.0 - 2.0 * eps
        ok = ok and fidelity(direct, dyadic) >= floor
        ok = ok and fidelity(direct, shift) >= floor
        ok = ok and fidelity(dyadic, shift) >= floor
    elapsed = time.perf_counter() - started
    _report(6, "direct/dyadic/signshift pairwise fidelity >= 1 - 2 eps on 20 vectors",
            ok, elapsed, 60.0)


def test_criterion_7_exact_phase_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        a = generate_matrix(4, 1.0 + (seed % 4), seed=seed + 11)
        b = generate_matrix(4, 2.0, seed=seed + 6000)
        ref = vectorize(exact_product(a, b)).amplitudes
        for fn in (matmul_swaptest, matmul_sve, matmul_hhl):
            res = fn(a, b, phase_bits=6, exact_phase=True)
            got = res.state.state.amplitudes
            overlap = np.vdot(ref, got)
            got = got * (abs(overlap) / overlap)
            worst = max(worst, float(np.max(np.abs(got - ref))))
        res = matmul_lcu(a, b, eps=0.05)
        got = res.state.state.amplitudes
        overlap = np.vdot(ref, got)
        worst = max(worst, float(np.max(np.abs(got * abs(overlap) / overlap - ref))))
    elapsed = time.perf_counter() - started
    _report(7, f"exact-phase pipelines reproduce the exact product state (worst {worst:.2e})",
            worst <= 1e-10, elapsed, 60.0)


def test_criterion_8_ledger_slopes():
    started = time.perf_counter()

    # (a) readout-swap cost against 1/eps on a fixed pair
    a = generate_matrix(3, 2.0, seed=81)
    b = generate_matrix(3, 2.0, seed=82)
    eps_grid = [2.0**-k for k in range(3, 8)]
    costs = [readout_swaptest(a, b, eps).ledger.total_oracle_units() for eps in eps_grid]
    slope_eps = np.polyfit(np.log([1 / e for e in eps_grid]), np.log(costs), 1)[0]

    # (b) readout-swap cost against n on sigma <= 1 fixtures
    n_grid = [2, 4, 8]
    costs_n = []
    for n in n_grid:
        vals = []
        for seed in (1, 2):
            an = generate_matrix(n, 2.0, seed=seed, sigma_max=1.0)
            bn = generate_matrix(n, 2.0, seed=seed + 90, sigma_max=1.0)
            vals.append(readout_swaptest(an, bn, 0.05).ledger.total_oracle_units())
        costs_n.append(np.mean(vals))
    slope_n = np.polyfit(np.log(n_grid), np.log(costs_n), 1)[0]

    # (c) preparation amplification rounds against kappa(f)^(3/2)
    base = from_vector("x", np.ones(16))
    kappas = [2.0, 4.0, 8.0, 16.0]
    rounds = []
    for kappa in kappas:
        f = np.geomspace(kappa, 1.0, 16)
        rep = prep_hamiltonian(f, base, eps=0.05)
        rounds.append(rep.result.ledger.amplification_rounds)
    slope_prep = np.polyfit(np.log([k**1.5 for k in kappas]), np.log(rounds), 1)[0]

    elapsed = time.perf_counter() - started
    ok = abs(slope_eps - 1.0) <= 0.15 and abs(slope_n - 2.0) <= 0.2 and abs(slope_prep - 1.0) <= 0.2
    _report(8, f"ledger slopes 1/eps={slope_eps:.3f}, n={slope_n:.3f}, kappa^1.5={slope_prep:.3f}",
            ok, elapsed, 300.0)


def test_criterion_9_success_probability_formulas():
    started = time.perf_counter()
    ok = True
    for seed in range(20):
        a = generate_matrix(4, 1.5 + (seed % 3), seed=seed + 70)
        b = generate_matrix(4, 2.0, seed=seed + 8000)
        swap = matmul_swaptest(a, b, phase_bits=8)
        rel = abs(swap.success_probability / swap.expected_success_probability - 1.0)
        ok = ok and rel <= 0.05
        sve = matmul_sve(a, b, phase_bits=8)
        rel = abs(sve.success_probability / sve.expected_success_probability - 1.0)
        ok = ok and rel <= 0.05
    elapsed = time.perf_counter() - started
    _report(9, "postselection probabilities match closed forms to 5% on 20 fixtures",
            ok, elapsed, 60.0)
