"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized for a laptop.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from miespec.ladder import (apply_lowering, apply_raising, bargmann_index,
                            casimir_check, commutator_check, default_y_grid,
                            lowering_coefficient)
from miespec.oracle import convergence_study, default_grid, solve_bound_states
from miespec.potentials import coulomb, kratzer_fues
from miespec.specfun import (default_quadrature_order, gauss_laguerre,
                             kummer_poly, laguerre, ln_gamma)
from miespec.spectrum import QuantumNumbers, bound_state, energy, indicial_root
from miespec.wavefunction import (RadialGrid, node_count, norm_check,
                                  norm_constant, ode_residual_relative)

PRESETS = {"coulomb": coulomb(-1.0), "kratzer-fues": kratzer_fues(5.0, 1.0)}
CHANNELS = [(ell, dim) for dim in (2, 3, 4, 5) for ell in (0, 1, 2)]


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_agreement_and_order():
    start = time.perf_counter()
    worst_ratio = 0.0
    orders = []
    for name, params in PRESETS.items():
        for ell, dim in CHANNELS:
            exact = [energy(params, QuantumNumbers(n, ell, dim))
                     for n in range(4)]
            grid = default_grid(params, ell, dim, n_max=3)
            fd = solve_bound_states(params, ell, dim)
            assert len(fd) == 4, (name, ell, dim, fd)
            for got, want in zip(fd, exact):
                tol = max(5e-5, 5e-5 * abs(want))
                worst_ratio = max(worst_ratio, abs(got - want) / tol)

            h = grid.spacing
            study = convergence_study(params, ell, dim, level=0,
                                      exact_energy=exact[0],
                                      r_domain=grid.r_max + 0.5 * h,
                                      h_sequence=[4 * h, 2 * h, h])
            if study["status"] == "ok":
                orders.append(study["order"])
            else:
                assert "floor" in study["reason"], (name, ell, dim, study)
    elapsed = time.perf_counter() - start
    orders_ok = all(abs(p - 2.0) <= 0.2 for p in orders)
    report(1, worst_ratio <= 1.0 and orders_ok and elapsed < 120.0,
           f"FD vs closed form on 24 channels: worst error at "
           f"{worst_ratio:.2f} of tolerance, orders within 2.0+-0.2 "
           f"({len(orders)} conclusive), {elapsed:.1f}s")


def test_criterion_2_hydrogen_reduction():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        B = -float(rng.uniform(0.1, 3.0))
        mass = float(rng.uniform(0.3, 3.0))
        hbar = float(rng.uniform(0.5, 2.0))
        n = int(rng.integers(0, 6))
        ell = int(rng.integers(0, 5))
        got = energy(coulomb(B, mass, hbar), QuantumNumbers(n, ell, 3))
        want = -mass * B * B / (2.0 * hbar**2 * (n + ell + 1.0) ** 2)
        worst = max(worst, abs(got - want) / abs(want))
    report(2, worst <= 1e-12,
           f"E = -mB^2/(2 hbar^2 (n+l+1)^2) at 20 random points, "
           f"worst rel dev {worst:.2e}")


def test_criterion_3_interdimensional_degeneracy():
    worst_closed = 0.0
    worst_fd = 0.0
    for params in PRESETS.values():
        for dim in (4, 5):
            for ell in (0, 1, 2):
                for n in range(4):
                    a = energy(params, QuantumNumbers(n, ell, dim))
                    b = energy(params, QuantumNumbers(n, ell + 1, dim - 2))
                    worst_closed = max(worst_closed, abs(a - b) / abs(a))
        for ell, dim in ((0, 4), (1, 5)):
            fd_hi = solve_bound_states(params, ell, dim)
            fd_lo = solve_bound_states(params, ell + 1, dim - 2)
            for x, y in zip(fd_hi[:4], fd_lo[:4]):
                tol = 2.0 * max(5e-5, 5e-5 * abs(x))
                worst_fd = max(worst_fd, abs(x - y) / tol)
    report(3, worst_closed <= 1e-12 and worst_fd <= 1.0,
           f"closed-form shift invariance {worst_closed:.2e} (<=1e-12), "
           f"FD pairs at {worst_fd:.2f} of discretization tolerance")


def test_criterion_4_normalization():
    worst = 0.0
    for params in PRESETS.values():
        for dim in (2, 3, 5):
            for ell in (0, 1, 2):
                for n in range(6):
                    state = bound_state(params, QuantumNumbers(n, ell, dim))
                    worst = max(worst, abs(norm_check(state) - 1.0))
    # diagnostic: the paper-literal constant must demonstrably fail for n >= 1
    literal_breaks = True
    for params in PRESETS.values():
        for n in (1, 3, 5):
            state = bound_state(params, QuantumNumbers(n, 0, 3))
            tampered = dataclasses.replace(
                state, zeta=norm_constant(state, paper_literal=True))
            literal_breaks &= abs(norm_check(tampered) - 1.0) > 1e-2
    report(4, worst <= 1e-10 and literal_breaks,
           f"norm deviation {worst:.2e} (<=1e-10) across n<=5, N in (2,3,5); "
           f"paper-literal factorial variant fails for n>=1: {literal_breaks}")


def test_criterion_5_ode_residual():
    worst = 0.0
    for params in PRESETS.values():
        for ell, dim in CHANNELS:
            for n in range(4):
                state = bound_state(params, QuantumNumbers(n, ell, dim))
                r_top = (2.0 * n + 2.0 * state.k + 14.0) / (2.0 * state.eps)
                grid = RadialGrid(r_top / 200.0, r_top, 3000)
                worst = max(worst, ode_residual_relative(state, grid))
    # truncation falls at 4th order under one refinement (measured away
    # from the origin so the edge node does not move through r^{k-3} growth)
    state = bound_state(PRESETS["kratzer-fues"], QuantumNumbers(1, 0, 3))
    coarse = ode_residual_relative(state, RadialGrid(0.5, 10.0, 500))
    fine = ode_residual_relative(state, RadialGrid(0.5, 10.0, 1000))
    ratio = coarse / fine
    report(5, worst <= 1e-6 and 10.0 <= ratio <= 22.0,
           f"radial ODE residual {worst:.2e} (<=1e-6) over all channels; "
           f"refinement ratio {ratio:.1f} (expect ~16)")


def test_criterion_6_node_counts():
    ok = True
    for params in PRESETS.values():
        for ell, dim in CHANNELS:
            for n in range(6):
                state = bound_state(params, QuantumNumbers(n, ell, dim))
                ok &= node_count(state) == n
    report(6, ok, "sign changes equal the radial quantum number for n<=5, "
                  "all channels")


def test_criterion_7_su11_suite():
    worst = 0.0
    ground_ok = True
    pairs = []
    for dim in (2, 3, 4, 5, 6):
        for ell in (0, 1, 2):
            pairs.append((indicial_root(coulomb(-1.0), ell, dim), dim))
            for d0 in (1.0, 5.0):
                pairs.append((indicial_root(kratzer_fues(d0, 1.0), ell, dim), dim))
    for k, dim in pairs:
        if 2.0 * k + 3.0 - dim <= 0.0:
            continue
        comm = commutator_check(k, dim, 10)
        cas = casimir_check(k, dim, 10)
        worst = max(worst, comm["max_coefficient_residual"],
                    comm["max_matrix_residual"], cas["max_residual"])
        ground_ok &= lowering_coefficient(0, k, dim) == 0.0
        j = bargmann_index(k, dim)
        assert cas["eigenvalue"] == pytest.approx(j * (j - 1.0), rel=1e-14)
    report(7, worst <= 1e-12 and ground_ok,
           f"commutator and Casimir residuals {worst:.2e} (<=1e-12) over "
           f"{len(pairs)} (k, N) pairs, n<=10; lambda_minus(0)=0: {ground_ok}")


def test_criterion_8_differential_ladder():
    worst = 0.0
    recorded = []
    for name, params in PRESETS.items():
        for dim in (3, 5):
            for n in range(6):
                state = bound_state(params, QuantumNumbers(n, 0, dim))
                grid = default_y_grid(state)
                if n >= 1:
                    _, fit = apply_lowering(state, grid)
                    worst = max(worst, fit.residual)
                    recorded.append((name, dim, n, "lower",
                                     fit.fitted - fit.closed_form))
                _, fit = apply_raising(state, grid)
                worst = max(worst, fit.residual)
                recorded.append((name, dim, n, "raise",
                                 fit.fitted - fit.closed_form))
    # the fitted-vs-printed discrepancy is recorded, not asserted equal
    largest = max(abs(d) for *_, d in recorded)
    report(8, worst <= 1e-9,
           f"operator images proportional to neighbors, residual {worst:.2e} "
           f"(<=1e-9); largest recorded fitted-vs-printed discrepancy "
           f"{largest:.3g}")


def test_criterion_9_special_function_kernel():
    worst_orth = 0.0
    for alpha in (0.0, 1.0, 2.37):
        rule = gauss_laguerre(default_quadrature_order(8), alpha)
        norms = [math.exp(ln_gamma(n + alpha + 1.0) - ln_gamma(n + 1.0))
                 for n in range(9)]
        for n in range(9):
            for m in range(n, 9):
                integral = rule.integrate(
                    lambda x: laguerre(n, alpha, x) * laguerre(m, alpha, x))
                want = norms[n] if n == m else 0.0
                scale = math.sqrt(norms[n] * norms[m])
                worst_orth = max(worst_orth, abs(integral - want) / scale)

    worst_bridge = 0.0
    for n in range(9):
        for alpha in (0.0, 0.7, 2.37):
            for x in (0.2, 1.0, 6.0):
                bridge = math.exp(ln_gamma(n + 1.0) + ln_gamma(alpha + 1.0)
                                  - ln_gamma(n + alpha + 1.0)) * laguerre(n, alpha, x)
                got = kummer_poly(n, alpha + 1.0, x)
                worst_bridge = max(worst_bridge,
                                   abs(got - bridge) / max(1e-30, abs(bridge)))

    worst_moment = 0.0
    for m, alpha in ((6, 0.0), (6, 1.3), (12, 0.5)):
        rule = gauss_laguerre(m, alpha)
        for j in range(2 * m):
            got = rule.integrate(lambda x: x**j)
            want = math.exp(ln_gamma(alpha + 1.0 + j))
            worst_moment = max(worst_moment, abs(got - want) / want)

    ok = worst_orth <= 1e-10 and worst_bridge <= 1e-10 and worst_moment <= 1e-10
    report(9, ok,
           f"orthogonality {worst_orth:.2e}, Kummer-Laguerre bridge "
           f"{worst_bridge:.2e}, quadrature moments {worst_moment:.2e} "
           f"(all <=1e-10)")
