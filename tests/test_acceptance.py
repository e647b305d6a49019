"""Acceptance gate: ten numbered end-to-end checks, one per requirement.

Each test prints one pass/fail line under pytest -v. The seeded batteries
come from conftest; scenario-specific regimes are generated inline with
frozen seeds.
"""
import math
import time

import numpy as np
import pytest

from tlsekit import (
    GeneratorSpec,
    TlseProblem,
    Weights,
    apply_k,
    build_k_operator,
    condition_report,
    embed,
    gen_equilibratory,
    perturb,
    run_experiment,
    solve_closed_form,
    solve_qr_svd,
    solve_wtls_direct,
    table2,
    table3,
    wtls_limit_diagnostics,
)
from tlsekit.linalg import spectral_norm

import kron_oracle

PHI = (1 + math.sqrt(5)) / 2


def test_c01_three_solver_routes_agree(battery100):
    start = time.monotonic()
    for problem in battery100:
        x_svd = solve_qr_svd(problem).x
        x_closed = solve_closed_form(problem)
        x_weighted, _ = solve_wtls_direct(embed(problem, 1e-8))
        scale = np.linalg.norm(x_svd)
        assert np.linalg.norm(x_svd - x_closed) <= 1e-8 * scale
        assert np.linalg.norm(x_svd - x_weighted) <= 1e-8 * scale
        assert np.linalg.norm(x_closed - x_weighted) <= 1e-8 * scale
    assert time.monotonic() - start < 60.0


def test_c02_unconstrained_collapse_golden_ratio():
    problem = TlseProblem(
        C=np.zeros((0, 1)),
        d=np.zeros(0),
        A=np.array([[1.0], [0.0]]),
        b=np.array([1.0, 1.0]),
    )
    solution = solve_qr_svd(problem)
    assert abs(solution.x[0] - PHI) <= 1e-12
    stack = np.hstack([problem.A, problem.b[:, None]])
    gram = stack.T @ stack
    direction = np.append(solution.x, -1.0)
    residual = gram @ direction - solution.sigma_min**2 * direction
    assert np.linalg.norm(residual) < 1e-10


def test_c03_constraint_exactness(solved100):
    for problem, solution in solved100:
        gap = np.linalg.norm(problem.C @ solution.x - problem.d)
        budget = spectral_norm(problem.C) * np.linalg.norm(
            solution.x
        ) + np.linalg.norm(problem.d)
        assert gap <= 1e-10 * max(budget, 1.0)


def test_c04_normwise_formulas_agree(solved100):
    weight_grid = (Weights(1, 1), Weights(10, 1), Weights(1, 10))
    sign_grid = ((1, 1), (-1, -1), (1, -1), (-1, 1))
    for problem, solution in solved100:
        op = build_k_operator(problem, solution)
        for weights in weight_grid:
            report = condition_report(problem, solution=solution, weights=weights)
            exact = report.kappa_n
            oracle = kron_oracle.kappa_normwise(op, weights, problem.L, problem.h)
            assert abs(oracle - exact) <= 1e-10 * exact
            for signs in sign_grid:
                compact = kron_oracle.kappa_normwise_block(
                    op, weights, problem.L, problem.h, signs=signs
                )
                assert abs(compact - exact) <= 1e-10 * exact


def test_c05_bounds_dominate(battery100):
    for index, problem in enumerate(battery100):
        sample = perturb(problem, "normwise", 1e-8, seed=1000 + index)
        row = run_experiment(problem, sample)
        assert row.kappa_n <= row.kappa_n_upper * (1 + 1e-12)
        assert row.kappa_m <= row.kappa_m_upper * (1 + 1e-12)
        assert row.kappa_c <= row.kappa_c_upper * (1 + 1e-12)
        assert row.fwd_err_2 is not None
        assert row.fwd_err_2 <= 1.1 * row.bound_n
        assert row.fwd_err_inf <= 1.1 * row.bound_m
        assert row.fwd_err_cw <= 1.1 * row.bound_c


def test_c06_first_order_prediction_quality():
    etas = {1e-6: [], 1e-8: []}
    for seed in range(25):
        for offset, kappa_c in enumerate((1e2, 1e4)):
            problem = gen_equilibratory(
                GeneratorSpec(
                    kind="equilibratory",
                    kappa_c=kappa_c,
                    seed=seed * 7 + offset,
                )
            )
            for scale in etas:
                sample = perturb(
                    problem, "normwise", scale, seed=seed * 31 + offset
                )
                row = run_experiment(problem, sample)
                assert row.eta_rel is not None
                etas[scale].append(row.eta_rel)
    median_coarse = float(np.median(etas[1e-6]))
    median_fine = float(np.median(etas[1e-8]))
    assert median_fine <= 1e-3
    assert median_fine < median_coarse


def test_c07_randomized_solver_accuracy_and_gap_sensitivity():
    default_rows = table2(ms=(50,), deltas=(1e-2, 1e-3, 1e-4), seed=3, trials=20)
    by_label = {row.label: row for row in default_rows}
    assert by_label["m=50 delta=1e-03"].nwtls_dev <= 1e-10
    assert by_label["m=50 delta=1e-04"].nwtls_dev <= 1e-10

    pinned_rows = table2(
        ms=(50,), deltas=(1e-2, 1e-3, 1e-4), seed=3, trials=20, sketch=5
    )
    pinned = {row.label: row for row in pinned_rows}
    coarse_gap = pinned["m=50 delta=1e-02"].nwtls_dev
    fine_gap = pinned["m=50 delta=1e-03"].nwtls_dev
    assert coarse_gap >= 10.0 * fine_gap


def test_c08_weighted_limit_convergence(constrained20):
    grid = [1e-2, 1e-3, 1e-4]
    for problem in constrained20:
        rows = wtls_limit_diagnostics(problem, grid)
        columns = np.array(
            [[r.x_err, r.sigma_err, r.resolvent_err, r.gain_err] for r in rows]
        )
        assert np.all(columns[1:] < columns[:-1])
        slope = np.polyfit(np.log10(grid), np.log10(columns[:, 0]), 1)[0]
        assert 1.5 <= slope <= 2.5


def test_c09_badly_scaled_discrimination():
    rows = {row.label: row for row in table3(seed=3)}

    sharp = rows["a=0.05"]
    normwise_ratio = sharp.bound_n / sharp.fwd_err_2
    mixed_ratio = sharp.bound_m / sharp.fwd_err_inf
    componentwise_ratio = sharp.bound_c / sharp.fwd_err_cw
    assert normwise_ratio >= 100.0 * mixed_ratio
    assert normwise_ratio >= 100.0 * componentwise_ratio

    shallow = rows["a=0.9"]
    assert "near-degenerate" in shallow.flags
    assert np.isfinite(shallow.kappa_n) and shallow.kappa_n > 0
    assert shallow.fwd_err_2 is not None


def test_c10_materialized_forms_act_identically(battery100):
    rng = np.random.default_rng(2024)
    for problem in battery100[:20]:
        op = build_k_operator(problem, solve_qr_svd(problem))
        combined = kron_oracle.materialize_k(op, "combined")
        split = kron_oracle.materialize_k(op, "split")
        width = combined.shape[1]
        for _ in range(50):
            direction = rng.standard_normal(width)
            lhs = combined @ direction
            rhs = split @ direction
            d_l = direction[: op.m * op.n].reshape((op.m, op.n), order="F")
            free = apply_k(op, d_l, direction[op.m * op.n :])
            for other in (rhs, free):
                assert np.linalg.norm(lhs - other) <= 1e-12 * max(
                    np.linalg.norm(lhs), 1e-300
                )
