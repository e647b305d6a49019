"""Forward error of the deterministic solvers, gated by tlsekit's own kappa_n.

The reference solution is built here without tlsekit's solvers: an SVD
null-space basis of [C d] (scipy.linalg.null_space) replaces the QR of C.T,
and x is read off the trailing right singular vector of the data projected
on that basis. Both routes are backward stable, so every solver must land
within C_ACC * u * kappa_n of it (relative), kappa_n being the normwise
condition number that condition_report computes for the problem.
"""
import numpy as np
import pytest
import scipy.linalg

from tlsekit import (
    GeneratorSpec,
    TlseProblem,
    condition_report,
    generate,
    solve_closed_form,
    solve_qr_svd,
)
from tlsekit.bench import derive_seed

#: Unit roundoff of float64.
U = np.finfo(float).eps / 2

#: The constant c of the bound ||x - x_ref|| <= c * u * kappa_n * ||x_ref||.
C_ACC = 1e3


def reference_x(problem: TlseProblem) -> np.ndarray:
    n = problem.n
    if problem.p:
        basis = scipy.linalg.null_space(problem.aug_constraint())
    else:
        basis = np.eye(n + 1)
    aug_data = np.column_stack([problem.A, problem.b])
    _, _, vt = np.linalg.svd(aug_data @ basis, full_matrices=False)
    z = basis @ vt[-1]
    return z[:n] / -z[n]


def gaussian(seed, p, q, n, scaled):
    """Gaussian problem; scaled multiplies the columns by 10^U(-3, 3)."""
    rng = np.random.default_rng([seed, p, q, n])
    C = rng.standard_normal((p, n))
    d = rng.standard_normal(p)
    A = rng.standard_normal((q, n))
    b = rng.standard_normal(q)
    if scaled:
        cols = 10.0 ** rng.uniform(-3, 3, n)
        C, A = C * cols, A * cols
    return TlseProblem(C=C, d=d, A=A, b=b)


def table3_knot_09():
    # the a = 0.9 problem of table3 at seed 0 (knot index 2)
    return generate(
        GeneratorSpec(
            kind="piecewise_poly",
            knot=0.9,
            m_pts=200,
            n_pts=400,
            continuous=False,
            seed=derive_seed(0, 2),
        )
    )


CASES = (
    [(f"scaled-{s}", lambda s=s: gaussian(s, 5, 120, 30, True)) for s in range(10)]
    + [(f"p0-scaled-{s}", lambda s=s: gaussian(s, 0, 120, 30, True)) for s in range(5)]
    + [
        ("p0", lambda: gaussian(0, 0, 60, 12, False)),
        ("table3-knot-0.9", table3_knot_09),
        ("tall-scaled", lambda: gaussian(0, 10, 2000, 50, True)),
    ]
)


@pytest.fixture(scope="module", params=CASES, ids=[name for name, _ in CASES])
def case(request):
    problem = request.param[1]()
    solution = solve_qr_svd(problem)
    kappa_n = condition_report(problem, solution, method="upper").kappa_n
    x_ref = reference_x(problem)
    return problem, solution, C_ACC * U * kappa_n * np.linalg.norm(x_ref), x_ref


def test_qr_svd_forward_error(case):
    _, solution, tol, x_ref = case
    assert np.linalg.norm(solution.x - x_ref) <= tol


def test_closed_form_forward_error(case):
    problem, _, tol, x_ref = case
    assert np.linalg.norm(solve_closed_form(problem) - x_ref) <= tol
