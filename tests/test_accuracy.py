"""Forward error of the deterministic solvers, gated by tlsekit's own kappa_n.

The reference solution is built here without tlsekit's solvers: an SVD
null-space basis of [C d] (scipy.linalg.null_space) replaces the QR of C.T,
and x is read off the trailing right singular vector of the data projected
on that basis. Both routes are backward stable, so every solver must land
within C_ACC * u * kappa_n of it (relative), kappa_n being the normwise
condition number that condition_report computes for the problem.

A second set holds both solvers and the genericity gap to 60-digit
references (mp_oracle.core_reference) on small column-scaled and
near-degenerate problems. A third measures the rounding error of the solve
against the same references in the mixed and componentwise condition
numbers, which bound the effect of componentwise data perturbations, not
of rounding in a normwise backward-stable solve.
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
from mp_oracle import core_reference
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


#: c1 of ||x - x_mp|| <= c1 * u * kappa_n * ||x_mp|| against the 60-digit x.
C_X_MP = 4.0

#: c2 of |gap - gap_mp| <= c2 * u * ||R||_2 * s_min against the 60-digit gap.
C_GAP_MP = 1.0


def column_scaled(seed, p):
    """(p, 12, 7) Gaussian problem with columns scaled by 10^U(-4, 4)."""
    rng = np.random.default_rng([seed, p])
    cols = 10.0 ** rng.uniform(-4, 4, 7)
    return TlseProblem(
        C=rng.standard_normal((p, 7)) * cols,
        d=rng.standard_normal(p),
        A=rng.standard_normal((12, 7)) * cols,
        b=rng.standard_normal(12),
    )


def near_degenerate(seed, rel_gap):
    """p = 0 problem A = U diag(s) V.T (10 x 6, s_min = 1), b = U c +
    3 u_6 with c_min set so that the relative genericity gap is about
    rel_gap: near s_min the secular equation of the core spectrum reads
    c_min^2 / (1 - sigma^2) = -f, f = 1 + sum_(j<6) c_j^2 / (s_j^2 - 1) - 9.
    """
    rng = np.random.default_rng([seed, 10, 6])
    left = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    right = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    s = np.sort(rng.uniform(2.0, 10.0, 6))[::-1]
    s[-1] = 1.0
    c = rng.uniform(0.2, 0.5, 6)
    f = 1.0 + np.sum(c[:-1] ** 2 / (s[:-1] ** 2 - 1.0)) - 9.0
    c[-1] = np.sqrt(rel_gap * -f)
    return TlseProblem(
        C=np.zeros((0, 6)),
        d=np.zeros(0),
        A=(left[:, :6] * s) @ right.T,
        b=left[:, :6] @ c + 3.0 * left[:, 6],
    )


MP_CASES = [
    (f"scaled-p{p}-{s}", lambda s=s, p=p: column_scaled(s, p))
    for s in range(3)
    for p in (0, 2, 3)
] + [
    (f"gap-{g:.0e}-{s}", lambda s=s, g=g: near_degenerate(s, g))
    for s in range(2)
    for g in (1e-4, 1e-6, 1e-8)
]


@pytest.mark.parametrize("make", [m for _, m in MP_CASES], ids=[n for n, _ in MP_CASES])
def test_against_60_digit_reference(make):
    problem = make()
    solution = solve_qr_svd(problem)
    core = solution.core
    kappa_n = condition_report(problem, solution).kappa_n
    _, gap, x = core_reference(problem)
    tol = C_X_MP * U * kappa_n * np.linalg.norm(x)
    assert np.linalg.norm(solution.x - x) <= tol
    assert np.linalg.norm(solve_closed_form(problem) - x) <= tol
    r_norm = np.linalg.norm(core.data_r, 2)
    assert abs(core.gap - gap) <= C_GAP_MP * U * r_norm * core.restricted_min_sv


#: Ceilings of ||x - x_mp||_inf / (u * kappa_m * ||x_mp||_inf) and of
#: max_i |x_i - x_mp_i| / |x_mp_i| / (u * kappa_c) over COLUMN_SCALED. The
#: solve is backward stable in the normwise sense only, so its rounding
#: error is bounded by u * kappa_n (the kappa_n ratio stays <= 0.12 here),
#: and measured in kappa_m and kappa_c it reaches 9.7e4 and 5.4e5 (8 of the
#: 18 kappa_m ratios exceed 1e3); the ceilings sit about 2x above, so a
#: regression shows.
C_MIXED_MP = 2e5
C_COMPONENTWISE_MP = 1.1e6

COLUMN_SCALED = [(seed, p) for seed in range(6) for p in (0, 2, 3)]


@pytest.mark.parametrize("seed, p", COLUMN_SCALED)
def test_rounding_in_mixed_and_componentwise_terms(seed, p):
    problem = column_scaled(seed, p)
    solution = solve_qr_svd(problem)
    report = condition_report(problem, solution)
    _, _, x = core_reference(problem)
    dx = solution.x - x
    mixed = np.abs(dx).max() / (U * report.kappa_m * np.abs(x).max())
    componentwise = np.max(np.abs(dx / x)) / (U * report.kappa_c)
    assert mixed <= C_MIXED_MP
    assert componentwise <= C_COMPONENTWISE_MP
    assert np.linalg.norm(dx) <= C_X_MP * U * report.kappa_n * np.linalg.norm(x)
