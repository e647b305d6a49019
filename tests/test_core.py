"""Problem model, constraint geometry, and the two deterministic solvers."""
import math
import tracemalloc

import numpy as np
import pytest

import tlsekit.core
from qr_oracle import one_shot_r, stack_of
from tlsekit import TlseProblem, solve_closed_form, solve_qr_svd
from tlsekit.core import (
    build_basis,
    check_genericity,
    constraint_pinv,
    validate_stationarity,
)
from tlsekit.errors import IllPosedError, InputError, RankError

PHI = (1 + math.sqrt(5)) / 2


def hand_problem():
    # constraint x1 = 2, data A = I, b = (2, 3): consistent, so x = (2, 3)
    return TlseProblem(C=[[1.0, 0.0]], d=[2.0], A=np.eye(2), b=[2.0, 3.0])


def golden_problem():
    # unconstrained 2x1 fit whose stack [A b] = [[1,1],[0,1]]; x = phi
    return TlseProblem(
        C=np.zeros((0, 1)),
        d=np.zeros(0),
        A=np.array([[1.0], [0.0]]),
        b=np.array([1.0, 1.0]),
    )


def degenerate_problem():
    # stack [A b] = [[1,0],[0,1]] has sigma_min equal to sigma_min(A)
    return TlseProblem(
        C=np.zeros((0, 1)),
        d=np.zeros(0),
        A=np.array([[1.0], [0.0]]),
        b=np.array([0.0, 1.0]),
    )


def seeded_problem(seed: int, p: int = 3, n: int = 8, q: int = 15) -> TlseProblem:
    rng = np.random.default_rng(seed)
    return TlseProblem(
        C=rng.standard_normal((p, n)),
        d=rng.standard_normal(p),
        A=rng.standard_normal((q, n)),
        b=rng.standard_normal(q),
    )


class TestProblemValidation:
    def test_dimension_mismatches(self):
        with pytest.raises(InputError):
            TlseProblem(C=[[1.0, 0.0]], d=[1.0, 2.0], A=np.eye(2), b=[0.0, 0.0])
        with pytest.raises(InputError):
            TlseProblem(C=[[1.0, 0.0]], d=[1.0], A=np.eye(2), b=[0.0])
        with pytest.raises(InputError):
            TlseProblem(C=[[1.0, 0.0, 0.0]], d=[1.0], A=np.eye(2), b=[0.0, 0.0])

    def test_requires_p_below_n(self):
        with pytest.raises(InputError):
            TlseProblem(C=np.eye(2), d=[1.0, 1.0], A=np.eye(2), b=[0.0, 0.0])

    def test_column_mismatch_reported_before_p_check(self):
        # p >= n for both widths, but the mismatch is the error to report
        with pytest.raises(InputError, match="columns"):
            TlseProblem(C=np.eye(3), d=np.ones(3), A=np.eye(2), b=np.ones(2))
        with pytest.raises(InputError, match="need p < n, got p=3, n=2"):
            TlseProblem(C=np.ones((3, 2)), d=np.ones(3), A=np.eye(2), b=np.ones(2))

    def test_rejects_matrix_valued_vectors(self):
        with pytest.raises(InputError, match="b must be a vector"):
            TlseProblem(C=[[1.0, 0.0]], d=[1.0], A=np.eye(2), b=np.eye(2))
        column = TlseProblem(
            C=[[1.0, 0.0]], d=[[2.0]], A=np.eye(2), b=[[2.0], [3.0]]
        )
        np.testing.assert_array_equal(column.b, [2.0, 3.0])

    def test_requires_enough_data_rows(self):
        # q >= n - p + 1 fails here: n=3, p=1 needs q >= 3
        with pytest.raises(InputError):
            TlseProblem(
                C=[[1.0, 0.0, 0.0]],
                d=[1.0],
                A=np.zeros((2, 3)),
                b=[0.0, 0.0],
            )

    def test_empty_constraint_is_normalized(self):
        problem = golden_problem()
        assert problem.C.shape == (0, 1)
        assert problem.p == 0 and problem.n == 1 and problem.q == 2
        assert problem.m == 2

    def test_stack_properties(self):
        problem = hand_problem()
        np.testing.assert_array_equal(problem.L, [[1, 0], [1, 0], [0, 1]])
        np.testing.assert_array_equal(problem.h, [2, 2, 3])
        np.testing.assert_array_equal(
            problem.aug_constraint(), [[1.0, 0.0, 2.0]]
        )
        assert problem.aug_data().shape == (2, 3)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(InputError):
            TlseProblem(C=[[np.nan, 0.0]], d=[1.0], A=np.eye(2), b=[0.0, 0.0])


class TestConstraintBasis:
    def test_hand_values(self):
        basis = build_basis(hand_problem())
        np.testing.assert_allclose(basis.x_feas, [2.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(basis.feas_residual, [0.0, -3.0], atol=1e-14)
        assert basis.aug_scale == pytest.approx(1 / math.sqrt(5), rel=1e-14)
        assert basis.null_basis.shape == (2, 1)
        np.testing.assert_allclose(
            hand_problem().C @ basis.null_basis, 0, atol=1e-14
        )

    def test_unconstrained_basis_is_trivial(self):
        problem = golden_problem()
        basis = build_basis(problem)
        np.testing.assert_array_equal(basis.null_basis, np.eye(1))
        np.testing.assert_array_equal(basis.x_feas, [0.0])
        np.testing.assert_array_equal(basis.feas_residual, -problem.b)
        assert basis.aug_scale == 1.0
        np.testing.assert_array_equal(
            basis.aug_null_basis, [[1.0, 0.0], [0.0, -1.0]]
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_geometry_invariants(self, seed):
        problem = seeded_problem(seed)
        basis = build_basis(problem)
        # feasible point satisfies the constraint, null basis annihilates C
        np.testing.assert_allclose(
            problem.C @ basis.x_feas, problem.d, atol=1e-12
        )
        np.testing.assert_allclose(
            problem.C @ basis.null_basis, 0, atol=1e-12
        )
        # augmented basis is orthonormal and spans ker([C d])
        aug = basis.aug_null_basis
        np.testing.assert_allclose(
            aug.T @ aug, np.eye(aug.shape[1]), atol=1e-12
        )
        np.testing.assert_allclose(
            problem.aug_constraint() @ aug, 0, atol=1e-12
        )

    def test_rank_deficient_constraint_raises(self):
        problem = TlseProblem(
            C=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
            d=[1.0, 2.0],
            A=np.eye(3),
            b=[0.0, 0.0, 0.0],
        )
        with pytest.raises(RankError):
            build_basis(problem)

    def test_constraint_pinv_matches_numpy(self):
        problem = seeded_problem(3)
        basis = build_basis(problem)
        np.testing.assert_allclose(
            constraint_pinv(basis), np.linalg.pinv(problem.C), atol=1e-10
        )

    def test_constraint_pinv_empty(self):
        basis = build_basis(golden_problem())
        assert constraint_pinv(basis).shape == (1, 0)


class TestGenericity:
    def test_hand_diagnostics(self):
        problem = hand_problem()
        core = check_genericity(build_basis(problem), problem)
        assert core.sigma_min == pytest.approx(0.0, abs=1e-14)
        assert core.restricted_min_sv == pytest.approx(1.0, rel=1e-14)
        assert core.satisfied
        assert core.rel_gap == pytest.approx(1.0, rel=1e-12)
        assert core.warnings == ()

    def test_core_matrix_shape(self):
        # the q-row data enter only through the (n+1) x (n+1) factor R
        problem = seeded_problem(4)
        core = check_genericity(build_basis(problem), problem)
        n, k = problem.n, problem.n - problem.p + 1
        assert core.data_r.shape == (n + 1, n + 1)
        assert core.restricted.u.shape == (n + 1, k - 1)
        assert core.restricted.v.shape == (k - 1, k - 1)
        assert core.sigma.shape == (k,)
        assert core.right.shape == (k, k)
        np.testing.assert_allclose(
            core.data_r.T @ core.data_r,
            problem.aug_data().T @ problem.aug_data(),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_zero_gap_flags_ill_posed(self):
        problem = degenerate_problem()
        core = check_genericity(build_basis(problem), problem)
        assert not core.satisfied
        assert "ill-posed" in core.warnings

    def test_coincident_smallest_values_flag_non_unique(self):
        problem = TlseProblem(
            C=np.zeros((0, 2)),
            d=np.zeros(0),
            A=np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]]),
            b=np.array([0.0, 0.0, 2.0]),
        )
        core = check_genericity(build_basis(problem), problem)
        assert "non-unique" in core.warnings
        assert "ill-posed" in core.warnings

    def test_small_relative_gap_flags_near_degenerate(self):
        problem = TlseProblem(
            C=np.zeros((0, 2)),
            d=np.zeros(0),
            A=np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]]),
            b=np.array([0.0, 0.0, 1.999]),
        )
        core = check_genericity(build_basis(problem), problem)
        assert core.satisfied
        assert core.warnings == ("near-degenerate",)


class TestSolvers:
    def test_hand_solution(self):
        solution = solve_qr_svd(hand_problem())
        np.testing.assert_allclose(solution.x, [2.0, 3.0], atol=1e-12)
        assert solution.rho == pytest.approx(math.sqrt(14), rel=1e-12)
        np.testing.assert_allclose(solution.residual, 0, atol=1e-12)
        np.testing.assert_allclose(
            solution.null_gram_inv, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12
        )
        np.testing.assert_allclose(
            solution.constraint_gain, [[1.0], [0.0]], atol=1e-12
        )

    def test_golden_ratio_solution(self):
        solution = solve_qr_svd(golden_problem())
        assert solution.x[0] == pytest.approx(PHI, abs=1e-13)
        assert solution.sigma_min == pytest.approx(1 / PHI, abs=1e-13)
        assert solution.rho**2 == pytest.approx(2 + PHI, rel=1e-12)
        # for an unconstrained problem the optimum satisfies
        # sigma_min = ||A x - b|| / sqrt(1 + ||x||^2)
        assert solution.sigma_min == pytest.approx(
            np.linalg.norm(solution.residual) / solution.rho, rel=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_routes_agree(self, seed):
        problem = seeded_problem(seed)
        x_svd = solve_qr_svd(problem).x
        x_closed = solve_closed_form(problem)
        assert np.linalg.norm(x_svd - x_closed) <= 1e-10 * np.linalg.norm(x_svd)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_constraint_satisfied_exactly(self, seed):
        problem = seeded_problem(seed)
        solution = solve_qr_svd(problem)
        bound = np.linalg.norm(problem.C, 2) * np.linalg.norm(solution.x)
        assert np.linalg.norm(problem.C @ solution.x - problem.d) <= 1e-12 * (
            bound + np.linalg.norm(problem.d)
        )

    def test_lifted_direction_recovers_solution(self):
        problem = seeded_problem(5)
        solution = solve_qr_svd(problem)
        lifted = solution.basis.aug_null_basis @ solution.core.right[:, -1]
        scaled = lifted / (-lifted[-1])
        np.testing.assert_allclose(scaled[:-1], solution.x, atol=1e-10)
        assert scaled[-1] == pytest.approx(-1.0)

    def test_ill_posed_raises_in_both_routes(self):
        problem = degenerate_problem()
        with pytest.raises(IllPosedError):
            solve_qr_svd(problem)
        with pytest.raises(IllPosedError):
            solve_closed_form(problem)

    def test_rank_deficient_constraint_propagates(self):
        problem = TlseProblem(
            C=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
            d=[1.0, 2.0],
            A=np.eye(3),
            b=[0.0, 0.0, 0.0],
        )
        with pytest.raises(RankError):
            solve_qr_svd(problem)


class TestGramInverse:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_route_matches_direct(self, seed):
        # the spectral gram_inv against an explicit inverse of the shifted
        # Gram matrix, on well-conditioned seeds
        problem = seeded_problem(seed)
        solution = solve_qr_svd(problem)
        basis = solution.basis
        restricted = problem.A @ basis.null_basis
        shifted = (
            restricted.T @ restricted
            - solution.sigma_min**2 * np.eye(problem.n - problem.p)
        )
        direct = np.linalg.inv(shifted)
        np.testing.assert_allclose(solution.gram_inv, direct, rtol=1e-7, atol=1e-10)
        np.testing.assert_allclose(
            solution.null_gram_inv,
            basis.null_basis @ direct @ basis.null_basis.T,
            rtol=1e-7,
            atol=1e-10,
        )

    def test_scalar_null_space(self):
        # n - p = 1 reduces the shifted Gram matrix to a scalar
        problem = seeded_problem(6, p=2, n=3, q=7)
        solution = solve_qr_svd(problem)
        assert solution.gram_inv.shape == (1, 1)
        restricted = problem.A @ solution.basis.null_basis
        scalar = (restricted.T @ restricted).item() - solution.sigma_min**2
        assert solution.gram_inv[0, 0] == pytest.approx(1 / scalar, rel=1e-7)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_constraint_gain_matches_normal_equations(self, seed):
        problem = seeded_problem(seed)
        solution = solve_qr_svd(problem)
        pinv = np.linalg.pinv(problem.C)
        gram = problem.A.T @ problem.A
        expected = (np.eye(problem.n) - solution.null_gram_inv @ gram) @ pinv
        np.testing.assert_allclose(
            solution.constraint_gain, expected, rtol=1e-8, atol=1e-10
        )


class TestDataFactor:
    """The solvers see [A b] only through its streamed R factor."""

    @pytest.mark.parametrize("solver", [solve_qr_svd, solve_closed_form])
    def test_data_left_bitwise_unchanged(self, solver):
        problem = seeded_problem(8, q=40)
        a_before, b_before = problem.A.copy(), problem.b.copy()
        solver(problem)
        np.testing.assert_array_equal(problem.A, a_before)
        np.testing.assert_array_equal(problem.b, b_before)

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_fewest_rows(self, p):
        # q = n - p + 1 rows: for p > 0 fewer than n + 1, so R is the
        # trapezoidal q x (n+1) factor
        n = 8
        problem = seeded_problem(9, p=p, n=n, q=n - p + 1)
        solution = solve_qr_svd(problem)
        assert solution.core.data_r.shape == (n - p + 1, n + 1)
        report = validate_stationarity(problem, solution)
        scale = np.linalg.norm(problem.A, 2) ** 2
        assert report.grad_norm <= 1e-10 * scale
        assert report.coupling_norm <= 1e-10 * scale
        x_closed = solve_closed_form(problem)
        assert np.linalg.norm(solution.x - x_closed) <= 1e-10 * np.linalg.norm(
            solution.x
        )

    def test_unconstrained_matches_plain_tls(self):
        problem = seeded_problem(10, p=0, n=6, q=20)
        solution = solve_qr_svd(problem)
        _, _, vt = np.linalg.svd(problem.aug_data())
        z = vt[-1]
        np.testing.assert_allclose(solution.x, z[:-1] / -z[-1], rtol=1e-10)
        assert solution.constraint_gain.shape == (problem.n, 0)
        np.testing.assert_allclose(
            solve_closed_form(problem), solution.x, rtol=1e-10
        )


class TestStreamedData:
    """A solve reads the q data rows once, through the blocked QR."""

    def test_peak_memory_stays_below_one_data_copy(self):
        # the q x (n+1) copy of [A b] alone is 3000 * 101 * 8 B = 2.42 MB
        problem = seeded_problem(1, p=20, n=100, q=3000)
        solve_qr_svd(problem)
        tracemalloc.start()
        try:
            solve_qr_svd(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6

    def test_residual_is_computed_on_first_access(self):
        problem = seeded_problem(12, q=40)
        solution = solve_qr_svd(problem)
        assert "residual" not in vars(solution)
        residual = solution.residual
        np.testing.assert_array_equal(residual, problem.A @ solution.x - problem.b)
        assert solution.residual is residual

    @pytest.mark.parametrize(
        "shape", [(20, 2000, 100), (20, 3000, 100), (0, 2500, 60)]
    )
    def test_matches_a_one_shot_r(self, shape, monkeypatch):
        # b = A x0 + noise keeps kappa_n near 1e2, so two backward-stable R
        # factors must give x to about u * kappa_n (a pure Gaussian b can
        # put kappa_n near 1e4, where the routes themselves differ by 1e-11)
        p, q, n = shape
        rng = np.random.default_rng(13)
        a = rng.standard_normal((q, n))
        problem = TlseProblem(
            C=rng.standard_normal((p, n)),
            d=rng.standard_normal(p),
            A=a,
            b=a @ rng.standard_normal(n) + rng.standard_normal(q),
        )
        x_qr, x_closed = solve_qr_svd(problem).x, solve_closed_form(problem)
        monkeypatch.setattr(
            tlsekit.core, "r_factor", lambda *blocks: one_shot_r(stack_of(*blocks))
        )
        ref_qr, ref_closed = solve_qr_svd(problem).x, solve_closed_form(problem)
        assert np.linalg.norm(x_qr - ref_qr) <= 1e-12 * np.linalg.norm(ref_qr)
        assert np.linalg.norm(x_closed - ref_closed) <= 1e-12 * np.linalg.norm(
            ref_closed
        )


class TestStationarity:
    def test_hand_report_is_exact(self):
        problem = hand_problem()
        report = validate_stationarity(problem, solve_qr_svd(problem))
        assert report.grad_norm <= 1e-12
        assert report.coupling_norm <= 1e-12
        assert report.constraint_norm <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_residuals_are_tiny(self, seed):
        problem = seeded_problem(seed)
        report = validate_stationarity(problem, solve_qr_svd(problem))
        scale = np.linalg.norm(problem.A, 2) ** 2
        assert report.grad_norm <= 1e-10 * scale
        assert report.coupling_norm <= 1e-10 * scale
        assert report.constraint_norm <= 1e-10

    def test_unconstrained_multiplier_is_empty(self):
        problem = golden_problem()
        report = validate_stationarity(problem, solve_qr_svd(problem))
        assert report.multiplier.size == 0
        assert report.grad_norm <= 1e-12
