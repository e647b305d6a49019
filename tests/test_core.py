"""Problem model, constraint geometry, and the two deterministic solvers."""
import math
import tracemalloc

import numpy as np
import pytest

import tlsekit.bench
import tlsekit.core
from conftest import KRON_SHAPES, extreme_problem
from qr_oracle import one_shot_r, stack_of
from stationarity_oracle import stationarity_from_data
from tlsekit import (
    TlseProblem,
    apply_sample,
    build_k_operator,
    condition_report,
    perturb,
    run_experiment,
    solve_closed_form,
    solve_qr_svd,
    wtls_limit_diagnostics,
)
from tlsekit.core import (
    ConstraintBasis,
    _filtered,
    _gram_inv,
    _x_from_direction,
    build_basis,
    check_genericity,
    constraint_pinv,
    data_map_norm,
    null_gram_inv_norm,
    validate_stationarity,
)
from tlsekit.errors import (
    IllPosedError,
    InputError,
    NonGenericError,
    NumericalError,
    RankError,
)
from tlsekit.linalg import block_rows

PHI = (1 + math.sqrt(5)) / 2

#: Unit roundoff of float64.
U = np.finfo(float).eps / 2


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


def tied_problem():
    # [A b] = [[2,0,0],[0,2,0],[0,0,2]]: restricted s = (2, 2), z = 0, and
    # the core singular values are (2, 2, 2)
    return TlseProblem(
        C=np.zeros((0, 2)),
        d=np.zeros(0),
        A=np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]]),
        b=np.array([0.0, 0.0, 2.0]),
    )


def consistent_problem():
    # b = A x0 and d = C x0: gamma = 0 and sigma_min = 0, x = x0
    rng = np.random.default_rng(21)
    c, a, x0 = rng.standard_normal((2, 5)), rng.standard_normal((9, 5)), rng.standard_normal(5)
    return TlseProblem(C=c, d=c @ x0, A=a, b=a @ x0)


def feasible_point_problem():
    # b = A x_feas for the minimum-norm feasible point x_feas, so
    # w = aug_scale * R [x_feas; -1] = 0: z = 0 and gamma = 0
    rng = np.random.default_rng(22)
    c, d, a = rng.standard_normal((2, 5)), rng.standard_normal(2), rng.standard_normal((9, 5))
    return TlseProblem(C=c, d=d, A=a, b=a @ (np.linalg.pinv(c) @ d))


def interior_zero_problem():
    # p = 0, A = U diag(4, 3, 2, 1) V.T and b without a component along
    # U[:, 1], so z_1 = 0 while the other z_j and gamma are not
    rng = np.random.default_rng(23)
    left = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    right = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    b = left[:, :4] @ np.array([0.5, 0.0, 0.4, 0.3]) + 0.6 * left[:, 4]
    return TlseProblem(
        C=np.zeros((0, 4)), d=np.zeros(0), A=(left[:, :4] * [4.0, 3.0, 2.0, 1.0]) @ right.T, b=b
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

    def test_rejects_non_finite_entries(self):
        with pytest.raises(InputError):
            TlseProblem(C=[[np.nan, 0.0]], d=[1.0], A=np.eye(2), b=[0.0, 0.0])

    def test_memory_mapped_problem_is_checked_in_place(self, tmp_path):
        # (20, 100000, 100): A is 80 MB on disk and a boolean mask of it
        # would be 10 MB; the finiteness check holds one row block at a time
        p, q, n = 20, 100_000, 100
        path = tmp_path / "A.bin"
        big = np.memmap(path, dtype=float, mode="w+", shape=(q, n))
        path.unlink()  # the mapping keeps the (sparse) file until released
        big[::1000] = 1.0
        rng = np.random.default_rng(0)
        C, d, b = rng.standard_normal((p, n)), np.ones(p), np.ones(q)
        tracemalloc.start()
        try:
            problem = TlseProblem(C=C, d=d, A=big, b=b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert problem.q == q and np.shares_memory(problem.A, big)
        big[-1, -1] = np.nan
        with pytest.raises(InputError, match="^A contains non-finite entries$"):
            TlseProblem(C=C, d=d, A=big, b=b)


class TestConstraintBasis:
    def test_hand_values(self):
        problem = hand_problem()
        basis = build_basis(problem)
        np.testing.assert_allclose(basis.x_feas, [2.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(
            problem.A @ basis.x_feas - problem.b, [0.0, -3.0], atol=1e-14
        )
        assert basis.aug_scale == pytest.approx(1 / math.sqrt(5), rel=1e-14)
        assert basis.null_basis.shape == (2, 1)
        np.testing.assert_allclose(
            hand_problem().C @ basis.null_basis, 0, atol=1e-14
        )

    def test_unconstrained_basis_is_trivial(self):
        # p = 0 runs the general QR path; its complete QR of the n x 0
        # matrix C.T is exactly the identity
        rng = np.random.default_rng(6)
        wide = TlseProblem(
            C=np.zeros((0, 6)),
            d=np.zeros(0),
            A=rng.standard_normal((10, 6)),
            b=rng.standard_normal(10),
        )
        for problem in (golden_problem(), wide):
            n = problem.n
            basis = build_basis(problem)
            assert basis.q1.shape == (n, 0)
            assert basis.r1.shape == (0, 0)
            assert constraint_pinv(basis).shape == (n, 0)
            np.testing.assert_array_equal(basis.null_basis, np.eye(n))
            np.testing.assert_array_equal(basis.x_feas, np.zeros(n))
            assert basis.aug_scale == 1.0
            aug = np.eye(n + 1)
            aug[n, n] = -1.0
            np.testing.assert_array_equal(basis.aug_null_basis, aug)

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

    def test_augmented_basis_is_formed_on_use_only(self, monkeypatch):
        # check_genericity reads only the last column, aug_scale [x_feas; -1],
        # solve_closed_form never forms the (n+1) x (n-p+1) basis, and
        # solve_qr_svd forms it once, for the lift
        problem = seeded_problem(5)
        basis = build_basis(problem)
        assert "aug_null_basis" not in vars(basis)
        assert basis.aug_null_basis is not basis.aug_null_basis
        np.testing.assert_array_equal(
            basis.aug_null_basis[:, -1],
            np.append(basis.aug_scale * basis.x_feas, -basis.aug_scale),
        )
        formed = []
        aug = ConstraintBasis.aug_null_basis.fget
        monkeypatch.setattr(
            ConstraintBasis, "aug_null_basis",
            property(lambda b: formed.append(b) or aug(b)),
        )
        check_genericity(basis)
        solve_closed_form(problem)
        assert formed == []
        solve_qr_svd(problem)
        assert len(formed) == 1

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
        core = check_genericity(build_basis(problem))
        assert core.sigma_min == pytest.approx(0.0, abs=1e-14)
        assert core.restricted_min_sv == pytest.approx(1.0, rel=1e-14)
        assert core.satisfied
        assert core.rel_gap == pytest.approx(1.0, rel=1e-12)
        assert core.warnings == ()

    def test_core_matrix_shape(self):
        # the q-row data enter only through the (n+1) x (n+1) factor R
        problem = seeded_problem(4)
        basis = build_basis(problem)
        core = check_genericity(basis)
        n, k = problem.n, problem.n - problem.p + 1
        assert core.data_r.shape == (n + 1, n + 1)
        assert core.restricted.u.shape == (n + 1, k - 1)
        assert core.restricted.v.shape == (k - 1, k - 1)
        sv = np.linalg.svd(core.data_r @ basis.aug_null_basis, compute_uv=False)
        assert sv.shape == core.direction.shape == (k,)
        np.testing.assert_allclose(
            [core.sigma_max, core.sigma_min], sv[[0, -1]], rtol=0, atol=64 * U * sv[0]
        )
        np.testing.assert_allclose(
            core.data_r.T @ core.data_r,
            stack_of(problem.A, problem.b).T @ stack_of(problem.A, problem.b),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_zero_gap_flags_ill_posed(self):
        problem = degenerate_problem()
        core = check_genericity(build_basis(problem))
        assert not core.satisfied
        assert "ill-posed" in core.warnings

    def test_coincident_smallest_values_flag_non_unique(self):
        problem = tied_problem()
        core = check_genericity(build_basis(problem))
        assert "non-unique" in core.warnings
        assert "ill-posed" in core.warnings

    def test_small_relative_gap_flags_near_degenerate(self):
        problem = TlseProblem(
            C=np.zeros((0, 2)),
            d=np.zeros(0),
            A=np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]]),
            b=np.array([0.0, 0.0, 1.999]),
        )
        core = check_genericity(build_basis(problem))
        assert core.satisfied
        assert core.warnings == ("near-degenerate",)


class TestCoreSpectrum:
    """The extreme core singular values and the trailing direction read off
    the restricted SVD (linalg.bordered_svd) against a direct SVD of
    R @ aug_null_basis, on problems that take each deflation path."""

    @pytest.mark.parametrize(
        "make",
        [
            tied_problem,
            degenerate_problem,
            consistent_problem,
            feasible_point_problem,
            interior_zero_problem,
            lambda: seeded_problem(6, p=0),
            lambda: seeded_problem(7),
        ],
        ids=["tied-z0", "degenerate", "consistent", "w0", "interior-z0", "p0", "p3"],
    )
    def test_matches_the_core_svd(self, make):
        problem = make()
        basis = build_basis(problem)
        core = check_genericity(basis)
        _, sv, vt = np.linalg.svd(core.data_r @ basis.aug_null_basis)
        tol = 64 * U * sv[0]
        np.testing.assert_allclose([core.sigma_max, core.sigma_min], sv[[0, -1]], rtol=0, atol=tol)
        assert np.linalg.norm(core.direction) == pytest.approx(1.0, rel=1e-14)
        # the direction lies in the right singular subspace of the trailing
        # cluster; for a simple sigma_min that is the SVD's vector up to sign
        cluster = sv <= sv[-1] + tol
        trailing = vt[cluster]
        outside = core.direction - trailing.T @ (trailing @ core.direction)
        separation = sv[~cluster][-1] - sv[-1] if not cluster.all() else np.inf
        assert np.linalg.norm(outside) <= tol / separation

    def test_consistent_data_solve_exactly(self):
        problem = consistent_problem()
        core = check_genericity(build_basis(problem))
        assert core.sigma_min == 0.0 and core.satisfied
        x0 = np.linalg.lstsq(problem.L, problem.h, rcond=None)[0]
        np.testing.assert_allclose(solve_qr_svd(problem).x, x0, rtol=1e-12)
        np.testing.assert_allclose(solve_closed_form(problem), x0, rtol=1e-12)

    def test_feasible_point_is_the_solution_when_w_is_zero(self):
        problem = feasible_point_problem()
        basis = build_basis(problem)
        core = check_genericity(basis)
        assert core.sigma_min == 0.0
        np.testing.assert_allclose(abs(core.direction[-1]), 1.0, rtol=1e-14)
        np.testing.assert_allclose(solve_qr_svd(problem).x, basis.x_feas, rtol=1e-12)

    @pytest.mark.parametrize("route", [solve_qr_svd, solve_closed_form])
    def test_one_svd_per_solve(self, route, monkeypatch):
        calls = []
        real = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        problem = seeded_problem(8)
        route(problem)
        # the restricted SVD of R_A @ null_basis, n + 1 by n - p
        assert calls == [(problem.n + 1, problem.n - problem.p)]

    def test_spectrum_matches_a_direct_svd_at_benchmark_sizes(self, battery100, constrained20):
        # the batteries, Gaussian problems of the benchmark's tall (p, q, n)
        # shapes, one column-scaled, and of its ten kron shapes
        rng = np.random.default_rng(24)
        shapes = [(20, 2000, 100), (20, 2500, 100), (20, 3000, 100)] + [
            (8, 192, 30), (8, 212, 32), (10, 230, 34), (10, 240, 35), (10, 250, 36),
            (10, 260, 37), (12, 258, 38), (12, 268, 39), (10, 270, 40), (10, 280, 40),
        ]
        problems = list(battery100 + constrained20)
        for i, (p, q, n) in enumerate(shapes):
            cols = 10.0 ** rng.uniform(-3, 3, n) if i == 1 else np.ones(n)
            problems.append(TlseProblem(
                C=rng.standard_normal((p, n)) * cols, d=rng.standard_normal(p),
                A=rng.standard_normal((q, n)) * cols, b=rng.standard_normal(q),
            ))
        for problem in problems:
            basis = build_basis(problem)
            core = check_genericity(basis)
            sv = np.linalg.svd(core.data_r @ basis.aug_null_basis, compute_uv=False)
            np.testing.assert_allclose(
                [core.sigma_max, core.sigma_min], sv[[0, -1]], rtol=0, atol=64 * U * sv[0]
            )

    def test_sigma_min_never_exceeds_restricted_min(self, battery100, constrained20):
        # interlacing: appending a column to the restricted data matrix
        # raises its largest singular value and lowers its smallest
        for problem in battery100 + constrained20:
            core = check_genericity(build_basis(problem))
            assert core.sigma_min <= core.restricted.s[-1]
            assert core.sigma_max >= core.restricted.s[0]
            assert core.gap == core.shifts[-1] > 0.0


class TestFloatExtremes:
    """Data whose squared restricted spectrum leaves the float range are a
    NumericalError in every deterministic route, with no RuntimeWarning."""

    @pytest.mark.parametrize("scale", [1e-160, 1e-155, 1e155, 1e160])
    @pytest.mark.parametrize(
        "route", [solve_qr_svd, solve_closed_form, condition_report]
    )
    def test_out_of_range_scale_raises(self, route, scale):
        with pytest.raises(NumericalError, match="leave the float range"):
            route(extreme_problem(scale))

    def test_squared_spectrum_in_range_still_solves(self):
        x = solve_qr_svd(extreme_problem()).x
        problem = extreme_problem(1e150)
        for x_scaled in (solve_qr_svd(problem).x, solve_closed_form(problem)):
            assert np.linalg.norm(x_scaled - x) <= 1e-14 * np.linalg.norm(x)


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
        lifted = solution.basis.aug_null_basis @ solution.core.direction
        scaled = lifted / (-lifted[-1])
        np.testing.assert_allclose(scaled[:-1], solution.x, atol=1e-10)
        assert scaled[-1] == pytest.approx(-1.0)

    def test_read_off_rejects_a_small_last_component(self):
        tol = tlsekit.core.LAST_COMPONENT_TOL
        for last in (0.0, tol / 2, -np.nextafter(tol, 0.0)):
            with pytest.raises(NonGenericError):
                _x_from_direction(np.array([0.6, 0.8, last]))

    def test_read_off_is_sign_invariant_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.standard_normal(7) * 10.0 ** rng.uniform(-8, 8, 7)
            assert _x_from_direction(v).tobytes() == _x_from_direction(-v).tobytes()

    def test_read_off_accepts_the_tolerance_itself(self):
        tol = tlsekit.core.LAST_COMPONENT_TOL
        for last in (tol, -tol):
            x = _x_from_direction(np.array([3.0 * tol, -tol, last]))
            np.testing.assert_array_equal(x, [-3.0, 1.0] if last > 0 else [3.0, -1.0])

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
        # the spectral _gram_inv against an explicit inverse of the shifted
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
        np.testing.assert_allclose(
            _gram_inv(solution.core), direct, rtol=1e-7, atol=1e-10
        )
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
        gram_inv = _gram_inv(solution.core)
        assert gram_inv.shape == (1, 1)
        restricted = problem.A @ solution.basis.null_basis
        scalar = (restricted.T @ restricted).item() - solution.sigma_min**2
        assert gram_inv[0, 0] == pytest.approx(1 / scalar, rel=1e-7)

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


class TestClosedFormNorms:
    """||null_gram_inv||_2 and ||null_gram_inv R_A.T||_2 from the restricted
    SVD, against the SVD of the formed matrices."""

    @staticmethod
    def _check(solution):
        core = solution.core
        r_a = core.data_r[:, :-1]
        assert null_gram_inv_norm(core) == pytest.approx(
            np.linalg.norm(solution.null_gram_inv, 2), rel=1e-13
        )
        assert data_map_norm(core) == pytest.approx(
            np.linalg.norm(solution.null_gram_inv @ r_a.T, 2), rel=1e-13
        )

    def test_battery(self, solved100):
        assert {problem.p == 0 for problem, _ in solved100} == {True, False}
        for _, solution in solved100:
            self._check(solution)

    def test_constrained(self, constrained20):
        for problem in constrained20:
            self._check(solve_qr_svd(problem))


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

    def test_r_factor_residual_norm_on_few_rows(self):
        # p > 0 and q < n + 1: R is trapezoidal, and ||A x - b|| is still
        # ||R [x; -1]||
        rng = np.random.default_rng(4)
        problem = TlseProblem(
            C=rng.standard_normal((3, 8)),
            d=rng.standard_normal(3),
            A=rng.standard_normal((6, 8)),
            b=rng.standard_normal(6),
        )
        solution = solve_qr_svd(problem)
        r = solution.core.data_r
        assert r.shape == (6, 9)
        explicit = np.linalg.norm(problem.A @ solution.x - problem.b)
        assert np.linalg.norm(r[:, :-1] @ solution.x - r[:, -1]) == pytest.approx(
            explicit, rel=1e-13
        )

    def test_unconstrained_matches_plain_tls(self):
        problem = seeded_problem(10, p=0, n=6, q=20)
        solution = solve_qr_svd(problem)
        _, _, vt = np.linalg.svd(stack_of(problem.A, problem.b))
        z = vt[-1]
        np.testing.assert_allclose(solution.x, z[:-1] / -z[-1], rtol=1e-10)
        assert solution.constraint_gain.shape == (problem.n, 0)
        np.testing.assert_allclose(
            solve_closed_form(problem), solution.x, rtol=1e-10
        )


#: Bytes for a solve's small LAPACK work arrays and Python objects (64 KiB,
#: the size of one NumPy iterator buffer).
SOLVE_SLACK = 64 * 1024

#: (n+1)^2 arrays a solve may hold once its data pass is over: R, the
#: complete Q of C.T, the restricted data R_A N and its U and V.
AFTER_PASS_SQUARES = 5


def solve_budget(problem: TlseProblem) -> int:
    """Bytes a solve may peak at: the larger of its two phases, plus
    SOLVE_SLACK. While [A b] is factored the solve holds one r_factor
    workspace and R; once the workspace is freed it builds the constraint
    QR and the restricted SVD beside R, AFTER_PASS_SQUARES (n+1)^2 arrays.
    At (20, 3000, 100) that is 0.47 MB (0.33 MB for the data pass), a
    fifth of one copy of [A b] (2.42 MB)."""
    cols = problem.n + 1
    data_pass = min(block_rows(cols), problem.q) * cols + cols * cols
    return 8 * max(data_pass, AFTER_PASS_SQUARES * cols * cols) + SOLVE_SLACK


def solve_peak(solver, problem: TlseProblem) -> int:
    solver(problem)
    tracemalloc.start()
    try:
        solver(problem)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("solver", [solve_qr_svd, solve_closed_form])
class TestSolveMemoryBudget:
    """Beside the r_factor workspace a solve holds one copy of R and, once
    the workspace is freed, the constraint QR and the restricted SVD; the
    augmented basis of ker([C d]) is formed only for solve_qr_svd's lift.
    At (20, 3000, 100) a solve peaks at 0.37 MB (0.41 MB with p = 0, where
    the phase after the data pass sets the peak). The budget fails a solve
    that builds the constraint QR and the augmented basis before the data
    pass and copies R twice: that one peaks at 0.62 MB."""

    @pytest.mark.parametrize("p", [20, 0])
    def test_tall_shape(self, solver, p):
        problem = seeded_problem(1, p=p, n=100, q=3000)
        assert solve_peak(solver, problem) <= solve_budget(problem)

    def test_kron_shape(self, solver):
        p, q, n = shape = KRON_SHAPES[-1]
        problem = seeded_problem(sum(shape), p=p, n=n, q=q)
        assert solve_peak(solver, problem) <= solve_budget(problem)


class TestStreamedData:
    """A solve reads the q data rows once, through the blocked QR."""

    def test_peak_memory_stays_below_one_data_copy(self):
        # the q x (n+1) copy of [A b] alone is 3000 * 101 * 8 B = 2.42 MB
        problem = seeded_problem(1, p=20, n=100, q=3000)
        peak = solve_peak(solve_qr_svd, problem)
        assert peak <= solve_budget(problem) < problem.A.nbytes + problem.b.nbytes

    def test_residual_is_computed_on_first_access(self):
        problem = seeded_problem(12, q=40)
        solution = solve_qr_svd(problem)
        assert "residual" not in vars(solution)
        residual = solution.residual
        np.testing.assert_array_equal(residual, problem.A @ solution.x - problem.b)
        assert solution.residual is residual

    def test_gain_maps_are_formed_on_first_use(self):
        solution = solve_qr_svd(seeded_problem(12, q=40))
        assert "null_gram_inv" not in vars(solution)
        assert "constraint_gain" not in vars(solution)
        assert solution.null_gram_inv is solution.null_gram_inv
        assert solution.constraint_gain is solution.constraint_gain

    def test_gain_maps_match_the_eager_expressions(self, solved100, constrained20):
        # forming the maps on first use changes no bit of their defining
        # expressions; battery100 holds p = 0 problems too
        problems = constrained20 + [seeded_problem(6, p=0)]
        solutions = [s for _, s in solved100] + [solve_qr_svd(p) for p in problems]
        for solution in solutions:
            basis, core = solution.basis, solution.core
            null_basis, pinv = basis.null_basis, constraint_pinv(basis)
            np.testing.assert_array_equal(
                solution.null_gram_inv, null_basis @ _gram_inv(core) @ null_basis.T
            )
            np.testing.assert_array_equal(
                solution.constraint_gain,
                pinv - null_basis @ _filtered(core, core.data_r[:, :-1] @ pinv),
            )

    def test_experiment_re_solve_forms_no_gain_map(self, monkeypatch):
        solutions = []

        def recorded(problem):
            solutions.append(solve_qr_svd(problem))
            return solutions[-1]

        monkeypatch.setattr(tlsekit.bench, "solve_qr_svd", recorded)
        problem = seeded_problem(2)
        run_experiment(problem, perturb(problem, "normwise", 1e-8, seed=5))
        # the problem's own solve feeds the report; the perturbed one only x
        assert len(solutions) == 2
        assert "null_gram_inv" in vars(solutions[0])
        assert not {"null_gram_inv", "constraint_gain"} & set(vars(solutions[1]))

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


class TestSolutionPairing:
    """Every entry point that takes a problem and its solution rejects a
    solution of another problem object, here a perturbed copy, whose
    factors would otherwise be mixed with the given problem's data."""

    @pytest.mark.parametrize(
        "call",
        [
            validate_stationarity,
            build_k_operator,
            lambda problem, solution: condition_report(problem, solution=solution),
            lambda problem, solution: run_experiment(
                problem, perturb(problem, "normwise", 1e-8, seed=1), solution=solution
            ),
            lambda problem, solution: wtls_limit_diagnostics(
                problem, [1e-2, 1e-3], solution=solution
            ),
        ],
        ids=["stationarity", "k_operator", "report", "experiment", "limit"],
    )
    @pytest.mark.parametrize("p", [0, 3])
    def test_solution_of_a_perturbed_copy_is_rejected(self, call, p):
        problem = seeded_problem(3, p=p)
        copy = apply_sample(problem, perturb(problem, "normwise", 1e-6, seed=2))
        with pytest.raises(InputError, match="not solved from this problem"):
            call(problem, solve_qr_svd(copy))
        call(problem, solve_qr_svd(problem))


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


def scaled_columns_problem(seed: int, p: int) -> TlseProblem:
    """A Gaussian problem whose columns of [C; A] are scaled by 10^U(-4, 4)."""
    rng = np.random.default_rng([seed, p])
    n = 10
    scales = 10.0 ** rng.uniform(-4, 4, n)
    return TlseProblem(
        C=rng.standard_normal((p, n)) * scales,
        d=rng.standard_normal(p),
        A=rng.standard_normal((30, n)) * scales,
        b=rng.standard_normal(30),
    )


class TestStationarityAgainstData:
    """validate_stationarity reads R and the basis QR of C.T; the oracle
    reads A, b and C (tests/stationarity_oracle.py), so it also catches a
    fault in R itself."""

    @staticmethod
    def _check(problem, solution):
        report = validate_stationarity(problem, solution)
        oracle = stationarity_from_data(problem, solution)
        # the sizes of g = [A b].T [A b] [x; -1] and of C.T lam
        data = np.linalg.norm(stack_of(problem.A, problem.b), 2) ** 2 * solution.rho
        c_norm = np.linalg.norm(problem.C, 2) if problem.p else 0.0
        scale = data + c_norm * np.linalg.norm(oracle.multiplier)
        for rep in (report, oracle):
            assert rep.grad_norm <= 64 * U * scale
            assert rep.coupling_norm <= 64 * U * scale
        assert report.constraint_norm == oracle.constraint_norm
        assert report.multiplier.shape == oracle.multiplier.shape == (problem.p,)
        if problem.p:
            # both solve C.T lam = sigma^2 x - g, which carries an error of
            # order u * data, in the least-squares sense
            c_min = np.linalg.svd(problem.C, compute_uv=False)[-1]
            assert np.linalg.norm(
                report.multiplier - oracle.multiplier
            ) <= 16 * U * data / c_min

    def test_batteries(self, solved100, constrained20):
        assert {problem.p == 0 for problem, _ in solved100} == {True, False}
        for problem, solution in solved100:
            self._check(problem, solution)
        for problem in constrained20:
            self._check(problem, solve_qr_svd(problem))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_column_scaled(self, seed, p):
        problem = scaled_columns_problem(seed, p)
        self._check(problem, solve_qr_svd(problem))

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_fewest_rows(self, p):
        # q = n - p + 1 rows: R is trapezoidal for p > 0
        problem = seeded_problem(9, p=p, n=8, q=8 - p + 1)
        self._check(problem, solve_qr_svd(problem))

    def test_tall(self):
        problem = seeded_problem(13, p=20, n=100, q=3000)
        self._check(problem, solve_qr_svd(problem))

    @pytest.mark.parametrize("p", [0, 3])
    def test_reads_no_data(self, p):
        # A and b overwritten after the solve: the report must not move
        problem = seeded_problem(8, p=p, q=40)
        solution = solve_qr_svd(problem)
        before = validate_stationarity(problem, solution)
        object.__setattr__(problem, "A", np.full_like(problem.A, np.nan))
        object.__setattr__(problem, "b", np.full_like(problem.b, np.nan))
        after = validate_stationarity(problem, solution)
        np.testing.assert_array_equal(after.multiplier, before.multiplier)
        assert (after.grad_norm, after.coupling_norm, after.constraint_norm) == (
            before.grad_norm, before.coupling_norm, before.constraint_norm
        )
