"""Perturbation operator and the three condition-number families."""
import dataclasses
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tlsekit import (
    GeneratorSpec,
    TlseProblem,
    Weights,
    apply_k,
    build_k_operator,
    condition_report,
    gen_equilibratory,
    solve_qr_svd,
)
from tlsekit import conditioning
from tlsekit.bench import derive_seed
from tlsekit.conditioning import _mixed_componentwise
from tlsekit.errors import InputError, TlseError, UndefinedConditionError
from tlsekit.linalg import block_rows

import kron_oracle
import mp_oracle
from conftest import KRON_SHAPES
from kron_oracle import materialize_k

PHI = (1 + math.sqrt(5)) / 2

WEIGHT_GRID = [Weights(1.0, 1.0), Weights(10.0, 1.0), Weights(1.0, 10.0)]

#: Unit roundoff of float64.
U = np.finfo(float).eps / 2


def seeded_problem(seed: int, p: int = 3, n: int = 8, q: int = 15) -> TlseProblem:
    rng = np.random.default_rng(seed)
    return TlseProblem(
        C=rng.standard_normal((p, n)),
        d=rng.standard_normal(p),
        A=rng.standard_normal((q, n)),
        b=rng.standard_normal(q),
    )


def tls_problem(seed: int = 9, n: int = 5, q: int = 12) -> TlseProblem:
    rng = np.random.default_rng(seed)
    return TlseProblem(
        C=np.zeros((0, n)),
        d=np.zeros(0),
        A=rng.standard_normal((q, n)),
        b=rng.standard_normal(q),
    )


def hand_problem():
    return TlseProblem(C=[[1.0, 0.0]], d=[2.0], A=np.eye(2), b=[2.0, 3.0])


def golden_problem():
    return TlseProblem(
        C=np.zeros((0, 1)),
        d=np.zeros(0),
        A=np.array([[1.0], [0.0]]),
        b=np.array([1.0, 1.0]),
    )


def zero_solution_problem():
    # A.T b = 0 with ||b|| below sigma_min(A) puts the optimum at x = 0
    return TlseProblem(
        C=np.zeros((0, 2)),
        d=np.zeros(0),
        A=np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]]),
        b=np.array([0.0, 0.0, 1.0]),
    )


def column_scaled_problem(seed: int = 12) -> TlseProblem:
    # columns of [C; A] spread over six decades
    problem = seeded_problem(seed)
    scales = 10.0 ** np.linspace(-3, 3, problem.n)
    return TlseProblem(
        C=problem.C * scales, d=problem.d, A=problem.A * scales, b=problem.b
    )


def vec_stack(dL: np.ndarray, dh: np.ndarray) -> np.ndarray:
    return np.concatenate([kron_oracle.vec(dL), dh])


def report(op, weights=Weights(), method="exact"):
    """condition_report's numbers on a built (or edited) operator."""
    return conditioning._report(op, weights, method, conditioning._flex_norm(op.problem, weights))


def mixed_fields(rep) -> tuple[float, float, float]:
    return rep.kappa_m, rep.kappa_c, rep.kappa_c_finite


def mixed_reference(target, x) -> tuple[float, float, float]:
    """_mixed_componentwise of a reference target."""
    return _mixed_componentwise(target, x, float(np.abs(x).max()))


class TestWeights:
    def test_defaults(self):
        w = Weights()
        assert w.alpha == 1.0 and w.beta == 1.0

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (1.0, -2.0)])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(InputError):
            Weights(*bad)

    @pytest.mark.parametrize(
        "bad",
        [
            (1e-200, 1.0),  # alpha^2 underflows to 0
            (1e-160, 1.0),  # (beta/alpha)^2 overflows
            (1e200, 1.0),  # alpha^2 overflows
            (math.inf, 1.0),
            (1.0, math.inf),
            (math.nan, 1.0),
            (1e-100, 1e150),  # each fine alone, (beta/alpha)^2 overflows
        ],
    )
    def test_rejects_weights_outside_float_range(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="weights must be positive"):
                Weights(*bad)

    @pytest.mark.parametrize("bad", [("2", 1.0), (1.0, b"3"), (None, 1.0), (1j, 1.0)])
    def test_rejects_non_real_types_before_converting(self, bad):
        with pytest.raises(InputError, match="weights must be real numbers"):
            Weights(*bad)

    @pytest.mark.parametrize("bad", [(10**400, 1.0), (1.0, -(10**400))])
    def test_int_beyond_float_range_is_input_error(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="weights must be positive"):
                Weights(*bad)

    def test_accepts_numpy_and_python_reals(self):
        w = Weights(alpha=np.float32(2.0), beta=3)
        assert condition_report(seeded_problem(0), weights=w).weights is w

    @pytest.mark.parametrize("weights", [Weights(alpha=1e-100), Weights(beta=1e150)])
    @pytest.mark.parametrize("method", ["exact", "upper"])
    def test_extreme_weights_inside_float_range(self, weights, method):
        report = condition_report(seeded_problem(0), weights=weights, method=method)
        for name in ("kappa_n", "kappa_n_upper", "kappa_m", "kappa_c"):
            value = getattr(report, name)
            assert np.isfinite(value) and value > 0


class TestOperatorAssembly:
    def test_unconstrained_operator_matches_analytic_form(self):
        # independent reconstruction from the raw data: with
        # P = A.T A - sigma^2 I the gain is -P^{-1}(A.T - 2 x r.T / rho^2)
        # and the materialized operator is
        # [ (x.T kron gain) - P^{-1}(I kron r.T), -gain ]
        problem = tls_problem()
        a, b = problem.A, problem.b
        n = problem.n
        _, s, vt = np.linalg.svd(np.hstack([a, b[:, None]]))
        v = vt.T[:, -1]
        x_oracle = -v[:n] / v[n]
        sigma = s[-1]
        r = a @ x_oracle - b
        rho_sq = 1.0 + float(x_oracle @ x_oracle)
        p_inv = np.linalg.inv(a.T @ a - sigma**2 * np.eye(n))
        gain_oracle = -p_inv @ (a.T - (2.0 / rho_sq) * np.outer(x_oracle, r))
        mat_oracle = np.hstack(
            [
                np.kron(x_oracle[None, :], gain_oracle)
                - p_inv @ np.kron(np.eye(n), r[None, :]),
                -gain_oracle,
            ]
        )

        solution = solve_qr_svd(problem)
        op = build_k_operator(problem, solution)
        np.testing.assert_allclose(solution.x, x_oracle, rtol=1e-10)
        np.testing.assert_allclose(op.adjoint_dir, r, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            kron_oracle.explicit_gain(op), gain_oracle, rtol=1e-8, atol=1e-12
        )
        for form in ("combined", "split"):
            np.testing.assert_allclose(
                materialize_k(op, form), mat_oracle, rtol=1e-8, atol=1e-12
            )

    def test_zero_residual_collapses_adjoint(self):
        problem = hand_problem()
        solution = solve_qr_svd(problem)
        op = build_k_operator(problem, solution)
        assert np.linalg.norm(op.adjoint_dir) <= 1e-12
        expected = -np.hstack(
            [solution.constraint_gain, solution.null_gram_inv @ problem.A.T]
        )
        np.testing.assert_allclose(kron_oracle.explicit_gain(op), expected, atol=1e-12)

    @pytest.mark.parametrize("q", [6, 15])
    def test_compressed_pair_matches_explicit(self, q):
        # gain = gain_r W.T and adjoint_dir = W adjoint_r with W.T W = I, so
        # every inner product agrees; q = 6 < n + 1 gives a short R
        problem = seeded_problem(0, q=q)
        op = build_k_operator(problem, solve_qr_svd(problem))
        k = min(problem.q, problem.n + 1)
        assert op.gain_r.shape == (problem.n, problem.p + k)
        assert op.adjoint_r.shape == (problem.p + k,)
        gain = kron_oracle.explicit_gain(op)
        scale = np.linalg.norm(gain) ** 2
        np.testing.assert_allclose(
            op.gain_r @ op.gain_r.T, gain @ gain.T, rtol=0, atol=1e-13 * scale
        )
        np.testing.assert_allclose(
            op.gain_r @ op.adjoint_r,
            gain @ op.adjoint_dir,
            rtol=0,
            atol=1e-13 * np.linalg.norm(gain) * np.linalg.norm(op.adjoint_dir),
        )
        assert np.linalg.norm(op.adjoint_r) == pytest.approx(
            np.linalg.norm(op.adjoint_dir), rel=1e-13
        )
        np.testing.assert_array_equal(op.adjoint_r[: op.p], op.adjoint_dir[: op.p])

    @staticmethod
    def _check_adjoint_top(problem, solution):
        # the top against the pseudoinverse of [C d] formed by NumPy's SVD:
        # ||top - ref|| <= 32 u kappa([C d]) ||pinv([C d])||_2 ||g||, the
        # size of the error of either route (the battery peaks near 3.4)
        op = build_k_operator(problem, solution)
        r = solution.core.data_r
        g = r.T @ (r @ np.append(solution.x, -1.0))
        top = op.adjoint_dir[: problem.p]
        if problem.p == 0:
            assert top.shape == (0,)
            return
        aug = problem.aug_constraint()
        pinv = np.linalg.pinv(aug)
        tol = 32 * U * np.linalg.cond(aug) * np.linalg.norm(pinv, 2)
        tol *= np.linalg.norm(g)
        assert np.linalg.norm(top - -pinv.T @ g) <= tol

    def test_adjoint_top_matches_pinv_of_aug_constraint(
        self, solved100, constrained20
    ):
        assert {problem.p == 0 for problem, _ in solved100} == {True, False}
        for problem, solution in solved100:
            self._check_adjoint_top(problem, solution)
        for problem in constrained20:
            self._check_adjoint_top(problem, solve_qr_svd(problem))

    @pytest.mark.parametrize("i, kappa", enumerate([1e2, 1e4, 1e6, 1e8]))
    def test_adjoint_top_on_table1_problems(self, i, kappa):
        # the table1 problems, whose [C d] has condition number kappa
        spec = GeneratorSpec(
            kind="equilibratory", p=5, q=20, n=15, kappa_c=kappa,
            seed=derive_seed(0, i, 0),
        )
        problem = gen_equilibratory(spec)
        assert np.linalg.cond(problem.aug_constraint()) == pytest.approx(kappa)
        self._check_adjoint_top(problem, solve_qr_svd(problem))

    def test_shape_properties(self):
        problem = seeded_problem(0)
        op = build_k_operator(problem, solve_qr_svd(problem))
        assert (op.n, op.p, op.m) == (problem.n, problem.p, problem.m)


class TestApplyAndMaterialize:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("form", ["combined", "split"])
    def test_apply_matches_materialized_action(self, seed, form):
        problem = seeded_problem(seed)
        op = build_k_operator(problem, solve_qr_svd(problem))
        mat = materialize_k(op, form)
        rng = np.random.default_rng(100 + seed)
        for _ in range(5):
            dl = rng.standard_normal((problem.m, problem.n))
            dh = rng.standard_normal(problem.m)
            direct = apply_k(op, dl, dh)
            via_matrix = mat @ vec_stack(dl, dh)
            assert np.linalg.norm(direct - via_matrix) <= 1e-12 * max(
                np.linalg.norm(direct), 1e-300
            )

    def test_forms_are_identical(self):
        problem = seeded_problem(2)
        op = build_k_operator(problem, solve_qr_svd(problem))
        np.testing.assert_allclose(
            materialize_k(op, "combined"),
            materialize_k(op, "split"),
            atol=1e-13,
        )

    def test_apply_validates_shapes(self):
        problem = seeded_problem(3)
        op = build_k_operator(problem, solve_qr_svd(problem))
        with pytest.raises(InputError):
            apply_k(op, np.zeros((2, 2)), np.zeros(problem.m))
        with pytest.raises(InputError):
            apply_k(op, np.zeros((problem.m, problem.n)), np.zeros(3))

    def test_unknown_form_rejected(self):
        problem = seeded_problem(3)
        op = build_k_operator(problem, solve_qr_svd(problem))
        with pytest.raises(ValueError):
            materialize_k(op, "dense")


class TestNormwise:
    @pytest.mark.parametrize("weights", WEIGHT_GRID)
    @pytest.mark.parametrize(
        "signs", [(1, 1), (-1, -1), (1, -1), (-1, 1)]
    )
    def test_compact_equals_exact(self, weights, signs):
        # the (m+n)-column block compression, under each sign choice of its
        # scalars, gives the structured exact value
        problem = seeded_problem(4)
        op = build_k_operator(problem, solve_qr_svd(problem))
        exact = report(op, weights).kappa_n
        compact = kron_oracle.kappa_normwise_block(
            op, weights, problem.L, problem.h, signs=signs
        )
        assert compact == pytest.approx(exact, rel=1e-10)

    def test_zero_adjoint_branch(self):
        # force an exactly zero adjoint direction; the value then reduces to
        # the gain norm times the weight factor
        problem = hand_problem()
        op = build_k_operator(problem, solve_qr_svd(problem))
        op0 = dataclasses.replace(
            op,
            adjoint_dir=np.zeros(op.m),
            adjoint_r=np.zeros_like(op.adjoint_r),
        )
        for weights in WEIGHT_GRID:
            exact = report(op0, weights).kappa_n
            oracle = kron_oracle.kappa_normwise(op0, weights, problem.L, problem.h)
            assert exact == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("weights", WEIGHT_GRID)
    def test_upper_bounds_dominate(self, weights):
        rep = condition_report(seeded_problem(5), weights=weights)
        assert rep.kappa_n <= rep.kappa_n_upper * (1 + 1e-12)
        assert rep.kappa_n_upper <= rep.kappa_n_upper_loose * (1 + 1e-12)

    def test_zero_solution_is_undefined(self):
        problem = zero_solution_problem()
        op = build_k_operator(problem, solve_qr_svd(problem))
        assert not op.x.any()
        for method in ("exact", "upper"):
            with pytest.raises(UndefinedConditionError):
                report(op, method=method)


def tall_problem(seed: int = 14) -> TlseProblem:
    return seeded_problem(seed, p=20, n=100, q=2000)


COMPRESSION_CASES = {
    "q-below-n+1": seeded_problem(3, q=6),
    "unconstrained": tls_problem(),
    "zero-residual": hand_problem(),
    "column-scaled": column_scaled_problem(),
    "tall": tall_problem(),
}


def assert_normwise_match_explicit(problem, op):
    for weights in WEIGHT_GRID:
        args = (op, weights, problem.L, problem.h)
        rep = report(op, weights, "upper")
        assert rep.kappa_n == pytest.approx(
            kron_oracle.kappa_normwise_explicit(*args), rel=1e-12
        )
        tight, loose = rep.kappa_n_upper, rep.kappa_n_upper_loose
        tight_x, loose_x = kron_oracle.kappa_normwise_upper_explicit(*args)
        assert tight == pytest.approx(tight_x, rel=1e-12)
        assert loose == pytest.approx(loose_x, rel=1e-12)


class TestCompressedNormwise:
    """Normwise numbers on gain_r/adjoint_r against the explicit n x m forms."""

    @pytest.mark.parametrize("case", sorted(COMPRESSION_CASES))
    def test_matches_explicit(self, case):
        problem = COMPRESSION_CASES[case]
        assert_normwise_match_explicit(
            problem, build_k_operator(problem, solve_qr_svd(problem))
        )

    def test_battery_matches_explicit(self, solved100):
        for problem, solution in solved100:
            assert_normwise_match_explicit(
                problem, build_k_operator(problem, solution)
            )


ORACLE_CASES = {
    "constrained": seeded_problem(4),
    "unconstrained": tls_problem(),
    "zero-adjoint": hand_problem(),
    "column-scaled": column_scaled_problem(),
}


class TestAgainstKroneckerOracle:
    """The structured exact formulas against the materialized K."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_normwise(self, case):
        problem = ORACLE_CASES[case]
        op = build_k_operator(problem, solve_qr_svd(problem))
        for weights in WEIGHT_GRID:
            exact = report(op, weights).kappa_n
            oracle = kron_oracle.kappa_normwise(op, weights, problem.L, problem.h)
            assert exact == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_mixed_componentwise(self, case):
        problem = ORACLE_CASES[case]
        op = build_k_operator(problem, solve_qr_svd(problem))
        target = kron_oracle.mixed_componentwise_target(op, problem.L, problem.h)
        ratios = target / np.abs(op.x)
        mixed = report(op)
        assert mixed.kappa_m == pytest.approx(
            target.max() / np.abs(op.x).max(), rel=1e-12
        )
        assert mixed.kappa_c == pytest.approx(ratios.max(), rel=1e-12)
        assert mixed.kappa_c_finite == mixed.kappa_c


class TestMixedComponentwise:
    def test_mixed_below_componentwise(self):
        mixed = condition_report(seeded_problem(6))
        assert mixed.kappa_m <= mixed.kappa_c
        assert mixed.kappa_c_finite <= mixed.kappa_c

    @pytest.mark.parametrize(
        "problem", [seeded_problem(6), column_scaled_problem(), tall_problem()]
    )
    def test_in_place_sum_equals_fresh_blocks(self, problem):
        # the package sums K one solution row at a time, the oracle one
        # column at a time, so the sums agree up to their order; tall_problem
        # (m = 2020) has seven blocks, whose partial sums add in another order
        op = build_k_operator(problem, solve_qr_svd(problem))
        reference = kron_oracle.explicit_mixed_target(op, problem.L, problem.h)
        mixed = mixed_fields(report(op))
        for got, want in zip(mixed, mixed_reference(reference, op.x)):
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "problem",
        [
            column_scaled_problem(),
            column_scaled_problem(seed=13),
            tls_problem(),
            seeded_problem(3, q=6),
            hand_problem(),
        ],
        ids=["scaled", "scaled-13", "p0", "q-below-n+1", "zero-residual"],
    )
    def test_exact_target_within_rounding_of_60_digit_sum(self, problem):
        """The exact target against mp_oracle.mixed_target, entrywise
        within c u upper_i, c = m n + 5.

        With n <= 12 the m rows of [C; A] are one block, and the package and
        the oracle start from the same float gain G. Row i of the exact
        target is then fl(fl(|G_i| . |h|) + fl(|E~| . |L|)), E~_kj = fl(x_j
        G_ik - N_ij t_k) from a product of inner dimension 2, so |E~ - E|
        <= gamma_2 (|x_j G_ik| + |N_ij t_k|). Both dots sum non-negative
        terms, m and m n of them, so in any order each is within gamma_m
        and gamma_mn of its exact value relative to itself. With S = |E| .
        |L| <= M_i = |G_i| . |L| |x| + |N_i| . |L|.T |t|, the dot of E~ is
        within (gamma_2 + gamma_mn (1 + gamma_2)) M_i <= gamma_{mn+2} M_i
        of S, the final addition adds one rounding, and U_i = |G_i| . |h|
        + M_i bounds the exact target, so the error is at most
        gamma_{mn+3} U_i. The oracle's one rounding to float adds at most
        u U_i, and U_i is the upper target, which the package computes to
        far better than u relative, hence c = m n + 5. The constraint rows,
        a zero residual (t = 0) and q < n+1 change none of these counts.
        """
        op = build_k_operator(problem, solve_qr_svd(problem))
        assert op.n <= 12 and op.m <= block_rows(op.n)
        _, _, target, upper = streamed(op)
        reference = mp_oracle.mixed_target(op)
        c = op.m * op.n + 5
        assert np.all(np.abs(target - reference) <= c * np.finfo(float).eps / 2 * upper)

    def test_upper_bounds_dominate(self):
        problem = seeded_problem(6)
        solution = solve_qr_svd(problem)
        mixed = condition_report(problem, solution=solution)
        upper = condition_report(problem, solution=solution, method="upper")
        assert mixed.kappa_m <= upper.kappa_m * (1 + 1e-12)
        assert mixed.kappa_c <= upper.kappa_c * (1 + 1e-12)

    def test_zero_solution_is_undefined(self):
        problem = zero_solution_problem()
        solution = solve_qr_svd(problem)
        for method in ("exact", "upper"):
            with pytest.raises(UndefinedConditionError):
                condition_report(problem, solution=solution, method=method)


BLOCK_N = 50
#: rows of [C; A] per block of the streamed entrywise sums at n = BLOCK_N
H = block_rows(BLOCK_N)


def stacked_problem(seed: int, p: int, m: int, scaled: bool = False) -> TlseProblem:
    # m rows of [C; A] with n = BLOCK_N; scaled spreads the columns over 10^+-3
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((p, BLOCK_N))
    A = rng.standard_normal((m - p, BLOCK_N))
    if scaled:
        cols = 10.0 ** rng.uniform(-3, 3, BLOCK_N)
        C, A = C * cols, A * cols
    return TlseProblem(C=C, d=rng.standard_normal(p), A=A, b=rng.standard_normal(m - p))


BLOCK_CASES = {
    "one-full-block": stacked_problem(20, p=4, m=H),
    "one-row-last-block": stacked_problem(21, p=4, m=H + 1),
    "short-last-block": stacked_problem(22, p=4, m=2 * H + 3),
    "unconstrained": stacked_problem(23, p=0, m=2 * H + 3),
    "column-scaled": stacked_problem(24, p=4, m=2 * H + 3, scaled=True),
    "q-below-n+1": seeded_problem(3, q=6),
    "zero-residual": hand_problem(),
}

def streamed(op):
    """(exact, upper, target, bound): the exact and the upper report of op,
    with |K| vec(|[L h]|) and its bound as the package sums them before
    reducing them to kappa_m and kappa_c. The report reduces the bound
    first; both modes must sum it to the same bits."""
    targets = []

    def capture(target, x, nx_inf):
        targets.append(target.copy())
        return _mixed_componentwise(target, x, nx_inf)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conditioning, "_mixed_componentwise", capture)
        exact, upper = report(op), report(op, method="upper")
    bound, target, upper_bound = targets
    np.testing.assert_array_equal(upper_bound, bound)
    return exact, upper, target, bound


def explicit_targets(op):
    """The same two targets summed over all m rows at once."""
    big_l, big_h = op.problem.L, op.problem.h
    return [
        kron_oracle.explicit_mixed_target(op, big_l, big_h),
        kron_oracle.explicit_upper_target(op, big_l, big_h),
    ]


def apply_k_magnitude(op, dl, dh) -> float:
    """Norm of the sum of the absolute terms apply_k adds up; its rounding
    scales with this, as the terms of gain @ u are summed before they
    cancel."""
    n_inv, p, t = op.null_gram_inv, op.p, np.abs(op.adjoint_dir)
    u = np.abs(dl @ op.x - dh)
    rank_one = (2.0 / op.rho**2) * float(t @ u) * np.abs(n_inv @ op.x)
    rest = np.abs(op.constraint_gain) @ u[:p] + np.abs(n_inv) @ (
        np.abs(op.problem.A).T @ u[p:] + np.abs(dl).T @ t
    )
    return float(np.linalg.norm(rank_one + rest))


def assert_single_block_bitwise(op):
    # within one block the streamed upper target is the all-rows sum of the
    # explicit form, term for term and in the same order, so equal bit for
    # bit; the exact target sums the same terms row by row where the oracle
    # sums them column by column, so it agrees to rounding only
    assert op.m <= block_rows(op.n)
    exact, upper, target, bound = streamed(op)
    reference, upper_reference = explicit_targets(op)
    np.testing.assert_allclose(target, reference, rtol=1e-13, atol=0)
    expected = mixed_reference(reference, op.x)
    for got, want in zip(mixed_fields(exact), expected):
        assert got == pytest.approx(want, rel=1e-13)
    np.testing.assert_array_equal(bound, upper_reference)
    assert mixed_fields(upper) == mixed_reference(upper_reference, op.x)


class TestStreamedBlocks:
    """The row-blocked gain against the explicit n x m forms."""

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_targets_and_apply_match_explicit(self, case):
        problem = BLOCK_CASES[case]
        op = build_k_operator(problem, solve_qr_svd(problem))
        for target, reference in zip(streamed(op)[2:], explicit_targets(op)):
            np.testing.assert_allclose(target, reference, rtol=1e-13, atol=0)
        rng = np.random.default_rng(30)
        for _ in range(3):
            dl = rng.standard_normal((problem.m, problem.n))
            dh = rng.standard_normal(problem.m)
            error = apply_k(op, dl, dh) - kron_oracle.explicit_apply_k(op, dl, dh)
            assert np.linalg.norm(error) <= 1e-13 * apply_k_magnitude(op, dl, dh)

    def test_single_block_batteries_bitwise(self, solved100, constrained20):
        for problem, solution in solved100:
            assert_single_block_bitwise(build_k_operator(problem, solution))
        for problem in constrained20:
            op = build_k_operator(problem, solve_qr_svd(problem))
            assert_single_block_bitwise(op)

    @pytest.mark.parametrize("shape", KRON_SHAPES)
    def test_single_block_kron_shapes_bitwise(self, shape):
        p, q, n = shape
        problem = seeded_problem(sum(shape), p=p, n=n, q=q)
        assert_single_block_bitwise(build_k_operator(problem, solve_qr_svd(problem)))

    @pytest.mark.parametrize("method", ["upper", "exact"])
    def test_report_peak_below_one_data_copy(self, method):
        # (20, 3000, 100): ten blocks; one copy of [A b] is 2.42 MB, while
        # an n x m gain alone is 2.4 MB
        problem = seeded_problem(15, p=20, n=100, q=3000)
        solution = solve_qr_svd(problem)
        tracemalloc.start()
        try:
            condition_report(problem, solution=solution, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < problem.A.nbytes + problem.b.nbytes

    @pytest.mark.parametrize(
        "chunk_bytes", [1, 8 * 7 * H, 10**9], ids=["one-row", "seven-rows", "one-chunk"]
    )
    @pytest.mark.parametrize("case", ["short-last-block", "column-scaled", "q-below-n+1"])
    def test_upper_sums_do_not_depend_on_the_chunk(self, case, chunk_bytes):
        # the upper report forms each block of the gain over row chunks of
        # conditioning.CHUNK_BYTES; any chunk gives the bits of the default
        problem = BLOCK_CASES[case]
        op = build_k_operator(problem, solve_qr_svd(problem))
        default = conditioning._block_sums(op, exact=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conditioning, "CHUNK_BYTES", chunk_bytes)
            chunked = conditioning._block_sums(op, exact=False)
        for got, want in zip(chunked, default):
            np.testing.assert_array_equal(got, want)

    def test_operator_holds_no_m_sized_matrix(self):
        problem = tall_problem()
        op = build_k_operator(problem, solve_qr_svd(problem))
        assert op.problem is problem
        for f in dataclasses.fields(op):
            value = getattr(op, f.name)
            if isinstance(value, np.ndarray) and value.ndim == 2:
                assert problem.m not in value.shape, f.name


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 12),
    p=st.integers(0, 5),
    extra=st.integers(1, 40),
    rows=st.integers(1, 60),
    block=st.integers(0, 60),
    chunk=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_gain_is_the_explicit_gain_bitwise(n, p, extra, rows, block, chunk, seed):
    """One row block [start, stop) of [C; A], of more than p rows as in
    _block_sums (so the first holds every constraint row), formed over
    chunks of chunk rows in buffers that start as NaN, is bit for bit
    kron_oracle.explicit_gain of the block's own operator: the explicit
    formula on the block's adjoint entries, constraint columns and rows of
    A. With one block that is explicit_gain(op) itself. A narrower block
    is not held to explicit_gain(op)'s columns: BLAS need not round N A_B.T
    as it rounds the same columns of N A.T (in the last bit on about 1% of
    random blocks of two or more rows and most single rows, n > 1, with
    one chunk or many alike)."""
    p = min(p, n - 1)
    problem = seeded_problem(seed, p=p, n=n, q=n - p + extra)
    try:
        op = build_k_operator(problem, solve_qr_svd(problem))
    except TlseError:
        assume(False)
    m = problem.m
    rows = min(max(rows, p + 1), m)
    start = rows * (block % -(-m // rows))
    stop = min(start + rows, m)
    head = max(p - start, 0)
    t, a_rows = op.adjoint_dir[start:stop], problem.A[start + head - p : stop - p]
    out = np.full((n, stop - start), np.nan)
    scratch = np.full((min(chunk, n), stop - start), np.nan)
    gain = conditioning._gain(op, t, a_rows, head, out=out, scratch=scratch)
    assert gain is out
    own = dataclasses.replace(
        op, constraint_gain=op.constraint_gain[:, :head], adjoint_dir=t,
        problem=types.SimpleNamespace(A=a_rows),
    )
    np.testing.assert_array_equal(gain, kron_oracle.explicit_gain(own))
    if rows == m:
        np.testing.assert_array_equal(gain, kron_oracle.explicit_gain(op))


#: Constants of the report's memory budget (report_budget), in float64
#: words: C1 per n^2 entry, C2 per entry of m + n (p + k), C0 in all.
#: The n^2 terms are |N| and the n x n Gram matrices of spectral_norm and
#: conditioning._kappa_n; the m + n (p + k) terms are adjoint_dir, gain_r
#: and its scratch, and z1 of _kappa_n. Each weighed about
#: one word per entry at the kron shapes and 0.7 at (20, 1000, 100); C0
#: holds the Python objects of one call, up to 0.9 K words on the
#: smallest battery problems.
C1, C2, C0 = 2, 2, 2048


def report_budget(problem: TlseProblem, method: str) -> int:
    """Bytes condition_report may peak at: its block workspaces, three of n
    x block when exact, and one plus the chunk scratch of
    conditioning.CHUNK_BYTES (chunk x block, chunk <= n rows) for upper;
    plus C1 n^2 + C2 (m + n (p + k)) + C0 words, k = min(q, n + 1) the rows
    of R."""
    n, p, m = problem.n, problem.p, problem.m
    k = min(problem.q, n + 1)
    block = min(block_rows(n), m)
    chunk = min(n, max(1, conditioning.CHUNK_BYTES // (8 * block)))
    rows = 3 * n if method == "exact" else n + chunk
    return 8 * (rows * block + C1 * n * n + C2 * (m + n * (p + k)) + C0)


def report_peak(problem: TlseProblem, solution, method: str) -> int:
    tracemalloc.start()
    try:
        condition_report(problem, solution=solution, method=method)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_report_within_budget(problem, solution, method):
    peak, budget = report_peak(problem, solution, method), report_budget(problem, method)
    assert peak <= budget, (problem.p, problem.q, problem.n)


def relaid(problem: TlseProblem, layout: str) -> TlseProblem:
    """The same data with C and A Fortran-ordered, or with C, A and b
    strided views into arrays twice as large in each dimension."""
    if layout == "fortran":
        relay = np.asfortranarray
    else:
        def relay(a):
            big = np.zeros(tuple(2 * s for s in a.shape))
            view = big[tuple(slice(None, None, 2) for _ in a.shape)]
            view[...] = a
            return view
    moved = TlseProblem(
        C=relay(problem.C), d=problem.d, A=relay(problem.A),
        b=problem.b if layout == "fortran" else relay(problem.b),
    )
    assert not moved.A.flags.c_contiguous
    return moved


def assert_layout_costs_nothing(problem, layout, method):
    """The report of relaid data stays within budget and within 2 KiB of the
    C-ordered report's peak: the block pass copies C and A into its own
    buffer, so their layout adds no NumPy iterator buffer (64 KiB)."""
    moved = relaid(problem, layout)
    solution = solve_qr_svd(moved)
    assert_report_within_budget(moved, solution, method)
    c_order = report_peak(problem, solve_qr_svd(problem), method)
    assert report_peak(moved, solution, method) <= c_order + 2048


@pytest.mark.parametrize("method", ["upper", "exact"])
class TestReportMemoryBudget:
    """Only the named workspaces are block-sized: no NumPy iterator buffer
    (64 KiB per operand) and no n x n temporary on top of live blocks. At
    (10, 280, 40) the exact report peaked at 0.44 MB with two such
    buffers in _gain, above its 0.36 MB budget; it now peaks at 0.32 MB.
    A Fortran-ordered or strided C or A cost 62 KiB more before the block
    pass copied them into its |L| buffer (0.38 MB at (10, 280, 40))."""

    @pytest.mark.parametrize("shape", KRON_SHAPES)
    def test_kron_shapes(self, shape, method):
        p, q, n = shape
        problem = seeded_problem(sum(shape), p=p, n=n, q=q)
        assert_report_within_budget(problem, solve_qr_svd(problem), method)

    def test_multi_block_shape(self, method):
        problem = seeded_problem(16, p=20, n=100, q=1000)
        assert problem.m > 3 * block_rows(problem.n)
        assert_report_within_budget(problem, solve_qr_svd(problem), method)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_kron_shape_layouts(self, layout, method):
        p, q, n = shape = KRON_SHAPES[-1]
        problem = seeded_problem(sum(shape), p=p, n=n, q=q)
        assert_layout_costs_nothing(problem, layout, method)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_multi_block_layouts(self, layout, method):
        problem = seeded_problem(16, p=20, n=100, q=1000)
        assert_layout_costs_nothing(problem, layout, method)

    def test_batteries(self, method, solved100, constrained20):
        for problem, solution in solved100:
            assert_report_within_budget(problem, solution, method)
        for problem in constrained20:
            assert_report_within_budget(problem, solve_qr_svd(problem), method)


class TestFirstOrderFidelity:
    def test_prediction_error_shrinks_linearly(self):
        problem = seeded_problem(7)
        solution = solve_qr_svd(problem)
        op = build_k_operator(problem, solution)
        rng = np.random.default_rng(21)
        dl_dir = rng.standard_normal((problem.m, problem.n))
        dh_dir = rng.standard_normal(problem.m)
        norm = math.sqrt(
            np.linalg.norm(dl_dir, "fro") ** 2 + np.linalg.norm(dh_dir) ** 2
        )
        dl_dir /= norm
        dh_dir /= norm
        etas = []
        for scale in (1e-3, 1e-4, 1e-5):
            perturbed = TlseProblem(
                C=problem.C + scale * dl_dir[: problem.p],
                d=problem.d + scale * dh_dir[: problem.p],
                A=problem.A + scale * dl_dir[problem.p :],
                b=problem.b + scale * dh_dir[problem.p :],
            )
            dx = solve_qr_svd(perturbed).x - solution.x
            predicted = apply_k(op, scale * dl_dir, scale * dh_dir)
            etas.append(
                float(np.linalg.norm(dx - predicted) / np.linalg.norm(dx))
            )
        # second-order remainder: one decade of scale buys one decade of eta
        for prev, nxt in zip(etas, etas[1:]):
            assert nxt < prev
            assert 5.0 <= prev / nxt <= 20.0


def tls_jacobian(problem: TlseProblem, w: Weights) -> np.ndarray:
    """The weighted Jacobian of unconstrained TLS, from A and b alone
    (Baboulin & Gratton, SIMAX 2011): with r = A x - b, sigma and x from
    the SVD of [A b] and D = (A.T A - sigma^2 I)^-1,

        dx = D (A.T - 2 x r.T / (1 + ||x||^2)) (db - dA x) - D dA.T r,

    as an n x q(n+1) matrix on (vec(dA) row by row, db), the dA columns
    divided by alpha and the db columns by beta."""
    a, b = problem.A, problem.b
    _, s, vt = np.linalg.svd(np.column_stack([a, b]))
    x = vt[-1, :-1] / -vt[-1, -1]
    r = a @ x - b
    d = np.linalg.inv(a.T @ a - s[-1] ** 2 * np.eye(problem.n))
    m = d @ (a.T - 2.0 * np.outer(x, r) / (1.0 + x @ x))
    # column (i, j) of the dA block: -x_j m[:, i] - r_i d[:, j]
    j_a = -m[:, :, None] * x - d[:, None, :] * r[:, None]
    return np.hstack([j_a.reshape(problem.n, -1) / w.alpha, m / w.beta])


class TestTlsUnification:
    """At p = 0, condition_report's kappa_n is the normwise condition number
    of unconstrained TLS: the weighted 2-norm of its Jacobian, normalized
    by ||[alpha A, beta b]||_F / ||x||."""

    def test_jacobian_predicts_a_perturbed_solve(self):
        problem = tls_problem()
        rng = np.random.default_rng(3)
        da = rng.standard_normal(problem.A.shape)
        db = rng.standard_normal(problem.q)
        jac = tls_jacobian(problem, Weights())
        x = solve_qr_svd(problem).x
        etas = []
        for scale in (1e-4, 1e-5, 1e-6):
            moved = dataclasses.replace(
                problem, A=problem.A + scale * da, b=problem.b + scale * db
            )
            dx = solve_qr_svd(moved).x - x
            predicted = jac @ np.concatenate([da.ravel(), db]) * scale
            etas.append(np.linalg.norm(dx - predicted) / np.linalg.norm(dx))
        assert etas[-1] < 1e-3
        for prev, nxt in zip(etas, etas[1:]):
            assert 5.0 <= prev / nxt <= 20.0

    @pytest.mark.parametrize("weights", WEIGHT_GRID)
    def test_kappa_n_is_the_tls_condition_number(self, weights, battery100):
        problems = [golden_problem(), tls_problem()]
        problems += [pr for pr in battery100 if pr.p == 0]
        assert len(problems) > 10
        for problem in problems:
            x = solve_qr_svd(problem).x
            flex = math.hypot(
                weights.alpha * np.linalg.norm(problem.A),
                weights.beta * np.linalg.norm(problem.b),
            )
            expected = np.linalg.norm(tls_jacobian(problem, weights), 2) * flex
            expected /= np.linalg.norm(x)
            kappa_n = condition_report(problem, weights=weights, method="upper").kappa_n
            assert kappa_n == pytest.approx(expected, rel=1e-10)


class TestConditionReport:
    def test_exact_and_compact_agree(self):
        # "compact" is another name for the one exact path
        problem = seeded_problem(8)
        exact = condition_report(problem, method="exact")
        compact = condition_report(problem, method="compact")
        assert exact == compact
        assert exact.method == "exact"

    def test_upper_mode_avoids_materialization(self):
        problem = seeded_problem(8)
        report = condition_report(problem, method="upper")
        exact = condition_report(problem, method="exact")
        assert report.method == "bound"
        assert report.kappa_n == exact.kappa_n
        assert report.kappa_m == report.kappa_m_upper
        assert report.kappa_c == report.kappa_c_upper
        assert report.kappa_c_finite <= report.kappa_c

    def test_exact_mode_past_the_old_kronecker_size(self):
        # m^2 (n+1) = 410^2 * 31 = 5.2e6 entries: the materialized K would
        # not fit under a 4e6-entry cap, the structured formulas need none
        rng = np.random.default_rng(13)
        p, q, n = 10, 400, 30
        problem = TlseProblem(
            C=rng.standard_normal((p, n)),
            d=rng.standard_normal(p),
            A=rng.standard_normal((q, n)),
            b=rng.standard_normal(q),
        )
        assert problem.m**2 * (problem.n + 1) > 4_000_000
        solution = solve_qr_svd(problem)
        exact = condition_report(problem, solution=solution, method="exact")
        upper = condition_report(problem, solution=solution, method="upper")
        assert exact.method == "exact"
        assert exact.kappa_n == pytest.approx(upper.kappa_n, rel=1e-12)
        assert exact.kappa_n <= exact.kappa_n_upper * (1 + 1e-12)
        assert exact.kappa_n_upper <= exact.kappa_n_upper_loose * (1 + 1e-12)
        assert exact.kappa_m <= exact.kappa_m_upper * (1 + 1e-12)
        assert exact.kappa_c <= exact.kappa_c_upper * (1 + 1e-12)
        assert exact.kappa_c_finite <= exact.kappa_c

    def test_report_orderings(self):
        problem = seeded_problem(8)
        report = condition_report(problem)
        assert report.kappa_n <= report.kappa_n_upper * (1 + 1e-12)
        assert report.kappa_n_upper <= report.kappa_n_upper_loose * (1 + 1e-12)
        assert report.kappa_m <= report.kappa_m_upper * (1 + 1e-12)
        assert report.kappa_c <= report.kappa_c_upper * (1 + 1e-12)
        assert report.kappa_m <= report.kappa_c

    def test_rejects_unknown_method(self):
        with pytest.raises(InputError):
            condition_report(seeded_problem(8), method="fast")

    def test_accepts_precomputed_solution(self):
        problem = seeded_problem(8)
        solution = solve_qr_svd(problem)
        report = condition_report(problem, solution=solution)
        assert report.weights == Weights()
        assert report.kappa_n > 0
