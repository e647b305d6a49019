"""Weighted embedding, its direct solver, limit diagnostics, randomized solve."""
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import tlsekit.wtls
from conftest import extreme_problem
from mp_oracle import shifted_inverse
from nystrom_oracle import nystrom_per_slab, nystrom_svd
from qr_oracle import one_shot_r, stack_of
from tlsekit import (
    GeneratorSpec,
    NwtlsConfig,
    TlseProblem,
    apply_sample,
    check_eps_bound,
    condition_report,
    embed,
    gen_householder_spectrum,
    perturb,
    solve_nwtls,
    solve_qr_svd,
    solve_wtls_direct,
    wtls_limit_diagnostics,
)
from tlsekit.bench import derive_seed
from tlsekit.core import (
    LAST_COMPONENT_TOL,
    _x_from_direction,
    build_basis,
    check_genericity,
)
from tlsekit.errors import IllPosedError, InputError, NumericalError
from tlsekit.linalg import r_factor, spectral_norm, svd
from tlsekit.wtls import _nystrom, _resolvent

PHI = (1 + math.sqrt(5)) / 2

#: Unit roundoff of float64.
U = np.finfo(float).eps / 2

#: The constant c of the bound ||x_eps - x_oracle|| <= c u (kappa_n + 1/eps)
#: ||x_oracle|| on the weighted solve of the limit diagnostics.
C_LIMIT = 100

#: The constant c of the bound ||R - R_ref|| <= c u kappa_2(C) ||A||_2
#: max(s/shifts) ||R_ref|| on the weighted resolvent (assert_resolvent_bound).
C_RESOLVENT = 6


def seeded_problem(seed: int, p: int = 3, n: int = 8, q: int = 15) -> TlseProblem:
    rng = np.random.default_rng(seed)
    return TlseProblem(
        C=rng.standard_normal((p, n)),
        d=rng.standard_normal(p),
        A=rng.standard_normal((q, n)),
        b=rng.standard_normal(q),
    )


def golden_problem():
    return TlseProblem(
        C=np.zeros((0, 1)),
        d=np.zeros(0),
        A=np.array([[1.0], [0.0]]),
        b=np.array([1.0, 1.0]),
    )


def gaussian(seed, p, q, n, scaled, decades=3):
    """Gaussian problem; scaled multiplies the columns by 10^U(-decades,
    decades)."""
    rng = np.random.default_rng([seed, p, q, n])
    scale = 10.0 ** rng.uniform(-decades, decades, n) if scaled else np.ones(n)
    return TlseProblem(
        C=rng.standard_normal((p, n)) * scale,
        d=rng.standard_normal(p),
        A=rng.standard_normal((q, n)) * scale,
        b=rng.standard_normal(q),
    )


def assert_resolvent_bound(problem, eps):
    """||R - R_ref|| <= c u kappa_2(C) ||A||_2 max(s/shifts) ||R_ref||, with
    c = C_RESOLVENT, R the weighted resolvent at sigma_eps and R_ref its
    60-digit value built from the same sigma_eps.

    Why: R is computed from R_A N = U diag(s) V.T, with R_A the R
    factor of [A b] and N the null basis of the constraint QR. The backward
    errors of those three factorizations move R_A N by E with ||E|| of order
    u (||A||_2 + s_1 + kappa_2(C) ||A q1||_2) <= 3 u kappa_2(C) ||A||_2: the
    QR of C.T turns ker(C) by an angle of order u kappa_2(C), and R_A maps
    that turn through q1. To first order the null block (R_A N).T R_A N -
    sigma_eps^2 I, whose inverse V diag(1/shifts) V.T dominates R, then moves
    its inverse by at most 2 ||E|| max(s/shifts) / min(shifts) =
    2 ||E|| max(s/shifts) ||R_ref||, shifts = s^2 - sigma_eps^2; the p x p
    constraint block enters R scaled by eps^2. That gives c = 2 * 3, up to
    the factorizations' own modest constants; kappa_2(C) is 1 for p = 0.
    On the batteries below the ratio to c = 1 was at most 0.61.
    """
    sol = solve_qr_svd(problem)
    sigma = solve_wtls_direct(embed(problem, eps))[1]
    resolvent = _resolvent(sol.core, sol.basis, sigma, eps)[0]
    ref = shifted_inverse(problem, sigma, eps)
    s = sol.core.restricted.s
    kappa_c = np.linalg.cond(problem.C) if problem.p else 1.0
    amplification = np.max(s / ((s - sigma) * (s + sigma)))
    bound = C_RESOLVENT * U * kappa_c * np.linalg.norm(problem.A, 2)
    bound *= amplification
    assert np.linalg.norm(resolvent - ref, 2) <= bound * np.linalg.norm(ref, 2)


def weighted_stack(problem, eps):
    """The explicit m x (n+1) stack [[C d]/eps; [A b]]."""
    return stack_of(problem.A, problem.b, head=problem.aug_constraint() / eps)


def assert_gram_of(r, stack):
    """r.T @ r equals the Gram matrix of stack at 1e-13 relative."""
    gram = stack.T @ stack
    assert np.linalg.norm(r.T @ r - gram) <= 1e-13 * np.linalg.norm(gram)


#: Relative distance allowed between the kernel's x and the stacked-SVD
#: oracle's: the two differ only in how the dominant direction of K is
#: read, an eigenpair of K.T K against a full SVD of K.
ORACLE_RTOL = 1e-12


def seed_draws(seeds, n, width):
    """One (n+1, width) Gaussian slab per seed, as solve_nwtls draws it."""
    return np.stack(
        [np.random.default_rng(s).standard_normal((n + 1, width)) for s in seeds]
    )


def assert_matches_oracle(problem, cfg, seeds=None, draws=None):
    """_nystrom on embed's R is within ORACLE_RTOL of nystrom_svd on the
    same draws (one slab per seed unless draws are given), and equal bit
    for bit to nystrom_per_slab."""
    r = embed(problem, cfg.eps).r
    if draws is None:
        draws = seed_draws(seeds, problem.n, cfg.resolve(problem.n, problem.p))
    xs = _nystrom(r, draws)
    for x, ref in zip(xs, nystrom_svd(r, draws)):
        assert np.linalg.norm(x - ref) <= ORACLE_RTOL * np.linalg.norm(ref)
    for x, ref in zip(xs, nystrom_per_slab(r, draws), strict=True):
        np.testing.assert_array_equal(x, ref)


def degenerate_problem():
    return TlseProblem(
        C=np.zeros((0, 1)),
        d=np.zeros(0),
        A=np.array([[1.0], [0.0]]),
        b=np.array([0.0, 1.0]),
    )


def twelve_decade_problem():
    """(p, q, n) = (3, 40, 10) with columns scaled from 1e-6 to 1e6."""
    rng = np.random.default_rng(0)
    p, q, n = 3, 40, 10
    scales = 10.0 ** np.linspace(-6, 6, n)
    return TlseProblem(
        C=rng.standard_normal((p, n)) * scales,
        d=rng.standard_normal(p),
        A=rng.standard_normal((q, n)) * scales,
        b=rng.standard_normal(q),
    )


def genericity_battery():
    """Seeded problems for the weighted genericity test, five kinds in
    turn: plain, columns scaled by 10^U(-6, 6), one column zero in C and
    A (always degenerate), consistent data (sigma_min of the stack near
    0), and one column zero in A alone."""
    problems = [twelve_decade_problem(), degenerate_problem()]
    for seed in range(300):
        rng = np.random.default_rng([seed, 28])
        p, kind = seed % 6, seed // 6 % 5
        n = int(rng.integers(p + 1, p + 8))
        q = int(rng.integers(n - p + 1, n + 12))
        scale = 10.0 ** rng.uniform(-6, 6, n) if kind == 1 else np.ones(n)
        c = rng.standard_normal((p, n)) * scale
        a = rng.standard_normal((q, n)) * scale
        d, b = rng.standard_normal(p), rng.standard_normal(q)
        if kind in (2, 4):
            j = int(rng.integers(n))
            a[:, j] = 0.0
            if kind == 2:
                c[:, j] = 0.0
        if kind == 3:
            x0 = rng.standard_normal(n)
            d, b = c @ x0, a @ x0
        problems.append(TlseProblem(C=c, d=d, A=a, b=b))
    return problems


class TestEmbedding:
    """embed holds the weighted stack as its R factor only."""

    def test_unit_eps_reproduces_stack(self):
        problem = seeded_problem(0)
        emb = embed(problem, 1.0)
        assert emb.eps == 1.0
        assert emb.r.shape == (problem.n + 1, problem.n + 1)
        assert_gram_of(emb.r, np.column_stack([problem.L, problem.h]))

    def test_constraint_rows_are_scaled(self):
        problem = TlseProblem(C=[[1.0, 0.0]], d=[2.0], A=np.eye(2), b=[2.0, 3.0])
        emb = embed(problem, 1e-4)
        stack = np.array([[1e4, 0.0, 2e4], [1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
        assert_gram_of(emb.r, stack)

    def test_unconstrained_embedding_factors_data(self):
        # with p = 0 eps scales nothing: the R of [A b] itself
        problem = seeded_problem(3, p=0, n=6, q=20)
        emb = embed(problem, 1e-6)
        np.testing.assert_array_equal(emb.r, r_factor(problem.A, problem.b))
        assert_gram_of(emb.r, stack_of(problem.A, problem.b))

    @pytest.mark.parametrize(
        "shape, scaled, eps",
        [
            ((3, 15, 8), False, 1e-2),
            ((5, 2000, 40), False, 1e-6),
            ((5, 2000, 40), True, 1e-6),
            ((0, 2000, 40), True, 1e-6),
            ((4, 8, 10), True, 1e-8),  # q < n + 1
        ],
    )
    def test_gram_matches_explicit_stack(self, shape, scaled, eps):
        problem = gaussian(0, *shape, scaled)
        emb = embed(problem, eps)
        assert emb.r.shape == (min(problem.m, problem.n + 1), problem.n + 1)
        assert_gram_of(emb.r, weighted_stack(problem, eps))

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(InputError):
            embed(seeded_problem(1), eps)


class TestEpsBound:
    def test_small_eps_is_admissible(self):
        problem = seeded_problem(7)
        core = check_genericity(build_basis(problem))
        bound = check_eps_bound(problem, 1e-4, core)
        assert bound.ok
        assert bound.lhs > 0
        assert bound.margin == pytest.approx(bound.gap - bound.lhs)

    def test_large_eps_fails(self):
        problem = seeded_problem(7)
        core = check_genericity(build_basis(problem))
        # lhs grows as eps^2 and crosses the gap near eps ~ 0.2 here
        assert not check_eps_bound(problem, 0.3, core).ok

    def test_zero_gap_never_admissible(self):
        problem = degenerate_problem()
        core = check_genericity(build_basis(problem))
        assert core.gap == pytest.approx(0.0, abs=1e-14)
        assert not check_eps_bound(problem, 1e-10, core).ok

    def test_unconstrained_lhs_vanishes(self):
        problem = golden_problem()
        core = check_genericity(build_basis(problem))
        bound = check_eps_bound(problem, 0.5, core)
        assert bound.lhs == 0.0
        assert bound.ok

    def test_overflowing_lhs_is_not_admissible(self):
        # [C d] scaled by 1e-160: ||pinv([C d])||^2 overflows
        base = extreme_problem()
        problem = TlseProblem(C=base.C * 1e-160, d=base.d * 1e-160, A=base.A, b=base.b)
        core = check_genericity(build_basis(problem))
        for eps in (1e-8, 1e-170):
            bound = check_eps_bound(problem, eps, core)
            assert not bound.ok
            assert bound.lhs == np.inf and bound.margin == -np.inf
            assert bound.gap == core.gap

    def test_rejects_bad_eps(self):
        problem = golden_problem()
        core = check_genericity(build_basis(problem))
        for eps in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InputError, match="eps must be positive"):
                check_eps_bound(problem, eps, core)

    def test_core_of_a_perturbed_copy_is_rejected(self):
        # the copy's core has gap 3.16 where the problem's own has 0.98:
        # unchecked, it would admit eps on the wrong gap
        problem = extreme_problem()
        copy = apply_sample(problem, perturb(problem, "normwise", 0.5, seed=1))
        core = check_genericity(build_basis(copy))
        with pytest.raises(InputError, match="not computed from this problem"):
            check_eps_bound(problem, 1e-8, core)
        own = check_genericity(build_basis(problem))
        assert check_eps_bound(problem, 1e-8, own).gap == own.gap
        # the copy's basis yields the copy's core, which is rejected above
        assert core.problem is copy

    @pytest.mark.parametrize(
        "p, scaled", [(20, False), (20, True), (0, False)], ids=["plain", "scaled", "p0"]
    )
    def test_data_norm_from_r_factor(self, p, scaled):
        # ||[A b]||_2 from the solve's R factor matches the SVD of [A b] itself
        n = 100
        problem = seeded_problem(11, p=p, n=n, q=2000)
        if scaled:
            cols = 10.0 ** np.random.default_rng(12).uniform(-3, 3, n)
            problem = TlseProblem(
                C=problem.C * cols, d=problem.d, A=problem.A * cols, b=problem.b
            )
        core = check_genericity(build_basis(problem))
        aug_data = stack_of(problem.A, problem.b)
        data_norm = np.linalg.svd(aug_data, compute_uv=False)[0]
        assert spectral_norm(core.data_r) == pytest.approx(data_norm, rel=1e-13)
        eps = 1e-6
        bound = check_eps_bound(problem, eps, core)
        if p:
            aug_c = problem.aug_constraint()
            pinv_norm = 1.0 / np.linalg.svd(aug_c, compute_uv=False)[-1]
            lhs = 2.0 * eps**2 * pinv_norm**2 * data_norm**2
            assert bound.lhs == pytest.approx(lhs, rel=1e-13)
        else:
            assert bound.lhs == 0.0


class TestDirectSolver:
    def test_golden_ratio(self):
        x, sigma = solve_wtls_direct(embed(golden_problem(), 0.5))
        assert x[0] == pytest.approx(PHI, abs=1e-13)
        assert sigma == pytest.approx(1 / PHI, abs=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_constrained_solver(self, seed):
        problem = seeded_problem(seed)
        x_ref = solve_qr_svd(problem).x
        x_w, _ = solve_wtls_direct(embed(problem, 1e-8))
        assert np.linalg.norm(x_w - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    def test_degenerate_stack_raises(self):
        with pytest.raises(IllPosedError):
            solve_wtls_direct(embed(degenerate_problem(), 1e-3))

    def test_simple_sigma_with_a_zero_last_component_raises(self):
        # [A b] = diag(1, 2): sigma_min = 1 is simple, but its right vector
        # [1, 0] has no last component, and sigma_min(A) = 1 ties it
        problem = TlseProblem(
            C=np.zeros((0, 1)), d=np.zeros(0), A=[[1.0], [0.0]], b=[0.0, 2.0]
        )
        emb = embed(problem, 0.5)
        sv = np.linalg.svd(emb.r, compute_uv=False)
        assert sv[0] > sv[1]
        with pytest.raises(IllPosedError):
            solve_wtls_direct(emb)

    def test_raises_where_the_coefficient_block_does_not_separate(self):
        # the criterion read off the one SVD against the two-SVD test on its
        # definition, sigma_min(r[:, :n]) > sigma_min(r), followed by the
        # normalizing-component check. Where both sides of that test are
        # rounding noise (a column zero in C and A), the noise may pass it,
        # and the component check rejects the stack.
        seen = {"generic": 0, "no separation": 0, "no component": 0}
        for problem in genericity_battery():
            for eps in 10.0 ** -np.arange(0, 11, 2):
                r = embed(problem, eps).r
                coef = np.linalg.svd(r[:, :-1], compute_uv=False)[-1]
                _, sv, vt = np.linalg.svd(r, full_matrices=False)
                if not coef > sv[-1]:
                    verdict = "no separation"
                elif abs(vt[-1, -1]) < LAST_COMPONENT_TOL:
                    verdict = "no component"
                else:
                    verdict = "generic"
                seen[verdict] += 1
                if verdict == "generic":
                    solve_wtls_direct(embed(problem, eps))
                else:
                    with pytest.raises(IllPosedError):
                        solve_wtls_direct(embed(problem, eps))
        assert seen["generic"] >= 1000, seen
        assert seen["no separation"] + seen["no component"] >= 300, seen

    @pytest.mark.parametrize("problem", [seeded_problem(0), twelve_decade_problem()])
    def test_one_svd_per_solve(self, problem, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m.shape)
            return svd(m)

        emb = embed(problem, 1e-6)
        res = svd(emb.r)
        monkeypatch.setattr(tlsekit.wtls, "svd", counted)
        x, sigma = solve_wtls_direct(emb)
        assert calls == [emb.r.shape]
        np.testing.assert_array_equal(x, _x_from_direction(res.v[:, -1]))
        assert sigma == float(res.s[-1])


class TestLimitDiagnostics:
    def test_errors_decrease_quadratically(self):
        grid = [1e-2, 1e-3, 1e-4]
        rows = wtls_limit_diagnostics(seeded_problem(7), grid)
        cols = np.array(
            [[r.x_err, r.sigma_err, r.resolvent_err, r.gain_err] for r in rows]
        )
        assert np.all(cols[1:] < cols[:-1])
        slope = np.polyfit(np.log10(grid), np.log10(cols[:, 0]), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_reuses_a_given_solution(self, monkeypatch):
        problem, grid = seeded_problem(7), [1e-2, 1e-3, 1e-4]
        fresh = wtls_limit_diagnostics(problem, grid)
        solution = solve_qr_svd(problem)

        def no_solve(_):
            raise AssertionError("the given solution was not reused")

        monkeypatch.setattr(tlsekit.wtls, "solve_qr_svd", no_solve)
        reused = wtls_limit_diagnostics(problem, grid, solution=solution)
        # dataclass equality compares every float exactly
        assert reused == fresh

    def test_unconstrained_limit_is_exact(self):
        rows = wtls_limit_diagnostics(golden_problem(), [1e-2, 1e-3])
        for row in rows:
            assert row.x_err <= 1e-10
            assert row.sigma_err <= 1e-10
            assert row.resolvent_err <= 1e-10
            assert row.gain_err <= 1e-10

    def test_twelve_decade_columns_meet_the_bound(self):
        # columns over twelve decades: a Gram matrix of the data would have
        # rcond near 1e-18, and the constraint basis turns by u kappa_2(C)
        problem = twelve_decade_problem()
        grid = [1e-2, 1e-5, 1e-8]
        wtls_limit_diagnostics(problem, grid)
        for eps in grid:
            assert_resolvent_bound(problem, eps)

    @pytest.mark.parametrize("eps", [1e-2, 1e-6])
    @pytest.mark.parametrize("p, q", [(0, 16), (3, 20)])
    def test_column_scaled_resolvent_meets_the_bound(self, p, q, eps):
        for seed in range(8):
            assert_resolvent_bound(gaussian(seed, p, q, 12, True, decades=4), eps)

    def test_column_scaled_unconstrained_problems_run(self):
        # columns scaled by 10^U(-4, 4) put cond(A) near 1e8, so a Gram
        # matrix of the data would be numerically singular
        for seed in range(40):
            problem = gaussian(seed, 0, 16, 12, True, decades=4)
            assert len(wtls_limit_diagnostics(problem, [1e-2, 1e-4, 1e-6])) == 3

    @pytest.mark.parametrize(
        "shape",
        [(3, 15, 8), (5, 40, 20), (5, 120, 30), (0, 60, 12), (2, 400, 30),
         (20, 3000, 100)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
    def test_weighted_solve_on_r_matches_explicit_stack(
        self, shape, scaled, monkeypatch
    ):
        # each grid point factors [[C d]/eps; R] in place of the q-row stack;
        # its x_eps is held to the SVD of the explicit stack. A plain 1e-12
        # relative bound fails near eps = 1e-8 on (20, 3000, 100) problems,
        # for the embed route too, because the weighting itself amplifies
        # roundoff by about 1/eps.
        grid = [1e-2, 1e-4, 1e-6, 1e-8]
        for seed in range(3):
            problem = gaussian(seed, *shape, scaled)
            kappa_n = condition_report(problem, method="upper").kappa_n
            seen = []

            def spy(emb):
                x, sigma = solve_wtls_direct(emb)
                seen.append(x)
                return x, sigma

            monkeypatch.setattr(tlsekit.wtls, "solve_wtls_direct", spy)
            wtls_limit_diagnostics(problem, grid)
            assert len(seen) == len(grid)
            for eps, x_eps in zip(grid, seen):
                stack = weighted_stack(problem, eps)
                _, _, vt = np.linalg.svd(stack, full_matrices=False)
                x_ref = vt[-1, :-1] / -vt[-1, -1]
                tol = C_LIMIT * U * (kappa_n + 1 / eps) * np.linalg.norm(x_ref)
                assert np.linalg.norm(x_eps - x_ref) <= tol

    def test_peak_memory_stays_below_one_data_copy(self):
        # the q x (n+1) copy of [A b] alone is 3000 * 101 * 8 B = 2.42 MB;
        # each route reads the data rows through r_factor only
        problem = seeded_problem(2, p=20, n=100, q=3000)
        routes = [
            lambda: wtls_limit_diagnostics(problem, [1e-2, 1e-4, 1e-6]),
            lambda: solve_wtls_direct(embed(problem, 1e-8)),
        ]
        for route in routes:
            route()
            tracemalloc.start()
            try:
                route()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.42e6

    def test_grid_validation(self):
        problem = seeded_problem(2)
        with pytest.raises(InputError):
            wtls_limit_diagnostics(problem, [])
        with pytest.raises(InputError):
            wtls_limit_diagnostics(problem, [1e-3, 1e-2])
        # a grid in valid order whose only fault is its last point
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(InputError):
                wtls_limit_diagnostics(problem, [1e-2, bad])
        # [1e-2, inf] fails the ordering check, so inf goes first
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InputError):
                wtls_limit_diagnostics(problem, [bad, 1e-2])


class TestSpectrumSplit:
    def test_weighted_spectrum_splits_into_constraint_and_core(self):
        # the p largest singular values of the weighted stack approach
        # those of [C d]/eps; the rest approach the core spectrum, taken
        # whole from a direct SVD of the core matrix R @ aug_null_basis
        problem = seeded_problem(7)
        basis = build_basis(problem)
        core = check_genericity(basis)
        core_sv = np.linalg.svd(core.data_r @ basis.aug_null_basis, compute_uv=False)
        emb = embed(problem, 1e-6)
        s_all = np.linalg.svd(emb.r, compute_uv=False)
        constraint_part = np.linalg.svd(
            problem.aug_constraint(), compute_uv=False
        )
        np.testing.assert_allclose(
            s_all[: problem.p] * 1e-6, constraint_part, rtol=1e-8
        )
        np.testing.assert_allclose(s_all[problem.p :], core_sv, rtol=1e-8)


class TestNwtlsConfig:
    def test_defaults_clamp_to_problem_size(self):
        assert NwtlsConfig().resolve(8, 3) == 9
        assert NwtlsConfig().resolve(4, 0) == 5
        assert NwtlsConfig().resolve(30, 10) == 26
        assert NwtlsConfig(oversample=50).resolve(8, 3) == 9
        assert NwtlsConfig(oversample=1).resolve(8, 3) == 7

    def test_explicit_values_validated_strictly(self):
        assert NwtlsConfig(sample_size=2).resolve(8, 3) == 2
        assert NwtlsConfig(sample_size=9, oversample=0).resolve(8, 3) == 9
        for width in (1, 10, 20):
            with pytest.raises(InputError):
                NwtlsConfig(sample_size=width).resolve(8, 3)
        for oversample in (0, -10):
            with pytest.raises(InputError):
                NwtlsConfig(oversample=oversample).resolve(8, 3)

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError, match="seed must be non-negative"):
            NwtlsConfig(seed=-1)

    @pytest.mark.parametrize("value", [2.5, 5.0, True, "5", None])
    def test_rejects_a_non_integer_oversample(self, value):
        with pytest.raises(InputError, match="oversample must be an integer"):
            NwtlsConfig(oversample=value)

    @pytest.mark.parametrize("value", [4.0, 2.5, False, "4"])
    def test_rejects_a_non_integer_sample_size(self, value):
        with pytest.raises(InputError, match="sample_size must be an integer"):
            NwtlsConfig(sample_size=value)

    @pytest.mark.parametrize("value", [1.5, 3.0, True, "3", None])
    def test_rejects_a_non_integer_seed(self, value):
        with pytest.raises(InputError, match="seed must be an integer"):
            NwtlsConfig(seed=value)

    def test_numpy_integers_are_integers(self):
        cfg = NwtlsConfig(
            oversample=np.int32(2), sample_size=np.int64(4), seed=np.uint64(9)
        )
        assert cfg.resolve(8, 3) == 4
        np.testing.assert_array_equal(
            solve_nwtls(seeded_problem(7), cfg),
            solve_nwtls(seeded_problem(7), NwtlsConfig(sample_size=4, seed=9)),
        )


class TestNwtlsSolver:
    def test_deterministic_under_seed(self):
        problem = seeded_problem(7)
        cfg = NwtlsConfig(seed=5)
        np.testing.assert_array_equal(
            solve_nwtls(problem, cfg), solve_nwtls(problem, cfg)
        )

    def test_default_config_matches_reference(self):
        # the default sample size reaches the full operator width here,
        # making the sketch exact up to roundoff
        problem = seeded_problem(7)
        x_ref = solve_qr_svd(problem).x
        x = solve_nwtls(problem, NwtlsConfig(seed=5))
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    def test_oversampling_improves_the_median(self):
        problem = seeded_problem(7)
        x_ref = solve_qr_svd(problem).x
        ref_norm = np.linalg.norm(x_ref)
        medians = []
        for oversample in (1, 3, 5):
            devs = [
                np.linalg.norm(
                    solve_nwtls(
                        problem,
                        NwtlsConfig(sample_size=3 + oversample, seed=seed),
                    )
                    - x_ref
                )
                / ref_norm
                for seed in range(15)
            ]
            medians.append(float(np.median(devs)))
        # nonincreasing up to a small multiplicative floor at roundoff level
        for prev, nxt in zip(medians, medians[1:]):
            assert nxt <= prev * 1.1 + 1e-12

    def test_rejects_bad_eps(self):
        with pytest.raises(InputError):
            solve_nwtls(seeded_problem(0), NwtlsConfig(eps=0.0))

    def test_consistent_stack_raises(self):
        # consistent data makes the stacked matrix exactly rank deficient
        problem = TlseProblem(
            C=[[1.0, 0.0]], d=[2.0], A=np.eye(2), b=[2.0, 3.0]
        )
        with pytest.raises(NumericalError):
            solve_nwtls(problem)

    def test_zero_column_raises(self):
        problem = TlseProblem(
            C=np.zeros((0, 2)),
            d=np.zeros(0),
            A=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
            b=np.zeros(3),
        )
        with pytest.raises(NumericalError):
            solve_nwtls(problem)


def _old_nwtls(problem, cfg, monkeypatch):
    """solve_nwtls on the explicit weighted stack, factored in one shot."""
    stack = weighted_stack(problem, cfg.eps)
    with monkeypatch.context() as patch:
        patch.setattr(tlsekit.wtls, "r_factor", lambda *_, head: one_shot_r(stack))
        return solve_nwtls(problem, cfg)


class TestNwtlsStreamed:
    """solve_nwtls factors [[C d]/eps; [A b]] without forming the stack."""

    @pytest.mark.parametrize(
        "shape, scaled, eps",
        [
            ((20, 3000, 100), False, 1e-8),
            ((20, 3000, 100), True, 1e-8),
            ((5, 120, 30), True, 1e-8),
            ((5, 120, 30), False, 1e-4),
            ((4, 8, 10), False, 1e-8),  # q < n + 1
            ((0, 700, 40), True, 1e-8),
        ],
    )
    def test_matches_the_embedded_one_shot_route(
        self, shape, scaled, eps, monkeypatch
    ):
        p, q, n = shape
        rng = np.random.default_rng(q + n)
        scale = 10.0 ** rng.uniform(-3, 3, n) if scaled else np.ones(n)
        problem = TlseProblem(
            C=rng.standard_normal((p, n)) * scale,
            d=rng.standard_normal(p),
            A=rng.standard_normal((q, n)) * scale,
            b=rng.standard_normal(q),
        )
        cfg = NwtlsConfig(eps=eps, seed=3)
        x = solve_nwtls(problem, cfg)
        ref = _old_nwtls(problem, cfg, monkeypatch)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert_matches_oracle(problem, cfg, [3, 11])

    @pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan"), float("inf")])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(InputError, match="eps must be positive"):
            solve_nwtls(seeded_problem(1), NwtlsConfig(eps=eps))

    def test_peak_memory_stays_below_one_data_copy(self):
        # the q x (n+1) copy of [A b] alone is 3000 * 101 * 8 B = 2.42 MB
        problem = seeded_problem(2, p=20, n=100, q=3000)
        solve_nwtls(problem)
        tracemalloc.start()
        try:
            solve_nwtls(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6


class TestNystromBatch:
    """The batch kernel behind table2 against its slabs one at a time, the
    per-slab loop of nystrom_oracle and one solve_nwtls per seed."""

    SEEDS = [0, 7, 7, 123, 2**40]
    ROW_SEED = derive_seed(0, 1, 2, 2)

    @pytest.mark.parametrize(
        "shape, sample_size",
        [
            ((3, 15, 8), None),
            ((3, 15, 8), 2),
            ((3, 15, 8), 5),
            ((3, 15, 8), 9),
            ((0, 12, 6), None),
            ((5, 3000, 30), None),  # streamed R, Fortran-ordered
        ],
    )
    def test_each_x_is_its_single_seed_solve(self, shape, sample_size):
        p, q, n = shape
        problem = seeded_problem(q + n, p=p, n=n, q=q)
        cfg = NwtlsConfig(sample_size=sample_size)
        width = cfg.resolve(problem.n, problem.p)
        xs = _nystrom(embed(problem, cfg.eps).r, seed_draws(self.SEEDS, n, width))
        assert len(xs) == len(self.SEEDS)
        for seed, x in zip(self.SEEDS, xs):
            np.testing.assert_array_equal(
                x, solve_nwtls(problem, replace(cfg, seed=seed))
            )

    @pytest.mark.parametrize(
        "shape, sample_size",
        [
            ((3, 15, 8), None),
            ((3, 15, 8), 2),
            ((0, 12, 6), None),
            ((5, 3000, 30), None),  # streamed R, Fortran-ordered
        ],
    )
    def test_each_trial_is_its_slab_alone(self, shape, sample_size):
        # table2's row stream: trial s reads slab s, and slab 0 is the draw
        # of solve_nwtls with the row's seed
        p, q, n = shape
        problem = seeded_problem(q + n, p=p, n=n, q=q)
        cfg = NwtlsConfig(sample_size=sample_size, seed=self.ROW_SEED)
        width = cfg.resolve(problem.n, problem.p)
        stream = np.random.default_rng(self.ROW_SEED)
        draws = stream.standard_normal((7, n + 1, width))
        r = embed(problem, cfg.eps).r
        xs = _nystrom(r, draws)
        assert len(xs) == len(draws)
        for s, (x, ref) in enumerate(zip(xs, nystrom_per_slab(r, draws))):
            np.testing.assert_array_equal(x, _nystrom(r, draws[s : s + 1])[0])
            np.testing.assert_array_equal(x, ref)
        np.testing.assert_array_equal(xs[0], solve_nwtls(problem, cfg))

    @pytest.mark.parametrize(
        "problem",
        [
            # consistent data: the stack is exactly rank deficient
            TlseProblem(C=[[1.0, 0.0]], d=[2.0], A=np.eye(2), b=[2.0, 3.0]),
            TlseProblem(
                C=np.zeros((0, 2)),
                d=np.zeros(0),
                A=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
                b=np.zeros(3),
            ),
        ],
    )
    def test_rank_deficient_r_raises_for_a_batch(self, problem):
        r = embed(problem, 1e-8).r
        with pytest.raises(NumericalError):
            _nystrom(r, seed_draws([0], problem.n, 3))
        with pytest.raises(NumericalError):
            _nystrom(r, seed_draws(self.SEEDS, problem.n, 3))


class TestNystromOracle:
    """The eigenpair kernel against the stacked-SVD oracle, within
    ORACLE_RTOL, for several seeds at once."""

    SEEDS = [0, 5, 2**40]

    def test_battery(self, battery100):
        for problem in battery100:
            assert_matches_oracle(problem, NwtlsConfig(), self.SEEDS)

    def test_constrained(self, constrained20):
        for problem in constrained20:
            assert_matches_oracle(problem, NwtlsConfig(eps=1e-4), self.SEEDS)
            assert_matches_oracle(problem, NwtlsConfig(sample_size=3), self.SEEDS)

    @pytest.mark.parametrize("decades", [3, 4])
    @pytest.mark.parametrize(
        "shape", [(3, 15, 8), (5, 120, 30), (0, 40, 10), (4, 8, 10)]
    )
    def test_column_scaled(self, shape, decades):
        p, q, n = shape
        for seed in range(3):
            problem = gaussian(seed, p, q, n, scaled=True, decades=decades)
            assert_matches_oracle(problem, NwtlsConfig(), self.SEEDS)

    @pytest.mark.parametrize("mi, m", [(0, 50), (1, 100)])
    def test_table2_problems(self, mi, m):
        for di, delta in enumerate((1e-2, 1e-3, 1e-4)):
            problem = gen_householder_spectrum(
                GeneratorSpec(
                    kind="householder_spectrum",
                    m=m,
                    delta=delta,
                    seed=derive_seed(0, mi, di),
                )
            )
            width = NwtlsConfig().resolve(problem.n, problem.p)
            stream = np.random.default_rng(derive_seed(0, mi, di, 2))
            draws = stream.standard_normal((20, problem.n + 1, width))
            assert_matches_oracle(problem, NwtlsConfig(), draws=draws)


class TestNystromAtFloatExtremes:
    """The kernel scales an R outside 2^(+-GRAM_EXP) by a power of two, and
    a solve that leaves the float range is a NumericalError, with no
    RuntimeWarning either way."""

    @pytest.mark.parametrize("scale", [1e-160, 1e-155, 1e150, 1e155, 1e160])
    def test_scaled_problem_solves(self, scale):
        x = solve_nwtls(extreme_problem())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_scaled = solve_nwtls(extreme_problem(scale))
        assert np.linalg.norm(x_scaled - x) <= 1e-14 * np.linalg.norm(x)

    @pytest.mark.parametrize("exp", [-500, 500])
    @pytest.mark.parametrize("p", [0, 3])
    def test_scaling_by_a_power_of_two_is_exact(self, exp, p):
        problem = seeded_problem(7, p=p)
        r = embed(problem, 1e-8).r
        width = NwtlsConfig().resolve(problem.n, problem.p)
        draws = seed_draws([0, 1], problem.n, width)
        xs = _nystrom(r, draws)
        for x, x_scaled in zip(xs, _nystrom(np.ldexp(r, exp), draws)):
            np.testing.assert_array_equal(x_scaled, x)

    # 2.2e-155: the solves stay finite, but the compression Q.T G^-1 Q
    # overflows when symmetrized
    @pytest.mark.parametrize("scale", [1e-160, 2.2e-155, 1e160])
    def test_tiny_column_raises(self, scale):
        # one seed takes the kernel's 2-D path, a table2 batch its stack
        problem = extreme_problem(scale, column=3)
        r = embed(problem, NwtlsConfig.eps).r
        draws = seed_draws([0, 1, 2], problem.n, NwtlsConfig().resolve(problem.n, problem.p))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="leaves the float range"):
                solve_nwtls(problem)
            with pytest.raises(NumericalError, match="leaves the float range"):
                _nystrom(r, draws)


class TestOverflowingEps:
    """An eps so small that [C d]/eps overflows is an input error naming
    eps, raised before the weighted stack is factored and with no
    RuntimeWarning."""

    def raises(self, fn, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="eps 1e-320 is too small"):
                fn(*args)

    def test_embed(self):
        self.raises(embed, seeded_problem(1), 1e-320)

    def test_solve_nwtls(self):
        self.raises(solve_nwtls, seeded_problem(1), NwtlsConfig(eps=1e-320))

    def test_limit_diagnostics_grid(self):
        self.raises(wtls_limit_diagnostics, seeded_problem(7), [1e-2, 1e-320])

    def test_unconstrained_problem_has_nothing_to_scale(self):
        problem = seeded_problem(3, p=0, n=6, q=20)
        np.testing.assert_array_equal(
            embed(problem, 1e-320).r, r_factor(problem.A, problem.b)
        )
