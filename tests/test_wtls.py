"""Weighted embedding, its direct solver, limit diagnostics, randomized solve."""
import math
import tracemalloc

import numpy as np
import pytest

import tlsekit.wtls
from qr_oracle import one_shot_r
from tlsekit import (
    NwtlsConfig,
    TlseProblem,
    check_eps_bound,
    embed,
    solve_nwtls,
    solve_qr_svd,
    solve_wtls_direct,
    wtls_limit_diagnostics,
)
from tlsekit.core import build_basis, check_genericity
from tlsekit.errors import IllPosedError, InputError, NumericalError
from tlsekit.linalg import spectral_norm

PHI = (1 + math.sqrt(5)) / 2


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


def degenerate_problem():
    return TlseProblem(
        C=np.zeros((0, 1)),
        d=np.zeros(0),
        A=np.array([[1.0], [0.0]]),
        b=np.array([0.0, 1.0]),
    )


class TestEmbedding:
    def test_unit_eps_reproduces_stack(self):
        problem = seeded_problem(0)
        emb = embed(problem, 1.0)
        np.testing.assert_array_equal(emb.mat, problem.L)
        np.testing.assert_array_equal(emb.rhs, problem.h)
        np.testing.assert_array_equal(emb.aug[:, -1], problem.h)

    def test_constraint_rows_are_scaled(self):
        problem = TlseProblem(C=[[1.0, 0.0]], d=[2.0], A=np.eye(2), b=[2.0, 3.0])
        emb = embed(problem, 1e-4)
        np.testing.assert_allclose(emb.mat[0], [1e4, 0.0])
        assert emb.rhs[0] == pytest.approx(2e4)
        np.testing.assert_array_equal(emb.mat[1:], problem.A)

    def test_unconstrained_embedding_copies_data(self):
        problem = golden_problem()
        emb = embed(problem, 1e-6)
        np.testing.assert_array_equal(emb.mat, problem.A)
        np.testing.assert_array_equal(emb.rhs, problem.b)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(InputError):
            embed(seeded_problem(1), eps)


class TestEpsBound:
    def test_small_eps_is_admissible(self):
        problem = seeded_problem(7)
        core = check_genericity(build_basis(problem), problem)
        bound = check_eps_bound(problem, 1e-4, core)
        assert bound.ok
        assert bound.lhs > 0
        assert bound.margin == pytest.approx(bound.gap - bound.lhs)

    def test_large_eps_fails(self):
        problem = seeded_problem(7)
        core = check_genericity(build_basis(problem), problem)
        # lhs grows as eps^2 and crosses the gap near eps ~ 0.2 here
        assert not check_eps_bound(problem, 0.3, core).ok

    def test_zero_gap_never_admissible(self):
        problem = degenerate_problem()
        core = check_genericity(build_basis(problem), problem)
        assert core.gap == pytest.approx(0.0, abs=1e-14)
        assert not check_eps_bound(problem, 1e-10, core).ok

    def test_unconstrained_lhs_vanishes(self):
        problem = golden_problem()
        core = check_genericity(build_basis(problem), problem)
        bound = check_eps_bound(problem, 0.5, core)
        assert bound.lhs == 0.0
        assert bound.ok

    def test_rejects_bad_eps(self):
        problem = golden_problem()
        core = check_genericity(build_basis(problem), problem)
        with pytest.raises(InputError):
            check_eps_bound(problem, 0.0, core)

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
        core = check_genericity(build_basis(problem), problem)
        data_norm = np.linalg.svd(problem.aug_data(), compute_uv=False)[0]
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

    def test_unconstrained_limit_is_exact(self):
        rows = wtls_limit_diagnostics(golden_problem(), [1e-2, 1e-3])
        for row in rows:
            assert row.x_err <= 1e-10
            assert row.sigma_err <= 1e-10
            assert row.resolvent_err <= 1e-10
            assert row.gain_err <= 1e-10

    def test_numerically_singular_block_raises(self):
        # columns over twelve decades leave a resolvent block with rcond far
        # below eps; SciPy would only warn about it
        rng = np.random.default_rng(0)
        p, q, n = 3, 40, 10
        scales = 10.0 ** np.linspace(-6, 6, n)
        problem = TlseProblem(
            C=rng.standard_normal((p, n)) * scales,
            d=rng.standard_normal(p),
            A=rng.standard_normal((q, n)) * scales,
            b=rng.standard_normal(q),
        )
        with pytest.raises(IllPosedError, match="numerically singular.*rcond"):
            wtls_limit_diagnostics(problem, [1e-2, 1e-5, 1e-8])

    def test_grid_validation(self):
        problem = seeded_problem(2)
        with pytest.raises(InputError):
            wtls_limit_diagnostics(problem, [])
        with pytest.raises(InputError):
            wtls_limit_diagnostics(problem, [1e-3, 1e-2])
        with pytest.raises(InputError):
            wtls_limit_diagnostics(problem, [1e-2, 0.0])


class TestSpectrumSplit:
    def test_weighted_spectrum_splits_into_constraint_and_core(self):
        # the p largest singular values of the weighted stack approach
        # those of [C d]/eps; the rest approach the core spectrum
        problem = seeded_problem(7)
        core = check_genericity(build_basis(problem), problem)
        emb = embed(problem, 1e-6)
        s_all = np.linalg.svd(emb.aug, compute_uv=False)
        constraint_part = np.linalg.svd(
            problem.aug_constraint(), compute_uv=False
        )
        np.testing.assert_allclose(
            s_all[: problem.p] * 1e-6, constraint_part, rtol=1e-8
        )
        np.testing.assert_allclose(s_all[problem.p :], core.sigma, rtol=1e-8)


class TestNwtlsConfig:
    def test_defaults_clamp_to_problem_size(self):
        assert NwtlsConfig().resolve(8, 3) == (6, 9)
        assert NwtlsConfig().resolve(4, 0) == (4, 5)
        assert NwtlsConfig(oversample=50).resolve(8, 3) == (6, 9)

    def test_explicit_values_validated_strictly(self):
        with pytest.raises(InputError):
            NwtlsConfig(k=0).resolve(8, 3)
        with pytest.raises(InputError):
            NwtlsConfig(k=3, sample_size=3).resolve(8, 3)
        with pytest.raises(InputError):
            NwtlsConfig(sample_size=20).resolve(8, 3)
        with pytest.raises(InputError):
            NwtlsConfig(oversample=-10).resolve(8, 3)


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
                        NwtlsConfig(k=3, oversample=oversample, seed=seed),
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
    """solve_nwtls on the explicit embedding, factored in one shot."""
    emb = embed(problem, cfg.eps)
    with monkeypatch.context() as patch:
        patch.setattr(tlsekit.wtls, "r_factor", lambda *_, head: one_shot_r(emb.aug))
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
