"""Weighted-TLS relaxation of the constrained problem.

Scaling the constraint rows by 1/eps turns the constrained problem into an
ordinary TLS problem whose solution tends to the constrained one as
eps -> 0. This module provides the embedding, its direct SVD solution, an
admissibility bound on eps, convergence diagnostics against the constrained
solver, and the randomized Nystrom solver that sketches the inverse Gram
operator of the stacked matrix. Its kernel takes a batch of seeds on one R
factor, so table2 factors each problem once for all its trials, and runs
one stacked QR, Cholesky and SVD for all of them.

Every route works on R factors, never on the weighted stack itself. The
embedding is the R of [[C d]/eps; [A b]], factored with the heavy
constraint rows first (Cox & Higham 1998). wtls_limit_diagnostics factors
[[C d]/eps; R] instead, with R the solve's factor of [A b]: it has the
same Gram matrix, so each grid point costs O((p+n) n^2) whatever q is.

Numerical note: the textbook route through the normal equations
(L_eps.T L_eps - sigma^2 I)^{-1} L_eps.T h_eps squares the 1/eps weighting
and is useless in float64 below roughly eps = 1e-4. solve_wtls_direct
therefore normalizes the trailing right singular vector of the weighted R,
and wtls_limit_diagnostics evaluates the resolvent through block
elimination in the constraint QR basis, where every 1/eps^2 appears only
as a benign multiplicative factor. Both weighted routes read x off their
direction as solve_qr_svd does, with one tolerance
(core.LAST_COMPONENT_TOL), and p = 0 runs the same code as p > 0.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import TlseProblem, _x_from_direction, solve_qr_svd
from .errors import IllPosedError, InputError, NumericalError
from .linalg import r_factor, singular_values, solve_triangular, spectral_norm, svd


@dataclass(frozen=True)
class WeightedEmbedding:
    """The weighted stack [[C d]/eps; [A b]], held as its R factor.

    r is the min(m, n+1) x (n+1) upper triangle with r.T @ r the Gram
    matrix of the stack; it has the stack's singular values and right
    singular vectors. The stack itself is never formed.
    """

    eps: float
    r: np.ndarray


@dataclass(frozen=True)
class NwtlsConfig:
    """Knobs for the randomized solver.

    sample_size is the sketch width; it defaults to n - p + 1 + oversample,
    clamped to n + 1. The Gaussian test matrix is drawn from a generator
    seeded with `seed`, so runs are reproducible.
    """

    eps: float = 1e-8
    oversample: int = 5
    sample_size: int | None = None
    seed: int = 0

    def resolve(self, n: int, p: int) -> int:
        """The sketch width for a problem of width n with p constraints.

        The default needs oversample >= 1; an explicit sample_size must lie
        in [2, n + 1].
        """
        if self.sample_size is None:
            if self.oversample < 1:
                raise InputError(
                    f"oversample must be >= 1, got {self.oversample}"
                )
            return min(n - p + 1 + self.oversample, n + 1)
        if not 2 <= self.sample_size <= n + 1:
            raise InputError(
                f"sample size {self.sample_size} must lie in [2, {n + 1}]"
            )
        return self.sample_size


@dataclass(frozen=True)
class EpsBound:
    """Result of the eps-admissibility inequality: lhs < gap with slack margin."""

    ok: bool
    margin: float
    lhs: float
    gap: float


@dataclass(frozen=True)
class LimitRow:
    """One grid point of the convergence diagnostics.

    x_err and sigma_err compare the weighted solve against the constrained
    one; resolvent_err is the spectral distance between the weighted shifted
    Gram inverse and its constrained limit; gain_err the same for the
    solution-gain map, taken on R_A in place of A (limit
    [constraint_gain, null_gram_inv @ R_A.T]). With A = Q R_A the solve's
    thin QR, M @ A.T = (M @ R_A.T) @ Q.T, and Q.T has orthonormal rows, so
    the 2-norm is the one of the gain on A.
    """

    eps: float
    x_err: float
    sigma_err: float
    resolvent_err: float
    gain_err: float


def _positive_eps(eps) -> float:
    """eps as a float; InputError unless it is finite and positive."""
    if not np.isfinite(eps) or eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    return float(eps)


def _weighted(problem: TlseProblem, eps: float, *blocks) -> WeightedEmbedding:
    """R of [[C d]/eps; blocks side by side], the heavy rows first.

    blocks are A and b, or any R with the Gram matrix of [A b]. InputError
    when eps is so small that [C d]/eps overflows.
    """
    with np.errstate(over="ignore"):
        head = problem.aug_constraint() / eps
    if not np.isfinite(head).all():
        raise InputError(f"eps {eps} is too small: [C d]/eps overflows")
    return WeightedEmbedding(eps=eps, r=r_factor(*blocks, head=head))


def embed(problem: TlseProblem, eps: float) -> WeightedEmbedding:
    """The weighted stack [[C d]/eps; [A b]] as its streamed R factor."""
    return _weighted(problem, _positive_eps(eps), problem.A, problem.b)


def check_eps_bound(problem: TlseProblem, eps: float, core) -> EpsBound:
    """Admissibility test 2 eps^2 ||pinv([C d])||^2 ||[A b]||^2 < gap.

    core must come from check_genericity on the same problem: ||[A b]||_2 is
    taken from core.data_r, its R factor of [A b]. With p = 0, [C d] has
    no singular values, its pseudoinverse norm is 0 and the test reduces to
    a positive gap.
    """
    eps = _positive_eps(eps)
    sv_min = singular_values(problem.aug_constraint()).min(initial=np.inf)
    pinv_norm = 1.0 / float(sv_min)
    data_norm = spectral_norm(core.data_r)
    lhs = 2.0 * eps**2 * pinv_norm**2 * data_norm**2
    gap = float(core.gap)
    return EpsBound(ok=gap > lhs, margin=gap - lhs, lhs=lhs, gap=gap)


def solve_wtls_direct(emb: WeightedEmbedding) -> tuple[np.ndarray, float]:
    """TLS solution of the weighted stack from the SVD of its R factor.

    Returns (x, sigma) where sigma is the smallest singular value of the
    stack. Normalizes the trailing right singular vector instead of forming
    normal equations (see module docstring); NonGenericError when its last
    component is below core.LAST_COMPONENT_TOL in magnitude.
    """
    r = emb.r
    n = r.shape[1] - 1
    res = svd(r)
    coef_min = float(singular_values(r[:, :n])[-1])
    if not coef_min > float(res.s[-1]):
        raise IllPosedError(
            f"weighted stack is degenerate: sigma_min of [C/eps; A] "
            f"{coef_min:.6e} does not exceed sigma_min of the stack "
            f"{res.s[-1]:.6e}"
        )
    return _x_from_direction(res.v[:, -1]), float(res.s[-1])


def _pos_inv(mat, what):
    """Inverse of a positive definite matrix; IllPosedError when Cholesky
    breaks down or rcond < eps (which SciPy would only warn about)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
        try:
            return scipy.linalg.solve(mat, np.eye(mat.shape[0]), assume_a="pos")
        except scipy.linalg.LinAlgWarning as exc:
            raise IllPosedError(f"{what} is numerically singular: {exc}") from exc
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
            raise IllPosedError(f"{what} is not positive definite: {exc}") from exc


def _blockwise_resolvent(r_a, basis, sigma_eps, eps):
    """Inverse of (C.T C / eps^2 + A.T A - sigma_eps^2 I) and its gain map.

    r_a is the R factor of A (A.T A = r_a.T r_a). Block elimination in the
    orthogonal basis [q1, null_basis] of the constraint QR. Returns
    (resolvent, gain) where gain is the n x (p + rows of r_a) map
    resolvent @ [C.T/eps^2, r_a.T]. All 1/eps^2 factors cancel
    analytically before anything is inverted, so the computation stays
    accurate for eps far below the breakdown point of the naive formation.
    """
    n = r_a.shape[1]
    shifted = r_a.T @ r_a - sigma_eps**2 * np.eye(n)
    q1, q2, r1 = basis.q1, basis.null_basis, basis.r1
    z11 = q1.T @ shifted @ q1
    z12 = q1.T @ shifted @ q2
    z22 = q2.T @ shifted @ q2
    b2 = r1 @ r1.T + eps**2 * z11
    b2_inv = _pos_inv(b2, "constraint block")
    schur = z22 - eps**2 * (z12.T @ b2_inv @ z12)
    schur_inv = _pos_inv(schur, "null-space Schur complement")
    # T^{-1} blocks in the QR basis; t11 carries the eps^2 cancellation
    t12 = -(eps**2) * (b2_inv @ z12 @ schur_inv)
    t11 = eps**2 * b2_inv + eps**2 * (b2_inv @ z12) @ schur_inv @ (
        eps**2 * z12.T @ b2_inv
    )
    t22 = schur_inv
    resolvent = (
        q1 @ t11 @ q1.T + q1 @ t12 @ q2.T + q2 @ t12.T @ q1.T + q2 @ t22 @ q2.T
    )
    # constraint block of the gain: resolvent @ C.T / eps^2 with C.T = q1 r1
    top = b2_inv @ r1 + eps**2 * (
        b2_inv @ z12 @ schur_inv @ z12.T @ b2_inv @ r1
    )
    bottom = -(schur_inv @ z12.T @ b2_inv @ r1)
    gain_c = q1 @ top + q2 @ bottom
    # data block: resolvent @ r_a.T applied blockwise
    w1 = q1.T @ r_a.T
    w2 = q2.T @ r_a.T
    gain_a = q1 @ (t11 @ w1 + t12 @ w2) + q2 @ (t12.T @ w1 + t22 @ w2)
    return resolvent, np.hstack([gain_c, gain_a])


def wtls_limit_diagnostics(problem: TlseProblem, eps_grid) -> list[LimitRow]:
    """Convergence of the weighted solve to the constrained one over a grid.

    eps_grid must be strictly decreasing and positive. Each row reports the
    solution error, the shift error, and the spectral-norm errors of the
    resolvent and gain maps against their constrained limits. Solver errors
    at a grid point propagate to the caller, including IllPosedError when a
    block of the resolvent is numerically singular. The data enter only
    through the solve's R factor of [A b]: each grid point factors
    [[C d]/eps; R], which has the Gram matrix of the weighted stack.
    """
    grid = [_positive_eps(e) for e in eps_grid]
    if not grid:
        raise InputError("eps grid must not be empty")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise InputError("eps grid must be strictly decreasing")
    sol = solve_qr_svd(problem)
    data_r = sol.core.data_r
    r_a = data_r[:, :-1]
    gain_limit = np.hstack([sol.constraint_gain, sol.null_gram_inv @ r_a.T])
    rows = []
    for eps in grid:
        x_eps, sigma_eps = solve_wtls_direct(_weighted(problem, eps, data_r))
        resolvent, gain = _blockwise_resolvent(r_a, sol.basis, sigma_eps, eps)
        rows.append(
            LimitRow(
                eps=eps,
                x_err=float(np.linalg.norm(x_eps - sol.x)),
                sigma_err=abs(sigma_eps - sol.sigma_min),
                resolvent_err=float(
                    np.linalg.norm(resolvent - sol.null_gram_inv, 2)
                ),
                gain_err=float(np.linalg.norm(gain - gain_limit, 2)),
            )
        )
    return rows


def _nystrom(r: np.ndarray, width: int, seeds) -> list[np.ndarray]:
    """Randomized Nystrom solutions on the weighted R factor, one per seed.

    The seeds' test matrices, then their Q factors, sit side by side, so
    each inverse-Gram solve is one pair of triangular solves for all seeds.
    The QR, Cholesky and SVD each run once on the stack of all seeds'
    matrices: NumPy's stacked calls give each matrix the LAPACK call it
    gets alone, so each x equals the one of its seed alone.
    """
    n, k = r.shape[1] - 1, len(seeds)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag.min() <= np.finfo(float).tiny * diag.max():
        raise NumericalError("stacked matrix is rank deficient; Gram solve fails")

    def gram_solve(rhs):
        # the Fortran-ordered (n+1, k*width) solution as a (k, n+1, width) view
        out = solve_triangular(r, solve_triangular(r, rhs, trans=1))
        return out.reshape(n + 1, width, k, order="F").transpose(2, 0, 1)

    draws = [np.random.default_rng(s).standard_normal((n + 1, width)) for s in seeds]
    q = np.linalg.qr(gram_solve(draws[0] if k == 1 else np.hstack(draws)))[0]
    y = gram_solve(q.transpose(1, 0, 2).reshape(n + 1, k * width))
    z = q.transpose(0, 2, 1) @ y
    try:
        low = np.linalg.cholesky(0.5 * (z + z.transpose(0, 2, 1)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "sketch compression is not positive definite; increase "
            "oversample or the sample size"
        ) from exc
    k_factors = [solve_triangular(f, y_s.T, lower=True).T for f, y_s in zip(low, y)]
    u = np.linalg.svd(np.stack(k_factors), full_matrices=False)[0]
    return [_x_from_direction(u_s) for u_s in u[:, :, 0]]


def solve_nwtls(problem: TlseProblem, cfg: NwtlsConfig | None = None) -> np.ndarray:
    """Randomized Nystrom solve of the weighted problem.

    Sketches the inverse Gram operator of the stacked matrix with a seeded
    Gaussian test matrix, compresses through QR and a small Cholesky, and
    normalizes the dominant left singular vector of the compressed factor.
    Inverse-Gram solves go through embed's R factor of the stack with two
    triangular solves; neither the stack, its Q nor its Gram matrix is
    formed. table2 runs the same kernel on a batch of seeds. cfg.eps must
    be finite and positive (InputError otherwise). NonGenericError when the
    last component of the sketched direction is below
    core.LAST_COMPONENT_TOL in magnitude.
    """
    cfg = cfg or NwtlsConfig()
    width = cfg.resolve(problem.n, problem.p)
    return _nystrom(embed(problem, cfg.eps).r, width, [cfg.seed])[0]
