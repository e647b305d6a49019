"""Weighted-TLS relaxation of the constrained problem.

Scaling the constraint rows by 1/eps turns the constrained problem into an
ordinary TLS problem whose solution tends to the constrained one as
eps -> 0. This module provides the embedding, its direct SVD solution, an
admissibility bound on eps, convergence diagnostics against the constrained
solver, and the randomized Nystrom solver that sketches the inverse Gram
operator of the stacked matrix.

Numerical note: the textbook route through the normal equations
(mat.T @ mat - sigma^2 I)^{-1} mat.T @ rhs squares the 1/eps weighting and
is useless in float64 below roughly eps = 1e-4. solve_wtls_direct therefore
normalizes the trailing right singular vector of the stacked matrix, taken
from its R factor with the heavy constraint rows factored first, and
wtls_limit_diagnostics evaluates the resolvent through block elimination in
the constraint QR basis, where every 1/eps^2 appears only as a benign
multiplicative factor.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .core import TlseProblem, build_basis, solve_qr_svd
from .errors import (
    IllPosedError,
    InputError,
    NonGenericError,
    NumericalError,
)
from .linalg import r_factor, singular_values, spectral_norm, svd


@dataclass(frozen=True)
class WeightedEmbedding:
    """Constraint rows scaled by 1/eps, stacked with the data rows.

    mat is m x n, rhs length m; aug, the m x (n+1) stack [mat rhs], is
    formed on first use (the solvers factor mat and rhs in place of it).
    """

    eps: float
    mat: np.ndarray
    rhs: np.ndarray

    @cached_property
    def aug(self) -> np.ndarray:
        return np.hstack([self.mat, self.rhs[:, None]])


@dataclass(frozen=True)
class NwtlsConfig:
    """Knobs for the randomized solver.

    k is the target rank (defaults to n - p + 1 at solve time) and
    sample_size the sketch width, defaulting to k + oversample. The sketch
    must satisfy k >= 1, k < sample_size <= n + 1. The Gaussian test matrix
    is drawn from a generator seeded with `seed`, so runs are reproducible.
    """

    eps: float = 1e-8
    k: int | None = None
    oversample: int = 5
    sample_size: int | None = None
    seed: int = 0

    def resolve(self, n: int, p: int) -> tuple[int, int]:
        """Concrete (k, sample_size) for a problem of width n with p constraints.

        Defaulted values are clamped into the feasible region (k at most n,
        sample size at most n + 1); explicitly set values are validated
        strictly instead.
        """
        k = self.k if self.k is not None else min(n - p + 1, n)
        width = self.sample_size
        if width is None:
            width = min(k + self.oversample, n + 1)
        if k < 1:
            raise InputError(f"target rank must be >= 1, got {k}")
        if width < k + 1:
            raise InputError(
                f"sample size {width} must exceed target rank {k}"
            )
        if width > n + 1:
            raise InputError(
                f"sample size {width} exceeds the operator dimension {n + 1}"
            )
        return k, width


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
    solution-gain map (limit [constraint_gain, null_gram_inv @ A.T]).
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


def embed(problem: TlseProblem, eps: float) -> WeightedEmbedding:
    """Stack [C/eps; A] and [d/eps; b]."""
    eps = _positive_eps(eps)
    if problem.p:
        mat = np.vstack([problem.C / eps, problem.A])
        rhs = np.concatenate([problem.d / eps, problem.b])
    else:
        mat = problem.A.copy()
        rhs = problem.b.copy()
    return WeightedEmbedding(eps=eps, mat=mat, rhs=rhs)


def check_eps_bound(problem: TlseProblem, eps: float, core) -> EpsBound:
    """Admissibility test 2 eps^2 ||pinv([C d])||^2 ||[A b]||^2 < gap.

    core must come from check_genericity on the same problem: ||[A b]||_2 is
    taken from core.data_r, its R factor of [A b]. With p = 0 the left side
    is zero and the test reduces to a positive gap.
    """
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    if problem.p:
        aug_c = problem.aug_constraint()
        pinv_norm = 1.0 / float(singular_values(aug_c)[-1])
    else:
        pinv_norm = 0.0
    data_norm = spectral_norm(core.data_r)
    lhs = 2.0 * eps**2 * pinv_norm**2 * data_norm**2
    gap = float(core.gap)
    return EpsBound(ok=gap > lhs, margin=gap - lhs, lhs=lhs, gap=gap)


def solve_wtls_direct(emb: WeightedEmbedding) -> tuple[np.ndarray, float]:
    """TLS solution of the weighted stack from the SVD of [mat rhs].

    Returns (x, sigma) where sigma is the smallest singular value of the
    stack. The SVDs run on the (n+1) x (n+1) R factor of [mat rhs], which
    has its singular values and right singular vectors; r_factor takes the
    rows in embed's order, the 1/eps-weighted constraint rows first, as
    Householder QR of weighted rows requires (Cox & Higham 1998).
    Normalizes the trailing right singular vector instead of forming
    normal equations (see module docstring).
    """
    n = emb.mat.shape[1]
    r = r_factor(emb.mat, emb.rhs)
    res = svd(r)
    mat_min = float(singular_values(r[:, :n])[-1])
    if not mat_min > float(res.s[-1]):
        raise IllPosedError(
            f"weighted stack is degenerate: sigma_min(mat) {mat_min:.6e} "
            f"does not exceed sigma_min(aug) {res.s[-1]:.6e}"
        )
    v = res.v[:, -1]
    if abs(v[n]) < 1e-12:
        raise NonGenericError(
            f"normalizing component {v[n]:.3e} of the weighted solution "
            "direction is numerically zero"
        )
    if v[n] > 0:
        v = -v
    return v[:n] / (-v[n]), float(res.s[-1])


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


def _blockwise_resolvent(problem, basis, sigma_eps, eps):
    """Inverse of (mat.T mat - sigma_eps^2 I) and its gain map, stably.

    Block elimination in the orthogonal basis [q1, null_basis] of the
    constraint QR. Returns (resolvent, gain) where gain is the n x m map
    resolvent @ [C.T/eps^2, A.T]. All 1/eps^2 factors cancel analytically
    before anything is inverted, so the computation stays accurate for eps
    far below the breakdown point of the naive formation.
    """
    a = problem.A
    n, p = problem.n, problem.p
    shifted = a.T @ a - sigma_eps**2 * np.eye(n)
    if p == 0:
        resolvent = _pos_inv(shifted, "shifted Gram matrix")
        return resolvent, resolvent @ a.T
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
    # data block: resolvent @ A.T applied blockwise
    w1 = q1.T @ a.T
    w2 = q2.T @ a.T
    gain_a = q1 @ (t11 @ w1 + t12 @ w2) + q2 @ (t12.T @ w1 + t22 @ w2)
    return resolvent, np.hstack([gain_c, gain_a])


def wtls_limit_diagnostics(problem: TlseProblem, eps_grid) -> list[LimitRow]:
    """Convergence of the weighted solve to the constrained one over a grid.

    eps_grid must be strictly decreasing and positive. Each row reports the
    solution error, the shift error, and the spectral-norm errors of the
    resolvent and gain maps against their constrained limits. Solver errors
    at a grid point propagate to the caller, including IllPosedError when a
    block of the resolvent is numerically singular.
    """
    grid = [float(e) for e in eps_grid]
    if not grid or any(e <= 0 for e in grid):
        raise InputError("eps grid must be positive")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise InputError("eps grid must be strictly decreasing")
    sol = solve_qr_svd(problem)
    basis = sol.basis
    gain_limit = np.hstack(
        [sol.constraint_gain, sol.null_gram_inv @ problem.A.T]
    )
    rows = []
    for eps in grid:
        emb = embed(problem, eps)
        x_eps, sigma_eps = solve_wtls_direct(emb)
        resolvent, gain = _blockwise_resolvent(problem, basis, sigma_eps, eps)
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


def solve_nwtls(problem: TlseProblem, cfg: NwtlsConfig | None = None) -> np.ndarray:
    """Randomized Nystrom solve of the weighted problem.

    Sketches the inverse Gram operator of the stacked matrix with a seeded
    Gaussian test matrix, compresses through QR and a small Cholesky, and
    normalizes the dominant left singular vector of the compressed factor.
    Inverse-Gram solves go through the triangular factor R of the stack
    [[C d]/eps; [A b]] with two triangular solves; neither the stack, its
    Q nor its Gram matrix is formed. r_factor streams the data rows after
    the heavy constraint rows, which it takes as its head. cfg.eps must be
    finite and positive (InputError otherwise).
    """
    cfg = cfg or NwtlsConfig()
    n, p = problem.n, problem.p
    _, width = cfg.resolve(n, p)
    eps = _positive_eps(cfg.eps)
    rng = np.random.default_rng(cfg.seed)
    omega = rng.standard_normal((n + 1, width))
    r = r_factor(problem.A, problem.b, head=problem.aug_constraint() / eps)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag.min() <= np.finfo(float).tiny * diag.max():
        raise NumericalError("stacked matrix is rank deficient; Gram solve fails")

    def gram_solve(rhs):
        tmp = scipy.linalg.solve_triangular(r, rhs, trans="T", lower=False)
        return scipy.linalg.solve_triangular(r, tmp, lower=False)

    sketch = gram_solve(omega)
    q_s, _ = np.linalg.qr(sketch, mode="reduced")
    y = gram_solve(q_s)
    z = q_s.T @ y
    z = 0.5 * (z + z.T)
    try:
        low = np.linalg.cholesky(z)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "sketch compression is not positive definite; increase "
            "oversample or the sample size"
        ) from exc
    k_factor = scipy.linalg.solve_triangular(low, y.T, lower=True).T
    u, _, _ = np.linalg.svd(k_factor, full_matrices=False)
    v = u[:, 0]
    if abs(v[n]) < 1e-12:
        raise NonGenericError(
            f"normalizing component {v[n]:.3e} of the sketched direction "
            "is numerically zero"
        )
    if v[n] > 0:
        v = -v
    return v[:n] / (-v[n])
