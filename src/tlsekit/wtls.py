"""Weighted-TLS relaxation of the constrained problem.

Scaling the constraint rows by 1/eps turns the constrained problem into an
ordinary TLS problem whose solution tends to the constrained one as
eps -> 0. This module provides the embedding, its direct SVD solution, an
admissibility bound on eps, convergence diagnostics against the constrained
solver, and the randomized Nystrom solver that sketches the inverse Gram
operator of the stacked matrix. Its kernel takes a stack of test matrices
on one R factor, so table2 factors each problem once and draws all its
trials from one stream; per slab it runs a small QR, a Cholesky and one
eigenpair by direct LAPACK calls, with no SVD.

Every route works on R factors, never on the weighted stack itself. The
embedding is the R of [[C d]/eps; [A b]], factored with the heavy
constraint rows first (Cox & Higham 1998). wtls_limit_diagnostics factors
[[C d]/eps; R] instead, with R the solve's factor of [A b]: it has the
same Gram matrix, so each grid point costs O((p+n) n^2) whatever q is.

Numerical note: the textbook route through the normal equations
(L_eps.T L_eps - sigma^2 I)^{-1} L_eps.T h_eps squares the 1/eps weighting
and is useless in float64 below roughly eps = 1e-4. solve_wtls_direct
therefore normalizes the trailing right singular vector of the weighted R,
and wtls_limit_diagnostics eliminates the resolvent onto its p x p
constraint block in the constraint QR basis, reading the null block from
the solve's restricted SVD: no Gram matrix of the data is formed, and
every 1/eps^2 appears only as an eps^2 factor or cancels analytically.
Both weighted routes read x off their direction as solve_qr_svd does,
with one tolerance (core.LAST_COMPONENT_TOL), and p = 0 runs the same
code as p > 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LAST_COMPONENT_TOL,
    TlseProblem,
    TlseSolution,
    _check_solution,
    _filtered,
    _gram_inv,
    _x_from_direction,
    solve_qr_svd,
)
from .errors import IllPosedError, InputError, NumericalError
from .linalg import (
    cholesky, pow2_scale, r_factor, solve_triangular,
    spectral_norm, svd, thin_q, top_eigen,
)

_TINY = np.finfo(float).tiny


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
    seeded with `seed`, so runs are reproducible. oversample, sample_size
    (unless None) and seed must be integers, Python or NumPy, not bools
    (a float is not converted); InputError otherwise, and for a negative
    seed.
    """

    eps: float = 1e-8
    oversample: int = 5
    sample_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        counts = {"oversample": self.oversample, "seed": self.seed}
        if self.sample_size is not None:
            counts["sample_size"] = self.sample_size
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")

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

    core must come from check_genericity on this problem object (InputError
    otherwise): ||[A b]||_2 is taken from core.data_r, its R factor of
    [A b], and ||pinv([C d])||_2 is 1/sigma_min([C d]) from svd. With
    p = 0, [C d] has no singular values, its pseudoinverse norm is 0 and
    the test reduces to a positive gap. When the left side
    overflows (singular values of [C d] below about 1e-154), lhs is inf,
    margin -inf and ok False.
    """
    eps = _positive_eps(eps)
    if core.problem is not problem:
        raise InputError("core was not computed from this problem")
    sv_min = svd(problem.aug_constraint()).s.min(initial=np.inf)
    pinv_norm = 1.0 / sv_min
    data_norm = np.float64(spectral_norm(core.data_r))
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = 2.0 * eps**2 * pinv_norm**2 * data_norm**2
    # NumPy scalars overflow to inf where Python floats raise OverflowError;
    # a nan (eps**2 underflowing to 0 times an infinite factor) is taken as
    # inf too, so a nearly singular [C d] admits no eps
    lhs = float(lhs) if np.isfinite(lhs) else np.inf
    gap = float(core.gap)
    return EpsBound(ok=gap > lhs, margin=gap - lhs, lhs=lhs, gap=gap)


def solve_wtls_direct(emb: WeightedEmbedding) -> tuple[np.ndarray, float]:
    """TLS solution of the weighted stack from the SVD of its R factor.

    Returns (x, sigma) where sigma is the smallest singular value of the
    stack. Normalizes the trailing right singular vector instead of forming
    normal equations (see module docstring). Genericity, sigma_min of the
    coefficient block [C/eps; A] above sigma_n+1 of the stack, is read off
    the same SVD U diag(s) V.T (Van Huffel & Vandewalle, The Total Least
    Squares Problem, SIAM 1991, ch. 3):

        sigma_min(r[:, :n]) > s[n]  <=>  s[n-1] > s[n] and v[n, n] != 0.

    Interlacing gives s[n-1] >= sigma_min(r[:, :n]) >= s[n]. If the right
    one is an equality, attained at a unit u, then [u; 0] attains s[n], so
    a simple s[n] forces v[:, n] parallel to [u; 0]; and v[n, n] = 0 makes
    v[:n, n] such a u. IllPosedError unless s[n-1] > s[n] and
    |v[n, n]| >= core.LAST_COMPONENT_TOL.
    """
    res = svd(emb.r)
    s, v = res.s, res.v[:, -1]
    if not (s[-2] > s[-1] and abs(v[-1]) >= LAST_COMPONENT_TOL):
        raise IllPosedError(
            f"weighted stack is degenerate: singular values {s[-2]:.6e} and "
            f"{s[-1]:.6e}, normalizing component {v[-1]:.3e}"
        )
    return _x_from_direction(v), float(s[-1])


def _resolvent(core, basis, sigma_eps, eps):
    """Inverse of (C.T C / eps^2 + A.T A - sigma_eps^2 I) and its gain map.

    Block elimination onto the p x p constraint block in the basis
    [q1, N] of the constraint QR (C.T = q1 r1, N = null_basis). The null
    block comes from the solve's restricted SVD R_A N = U diag(s) V.T,
    with shifts (s - sigma_eps)(s + sigma_eps): with W = R_A q1 and
    F = V diag(s/shifts) U.T W, the Schur complement times eps^2 is

        M = r1 r1.T + eps^2 (W.T W - sigma_eps^2 I - W.T U diag(s) V.T F),

    and the resolvent is eps^2 (q1 - N F) M^-1 (q1 - N F).T plus
    N V diag(1/shifts) V.T N.T. Returns (resolvent, gain) where gain is
    the n x (p + rows of r_a) map resolvent @ [C.T/eps^2, r_a.T]; in its
    constraint block (q1 - N F) M^-1 r1 the 1/eps^2 cancels analytically.
    No Gram matrix of the data is formed. IllPosedError when M is singular.
    """
    r_a, res = core.data_r[:, :-1], core.restricted
    q1, null, r1 = basis.q1, basis.null_basis, basis.r1
    w = r_a @ q1
    f = _filtered(core, w, sigma_eps)
    coupling = (w.T @ res.u * res.s) @ (res.v.T @ f)
    schur = r1 @ r1.T + eps**2 * (w.T @ w - sigma_eps**2 * np.eye(len(r1)) - coupling)
    lift = q1 - null @ f
    try:
        solved = np.linalg.solve(schur, np.hstack([lift.T, r1]))
    except np.linalg.LinAlgError as exc:
        raise IllPosedError(f"weighted constraint block is singular: {exc}") from exc
    n = len(lift)
    null_block = null @ _gram_inv(core, sigma_eps) @ null.T
    resolvent = eps**2 * (lift @ solved[:, :n]) + null_block
    return resolvent, np.hstack([lift @ solved[:, n:], resolvent @ r_a.T])


def wtls_limit_diagnostics(
    problem: TlseProblem, eps_grid, solution: TlseSolution | None = None
) -> list[LimitRow]:
    """Convergence of the weighted solve to the constrained one over a grid.

    eps_grid must be strictly decreasing and positive. Each row reports the
    solution error, the shift error, and the spectral-norm errors of the
    resolvent and gain maps against their constrained limits. Solver errors
    at a grid point propagate to the caller. The data enter only through
    the solve's R factor of [A b]: each grid point factors [[C d]/eps; R],
    which has the Gram matrix of the weighted stack, and builds the
    resolvent from the solve's restricted SVD (_resolvent), with no Gram
    matrix of the data. solution, if given, must be solve_qr_svd(problem)
    of this problem object (InputError otherwise), reused as in
    condition_report.
    """
    grid = [_positive_eps(e) for e in eps_grid]
    if not grid:
        raise InputError("eps grid must not be empty")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise InputError("eps grid must be strictly decreasing")
    sol = solution if solution is not None else solve_qr_svd(problem)
    _check_solution(problem, sol)
    data_r = sol.core.data_r
    r_a = data_r[:, :-1]
    gain_limit = np.hstack([sol.constraint_gain, sol.null_gram_inv @ r_a.T])
    rows = []
    for eps in grid:
        x_eps, sigma_eps = solve_wtls_direct(_weighted(problem, eps, data_r))
        resolvent, gain = _resolvent(sol.core, sol.basis, sigma_eps, eps)
        rows.append(
            LimitRow(
                eps=eps,
                x_err=float(np.linalg.norm(x_eps - sol.x)),
                sigma_err=abs(sigma_eps - sol.sigma_min),
                resolvent_err=spectral_norm(resolvent - sol.null_gram_inv),
                gain_err=spectral_norm(gain - gain_limit),
            )
        )
    return rows


def _nystrom(r: np.ndarray, draws: np.ndarray) -> list[np.ndarray]:
    """Randomized Nystrom solutions on the weighted R factor, one per slab
    of draws, a (k, n+1, width) stack of Gaussian test matrices.

    The slabs, then their Q factors, sit side by side, so each inverse-Gram
    solve is one pair of triangular solves for all of them. Per slab,
    LAPACK gives the thin Q (dgeqrf, dorgqr) in the first solve's own
    columns, the Cholesky factor L of the compression Q.T G^-1 Q (dpotrf),
    K = G^-1 Q L^-T (dtrtrs) and the largest eigenpair (w, v) of K.T K
    (dsyevr); u = K v / ||K v|| is the dominant left singular vector of K,
    with no SVD. The compressions, K.T K, the range checks and the norms
    of u run once on the stack, yet each slab gets the same calls on the
    same values, so its x equals the one of its slab alone. A single slab
    (solve_nwtls) takes those calls on 2-D arrays, with no stack views,
    buffers or per-slab writes around them. An R whose
    largest diagonal entry lies outside 2^(+-GRAM_EXP) is first scaled by
    a power of two (pow2_scale), exactly, which leaves every direction
    unchanged. NumericalError when the sketch leaves the float range
    (checked on each solve, on each matrix a factorization reads and on u,
    so no NaN or RuntimeWarning escapes) or a factorization breaks down.
    """
    k, n1, width = draws.shape
    diag = np.abs(r.diagonal())
    big = diag.max(initial=0.0)
    if big == 0.0 or diag.min() <= _TINY * big:
        raise NumericalError("stacked matrix is rank deficient; Gram solve fails")
    r = pow2_scale(big, [r])[1][0]

    def in_range(a):
        if not np.isfinite(a).all():
            raise NumericalError(
                "the inverse-Gram sketch leaves the float range; the "
                "weighted stack is too close to rank deficient"
            )
        return a

    def gram_solve(rhs):
        # the Fortran-ordered (n+1, k*width) solution
        return in_range(solve_triangular(r, solve_triangular(r, rhs, trans=1)))

    def slabs(a):
        # an (n+1, k*width) solution as a (k, n+1, width) view
        return a.T.reshape(k, width, n1).transpose(0, 2, 1)

    # overflow past a finite y is caught by in_range, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if k == 1:
            q = thin_q(gram_solve(draws[0]))
            y = gram_solve(q)
            z = q.T @ y
            kf = solve_triangular(cholesky(in_range(0.5 * (z + z.T))), y.T, lower=True).T
            u = kf @ top_eigen(in_range(kf.T @ kf), vector=True)[1]
            return [_x_from_direction(in_range(u / np.sqrt(u @ u)))]
        # the slabs side by side, (n+1, k*width): a view for one slab and for q
        q = slabs(gram_solve(draws.transpose(1, 0, 2).reshape(n1, -1)))
        for s in range(k):
            q[s] = thin_q(q[s])
        y = slabs(gram_solve(q.transpose(1, 0, 2).reshape(n1, -1)))
        z = q.transpose(0, 2, 1) @ y
        z = in_range(0.5 * (z + z.transpose(0, 2, 1)))
        kf, u = np.empty((k, n1, width)), np.empty((k, 1, n1))
        for s in range(k):
            kf[s] = solve_triangular(cholesky(z[s]), y[s].T, lower=True).T
        gram = in_range(kf.transpose(0, 2, 1) @ kf)
        for s in range(k):
            u[s, 0] = kf[s] @ top_eigen(gram[s], vector=True)[1]
        u = in_range(u / np.sqrt(u @ u.transpose(0, 2, 1)))
    return [_x_from_direction(u[s, 0]) for s in range(k)]


def solve_nwtls(problem: TlseProblem, cfg: NwtlsConfig | None = None) -> np.ndarray:
    """Randomized Nystrom solve of the weighted problem.

    Sketches the inverse Gram operator of the stacked matrix with a seeded
    Gaussian test matrix, compresses through QR and a small Cholesky, and
    normalizes the dominant left singular vector of the compressed factor
    K, read off the largest eigenpair of the small K.T K as a unit vector.
    Inverse-Gram solves go through embed's R factor of the stack with two
    triangular solves; neither the stack, its Q nor its Gram matrix is
    formed. The test matrix is the first draw of default_rng(cfg.seed), as
    in slab 0 of a table2 row stream with that seed. cfg.eps must be finite
    and positive (InputError otherwise). NonGenericError when the last
    component of the sketched direction is below core.LAST_COMPONENT_TOL
    in magnitude; NumericalError when the stack is so close to rank
    deficient that an inverse-Gram solve leaves the float range.
    """
    cfg = cfg or NwtlsConfig()
    width = cfg.resolve(problem.n, problem.p)
    draws = np.random.default_rng(cfg.seed).standard_normal((1, problem.n + 1, width))
    return _nystrom(embed(problem, cfg.eps).r, draws)[0]
