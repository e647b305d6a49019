"""First-order perturbation operator and condition numbers.

For a solved problem, the first-order change of the solution under a
perturbation (dL, dh) of the stacked data ([C; A], [d; b]) is

    dx = gain @ (dL @ x - dh) - null_gram_inv @ dL.T @ adjoint_dir

where gain = (2/rho^2) * (null_gram_inv @ x) adjoint_dir.T -
[constraint_gain, null_gram_inv @ A.T]. apply_k evaluates this matrix-free.
As a matrix acting on vec([dL dh]) the map is K = [K_1 ... K_n, -gain] with
n x m blocks K_j = x_j gain - null_gram_inv[:, j] adjoint_dir.T; it has
m^2 (n+1) entries and is never formed, and neither is the n x m gain.

Condition numbers come in three flavors: normwise (weighted Frobenius ball
on the data, Euclidean norm on the solution), mixed (entrywise-bounded
perturbations, max-norm output), and componentwise (entrywise relative
output). Each has one exact formula built from the factors of K, plus
cheaper upper bounds; condition_report assembles all eight numbers in one
pass (_report), the only place that computes them.

The data rows enter the normwise numbers only through the row space of
[C; A]: with [A b] = Q R the solve's thin QR (R = solution.core.data_r)
and W = blkdiag(I_p, Q), gain = gain_r @ W.T and adjoint_dir = W @
adjoint_r, where gain_r and adjoint_r take R[:, :n] and R [x; -1] in
place of A and the residual (k = min(q, n+1) rows). W has orthonormal
columns, so the normwise number and its upper bounds are spectral norms
of matrices of n rows and at most p+k+n columns, each the square root of
the largest eigenvalue of an n x n Gram matrix (linalg.spectral_norm).
The two norms the solve fixes in closed form, ||null_gram_inv||_2 and
||null_gram_inv A.T||_2, are read off its restricted SVD
(core.null_gram_inv_norm, core.data_map_norm) and need no eigenvalue.

Entrywise absolute values do not commute with W, so the mixed and
componentwise numbers read the data rows themselves, streamed over row
blocks of [C; A] of block_rows(n) rows (the row streaming of
linalg.r_factor) by _block_sums. Each block of the gain is formed in a
reused buffer and consumed at once, so these numbers cost O(n * block)
memory whatever m is: two n x block workspaces for the upper bounds, three
for the exact numbers, plus O(n^2 + m). No broadcast or strided ufunc runs
on a block-sized operand, since NumPy's buffered iterator would allocate
64 KiB per operand on top of them (_gain). Blocking only regroups the sums
over the rows.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import (
    TlseProblem,
    TlseSolution,
    constraint_pinv,
    data_map_norm,
    null_gram_inv_norm,
    solve_qr_svd,
)
from .errors import InputError, UndefinedConditionError
from .linalg import as_matrix, as_vector, block_rows, greville_augment, spectral_norm


@dataclass(frozen=True)
class Weights:
    """Positive weights (alpha on the matrix block, beta on the right side).

    alpha and beta must be real numbers (a string is not converted), and
    they, their squares and (beta/alpha)^2 must be finite and nonzero in
    float64: the formulas divide by each of them.
    """

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        pair = (self.alpha, self.beta)
        if not all(isinstance(v, numbers.Real) for v in pair):
            raise InputError(f"weights must be real numbers, got {pair!r}")
        with np.errstate(all="ignore"):
            try:
                a, b = map(np.float64, pair)
            except OverflowError:  # an int beyond the float range
                a = b = np.float64(np.inf)
            terms = (a, b, a * a, b * b, (b / a) ** 2)
        if not all(0 < t < np.inf for t in terms):
            raise InputError(
                "weights must be positive, with finite nonzero squares and "
                f"(beta/alpha)^2, got ({self.alpha}, {self.beta})"
            )


@dataclass(frozen=True)
class KOperator:
    """First-order perturbation map at a solution.

    null_gram_inv is n x n, constraint_gain n x p, adjoint_dir the m-vector
    [-(aug-data @ aug-constraint-pinv).T @ residual; residual]. The n x m
    gain (module docstring) is not stored: apply_k applies it from these
    and problem.A, and the entrywise numbers form it a row block at a
    time. A zero residual forces adjoint_dir = 0 and gain =
    -[constraint_gain, null_gram_inv @ A.T].

    gain_r (n x (p+k)) and adjoint_r are the same map on the k x (n+1) R
    of [A b] (module docstring): gain = gain_r @ W.T, adjoint_dir = W @
    adjoint_r. The normwise numbers read these. null_gram_inv_norm and
    data_map_norm are ||null_gram_inv||_2 and ||null_gram_inv A.T||_2, in
    closed form from the solve's restricted SVD (core.null_gram_inv_norm,
    core.data_map_norm); constraint_gain_norm is ||constraint_gain||_2
    (linalg.spectral_norm). problem is the solved problem itself, held by
    reference (no copy).
    """

    null_gram_inv: np.ndarray
    constraint_gain: np.ndarray
    adjoint_dir: np.ndarray
    x: np.ndarray
    rho: float
    gain_r: np.ndarray
    adjoint_r: np.ndarray
    null_gram_inv_norm: float
    data_map_norm: float
    constraint_gain_norm: float
    problem: TlseProblem = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.constraint_gain.shape[1]

    @property
    def m(self) -> int:
        return self.adjoint_dir.shape[0]


@dataclass(frozen=True)
class TlsSensitivity:
    """Unconstrained-TLS sensitivities and the first-order error estimate."""

    kappa_A: float
    kappa_b: float
    estimate: float | None


@dataclass(frozen=True)
class ConditionReport:
    """All condition numbers of one problem under one weight choice.

    method is "exact" when kappa_m/kappa_c/kappa_c_finite are the exact
    values and "bound" when they are their upper bounds; kappa_n is exact
    either way.
    """

    kappa_n: float
    kappa_n_upper: float
    kappa_n_upper_loose: float
    kappa_m: float
    kappa_m_upper: float
    kappa_c: float
    kappa_c_upper: float
    kappa_c_finite: float
    weights: Weights
    method: str


def build_k_operator(problem: TlseProblem, solution: TlseSolution) -> KOperator:
    """Assemble the first-order map from a solved problem.

    The adjoint direction routes the residual through the pseudoinverse of
    the augmented constraint [C d], which is obtained by the rank-one
    Greville update of the already-factored pseudoinverse of C, applied to
    [A b].T @ residual = R.T @ (R [x; -1]).
    """
    basis = solution.basis
    big_r = solution.core.data_r
    r_res = big_r @ np.append(solution.x, -1.0)
    aug_pinv = greville_augment(constraint_pinv(basis), basis.x_feas)
    top = -(aug_pinv.T @ (big_r.T @ r_res))
    adjoint_dir = np.concatenate([top, solution.residual])
    adjoint_r = np.concatenate([top, r_res])
    return KOperator(
        null_gram_inv=solution.null_gram_inv,
        constraint_gain=solution.constraint_gain,
        adjoint_dir=adjoint_dir,
        x=solution.x.copy(),
        rho=solution.rho,
        gain_r=_gain(solution, adjoint_r, big_r[:, :-1], problem.p),
        adjoint_r=adjoint_r,
        null_gram_inv_norm=null_gram_inv_norm(solution.core),
        data_map_norm=data_map_norm(solution.core),
        constraint_gain_norm=spectral_norm(solution.constraint_gain),
        problem=problem,
    )


def _gain(src, adjoint, data, head, out=None, scratch=None) -> np.ndarray:
    """(2/rho^2) (N x) adjoint.T - [constraint_gain[:, :head], N data.T],
    N = null_gram_inv, with rho, x and the two matrices read off src (a
    TlseSolution or a KOperator). Assembled in out and the bracket in
    scratch, both n x len(adjoint) (fresh if None).

    A broadcast or strided ufunc would run NumPy's buffered iterator,
    which allocates 64 KiB per operand on block-sized operands. So the
    outer product is an einsum (the products of np.multiply), N data.T a
    matmul into a strided view (the bits of a fresh product), and the one
    subtraction is of contiguous arrays: none of them allocates."""
    n_inv = src.null_gram_inv
    gain = np.einsum("i,j->ij", n_inv @ src.x, adjoint, out=out)
    gain *= 2.0 / src.rho**2
    if scratch is None:
        scratch = np.empty(gain.shape)
    scratch[:, :head] = src.constraint_gain[:, :head]
    np.matmul(n_inv, data.T, out=scratch[:, head:])
    gain -= scratch
    return gain


def apply_k(op: KOperator, dL, dh) -> np.ndarray:
    """First-order solution change for a perturbation, matrix-free."""
    dl = as_matrix(dL, "dL")
    dv = as_vector(dh, "dh")
    if dl.shape != (op.m, op.n):
        raise InputError(
            f"dL has shape {dl.shape}, expected {(op.m, op.n)}"
        )
    if dv.shape[0] != op.m:
        raise InputError(f"dh has length {dv.shape[0]}, expected {op.m}")
    # gain @ u = (2/rho^2) (N x)(t . u) - constraint_gain u[:p] - N A.T u[p:]
    u = dl @ op.x - dv
    t, n_inv, p = op.adjoint_dir, op.null_gram_inv, op.p
    return (
        (2.0 / op.rho**2) * float(t @ u) * (n_inv @ op.x)
        - op.constraint_gain @ u[:p]
        - n_inv @ (op.problem.A.T @ u[p:] + dl.T @ t)
    )


def _sum_sq(a: np.ndarray) -> float:
    # ravel copies a strided matrix, so such a one is summed row by row
    if a.ndim == 2 and not (a.flags.c_contiguous or a.flags.f_contiguous):
        return float(sum(row @ row for row in a))
    flat = a.ravel(order="K")
    return float(flat @ flat)


def _flex_norm(problem: TlseProblem, w: Weights) -> float:
    """||[alpha L, beta h]||_F, read from C, d, A, b without stacking them."""
    data = w.alpha**2 * (_sum_sq(problem.C) + _sum_sq(problem.A))
    return float(np.sqrt(data + w.beta**2 * (_sum_sq(problem.d) + _sum_sq(problem.b))))


def _max_ratio(num, den) -> tuple[float, float]:
    """Largest |num|/|den| entrywise, with 0/0 -> 0 and x/0 -> inf; and the
    largest over the entries where den != 0 only."""
    num = np.abs(np.asarray(num, dtype=float)).ravel()
    den = np.abs(np.asarray(den, dtype=float)).ravel()
    live = den != 0.0
    finite = float((num[live] / den[live]).max(initial=0.0))
    worst = float("inf") if np.any(num[~live] != 0.0) else finite
    return worst, finite


def _mixed_componentwise(target, x, nx_inf) -> tuple[float, float, float]:
    """(kappa_m, kappa_c, kappa_c_finite) from target = |K| vec(|[L h]|) or
    its bound, nx_inf = ||x||_inf != 0. kappa_c is inf when some solution
    component is zero against a nonzero numerator (0/0 counts as 0);
    kappa_c_finite maxes over the nonzero components only."""
    kappa_c, kappa_c_finite = _max_ratio(target, x)
    return float(target.max(initial=0.0)) / nx_inf, kappa_c, kappa_c_finite


def _block_sums(op: KOperator, exact: bool):
    """The exact target |K| vec(|[L h]|) (zero unless exact), the |G| (|L|
    |x| + |h|) part of its bound |G| (|L| |x| + |h|) + |N| |L|.T |t|, and
    the weight |L|.T |t| of the |N| part (notation of _kappa_n), summed over
    row blocks of block_rows(n) rows, or all m if fewer (as p < n <=
    block_rows(n), the constraint rows all fall in the first).

    Two n x block workspaces, three when exact, plus O(n^2 + m): G_B in the
    first (_gain, with its bracket in the second); |L_B| in the second,
    copied by np.copyto, which needs no iterator buffer whatever the layout
    of C and A, and made absolute in place; |G_B| over G_B in upper mode,
    in the third when exact, as the exact sum still reads G_B. A short last
    block takes the contiguous leading part of each.

    The exact sum |G| |h| + sum_j |x_j G - N[:, j] t.T| |L[:, j]| takes one
    solution row i at a time: over (data row k, column j), E_kj = x_j
    G_B[i, k] - N[i, j] t_k = [G_B[i]; -t_B].T [x; N[i]] is one product of
    inner dimension 2 into the third workspace, and target[i] += |E| . |L_B|
    one dot of two flat buffers.
    """
    problem = op.problem
    n, p, m = op.n, op.p, op.m
    rows = min(block_rows(n), m)
    gain_buf, labs_buf = np.empty(n * rows), np.empty(n * rows)
    habs_buf = np.empty(rows)
    target, upper, weight = np.zeros(n), np.zeros(n), np.zeros(n)
    if exact:
        block_buf, pair_buf = np.empty(n * rows), np.empty(2 * rows)
        right = np.empty((2, n))
        right[0] = op.x
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        size = stop - start
        head = max(p - start, 0)  # constraint rows in this block
        a_rows = slice(start + head - p, stop - p)
        t = op.adjoint_dir[start:stop]
        gain = _gain(
            op, t, problem.A[a_rows], head,
            out=gain_buf[: n * size].reshape(n, size),
            scratch=labs_buf[: n * size].reshape(n, size),
        )
        labs = labs_buf[: n * size].reshape(size, n)
        np.copyto(labs[:head], problem.C[:head])
        np.copyto(labs[head:], problem.A[a_rows])
        np.abs(labs, out=labs)
        habs = habs_buf[:size]
        np.abs(problem.d[:head], out=habs[:head])
        np.abs(problem.b[a_rows], out=habs[head:])
        block = block_buf[: gain.size].reshape(gain.shape) if exact else gain
        np.abs(gain, out=block)
        data = labs @ np.abs(op.x)
        data += habs
        upper += block @ data
        weight += labs.T @ np.abs(t)
        if not exact:
            continue
        target += block @ habs
        pair = pair_buf[: 2 * size].reshape(2, size)
        np.negative(t, out=pair[1])
        # E in the layout of labs (block row k, column j)
        rank_two = block.reshape(labs.shape)
        flat, labs_flat = block.ravel(), labs.ravel()
        for i in range(n):
            pair[0] = gain[i]
            right[1] = op.null_gram_inv[i]
            np.matmul(pair.T, right, out=rank_two)
            np.abs(rank_two, out=rank_two)
            target[i] += flat @ labs_flat
    return target, upper, weight


def tls_specialization(
    problem: TlseProblem,
    solution: TlseSolution,
    dA=None,
    db=None,
) -> TlsSensitivity:
    """Sensitivities of the unconstrained (p = 0) problem.

    kappa_b scales the inverse-Gram-times-data map; kappa_A adds the
    residual term. Their three spectral norms come from the solve's
    restricted SVD, with no further factorization: ||A||_2 = s[0],
    ||inv_gram||_2 = 1/shifts[-1] and ||inv_gram A.T||_2 = max(s/shifts)
    (core.null_gram_inv_norm, core.data_map_norm). When perturbations are
    supplied the first-order estimate kappa_b ||db||/||b|| + kappa_A
    ||dA||_2/||A||_2 is evaluated (missing pieces count as zero).
    """
    if problem.p != 0:
        raise InputError("tls_specialization requires a problem with p = 0")
    q, n = problem.q, problem.n
    if dA is not None and (dA := as_matrix(dA, "dA")).shape != (q, n):
        raise InputError(f"dA has shape {dA.shape}, expected {(q, n)}")
    if db is not None and (db := as_vector(db, "db")).shape[0] != q:
        raise InputError(f"db has length {db.shape[0]}, expected {q}")
    # [A b] = Q R with orthonormal Q, so the q-row norms are read off R:
    # ||A x - b|| = ||R [x; -1]||, and with p = 0 the restricted SVD is that
    # of R_A, so ||A||_2 = ||R_A||_2 is its largest singular value
    core = solution.core
    r = core.data_r
    map_norm = data_map_norm(core)
    nx = float(np.linalg.norm(solution.x))
    if nx == 0.0:
        raise UndefinedConditionError("condition numbers need x != 0")
    nb = float(np.linalg.norm(problem.b))
    na = float(core.restricted.s[0])
    nr = float(np.linalg.norm(r[:, :-1] @ solution.x - r[:, -1]))
    kappa_b = nb / nx * map_norm
    kappa_a = na / nx * (nr * null_gram_inv_norm(core) + nx * map_norm)
    estimate = None
    if dA is not None or db is not None:
        est = 0.0
        if db is not None and nb > 0:
            est += kappa_b * float(np.linalg.norm(db)) / nb
        if dA is not None and na > 0:
            est += kappa_a * spectral_norm(dA) / na
        estimate = float(est)
    return TlsSensitivity(kappa_A=float(kappa_a), kappa_b=float(kappa_b), estimate=estimate)


def condition_report(
    problem: TlseProblem,
    solution: TlseSolution | None = None,
    weights: Weights | None = None,
    method: str = "exact",
) -> ConditionReport:
    """One-stop condition-number report.

    kappa_n is always exact. method "exact" (also accepted as "compact")
    reports the exact mixed and componentwise values too; "upper" reports
    their upper bounds in their place and skips the exact sum. Upper-bound
    fields are always populated.
    """
    if method not in ("exact", "compact", "upper"):
        raise InputError(
            f"method must be exact|compact|upper, got {method!r}"
        )
    sol = solution if solution is not None else solve_qr_svd(problem)
    return _report(build_k_operator(problem, sol), weights or Weights(), method)


def _report(op: KOperator, w: Weights, method: str) -> ConditionReport:
    """condition_report's numbers on a built K, for a valid method.

    The tight normwise bound uses ||gain||_2 = ||gain_r||_2, the loose one
    the sum of the gain's block norms held by op, so kappa_n <= tight <=
    loose. |N| is formed after the block pass (_block_sums) returns, and
    kappa_n last (_kappa_n), so neither is live with a block workspace.
    """
    nx = float(np.linalg.norm(op.x))
    if nx == 0.0:
        raise UndefinedConditionError("condition numbers need x != 0")
    nx_inf = float(np.abs(op.x).max())
    alpha, beta = w.alpha, w.beta
    scale = _flex_norm(op.problem, w) / nx
    nt = float(np.linalg.norm(op.adjoint_r))
    g_norm = spectral_norm(op.gain_r)
    factor = scale * np.sqrt(
        max(1.0, beta**2 / alpha**2 + 1.0 / nx**2) + beta / alpha
    )
    k_norm = op.null_gram_inv_norm
    tight = (nx / beta * g_norm + nt / alpha * k_norm) * factor
    split_norms = op.constraint_gain_norm + op.data_map_norm
    loose = (
        nx / beta * split_norms + (2.0 / beta + 1.0 / alpha) * nt * k_norm
    ) * factor

    exact = method != "upper"
    target, bound, weight = _block_sums(op, exact)
    bound += np.abs(op.null_gram_inv) @ weight
    m_upper, c_upper, c_finite = _mixed_componentwise(bound, op.x, nx_inf)
    m_value, c_value = m_upper, c_upper
    if exact:
        m_value, c_value, c_finite = _mixed_componentwise(target, op.x, nx_inf)
    return ConditionReport(
        kappa_n=float(_kappa_n(op, w, nx, nt, g_norm) * scale),
        kappa_n_upper=float(tight),
        kappa_n_upper_loose=float(loose),
        kappa_m=m_value,
        kappa_m_upper=m_upper,
        kappa_c=c_value,
        kappa_c_upper=c_upper,
        kappa_c_finite=c_finite,
        weights=w,
        method="exact" if exact else "bound",
    )


def _kappa_n(op: KOperator, w: Weights, nx: float, nt: float, g_norm: float) -> float:
    """||K_w||_2, the normwise condition number before its normalization by
    the weighted data norm over ||x|| = nx; nt = ||t||, g_norm = ||G||_2.

    With G = gain, N = null_gram_inv, t = adjoint_dir and the matrix-block
    columns of K scaled by 1/alpha, the right-side columns by 1/beta,

        K_w K_w.T = (||x||^2/alpha^2 + 1/beta^2) G G.T
                    - (G t (N x).T + N x (G t).T) / alpha^2
                    + (||t||^2/alpha^2) N N.T.

    An n x (m+n) matrix [Z1 Z2] (u = t/||t||) has the same Gram matrix, so
    its spectral norm is ||K_w||_2. Z1 = Z1_r W.T, so [Z1_r Z2], built
    below from gain_r and adjoint_r, has that norm with p+k+n columns in
    place of m+n (module docstring). spectral_norm(Z1_r, Z2) reads it from
    the n x n Gram matrix Z1_r Z1_r.T + Z2 Z2.T; the two blocks are never
    stacked. A zero t leaves K_w = [x.T/alpha, -1/beta] kron G, of norm
    ||G||_2 sqrt(||x||^2/alpha^2 + 1/beta^2).
    """
    alpha, beta = w.alpha, w.beta
    if nt == 0.0:
        return g_norm * np.sqrt(nx**2 / alpha**2 + 1.0 / beta**2)
    g, t = op.gain_r, op.adjoint_r
    c1 = np.sqrt(beta**2 / alpha**2 + 1.0 / nx**2)
    c2 = c1 + 1.0 / nx
    u = t / nt
    gu = g @ u
    z1 = -(nx / beta) * (c1 * g - c2 * np.outer(gu, u))
    z2 = (nt / alpha) * op.null_gram_inv - np.outer(gu, op.x) / alpha
    return spectral_norm(z1, z2)
