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
cheaper upper bounds.

The data rows enter the normwise numbers only through the row space of
[C; A]: with [A b] = Q R the solve's thin QR (R = solution.core.data_r)
and W = blkdiag(I_p, Q), gain = gain_r @ W.T and adjoint_dir = W @
adjoint_r, where gain_r and adjoint_r take R[:, :n] and R [x; -1] in
place of A and the residual. W has orthonormal columns, so the normwise
number and its upper bounds are norms of n x (p+n+1) matrices.

Entrywise absolute values do not commute with W, so the mixed and
componentwise numbers read the data rows themselves. They are streamed
over row blocks of [C; A] of block_rows(n) rows (the row streaming of
linalg.r_factor): each block of the gain is formed in one reused n x block
buffer and consumed at once, so these numbers cost O(n * block) memory
whatever m is. Blocking only regroups the sums over the rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dger

from .core import TlseProblem, TlseSolution, constraint_pinv, solve_qr_svd
from .errors import InputError, UndefinedConditionError
from .linalg import as_matrix, as_vector, block_rows, greville_augment, spectral_norm


@dataclass(frozen=True)
class Weights:
    """Positive weights (alpha on the matrix block, beta on the right side)."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise InputError(
                f"weights must be positive, got ({self.alpha}, {self.beta})"
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
    adjoint_r. The normwise numbers read these. problem is the solved
    problem itself, held by reference (no copy).
    """

    null_gram_inv: np.ndarray
    constraint_gain: np.ndarray
    adjoint_dir: np.ndarray
    x: np.ndarray
    rho: float
    gain_r: np.ndarray
    adjoint_r: np.ndarray
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
class MixedComponentwise:
    """Mixed and componentwise condition numbers.

    kappa_c is inf when some solution component is zero against a nonzero
    numerator (0/0 counts as 0); kappa_c_finite maxes over the nonzero
    components only.
    """

    kappa_m: float
    kappa_c: float
    kappa_c_finite: float


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
        problem=problem,
    )


def _gain(src, adjoint, data, head, out=None, scratch=None) -> np.ndarray:
    """(2/rho^2) (N x) adjoint.T - [constraint_gain[:, :head], N data.T],
    N = null_gram_inv, with rho, x and the two matrices read off src (a
    TlseSolution or a KOperator). Assembled in out (fresh if None); N
    data.T passes through scratch (fresh if None)."""
    n_inv = src.null_gram_inv
    # np.outer without its per-call overhead, which shows on small problems
    gain = np.multiply((n_inv @ src.x)[:, None], adjoint, out=out)
    gain *= 2.0 / src.rho**2
    gain[:, :head] -= src.constraint_gain[:, :head]
    gain[:, head:] -= np.matmul(n_inv, data.T, out=scratch)
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
    flat = a.ravel(order="K")
    return float(flat @ flat)


def _flex_norm(problem: TlseProblem, w: Weights) -> float:
    """||[alpha L, beta h]||_F, read from C, d, A, b without stacking them."""
    return float(
        np.sqrt(
            w.alpha**2 * (_sum_sq(problem.C) + _sum_sq(problem.A))
            + w.beta**2 * (_sum_sq(problem.d) + _sum_sq(problem.b))
        )
    )


def _solution_norm(op: KOperator) -> float:
    nx = float(np.linalg.norm(op.x))
    if nx == 0.0:
        raise UndefinedConditionError("condition numbers need x != 0")
    return nx


def kappa_normwise_exact(op: KOperator, w: Weights) -> float:
    """Normwise condition number, without forming K.

    With G = gain, N = null_gram_inv, t = adjoint_dir and the matrix-block
    columns of K scaled by 1/alpha, the right-side columns by 1/beta,

        K_w K_w.T = (||x||^2/alpha^2 + 1/beta^2) G G.T
                    - (G t (N x).T + N x (G t).T) / alpha^2
                    + (||t||^2/alpha^2) N N.T.

    An n x (m+n) matrix [Z1 Z2] (u = t/||t||) has the same Gram matrix, so
    its spectral norm is ||K_w||_2, which is normalized by the weighted
    data norm over ||x||. Z1 = Z1_r W.T, so [Z1_r Z2], built below from
    gain_r and adjoint_r, has that norm with p+k+n columns in place of m+n
    (module docstring). A zero t leaves K_w = [x.T/alpha, -1/beta] kron G,
    of norm ||G||_2 sqrt(||x||^2/alpha^2 + 1/beta^2).
    """
    nx = _solution_norm(op)
    scale = _flex_norm(op.problem, w) / nx
    alpha, beta = w.alpha, w.beta
    g, t = op.gain_r, op.adjoint_r
    nt = float(np.linalg.norm(t))
    if nt == 0.0:
        return spectral_norm(g) * np.sqrt(nx**2 / alpha**2 + 1.0 / beta**2) * scale
    c1 = np.sqrt(beta**2 / alpha**2 + 1.0 / nx**2)
    c2 = c1 + 1.0 / nx
    u = t / nt
    gu = g @ u
    z1 = -(nx / beta) * (c1 * g - c2 * np.outer(gu, u))
    z2 = (nt / alpha) * op.null_gram_inv - np.outer(gu, op.x) / alpha
    return spectral_norm(np.hstack([z1, z2])) * scale


def kappa_normwise_upper(op: KOperator, w: Weights) -> tuple[float, float]:
    """Kronecker-free upper bounds (tight, loose) on the normwise number.

    tight uses ||gain||_2 directly; loose additionally bounds the gain by
    the sum of its constituent block norms, so tight <= loose and both
    dominate the exact value. Both read the compressed gain_r, as
    ||gain||_2 = ||gain_r||_2 and ||null_gram_inv A.T||_2 =
    ||null_gram_inv R_A.T||_2.
    """
    nx = _solution_norm(op)
    alpha, beta = w.alpha, w.beta
    nt = float(np.linalg.norm(op.adjoint_r))
    factor = (
        _flex_norm(op.problem, w)
        / nx
        * np.sqrt(max(1.0, beta**2 / alpha**2 + 1.0 / nx**2) + beta / alpha)
    )
    k_norm = spectral_norm(op.null_gram_inv)
    tight = (nx / beta * spectral_norm(op.gain_r) + nt / alpha * k_norm) * factor
    # null_gram_inv @ R_A.T: the data columns of gain_r less their rank-one term
    data_map = (2.0 / op.rho**2) * np.outer(
        op.null_gram_inv @ op.x, op.adjoint_r[op.p :]
    ) - op.gain_r[:, op.p :]
    split_norms = spectral_norm(op.constraint_gain) + spectral_norm(data_map)
    loose = (
        nx / beta * split_norms + (2.0 / beta + 1.0 / alpha) * nt * k_norm
    ) * factor
    return float(tight), float(loose)


def _max_ratio(num, den) -> tuple[float, float]:
    """Largest |num|/|den| entrywise, with 0/0 -> 0 and x/0 -> inf; and the
    largest over the entries where den != 0 only."""
    num = np.abs(np.asarray(num, dtype=float)).ravel()
    den = np.abs(np.asarray(den, dtype=float)).ravel()
    live = den != 0.0
    finite = float((num[live] / den[live]).max(initial=0.0))
    worst = float("inf") if np.any(num[~live] != 0.0) else finite
    return worst, finite


def _mixed_componentwise(target: np.ndarray, x: np.ndarray) -> MixedComponentwise:
    """Mixed and componentwise numbers from target = |K| vec(|[L h]|)."""
    nx_inf = float(np.abs(x).max(initial=0.0))
    if nx_inf == 0.0:
        raise UndefinedConditionError("condition numbers need x != 0")
    kappa_c, kappa_c_finite = _max_ratio(target, x)
    return MixedComponentwise(
        kappa_m=float(target.max(initial=0.0)) / nx_inf,
        kappa_c=kappa_c,
        kappa_c_finite=kappa_c_finite,
    )


def _gain_blocks(op: KOperator):
    """Stream the gain over row blocks of [C; A]: yield (gain_B, |L_B|,
    |h_B|, t_B) block by block, with t = adjoint_dir.

    A block holds block_rows(n) rows, or all m if fewer; as p < n <=
    block_rows(n), the constraint rows all fall in the first. gain_B =
    (2/rho^2) (N x) t_B.T - [constraint_gain | N A_B.T] is formed in one
    reused n x block buffer; |L_B| and |h_B| are copied into reused
    buffers, the first of which holds N A_B.T until gain_B is done. A short
    last block takes the contiguous leading part of each buffer. The next
    block overwrites all of them, and a consumer may overwrite gain_B.
    """
    problem = op.problem
    n, p, m = op.n, op.p, op.m
    rows = min(block_rows(n), m)
    gain_buf, labs_buf = np.empty(n * rows), np.empty(n * rows)
    habs_buf = np.empty(rows)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        size = stop - start
        head = max(p - start, 0)  # constraint rows in this block
        a_rows = slice(start + head - p, stop - p)
        t = op.adjoint_dir[start:stop]
        gain = _gain(
            op, t, problem.A[a_rows], head,
            out=gain_buf[: n * size].reshape(n, size),
            scratch=labs_buf[: n * (size - head)].reshape(n, size - head),
        )
        labs = labs_buf[: n * size].reshape(size, n)
        np.abs(problem.C[:head], out=labs[:head])
        np.abs(problem.A[a_rows], out=labs[head:])
        habs = habs_buf[:size]
        np.abs(problem.d[:head], out=habs[:head])
        np.abs(problem.b[a_rows], out=habs[head:])
        yield gain, labs, habs, t


def kappa_mixed_componentwise_exact(op: KOperator) -> MixedComponentwise:
    """Exact mixed/componentwise condition numbers.

    Sums |K| vec(|[L h]|) = |G| |h| + sum_j |x_j G - N[:, j] t.T| |L[:, j]|
    (notation of kappa_normwise_exact) over the row blocks of
    _gain_blocks, one n x block part of K_j at a time, in two more
    n x block buffers allocated once. The rank-one part N[:, j] t_B.T is
    a BLAS rank-one update of a zeroed buffer, which rounds each product
    once, as np.outer does.
    """
    n = op.n
    size = n * min(block_rows(n), op.m)
    block_buf, rank_buf = np.empty(size), np.empty(size)
    target = np.zeros(n)
    for gain, labs, habs, t in _gain_blocks(op):
        block = block_buf[: gain.size].reshape(gain.shape)
        # Fortran-ordered view of the rank-one buffer, written in place by dger
        rank_t = rank_buf[: gain.size].reshape(gain.shape).T
        target += np.abs(gain, out=block) @ habs
        for j in range(n):
            np.multiply(op.x[j], gain, out=block)
            # 0 + N[i, j] t_k rounds as np.outer does, at twice its speed
            rank_t.fill(0.0)
            rank_one = dger(1.0, t, op.null_gram_inv[:, j], a=rank_t, overwrite_a=1)
            block -= rank_one.T
            target += np.abs(block, out=block) @ labs[:, j]
    return _mixed_componentwise(target, op.x)


def kappa_mixed_componentwise_upper(op: KOperator) -> MixedComponentwise:
    """Kronecker-free upper bounds on the mixed/componentwise numbers.

    Bounds |K| vec(|[L h]|) by |G| (|L| |x| + |h|) + |N| |L|.T |t|, both
    terms summed over the row blocks of _gain_blocks.
    """
    abs_x = np.abs(op.x)
    target, weight = np.zeros(op.n), np.zeros(op.n)
    for gain, labs, habs, t in _gain_blocks(op):
        data = labs @ abs_x
        data += habs
        target += np.abs(gain, out=gain) @ data
        weight += labs.T @ np.abs(t)
    target += np.abs(op.null_gram_inv) @ weight
    return _mixed_componentwise(target, op.x)


def tls_specialization(
    problem: TlseProblem,
    solution: TlseSolution,
    dA=None,
    db=None,
) -> TlsSensitivity:
    """Sensitivities of the unconstrained (p = 0) problem.

    kappa_b scales the inverse-Gram-times-data map; kappa_A adds the
    residual term. When perturbations are supplied the first-order estimate
    kappa_b ||db||/||b|| + kappa_A ||dA||_2/||A||_2 is evaluated (missing
    pieces count as zero).
    """
    if problem.p != 0:
        raise InputError("tls_specialization requires a problem with p = 0")
    inv_gram = solution.null_gram_inv
    # [A b] = Q R with orthonormal Q, so the q-row norms are read off R:
    # ||A||_2 = ||R_A||_2 and ||A x - b|| = ||R [x; -1]||
    r = solution.core.data_r
    r_a = r[:, :-1]
    data_map_norm = spectral_norm(inv_gram @ r_a.T)
    nx = float(np.linalg.norm(solution.x))
    if nx == 0.0:
        raise UndefinedConditionError("condition numbers need x != 0")
    nb = float(np.linalg.norm(problem.b))
    na = spectral_norm(r_a)
    nr = float(np.linalg.norm(r_a @ solution.x - r[:, -1]))
    kappa_b = nb / nx * data_map_norm
    kappa_a = na / nx * (nr * spectral_norm(inv_gram) + nx * data_map_norm)
    estimate = None
    if dA is not None or db is not None:
        est = 0.0
        if db is not None and nb > 0:
            est += kappa_b * float(np.linalg.norm(as_vector(db))) / nb
        if dA is not None and na > 0:
            est += kappa_a * spectral_norm(as_matrix(dA)) / na
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
    w = weights or Weights()
    sol = solution if solution is not None else solve_qr_svd(problem)
    op = build_k_operator(problem, sol)
    tight, loose = kappa_normwise_upper(op, w)
    upper = kappa_mixed_componentwise_upper(op)
    mixed = upper if method == "upper" else kappa_mixed_componentwise_exact(op)
    return ConditionReport(
        kappa_n=float(kappa_normwise_exact(op, w)),
        kappa_n_upper=tight,
        kappa_n_upper_loose=loose,
        kappa_m=mixed.kappa_m,
        kappa_m_upper=upper.kappa_m,
        kappa_c=mixed.kappa_c,
        kappa_c_upper=upper.kappa_c,
        kappa_c_finite=mixed.kappa_c_finite,
        weights=w,
        method="bound" if method == "upper" else "exact",
    )
