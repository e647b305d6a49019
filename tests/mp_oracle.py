"""60-digit references from mpmath, for problems with n <= 12 or so.

The float64 data are converted exactly, the arithmetic runs at mp.dps = 60,
and the result is rounded back to float64 once, so at the sizes used here
the reference is exact to float64 working accuracy.
"""
import mpmath
import numpy as np

from tlsekit import conditioning

#: Decimal digits of the reference arithmetic.
DIGITS = 60


def shifted_inverse(problem, sigma, eps) -> np.ndarray:
    """(C.T C / eps^2 + A.T A - sigma^2 I)^-1 from the problem's own C and A."""
    with mpmath.workdps(DIGITS):
        a = mpmath.matrix(problem.A.tolist())
        mat = a.T * a - mpmath.mpf(sigma) ** 2 * mpmath.eye(problem.n)
        if problem.p:
            c = mpmath.matrix(problem.C.tolist())
            mat += c.T * c / mpmath.mpf(eps) ** 2
        return np.array(mpmath.inverse(mat).tolist(), dtype=float)


def mixed_target(op) -> np.ndarray:
    """|G| |h| + sum_j |x_j G - N[:, j] t.T| |L[:, j]|, the exact
    mixed/componentwise target of a KOperator.

    G is the float n x m gain that the package streams, formed from op's
    factors by conditioning._gain over all m rows of [C; A] (at n <= 12 that
    is the package's one block, bit for bit); N = null_gram_inv, t =
    adjoint_dir, x, L and h are op's float factors. Everything after G runs
    at DIGITS, where each product of two doubles and each difference
    x_j G[i, k] - N[i, j] t_k is exact.
    """
    problem = op.problem
    gain = conditioning._gain(op, op.adjoint_dir, problem.A, op.p)
    labs, habs = np.abs(problem.L), np.abs(problem.h)
    n, m = op.n, op.m
    target = np.empty(n)
    with mpmath.workdps(DIGITS):
        x = [mpmath.mpf(v) for v in op.x]
        t = [mpmath.mpf(v) for v in op.adjoint_dir]
        for i in range(n):
            g = [mpmath.mpf(v) for v in gain[i]]
            row = [mpmath.mpf(v) for v in op.null_gram_inv[i]]
            terms = [abs(g[k]) * mpmath.mpf(habs[k]) for k in range(m)]
            terms += [
                abs(x[j] * g[k] - row[j] * t[k]) * mpmath.mpf(labs[k, j])
                for k in range(m)
                for j in range(n)
            ]
            target[i] = float(mpmath.fsum(terms))
    return target


def core_reference(problem) -> tuple[float, float, np.ndarray]:
    """(sigma_min, gap, x) of a problem, everything after the float data at
    DIGITS: a full QR of C.T (mp.qr) gives the basis N of ker(C) and the
    minimum-norm feasible point x_f, so the columns of
    aug = [[N, a x_f], [0, -a]], a = 1/sqrt(1 + ||x_f||^2), span
    ker([C d]) orthonormally. mp.svd_r of [A b] aug gives sigma_min and its
    right singular vector v, and of A N the restricted s_min;
    gap = s_min^2 - sigma_min^2 and x = -(aug v)[:n] / (aug v)[n].
    """
    n, p = problem.n, problem.p
    with mpmath.workdps(DIGITS):
        if p:
            q, r = mpmath.qr(mpmath.matrix(problem.C.T.tolist()), mode="full")
            x_feas = q[:, :p] * mpmath.lu_solve(
                r[:p, :p].T, mpmath.matrix(problem.d.tolist())
            )
            null = q[:, p:]
        else:
            x_feas, null = mpmath.zeros(n, 1), mpmath.eye(n)
        scale = 1 / mpmath.sqrt(1 + mpmath.norm(x_feas) ** 2)
        aug = mpmath.zeros(n + 1, n - p + 1)
        for i in range(n):
            for j in range(n - p):
                aug[i, j] = null[i, j]
            aug[i, n - p] = scale * x_feas[i]
        aug[n, n - p] = -scale
        stack = mpmath.matrix(np.column_stack([problem.A, problem.b]).tolist())
        _, sig, vt = mpmath.svd_r(stack * aug)
        low = min(range(len(sig)), key=lambda i: sig[i])
        restricted = mpmath.svd_r(stack[:, :n] * null, compute_uv=False)
        s_min = min(restricted[i] for i in range(len(restricted)))
        lifted = aug * vt[low, :].T
        x = [-lifted[i] / lifted[n] for i in range(n)]
        return (
            float(sig[low]),
            float(s_min**2 - sig[low] ** 2),
            np.array([float(v) for v in x]),
        )
