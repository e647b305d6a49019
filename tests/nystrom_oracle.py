"""Stacked-SVD Nystrom kernel: the reference for tlsekit.wtls._nystrom.

This is the kernel as it stood before the package read the dominant
direction off one eigenpair: NumPy's stacked QR and Cholesky over all
seeds' matrices, then a full thin SVD of every compressed factor K, of
which only the leading left singular vector is read. The package's kernel
must give the same x to within the rounding of that last step.
"""
import numpy as np

from tlsekit.core import _x_from_direction
from tlsekit.linalg import solve_triangular


def nystrom_svd(r: np.ndarray, width: int, seeds) -> list[np.ndarray]:
    """x for each seed from the leading left singular vector of K."""
    n, k = r.shape[1] - 1, len(seeds)

    def gram_solve(rhs):
        out = solve_triangular(r, solve_triangular(r, rhs, trans=1))
        return out.reshape(n + 1, width, k, order="F").transpose(2, 0, 1)

    draws = [np.random.default_rng(s).standard_normal((n + 1, width)) for s in seeds]
    q = np.linalg.qr(gram_solve(np.hstack(draws)))[0]
    y = gram_solve(q.transpose(1, 0, 2).reshape(n + 1, k * width))
    z = q.transpose(0, 2, 1) @ y
    low = np.linalg.cholesky(0.5 * (z + z.transpose(0, 2, 1)))
    k_factors = [solve_triangular(f, y_s.T, lower=True).T for f, y_s in zip(low, y)]
    u = np.linalg.svd(np.stack(k_factors), full_matrices=False)[0]
    return [_x_from_direction(u_s) for u_s in u[:, :, 0]]
