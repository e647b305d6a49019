"""References for the Nystrom kernel tlsekit.wtls._nystrom.

nystrom_svd is the kernel as it stood before the package read the dominant
direction off one eigenpair: NumPy's stacked QR and Cholesky over all
slabs' matrices, then a full thin SVD of every compressed factor K, of
which only the leading left singular vector is read. The package's kernel
must give the same x to within the rounding of that last step.

nystrom_per_slab takes every step one slab at a time on 2-D arrays, as the
kernel did before its glue was stacked across slabs; the package's kernel
must match it bit for bit.
"""
import numpy as np

from tlsekit.core import _x_from_direction
from tlsekit.linalg import cholesky, solve_triangular, thin_q, top_eigen


def nystrom_svd(r: np.ndarray, draws: np.ndarray) -> list[np.ndarray]:
    """x for each (n+1, width) slab of draws from the leading left singular
    vector of K."""
    k, n1, width = draws.shape
    n = n1 - 1

    def gram_solve(rhs):
        out = solve_triangular(r, solve_triangular(r, rhs, trans=1))
        return out.reshape(n + 1, width, k, order="F").transpose(2, 0, 1)

    q = np.linalg.qr(gram_solve(np.hstack(list(draws))))[0]
    y = gram_solve(q.transpose(1, 0, 2).reshape(n + 1, k * width))
    z = q.transpose(0, 2, 1) @ y
    low = np.linalg.cholesky(0.5 * (z + z.transpose(0, 2, 1)))
    k_factors = [solve_triangular(f, y_s.T, lower=True).T for f, y_s in zip(low, y)]
    u = np.linalg.svd(np.stack(k_factors), full_matrices=False)[0]
    return [_x_from_direction(u_s) for u_s in u[:, :, 0]]


def nystrom_per_slab(r: np.ndarray, draws: np.ndarray) -> list[np.ndarray]:
    """x for each slab of draws, each from its own pair of inverse-Gram
    solves, its own products q.T @ y, K.T @ K and K v, and
    np.linalg.norm(u). r must lie in the range the kernel leaves unscaled."""
    xs = []
    for g in draws:
        q = thin_q(solve_triangular(r, solve_triangular(r, g, trans=1)))
        y = solve_triangular(r, solve_triangular(r, q, trans=1))
        z = q.T @ y
        k_s = solve_triangular(cholesky(0.5 * (z + z.T)), y.T, lower=True).T
        u = k_s @ top_eigen(k_s.T @ k_s, vector=True)[1]
        xs.append(_x_from_direction(u / np.linalg.norm(u)))
    return xs
