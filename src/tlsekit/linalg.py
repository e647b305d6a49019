"""Dense matrix kernels shared by the rest of the package.

Thin wrappers over LAPACK (via numpy and scipy) plus the Greville
pseudoinverse update. No problem semantics live here; everything operates
on plain float arrays and raises tlsekit errors on contract violations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork

from .errors import InputError, NumericalError

#: Relative tolerance on triangular diagonals when deciding rank.
RANK_TOL = 1e-12


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite 2-d float64 array."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-d, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and flatten to a finite 1-d float64 array (row or column)."""
    arr = np.asarray(v, dtype=float)
    if sum(dim != 1 for dim in arr.shape) > 1:
        raise InputError(f"{name} must be a vector, got shape {arr.shape}")
    arr = arr.reshape(-1)
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SvdResult:
    """SVD factors M = u @ diag(s) @ v.T with s nonincreasing.

    v holds right singular vectors as columns (not transposed).
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd(m, full: bool = False) -> SvdResult:
    """SVD wrapper returning an SvdResult; raises NumericalError on breakdown."""
    arr = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=full)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return SvdResult(u=u, s=s, v=vt.T)


def r_factor(*blocks) -> np.ndarray:
    """R of a QR of the blocks side by side; a 1-d block is one column.

    The blocks are copied into one private Fortran-ordered workspace that
    LAPACK dgeqrf overwrites in place, so Q is never formed and the caller's
    arrays are never written. Returns the min(rows, cols) x cols upper
    triangle; R.T @ R is the Gram matrix of the stacked blocks.
    """
    cols = [np.asarray(b, dtype=float) for b in blocks]
    cols = [c.reshape(-1, 1) if c.ndim == 1 else c for c in cols]
    work = np.empty((len(cols[0]), sum(c.shape[1] for c in cols)), order="F")
    np.concatenate(cols, axis=1, out=work)
    lwork, _ = dgeqrf_lwork(*work.shape)
    qr, _, _, info = dgeqrf(work, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise NumericalError(f"QR factorization failed (dgeqrf info {info})")
    return np.triu(qr[: min(work.shape)])


def singular_values(m) -> np.ndarray:
    arr = as_matrix(m)
    if 0 in arr.shape:
        return np.zeros(0)
    try:
        return np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def spectral_norm(m) -> float:
    """Largest singular value; 0.0 for an empty matrix."""
    s = singular_values(np.atleast_2d(np.asarray(m, dtype=float)))
    return float(s[0]) if s.size else 0.0


def greville_augment(c_pinv, x_feas) -> np.ndarray:
    """Pseudoinverse of [C d] from the pseudoinverse of C.

    Column-append update: given c_pinv (n x p) and x_feas = c_pinv @ d, the
    augmented pseudoinverse is

        [[I - x x.T / w] @ c_pinv]         w = 1 + ||x||^2
        [     x.T @ c_pinv / w   ]

    which is exact whenever C has full row rank (d is then in range(C)).
    """
    pinv = as_matrix(c_pinv, "c_pinv")
    x = as_vector(x_feas, "x_feas")
    n, p = pinv.shape
    if x.shape[0] != n:
        raise InputError(
            f"x_feas has length {x.shape[0]}, expected {n} to match c_pinv"
        )
    w = 1.0 + float(x @ x)
    top = pinv - np.outer(x, x @ pinv) / w
    bottom = (x @ pinv) / w
    return np.vstack([top, bottom[None, :]])
