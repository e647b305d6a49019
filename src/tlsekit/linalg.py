"""Dense matrix kernels shared by the rest of the package.

Thin wrappers over LAPACK (via numpy) plus the Greville pseudoinverse
update. No problem semantics live here; everything operates on plain float
arrays and raises tlsekit errors on contract violations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    arr = np.asarray(v, dtype=float).reshape(-1)
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
