"""Dense matrix kernels shared by the rest of the package.

Thin wrappers over LAPACK (via numpy and scipy), the streamed R factor of
a stack of rows, and the Greville pseudoinverse update. No problem
semantics live here; everything operates on plain float arrays and raises
tlsekit errors on contract violations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dtpqrt

from .errors import InputError, NumericalError

#: Relative tolerance on triangular diagonals when deciding rank.
RANK_TOL = 1e-12

#: Byte budget of r_factor's row-block workspace: small enough that a block
#: stays in cache while it is merged into R.
BLOCK_BYTES = 256 * 1024

#: Inner block size of the dtpqrt merge (16 was fastest or within 5% of it
#: at 101 and 301 columns, one BLAS thread).
MERGE_NB = 16


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


def svd(m) -> SvdResult:
    """Thin SVD as an SvdResult; raises NumericalError on breakdown."""
    arr = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return SvdResult(u=u, s=s, v=vt.T)


def block_rows(cols: int) -> int:
    """Height of r_factor's workspace for a stack of cols columns, and of
    the row blocks over which conditioning streams the gain (cols = n).

    BLOCK_BYTES of float64 rows, but never fewer than cols rows, so the
    first block always yields a square R.
    """
    return max(cols, BLOCK_BYTES // (8 * cols))


def _upper(m) -> np.ndarray:
    """np.triu(m) for m with no more rows than columns, at a lower call
    cost than np.triu's mask construction (r_factor runs once per solve,
    so this shows on many small problems)."""
    j = np.arange(m.shape[1])
    return np.where(j[: m.shape[0], None] <= j, m, 0.0)


def r_factor(*blocks, head=None) -> np.ndarray:
    """R of a QR of the blocks side by side; a 1-d block is one column.

    The rows of head (same column count), if given, are stacked on top.
    The stack is streamed through one private Fortran-ordered workspace of
    block_rows(cols) rows (more if head alone is taller), a block at a time
    (the sequential TSQR of Demmel, Grigori, Hoemmen & Langou, SISC 2012):
    LAPACK dgeqrf factors the first block, which holds head, in place, and
    dtpqrt merges each later block into the cols x cols R. Q is never
    formed, the stack is never copied whole, and the caller's arrays are
    never written. A stack that fits in one block takes the single dgeqrf
    call alone. Returns the min(rows, cols) x cols upper triangle; R.T @ R
    is the Gram matrix of the stack.
    """
    cols = [np.asarray(b, dtype=float) for b in blocks]
    cols = [c.reshape(-1, 1) if c.ndim == 1 else c for c in cols]
    q = len(cols[0])
    width = sum(c.shape[1] for c in cols)
    if any(len(c) != q for c in cols):
        raise InputError("r_factor blocks must have equal row counts")
    top = 0
    if head is not None:
        head = np.asarray(head, dtype=float)
        if head.ndim != 2 or head.shape[1] != width:
            raise InputError(
                f"head must have {width} columns, got shape {head.shape}"
            )
        top = len(head)
    rows = max(block_rows(width), top)
    work = np.empty((min(rows, top + q), width), order="F")
    if top:
        work[:top] = head
    first = len(work) - top  # data rows in the first block
    data = cols if first == q else [c[:first] for c in cols]
    np.concatenate(data, axis=1, out=work[top:])
    lwork, _ = dgeqrf_lwork(*work.shape)
    qr, _, _, info = dgeqrf(work, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise NumericalError(f"QR factorization failed (dgeqrf info {info})")
    r = _upper(qr[: min(work.shape)])
    if first == q:
        return r
    r = np.asfortranarray(r)
    flat = work.reshape(-1, order="F")
    for start in range(first, q, rows):
        # a short last block is the contiguous leading part of the buffer
        stop = min(start + rows, q)
        block = flat[: (stop - start) * width].reshape((-1, width), order="F")
        np.concatenate([c[start:stop] for c in cols], axis=1, out=block)
        r, _, _, info = dtpqrt(
            0, min(MERGE_NB, width), r, block, overwrite_a=1, overwrite_b=1
        )
        if info != 0:
            raise NumericalError(f"QR block merge failed (dtpqrt info {info})")
    return r


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
