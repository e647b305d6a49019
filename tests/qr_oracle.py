"""Unstreamed R factors: oracles for the blocked kernel linalg.r_factor.

dgeqrf_r is the kernel's single-block path written out (one in-place
dgeqrf call on a Fortran copy of the whole stack); one_shot_r is SciPy's
plain QR. Neither streams, so both copy every row of the stack at once.
"""
import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork


def dgeqrf_r(stack) -> np.ndarray:
    """R of one dgeqrf call with optimal lwork on a Fortran copy of stack."""
    work = np.array(stack, dtype=float, order="F")
    lwork, _ = dgeqrf_lwork(*work.shape)
    qr, _, _, info = dgeqrf(work, lwork=int(lwork), overwrite_a=1)
    assert info == 0
    return np.triu(qr[: min(work.shape)])


def one_shot_r(stack) -> np.ndarray:
    """The min(rows, cols) x cols R of scipy.linalg.qr(stack, mode="r")."""
    (r,) = scipy.linalg.qr(stack, mode="r")
    return r[: min(stack.shape)]


def stack_of(*blocks, head=None) -> np.ndarray:
    """The matrix r_factor factors: head on top of the blocks side by side."""
    cols = np.column_stack([np.asarray(b, dtype=float) for b in blocks])
    return cols if head is None else np.vstack([head, cols])
