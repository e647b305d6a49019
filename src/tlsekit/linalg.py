"""Dense matrix kernels shared by the rest of the package.

Thin wrappers over LAPACK (via numpy and scipy), triangular solves by
dtrtrs alone, the thin Q, the Cholesky factor and the largest eigenpair
of small matrices by direct LAPACK calls, the streamed R factor of a
stack of rows, the largest singular value of blocks side by side from one
eigenvalue of their Gram matrix, and the singular values of a diagonal
matrix bordered by one column from LAPACK's secular equation solver.
No problem semantics live here; everything operates on plain float
arrays and raises tlsekit errors on contract violations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import (
    dgeqrf, dgeqrf_lwork, dlasd4, dorgqr, dpotrf, dsyevr, dtpqrt, dtrtrs,
)

from .errors import InputError, NumericalError

#: Relative tolerance on triangular diagonals when deciding rank.
RANK_TOL = 1e-12

#: Byte budget of one row block and the cols x cols R it is merged into
#: (r_factor): small enough that both stay in cache while the block is
#: merged in. The report's gain blocks take the same height (block_rows).
BLOCK_BYTES = 256 * 1024

#: Inner block size of the dtpqrt merge (16 was fastest or within 5% of it
#: at 101 and 301 columns, one BLAS thread).
MERGE_NB = 16

#: pow2_scale scales matrices only when their largest entry lies outside
#: 2^(+-GRAM_EXP): squares of such entries stay far inside the float range
#: (2^+-1022), with room for sums over many terms.
GRAM_EXP = 400

#: bordered_svd deflates at DEFLATE_TOL * u * max(s[0], ||[z; gamma]||),
#: u = eps/2, the order of the rounding error in the singular values it is
#: given.
DEFLATE_TOL = 64


def _check_finite(arr: np.ndarray, name: str) -> None:
    """InputError unless every entry of the 1-d or 2-d arr is finite.

    Checked over row blocks of block_rows(cols) rows (BLOCK_BYTES / 8
    entries of a vector), so the boolean temporary is one block: a mask of
    a memory-mapped arr would be the one large allocation.
    """
    if not arr.size:
        return
    step = block_rows(arr.shape[1]) if arr.ndim == 2 else BLOCK_BYTES // 8
    for start in range(0, len(arr), step):
        if not np.isfinite(arr[start : start + step]).all():
            raise InputError(f"{name} contains non-finite entries")


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite 2-d float64 array."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-d, got shape {arr.shape}")
    _check_finite(arr, name)
    return arr


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and flatten to a finite 1-d float64 array (row or column)."""
    arr = np.asarray(v, dtype=float)
    if sum(dim != 1 for dim in arr.shape) > 1:
        raise InputError(f"{name} must be a vector, got shape {arr.shape}")
    arr = arr.reshape(-1)
    _check_finite(arr, name)
    return arr


def check_integer(value, name: str) -> None:
    """InputError unless value is an integer, Python or NumPy, and not a
    bool; a float, even a whole one, is not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")


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


def solve_triangular(a, b, trans: int = 0, lower: bool = False) -> np.ndarray:
    """x with a x = b (trans 0) or a.T x = b (trans 1), a square triangular.

    scipy.linalg.solve_triangular without its per-call checks, which cost
    several times the LAPACK dtrtrs call on small systems; a and b must be
    finite float64 arrays. A C-ordered a goes in as the Fortran-ordered a.T
    with lower and trans flipped, as SciPy does, so results match it bit for
    bit. An empty b (a 0 x 0 a, the p = 0 case) returns at once.
    """
    if not b.size:
        return np.empty(b.shape)
    if not a.flags.f_contiguous:
        a, lower, trans = a.T, not lower, 1 - trans
    x, info = dtrtrs(a, b, lower=lower, trans=trans)
    if info != 0:
        raise NumericalError(f"triangular solve failed (dtrtrs info {info})")
    return x


def thin_q(a: np.ndarray) -> np.ndarray:
    """Q of a thin QR of a (rows >= cols), by LAPACK dgeqrf then dorgqr.

    a may be overwritten: a Fortran-ordered float64 a holds the
    Householder vectors and then Q, which is returned in its memory (f2py
    copies any other a first). a must be finite. NumericalError on a
    nonzero LAPACK info.
    """
    qr, tau, _, info = dgeqrf(a, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"QR factorization failed (dgeqrf info {info})")
    q, _, info = dorgqr(qr, tau, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"forming Q failed (dorgqr info {info})")
    return q


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower triangular L with L L.T = a, by LAPACK dpotrf on a's lower
    triangle (the upper one is not read, and is zero in L). a is the
    compression of a randomized sketch, so a nonzero info, which means a
    is not positive definite, is a NumericalError that asks for a wider
    sketch.
    """
    low, info = dpotrf(a, lower=1)
    if info != 0:
        raise NumericalError(
            f"sketch compression is not positive definite (dpotrf info {info}); "
            "increase oversample or the sample size"
        )
    return low


def top_eigen(a: np.ndarray, vector: bool) -> tuple[float, np.ndarray | None]:
    """(w, v): the largest eigenvalue of the symmetric a and, if vector, a
    unit eigenvector (None otherwise), from one LAPACK dsyevr call (range
    "I") on a's upper triangle. A Fortran-ordered float64 a is overwritten
    in place; f2py copies any other a first, so a caller holding an
    exactly symmetric C-ordered matrix passes its transpose to spare the
    copy. NumericalError on a nonzero info.
    """
    k = len(a)
    w, v, _, _, info = dsyevr(
        a, compute_v=int(vector), range="I", il=k, iu=k, overwrite_a=1
    )
    if info != 0:
        raise NumericalError(f"eigenvalue solver failed (dsyevr info {info})")
    return float(w[0]), v[:, 0] if vector else None


def block_rows(cols: int) -> int:
    """Height of r_factor's workspace for a stack of cols columns, and of
    the row blocks over which conditioning streams the gain (cols = n).

    The most float64 rows that fit in BLOCK_BYTES together with one cols x
    cols square, the R a block is merged into (sequential TSQR sizes a
    block with its R, Demmel, Grigori, Hoemmen & Langou, SISC 2012): 223
    rows at 101 columns. Never fewer than cols rows, so the first block
    always yields a square R; blocks are square from 128 columns on.
    """
    return max(cols, (BLOCK_BYTES // 8 - cols * cols) // cols)


def _upper(m, order: str = "C") -> np.ndarray:
    """np.triu(m) as a new array in order, for a nonempty m with no more
    rows than columns. C order keeps every product with R bit for bit.

    The copy is the one allocation of R's size. A broadcast
    comparison with np.where (or np.triu) would build a k x cols mask and
    run NumPy's buffered iterator over the Fortran-ordered m, whose
    buffers outweigh R at the sizes of a solve. Here the mask is a
    Toeplitz view, below[i, j] = flags[k - 1 - i + j], of k - 1 + cols
    flags, true exactly where j < i, and one masked copyto zeroes them.
    """
    r = np.array(m, order=order)
    k, cols = r.shape
    flags = np.zeros(k - 1 + cols, dtype=bool)
    flags[: k - 1] = True
    below = np.ndarray((k, cols), bool, buffer=flags, offset=k - 1, strides=(-1, 1))
    np.copyto(r, 0.0, where=below)
    return r


def r_factor(*blocks, head=None) -> np.ndarray:
    """R of a QR of the blocks side by side; a 1-d block is one column.

    The rows of head (same column count), if given, are stacked on top.
    The stack is streamed through one private Fortran-ordered workspace of
    block_rows(cols) rows (more if head alone is taller), which fits in
    BLOCK_BYTES together with the cols x cols R, a block at a time
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
    if first == q:
        return _upper(qr[: min(work.shape)])
    # a copy: qr[:width] is all of work when block_rows(width) == width
    r = _upper(qr[:width], order="F")
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


def bordered_svd(s, z, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[sigma_max, second-smallest, sigma_min] of the singular values of H =
    [[diag(s), z], [0, gamma]], s nonincreasing, nonnegative and nonempty.

    H H.T = diag(s^2, 0) + zeta zeta.T with zeta = [z; gamma], so the
    squared singular values are the roots of the secular equation
    1 + sum_j zeta_j^2 / (d_j^2 - sigma^2) = 0 over the poles d = [s; 0].
    Deflation follows LAPACK dlasd2, with tol = DEFLATE_TOL * u * max(s[0],
    ||zeta||): a pole with |zeta_j| <= tol is itself a singular value (so
    zeta = 0 leaves every pole one), and of poles within tol of the smallest
    in their run the larger ones are, each zeta merged into the smallest's
    by a Givens rotation. Root i lies above the i-th pole left (ascending),
    so LAPACK dlasd4 (Gu & Eisenstat, SIMAX 1995) solves for roots 0, 1 and
    the last alone, on data scaled by a power of two to magnitude at most 1:
    with the deflated poles they hold the three values.

    Returns (sigma, shifts, y): those three (sigma_max twice when H is
    2 x 2), bit for bit as from all roots; shifts = s^2 - sigma_min^2,
    products of the differences d_j - sigma_min that dlasd4 computes to
    high relative accuracy, so shifts >= 0 and s[-1] >= sigma_min; and the
    unit y with H.T H y = sigma_min^2 y, [-s z / shifts; 1] normalized, or
    e_j when sigma_min is the deflated pole s_j = s[-1] (shifts[-1] = 0).
    NumericalError on a nonzero dlasd4 info.
    """
    # poles in ascending order, 0 (gamma's row) first, zeta alongside; all
    # scaled by a power of two, which is exact, to magnitude at most 1
    exp = math.frexp(max(s[0], abs(gamma), *map(abs, z.tolist())))[1]
    poles = [0.0] + [math.ldexp(v, -exp) for v in reversed(s.tolist())]
    zeta = [math.ldexp(gamma, -exp)] + [math.ldexp(v, -exp) for v in reversed(z.tolist())]
    tol = DEFLATE_TOL * np.finfo(float).eps / 2 * max(poles[-1], math.hypot(*zeta))
    d, weight, deflated = [], [], []
    for t, w in zip(poles, zeta):
        if abs(w) <= tol:
            deflated.append(t)
        elif d and t - d[-1] <= tol:
            weight[-1] = math.hypot(weight[-1], w)
            deflated.append(t)
        else:
            d.append(t)
            weight.append(w)
    norm = math.hypot(*weight)
    rho, unit, poles_in = norm * norm, np.array(weight) / (norm or 1.0), np.array(d)
    roots, delta = [], None
    for i in (0, 1, len(d) - 1) if len(d) > 3 else range(len(d)):
        step, root, _, info = dlasd4(i, poles_in, unit, rho)
        if info != 0:
            raise NumericalError(f"secular equation solver failed (dlasd4 info {info})")
        roots.append(root)
        if i == 0:
            # dlasd4 returns no differences for one pole
            delta = step.tolist() if len(d) > 1 else [d[0] - root]
    sigma = sorted(roots + deflated, reverse=True)
    low = sigma[-1]
    if roots and not any(t <= low for t in deflated):
        # sigma_min is the smallest root, and d_j - sigma_min is
        # (d_j - d_ref) + delta_ref with d_ref the largest pole of the
        # secular equation at or below d_j: two terms >= 0
        diffs, ref = [], 0
        for t in poles[1:]:
            while ref + 1 < len(d) and d[ref + 1] <= t:
                ref += 1
            diffs.append((t - d[ref]) + delta[ref])
    else:
        diffs = [t - low for t in poles[1:]]
    shifts = [diff * (t + low) for diff, t in zip(diffs, poles[1:])][::-1]
    gap = shifts[-1]
    if gap == 0.0:
        y = [0.0] * (len(s) + 1)
        y[-2] = 1.0
    else:
        y = [
            -t * w * (gap / shift) if abs(w) > tol else 0.0
            for t, w, shift in zip(poles[:0:-1], zeta[:0:-1], shifts)
        ] + [gap]
        norm = math.hypot(*y)
        y = [v / norm for v in y]
    return np.ldexp([sigma[0], sigma[-2], low], exp), np.ldexp(shifts, 2 * exp), np.array(y)


def pow2_scale(big: float, mats: list) -> tuple[int, list]:
    """(exp, mats scaled by 2^-exp), with exp the binary exponent of the
    finite, positive big (the largest magnitude among mats' entries) when
    it lies outside 2^(+-GRAM_EXP), and (0, mats) unchanged otherwise. A
    power of two scales exactly (barring underflow to subnormals), so the
    bits of normal-range data are never touched.
    """
    exp = math.frexp(big)[1]
    if abs(exp) <= GRAM_EXP:
        return 0, mats
    return exp, [np.ldexp(b, -exp) for b in mats]


def spectral_norm(*blocks) -> float:
    """Largest singular value of the blocks side by side; a 1-d block is
    one column, as in r_factor. 0.0 when there are no entries.

    Read as the square root of the largest eigenvalue of the smaller Gram
    matrix, sum b b.T over the blocks, or b.T b for one block with more
    rows than columns, which LAPACK dsyevr computes alone (range "I"); its
    relative error is O(u), as sigma_max^2 is the Gram matrix's norm. The
    blocks are neither stacked nor copied, unless their largest entry lies
    outside 2^(+-GRAM_EXP): those are scaled by a power of two first
    (pow2_scale), so that the Gram matrix neither overflows nor
    underflows. The smallest singular values do not come from a Gram
    matrix (svd).
    """
    return spectral_norm_of(list(blocks))


def spectral_norm_of(blocks: list) -> float:
    """spectral_norm of the blocks in the list, which it empties: each block
    is dropped as soon as its product is in the Gram matrix, so a block
    that the caller no longer holds is freed before the next product's
    n x n temporary is formed. The products, and their order, are those of
    spectral_norm, bit for bit.
    """
    mats = [np.asarray(b, dtype=float) for b in blocks]
    blocks.clear()
    mats = [b.reshape(-1, 1) if b.ndim == 1 else b for b in mats]
    if any(b.ndim != 2 for b in mats):
        raise InputError("spectral_norm blocks must be 1-d or 2-d")
    if len({len(b) for b in mats}) > 1:
        raise InputError("spectral_norm blocks must have equal row counts")
    mats = [b for b in mats if b.size]
    if not mats:
        return 0.0
    # max |entry| without an |b| temporary; np.max propagates NaN and inf
    big = np.max([(b.max(), -b.min()) for b in mats])
    if not np.isfinite(big):
        raise InputError("spectral_norm blocks contain non-finite entries")
    if big == 0.0:
        return 0.0
    exp, mats = pow2_scale(big, mats)
    if len(mats) == 1 and mats[0].shape[0] > mats[0].shape[1]:
        gram = mats[0].T @ mats[0]
    else:
        # each block leaves mats, and b drops it, before the next product
        b = mats.pop(0)
        gram = b @ b.T
        while mats:
            b = mats.pop(0)
            gram += b @ b.T
    # NumPy forms each b @ b.T by syrk and mirrors its triangle, so gram is
    # exactly symmetric and gram.T, Fortran-ordered, the same matrix, which
    # dsyevr takes without a copy
    w = top_eigen(gram.T, vector=False)[0]
    return float(np.ldexp(np.sqrt(max(w, 0.0)), exp))
