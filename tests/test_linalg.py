"""Dense kernel tests: validation, SVD wrappers, the spectral norm of
blocks side by side, the streamed R factor, the direct triangular solve,
the direct QR, Cholesky and eigenpair calls of the Nystrom kernel, and the
secular SVD of a bordered diagonal."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import tlsekit.linalg
from qr_oracle import dgeqrf_r, stack_of
from tlsekit.errors import InputError, NumericalError
from tlsekit.linalg import (
    BLOCK_BYTES,
    _upper,
    as_matrix,
    as_vector,
    block_rows,
    bordered_svd,
    cholesky,
    r_factor,
    solve_triangular,
    spectral_norm,
    spectral_norm_of,
    svd,
    thin_q,
    top_eigen,
)

PHI = (1 + math.sqrt(5)) / 2


def test_as_matrix_rejects_wrong_rank():
    with pytest.raises(InputError):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(InputError):
        as_matrix([1.0, 2.0])


def test_as_matrix_rejects_non_finite():
    with pytest.raises(InputError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(InputError):
        as_vector([np.inf])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "last"])
def test_finiteness_is_checked_in_every_row_block(bad, where):
    # several row blocks of a matrix and of a vector; empty arrays pass
    a = np.zeros((3 * block_rows(4) + 1, 4))
    v = np.zeros(3 * BLOCK_BYTES // 8 + 1)
    index = 0 if where == "first" else -1
    a[index, index], v[index] = bad, bad
    with pytest.raises(InputError, match="^A contains non-finite entries$"):
        as_matrix(a, "A")
    with pytest.raises(InputError, match="^b contains non-finite entries$"):
        as_vector(v, "b")
    assert as_matrix(np.zeros((3, 0))).shape == (3, 0)
    assert as_vector(np.zeros(0)).shape == (0,)


def test_svd_golden_ratio_values():
    # [[1,1],[0,1]] has squared singular values (3 +- sqrt(5))/2, i.e.
    # the singular values are exactly (phi, 1/phi)
    res = svd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    np.testing.assert_allclose(res.s, [PHI, 1 / PHI], rtol=1e-14)
    rebuilt = res.u @ np.diag(res.s) @ res.v.T
    np.testing.assert_allclose(rebuilt, [[1, 1], [0, 1]], atol=1e-14)
    np.testing.assert_allclose(res.v.T @ res.v, np.eye(2), atol=1e-14)


def test_singular_values_and_spectral_norm_empty():
    # check_eps_bound reads sigma_min([C d]) as svd(...).s.min(initial=inf)
    assert svd(np.zeros((0, 3))).s.size == 0
    assert spectral_norm(np.zeros((0, 3))) == 0.0
    assert spectral_norm(np.zeros((3, 0))) == 0.0


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(2)
    arr = rng.standard_normal((5, 4))
    assert spectral_norm(arr) == pytest.approx(np.linalg.norm(arr, 2), rel=1e-13)


def _side_by_side_cases():
    """(case id, blocks) for spectral_norm against the SVD of the hstack."""
    rng = np.random.default_rng(12)
    rand = rng.standard_normal
    cases = {
        "one-tall": [rand((9, 4))],
        "one-wide": [rand((4, 9))],
        "one-square": [rand((6, 6))],
        "random-blocks": [rand((5, 3)), rand((5, 7)), rand((5, 2))],
        "tall-blocks": [rand((12, 3)), rand((12, 2))],
        "rank-one": [np.outer(rand(6), rand(4)), np.outer(rand(6), rand(3))],
        "zero-and-random": [np.zeros((4, 3)), rand((4, 5))],
        "all-zero": [np.zeros((4, 3)), np.zeros((4, 2))],
        "empty-blocks": [np.zeros((5, 0)), rand((5, 3)), np.zeros((5, 0))],
        "1xk": [rand((1, 6))],
        "1xk-blocks": [rand((1, 3)), rand((1, 4))],
        "kx1": [rand((7, 1))],
        "kx1-blocks": [rand((7, 1)), rand((7, 1))],
        "1-d-as-column": [rand((6, 3)), rand(6)],
    }
    cols = 10.0 ** rng.uniform(-3, 3, 10)
    scaled = rand((8, 10)) * cols
    cases["column-scaled"] = [scaled]
    cases["column-scaled-blocks"] = [scaled[:, :4], scaled[:, 4:]]
    for exp in (200, -200):
        cases[f"1e{exp:+d}"] = [rand((5, 3)) * 10.0**exp, rand((5, 4)) * 10.0**exp]
        cases[f"1e{exp:+d}-tall"] = [rand((9, 3)) * 10.0**exp]
    return list(cases.items())


@pytest.mark.parametrize(
    "blocks", [b for _, b in _side_by_side_cases()],
    ids=[name for name, _ in _side_by_side_cases()],
)
def test_spectral_norm_of_blocks_side_by_side(blocks):
    before = [b.copy() for b in blocks]
    stack = np.hstack([b.reshape(len(b), -1) for b in blocks])
    # abs=0: approx's default absolute slack would pass 0.0 for 1e-200
    assert spectral_norm(*blocks) == pytest.approx(
        np.linalg.norm(stack, 2), rel=1e-13, abs=0.0
    )
    for b, old in zip(blocks, before):
        np.testing.assert_array_equal(b, old)
    # handed over in a list, the same bits, and the list is emptied
    handed = list(blocks)
    assert spectral_norm_of(handed) == spectral_norm(*blocks)
    assert handed == []


def test_spectral_norm_of_frees_each_block_once_used():
    # z1 is freed before z2's n x n product temporary is formed, so the
    # call adds the Gram matrix and that temporary, not both beside z1
    n = 60
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        # traced, so that freeing z1 counts
        blocks = [rng.standard_normal((n, 2 * n)), rng.standard_normal((n, n))]
        start = tracemalloc.get_traced_memory()[0]
        spectral_norm_of(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 8 * (n * n + n * n // 2)


def test_spectral_norm_of_empty_blocks_is_zero():
    assert spectral_norm(np.zeros((3, 0)), np.zeros((3, 0))) == 0.0
    assert spectral_norm(np.zeros((0, 2)), np.zeros((0, 4))) == 0.0
    assert spectral_norm(np.zeros(0)) == 0.0


def test_spectral_norm_rejects_bad_blocks():
    with pytest.raises(InputError, match="equal row counts"):
        spectral_norm(np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(InputError, match="non-finite"):
        spectral_norm(np.ones((3, 2)), np.array([[1.0], [np.nan], [0.0]]))
    with pytest.raises(InputError, match="non-finite"):
        spectral_norm(np.array([[np.inf, 1.0]]))
    with pytest.raises(InputError, match="1-d or 2-d"):
        spectral_norm(np.ones((2, 2, 2)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    rows=st.integers(1, 7),
    widths=st.lists(st.integers(0, 6), min_size=1, max_size=4),
    exponent=st.integers(-900, 900),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_norm_property(rows, widths, exponent, seed):
    # power-of-two scaling is exact, so both sides see the same entries
    rng = np.random.default_rng(seed)
    blocks = [
        np.ldexp(rng.standard_normal((rows, w)) * 10.0 ** rng.uniform(-3, 3, w),
                 exponent)
        for w in widths
    ]
    stack = np.hstack(blocks)
    expected = np.linalg.norm(stack, 2) if stack.size else 0.0
    assert spectral_norm(*blocks) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_as_vector_accepts_row_and_column_vectors():
    np.testing.assert_array_equal(as_vector([[1.0], [2.0]]), [1.0, 2.0])
    np.testing.assert_array_equal(as_vector([[1.0, 2.0]]), [1.0, 2.0])
    np.testing.assert_array_equal(as_vector(3.0), [3.0])


def test_as_vector_rejects_matrices():
    with pytest.raises(InputError, match="must be a vector"):
        as_vector(np.ones((2, 3)))
    with pytest.raises(InputError):
        as_vector(np.ones((2, 1, 2)))


def test_r_factor_is_triangular_with_the_stack_gram():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 6))
    b = rng.standard_normal(30)
    r = r_factor(a, b)
    stack = np.column_stack([a, b])
    assert r.shape == (7, 7)
    np.testing.assert_array_equal(r, np.triu(r))
    np.testing.assert_allclose(r.T @ r, stack.T @ stack, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        np.abs(r), np.abs(np.linalg.qr(stack, mode="r")), atol=1e-12
    )


def test_r_factor_leaves_inputs_bitwise_unchanged():
    rng = np.random.default_rng(4)
    a = np.asfortranarray(rng.standard_normal((20, 5)))
    b = rng.standard_normal((20, 1))
    a_before, b_before = a.copy(), b.copy()
    r_factor(a)
    r_factor(a, b)
    np.testing.assert_array_equal(a, a_before)
    np.testing.assert_array_equal(b, b_before)


def test_r_factor_wide_input_is_trapezoidal():
    rng = np.random.default_rng(5)
    wide = rng.standard_normal((3, 5))
    r = r_factor(wide)
    assert r.shape == (3, 5)
    np.testing.assert_array_equal(r, np.triu(r))
    np.testing.assert_allclose(r.T @ r, wide.T @ wide, atol=1e-12)


def _where_upper(m):
    """The triangle as _upper formed it before: a broadcast comparison and
    np.where, allocating a mask and NumPy iterator buffers."""
    j = np.arange(m.shape[1])
    return np.where(j[: m.shape[0], None] <= j, m, 0.0)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (4, 7), (7, 7), (21, 21), (41, 41)])
def test_upper_matches_the_where_form_bitwise(rows, cols):
    # m as r_factor passes it: the leading rows of a Fortran-ordered
    # workspace, rows < cols for a stack with fewer rows than columns
    rng = np.random.default_rng([rows, cols])
    work = np.asfortranarray(rng.standard_normal((rows + 5, cols)))
    work[rng.random(work.shape) < 0.2] *= -0.0  # signed zeros on both sides
    m = work[:rows]
    want = _where_upper(m).view(np.uint64)
    r = _upper(m)
    assert r.flags.c_contiguous
    np.testing.assert_array_equal(r.view(np.uint64), want)
    # the order the streamed merge takes; always a copy, never a view
    r = _upper(m, order="F")
    assert r.flags.f_contiguous and not np.shares_memory(r, work)
    np.testing.assert_array_equal(r.view(np.uint64), want)


# The streamed kernel on 20 data columns plus b, in a workspace of
# STREAM_BYTES: one block of H rows beside the 21 x 21 R it is merged into.
STREAM_N = 20
H = 1560
STREAM_BYTES = 8 * (H + STREAM_N + 1) * (STREAM_N + 1)


def _layout(a, kind):
    """a as a C-ordered, Fortran-ordered or strided array, or as a list of
    blocks with 1-d columns; always equal to a entry by entry."""
    if kind == "C":
        return [np.ascontiguousarray(a)]
    if kind == "F":
        return [np.asfortranarray(a)]
    if kind == "strided":
        holder = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
        holder[::2, ::3] = a
        return [holder[::2, ::3]]
    return [a[:, :3], *(a[:, j] for j in range(3, a.shape[1]))]


class TestStreamedRFactor:
    @pytest.mark.parametrize("q", [H - 1, H, H + 1, 2 * H + 1, 7])
    @pytest.mark.parametrize("heavy_head", [False, True])
    @pytest.mark.parametrize("kind", ["C", "F", "strided", "columns"])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_gram_and_inputs(self, q, heavy_head, kind, scaled, monkeypatch):
        monkeypatch.setattr(tlsekit.linalg, "BLOCK_BYTES", STREAM_BYTES)
        assert block_rows(STREAM_N + 1) == H
        rng = np.random.default_rng([q, heavy_head, len(kind), scaled])
        a = rng.standard_normal((q, STREAM_N))
        if scaled:
            a *= 10.0 ** rng.uniform(-3, 3, STREAM_N)
        b = rng.standard_normal(q)
        head = 1e6 * rng.standard_normal((3, STREAM_N + 1)) if heavy_head else None
        blocks = [*_layout(a, kind), b]
        before = [blk.copy() for blk in blocks]
        head_before = None if head is None else head.copy()
        r = r_factor(*blocks, head=head)
        stack = stack_of(a, b, head=head)
        assert r.shape == (min(stack.shape), STREAM_N + 1)
        np.testing.assert_array_equal(r, np.triu(r))
        gram = stack.T @ stack
        assert np.linalg.norm(r.T @ r - gram) <= 1e-13 * np.linalg.norm(gram)
        for blk, old in zip(blocks, before):
            np.testing.assert_array_equal(blk, old)
        if head is not None:
            np.testing.assert_array_equal(head, head_before)
        if len(stack) <= H:
            # one block: the single dgeqrf call, bit for bit (signed zeros
            # too), in C order as the solve's products expect
            assert r.flags.c_contiguous
            np.testing.assert_array_equal(
                r.view(np.uint64), dgeqrf_r(stack).view(np.uint64)
            )

    def test_block_height_depends_on_columns_only(self):
        assert block_rows(101) == 223
        assert block_rows(301) == 301
        assert block_rows(127) > 127
        assert all(block_rows(c) == c for c in (128, 129, 182, 500))
        assert all(block_rows(c) >= c for c in (1, 10, 101, 181, 500))

    @pytest.mark.parametrize("cols", [1, 2, 10, 21, 41, 100, 101, 127, 128, 129, 300])
    def test_block_fits_beside_its_square(self, cols):
        # the most rows whose block and the cols x cols R it is merged
        # into fit in BLOCK_BYTES together
        rows, words = block_rows(cols), BLOCK_BYTES // 8
        if rows > cols:
            assert rows * cols + cols * cols <= words
            assert (rows + 1) * cols + cols * cols > words

    @pytest.mark.parametrize("cols", [128, 182, 301])
    @pytest.mark.parametrize("with_head", [False, True])
    def test_square_first_block(self, cols, with_head):
        # block_rows(cols) == cols: the first block's triangle is the whole
        # workspace, which later blocks overwrite, so R must be a copy
        assert block_rows(cols) == cols
        rng = np.random.default_rng([cols, with_head])
        a = rng.standard_normal((5000, cols - 1))
        b = rng.standard_normal(5000)
        head = rng.standard_normal((3, cols)) if with_head else None
        r = r_factor(a, b, head=head)
        stack = stack_of(a, b, head=head)
        assert r.shape == (cols, cols)
        np.testing.assert_array_equal(r, np.triu(r))
        gram = stack.T @ stack
        assert np.linalg.norm(r.T @ r - gram) <= 1e-12 * np.linalg.norm(gram)
        ref = np.linalg.qr(stack, mode="r")
        signs = np.sign(np.diag(r)) * np.sign(np.diag(ref))
        assert np.linalg.norm(signs[:, None] * r - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_head_taller_than_a_block(self):
        rng = np.random.default_rng(8)
        head = rng.standard_normal((block_rows(3) + 5, 3))
        a = rng.standard_normal((40, 3))
        r = r_factor(a, head=head)
        gram = stack_of(a, head=head).T @ stack_of(a, head=head)
        assert np.linalg.norm(r.T @ r - gram) <= 1e-13 * np.linalg.norm(gram)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(InputError, match="equal row counts"):
            r_factor(np.ones((4, 2)), np.ones(5))
        with pytest.raises(InputError, match="head must have 3 columns"):
            r_factor(np.ones((4, 2)), np.ones(4), head=np.ones((1, 2)))


class TestSolveTriangular:
    """The direct dtrtrs call against scipy.linalg.solve_triangular, the
    oracle it must match bit for bit."""

    @pytest.mark.parametrize("n", [1, 5, 16])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("rhs", [(), (1,), (7,)])
    def test_matches_scipy_bitwise(self, n, order, lower, trans, rhs):
        rng = np.random.default_rng([n, trans, len(rhs)])
        tri = np.tril if lower else np.triu
        a = np.array(tri(rng.standard_normal((n, n))) + 4 * np.eye(n), order=order)
        b = rng.standard_normal((n, *rhs))
        got = solve_triangular(a, b, trans=trans, lower=lower)
        want = scipy.linalg.solve_triangular(a, b, trans=trans, lower=lower)
        assert got.shape == want.shape == b.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rhs", [(), (0,), (3,)])
    def test_empty_system(self, rhs):
        a, b = np.zeros((0, 0)), np.zeros((0, *rhs))
        got = solve_triangular(a, b, trans=1)
        want = scipy.linalg.solve_triangular(a, b, trans=1)
        assert got.shape == want.shape == b.shape
        assert got.dtype == want.dtype

    def test_streamed_r_factor_is_fortran_ordered(self):
        # r_factor's merged R reaches the non-transposed branch
        rng = np.random.default_rng(3)
        r = r_factor(rng.standard_normal((3000, 12)))
        assert r.flags.f_contiguous and not r.flags.c_contiguous
        b = rng.standard_normal((12, 4))
        for trans in (0, 1):
            np.testing.assert_array_equal(
                solve_triangular(r, b, trans=trans),
                scipy.linalg.solve_triangular(r, b, trans=trans),
            )

    def test_singular_raises(self):
        with pytest.raises(NumericalError):
            solve_triangular(np.triu(np.ones((3, 3))) - np.eye(3), np.ones(3))



class TestSmallFactorizations:
    """thin_q, cholesky and top_eigen, the direct LAPACK calls of the
    Nystrom kernel, against their defining properties and NumPy."""

    @pytest.mark.parametrize("shape", [(1, 1), (9, 4), (41, 36), (300, 200)])
    def test_thin_q(self, shape):
        a = np.random.default_rng(shape).standard_normal(shape)
        work = np.array(a, order="F")
        q = thin_q(work)
        assert np.shares_memory(q, work)
        np.testing.assert_allclose(q.T @ q, np.eye(shape[1]), atol=1e-14)
        np.testing.assert_allclose(q @ (q.T @ a), a, atol=1e-13)
        np.testing.assert_allclose(np.abs(q), np.abs(np.linalg.qr(a)[0]), atol=1e-13)

    def test_cholesky(self):
        g = np.random.default_rng(1).standard_normal((12, 7))
        a = g.T @ g
        low = cholesky(a)
        np.testing.assert_array_equal(low, np.tril(low))
        np.testing.assert_allclose(low @ low.T, a, rtol=1e-14, atol=1e-13)
        np.testing.assert_allclose(low, np.linalg.cholesky(a), rtol=1e-13)
        with pytest.raises(NumericalError, match="dpotrf info 2"):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("k", [1, 6, 40])
    def test_top_eigen(self, k):
        g = np.random.default_rng(k).standard_normal((k + 3, k))
        a = g.T @ g
        w_all, v_all = np.linalg.eigh(a)
        w, v = top_eigen(a.copy(), vector=True)
        assert w == pytest.approx(w_all[-1], rel=1e-14)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(a @ v, w * v, atol=1e-13 * w)
        assert abs(v @ v_all[:, -1]) == pytest.approx(1.0, rel=1e-12)
        w_only, none = top_eigen(a.copy(), vector=False)
        assert none is None and w_only == pytest.approx(w, rel=1e-14)


def _check_bordered(s, z, gamma, c=64.0):
    """bordered_svd(s, z, gamma) against the SVD of H = [[diag(s), z],
    [0, gamma]]: the three values returned (entries 0, -2 and -1 of H's
    nonincreasing spectrum) within c u sigma_max, the shifts within
    c u sigma_max^2 of s^2 - sigma_min^2 with s[-1] >= sigma_min exactly,
    and y a unit vector with H.T H y = sigma_min^2 y to c u sigma_max^2,
    which holds for a multiple sigma_min too."""
    s, z = np.asarray(s, dtype=float), np.asarray(z, dtype=float)
    h = np.diag(np.append(s, 0.0))
    h[:-1, -1], h[-1, -1] = z, gamma
    sigma, shifts, y = bordered_svd(s, z, gamma)
    expected = np.linalg.svd(h, compute_uv=False)
    tol = c * np.finfo(float).eps / 2 * max(expected[0], np.finfo(float).tiny)
    np.testing.assert_allclose(sigma, expected[[0, -2, -1]], rtol=0, atol=tol)
    assert np.all(np.diff(sigma) <= 0) and sigma[-1] <= s[-1]
    assert np.all(shifts >= 0)
    low = expected[-1]
    np.testing.assert_allclose(shifts, s * s - low * low, rtol=0, atol=tol * expected[0])
    assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-14)
    residual = h.T @ (h @ y) - sigma[-1] ** 2 * y
    assert np.linalg.norm(residual) <= tol * expected[0]
    return sigma, shifts, y


class TestBorderedSvd:
    """bordered_svd on each deflation path of the secular update."""

    @pytest.mark.parametrize(
        "s, z, gamma",
        [
            ([5.0, 3.0, 2.0, 1.0], [0.5, -0.3, 0.4, 0.2], 0.7),  # no deflation
            ([3.0, 2.0, 2.0, 1.0], [0.5, 0.3, 0.4, 0.2], 0.7),  # tie merged
            ([2.0, 2.0, 2.0], [0.3, -0.4, 0.5], 1.0),  # three merged
            ([2.0, 1.0 + 2e-16, 1.0], [0.3, 0.4, 0.5], 1.0),  # within tol
            ([2.0, 2.0], [0.0, 0.0], 2.0),  # z = 0: every pole a root
            ([4.0, 3.0, 1.0], [0.5, 0.0, 0.3], 0.6),  # interior z_j = 0
            ([4.0, 3.0, 1.0], [0.5, 0.4, 0.3], 0.0),  # gamma = 0: consistent
            ([4.0, 3.0, 1.0], [0.0, 0.0, 0.0], 0.0),  # zeta = 0
            ([2.0, 1.0, 0.0], [0.5, 0.4, 0.3], 0.6),  # zero pole merged with 0
            ([1.0, 0.0], [0.5, 0.5], 0.0),  # rank-deficient and consistent
            ([0.0, 0.0], [0.0, 0.0], 0.0),  # H = 0
            ([1.0], [0.0], 1.0),  # degenerate: sigma = (1, 1)
            ([3.0], [1.0], 2.0),  # one pole
            ([5.0, 2.0, 1.0], [0.0, 0.3, 0.4], 0.5),  # sigma_max a deflated pole
            ([4.0, 1.5, 1.0], [0.5, 0.0, 1.5], 0.6),  # second-smallest deflated
        ],
    )
    def test_deflation_paths(self, s, z, gamma):
        _check_bordered(s, z, gamma)

    def test_gamma_zero_gives_the_null_vector(self):
        s, z = np.array([4.0, 3.0, 1.0]), np.array([0.5, 0.4, 0.3])
        sigma, shifts, y = bordered_svd(s, z, 0.0)
        assert sigma[-1] == 0.0
        np.testing.assert_array_equal(shifts, s * s)
        expected = np.append(-z / s, 1.0)
        np.testing.assert_allclose(y, expected / np.linalg.norm(expected), rtol=1e-15)

    def test_deflated_extreme_and_interior_poles_are_returned_exactly(self):
        # z[0] = 0 with s[0] above every root: sigma_max is s[0] itself
        sigma, _, _ = bordered_svd(np.array([5.0, 2.0, 1.0]), np.array([0.0, 0.3, 0.4]), 0.5)
        assert sigma[0] == 5.0
        # z[1] = 0 and the roots bracket s[1]: it is the second-smallest value
        sigma, _, _ = bordered_svd(np.array([4.0, 1.5, 1.0]), np.array([0.5, 0.0, 1.5]), 0.6)
        assert sigma[1] == 1.5 and sigma[2] < 1.0 < 4.0 < sigma[0]

    def test_three_secular_roots_at_most(self, monkeypatch):
        # k = 101 values, none deflated: dlasd4 runs for roots 0, 1 and 100
        calls = []
        real = tlsekit.linalg.dlasd4

        def counted(i, *args, **kwargs):
            calls.append(i)
            return real(i, *args, **kwargs)

        monkeypatch.setattr(tlsekit.linalg, "dlasd4", counted)
        rng = np.random.default_rng(26)
        s = np.sort(rng.uniform(1.0, 10.0, 100))[::-1]
        z = rng.standard_normal(100)
        _check_bordered(s, z, 0.8)
        assert calls == [0, 1, 100]

    def test_deflated_smallest_pole_is_sigma_min(self):
        # z[-1] = 0 and gamma large: s[-1] itself is sigma_min, shifts[-1] = 0
        sigma, shifts, y = bordered_svd(np.array([3.0, 1.0]), np.array([0.5, 0.0]), 4.0)
        assert sigma[-1] == 1.0 and shifts[-1] == 0.0
        np.testing.assert_array_equal(y, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("exponent", [-500, -300, 300, 500])
    def test_power_of_two_scaling_is_exact(self, exponent):
        s, z = np.array([5.0, 3.0, 2.0, 1.0]), np.array([0.5, -0.3, 0.4, 0.2])
        base = bordered_svd(s, z, 0.7)
        scaled = bordered_svd(np.ldexp(s, exponent), np.ldexp(z, exponent), np.ldexp(0.7, exponent))
        np.testing.assert_array_equal(scaled[0], np.ldexp(base[0], exponent))
        np.testing.assert_array_equal(scaled[1], np.ldexp(base[1], 2 * exponent))
        np.testing.assert_array_equal(scaled[2], base[2])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    poles=st.lists(st.integers(0, 4), min_size=1, max_size=8),
    zero_z=st.lists(st.booleans(), min_size=9, max_size=9),
    seed=st.integers(0, 2**32 - 1),
)
def test_bordered_svd_property(poles, zero_z, seed):
    # poles from a small set so ties and zeros are common; some z_j and
    # gamma exactly 0, the rest Gaussian
    rng = np.random.default_rng(seed)
    s = np.sort(np.array(poles, dtype=float) * rng.uniform(0.5, 2.0))[::-1]
    zeta = np.where(zero_z[: len(s) + 1], 0.0, rng.standard_normal(len(s) + 1))
    _check_bordered(s, zeta[:-1], float(zeta[-1]))
