"""Dense kernel tests: validation, SVD wrappers, the Greville update."""
import math

import numpy as np
import pytest

from tlsekit.errors import InputError
from tlsekit.linalg import (
    as_matrix,
    as_vector,
    greville_augment,
    singular_values,
    spectral_norm,
    svd,
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


def test_svd_golden_ratio_values():
    # [[1,1],[0,1]] has squared singular values (3 +- sqrt(5))/2, i.e.
    # the singular values are exactly (phi, 1/phi)
    res = svd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    np.testing.assert_allclose(res.s, [PHI, 1 / PHI], rtol=1e-14)
    rebuilt = res.u @ np.diag(res.s) @ res.v.T
    np.testing.assert_allclose(rebuilt, [[1, 1], [0, 1]], atol=1e-14)
    np.testing.assert_allclose(res.v.T @ res.v, np.eye(2), atol=1e-14)


def test_singular_values_and_spectral_norm_empty():
    assert singular_values(np.zeros((0, 3))).size == 0
    assert spectral_norm(np.zeros((0, 3))) == 0.0
    assert spectral_norm(np.zeros((3, 0))) == 0.0


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(2)
    arr = rng.standard_normal((5, 4))
    assert spectral_norm(arr) == pytest.approx(np.linalg.norm(arr, 2), rel=1e-13)


def test_greville_augment_single_row():
    # pinv of a single row is its transpose over the squared norm:
    # [1 0 2] -> (1/5, 0, 2/5)
    c_pinv = np.array([[1.0], [0.0]])
    out = greville_augment(c_pinv, [2.0, 0.0])
    np.testing.assert_allclose(out, [[0.2], [0.0], [0.4]], atol=1e-15)


def test_greville_augment_matches_direct_pinv():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, 9))
    d = rng.standard_normal(4)
    c_pinv = np.linalg.pinv(c)
    x_feas = c_pinv @ d
    out = greville_augment(c_pinv, x_feas)
    direct = np.linalg.pinv(np.hstack([c, d[:, None]]))
    np.testing.assert_allclose(out, direct, atol=1e-10)


def test_greville_augment_shape_mismatch():
    with pytest.raises(InputError):
        greville_augment(np.zeros((3, 2)), np.zeros(4))
