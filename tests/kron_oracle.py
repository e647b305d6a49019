"""Materialized perturbation operator: a small-size oracle for the tests.

The package never forms the n x m(n+1) matrix K acting on vec([dL dh]),
which holds m^2 (n+1) entries. Here it is assembled with np.kron in two
algebraically identical layouts, and the condition numbers are read off it
by their definitions, to check the structured formulas of
tlsekit.conditioning on small problems.

The explicit forms below evaluate those formulas on the n x m gain
(explicit_gain, which the package never forms) and the m-vector
adjoint_dir, where the package reads the compressed gain_r and adjoint_r
or streams the gain over row blocks; they cost an SVD of an n x m matrix
but no Kronecker product, so they serve as oracles at any size.
explicit_mixed_target and explicit_upper_target are the entrywise targets
summed over all m rows at once with fresh temporaries, the references for
the package's blocked sums.
"""
import numpy as np

from tlsekit.conditioning import KOperator, Weights


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vec operator."""
    return np.asarray(m, dtype=float).reshape(-1, order="F")


def explicit_gain(op: KOperator) -> np.ndarray:
    """The n x m gain (2/rho^2) (N x) t.T - [constraint_gain, N A.T], with
    N = null_gram_inv, t = adjoint_dir and A = op.problem.A."""
    n_inv = op.null_gram_inv
    rank_one = (2.0 / op.rho**2) * np.outer(n_inv @ op.x, op.adjoint_dir)
    return rank_one - np.hstack([op.constraint_gain, n_inv @ op.problem.A.T])


def materialize_k(op: KOperator, form: str = "combined") -> np.ndarray:
    """Explicit n x m(n+1) matrix acting on vec([dL dh]).

    "combined" assembles gain @ ([x.T -1] kron I_m) minus the lifted adjoint
    term; "split" assembles [(x.T kron gain) - null_gram_inv (I kron t.T),
    -gain].
    """
    n, m = op.n, op.m
    gain = explicit_gain(op)
    if form == "combined":
        lift = np.kron(np.append(op.x, -1.0)[None, :], np.eye(m))
        selector = np.hstack([np.eye(n), np.zeros((n, 1))])
        adjoint_term = op.null_gram_inv @ np.kron(selector, op.adjoint_dir[None, :])
        return gain @ lift - adjoint_term
    if form == "split":
        left = np.kron(op.x[None, :], gain) - op.null_gram_inv @ np.kron(
            np.eye(n), op.adjoint_dir[None, :]
        )
        return np.hstack([left, -gain])
    raise ValueError(f"unknown form {form!r}, expected 'combined' or 'split'")


def _data_norm(L, h, w: Weights) -> float:
    return float(np.sqrt(w.alpha**2 * np.sum(L**2) + w.beta**2 * np.sum(h**2)))


def kappa_normwise(op: KOperator, w: Weights, L, h) -> float:
    """||K diag(1/alpha .. 1/alpha, 1/beta ..)||_2 times ||(alpha L, beta h)||_F / ||x||."""
    k = materialize_k(op)
    k[:, : op.m * op.n] /= w.alpha
    k[:, op.m * op.n :] /= w.beta
    return np.linalg.norm(k, 2) * _data_norm(L, h, w) / np.linalg.norm(op.x)


def kappa_normwise_block(op: KOperator, w: Weights, L, h, signs=(1, 1)) -> float:
    """The normwise number through the (m+n)-column compression.

    ||[-(||x||/beta) gain, (||t||/alpha) null_gram_inv] @ M||_2, with M a
    scaled identity plus rank-one terms whose scalars c1, c2 admit two sign
    choices each; every choice gives the same value. Needs t != 0.
    """
    s1, s2 = signs
    nx = float(np.linalg.norm(op.x))
    t = op.adjoint_dir
    nt = float(np.linalg.norm(t))
    m, n = op.m, op.n
    c1 = s1 * np.sqrt(w.beta**2 / w.alpha**2 + 1.0 / nx**2)
    c2 = c1 + s2 / nx
    block = np.zeros((m + n, m + n))
    block[:m, :m] = c1 * np.eye(m) - (c2 / nt**2) * np.outer(t, t)
    block[:m, m:] = (w.beta / w.alpha) * np.outer(t, op.x) / (nt * nx)
    block[m:, m:] = np.eye(n)
    z = np.hstack(
        [-(nx / w.beta) * explicit_gain(op), (nt / w.alpha) * op.null_gram_inv]
    )
    return np.linalg.norm(z @ block, 2) * _data_norm(L, h, w) / nx


def mixed_componentwise_target(op: KOperator, L, h) -> np.ndarray:
    """|K| vec(|[L h]|), the numerator of the mixed and componentwise numbers."""
    data = np.abs(np.column_stack([L, h]))
    return np.abs(materialize_k(op)) @ vec(data)


def _norm2(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def kappa_normwise_explicit(op: KOperator, w: Weights, L, h) -> float:
    """The structured normwise number on the n x (m+n) matrix [Z1 Z2] built
    from gain and adjoint_dir (zero-adjoint branch included)."""
    nx = float(np.linalg.norm(op.x))
    scale = _data_norm(L, h, w) / nx
    alpha, beta = w.alpha, w.beta
    g, t = explicit_gain(op), op.adjoint_dir
    nt = float(np.linalg.norm(t))
    if nt == 0.0:
        return _norm2(g) * np.sqrt(nx**2 / alpha**2 + 1.0 / beta**2) * scale
    c1 = np.sqrt(beta**2 / alpha**2 + 1.0 / nx**2)
    c2 = c1 + 1.0 / nx
    u = t / nt
    gu = g @ u
    z1 = -(nx / beta) * (c1 * g - c2 * np.outer(gu, u))
    z2 = (nt / alpha) * op.null_gram_inv - np.outer(gu, op.x) / alpha
    return _norm2(np.hstack([z1, z2])) * scale


def kappa_normwise_upper_explicit(op: KOperator, w: Weights, L, h) -> tuple[float, float]:
    """(tight, loose) bounds from ||gain||_2 and ||null_gram_inv A.T||_2,
    with A the data rows of L."""
    nx = float(np.linalg.norm(op.x))
    alpha, beta = w.alpha, w.beta
    nt = float(np.linalg.norm(op.adjoint_dir))
    factor = (
        _data_norm(L, h, w)
        / nx
        * np.sqrt(max(1.0, beta**2 / alpha**2 + 1.0 / nx**2) + beta / alpha)
    )
    k_norm = _norm2(op.null_gram_inv)
    tight = (nx / beta * _norm2(explicit_gain(op)) + nt / alpha * k_norm) * factor
    a_block = np.asarray(L, dtype=float)[op.p :, :]
    split_norms = _norm2(op.constraint_gain) + _norm2(op.null_gram_inv @ a_block.T)
    loose = (
        nx / beta * split_norms + (2.0 / beta + 1.0 / alpha) * nt * k_norm
    ) * factor
    return float(tight), float(loose)


def explicit_mixed_target(op: KOperator, L, h) -> np.ndarray:
    """|G| |h| + sum_j |x_j G - N[:, j] t.T| |L[:, j]|, one fresh block per j."""
    gain, labs = explicit_gain(op), np.abs(L)
    target = np.abs(gain) @ np.abs(h)
    for j in range(op.n):
        block = op.x[j] * gain - np.outer(op.null_gram_inv[:, j], op.adjoint_dir)
        target += np.abs(block) @ labs[:, j]
    return target


def explicit_upper_target(op: KOperator, L, h) -> np.ndarray:
    """|G| (|L| |x| + |h|) + |N| |L|.T |t|, the bound on |K| vec(|[L h]|)."""
    labs = np.abs(L)
    return np.abs(explicit_gain(op)) @ (labs @ np.abs(op.x) + np.abs(h)) + np.abs(
        op.null_gram_inv
    ) @ (labs.T @ np.abs(op.adjoint_dir))


def explicit_apply_k(op: KOperator, dL, dh) -> np.ndarray:
    """gain @ (dL x - dh) - N dL.T t on the explicit gain."""
    return explicit_gain(op) @ (dL @ op.x - dh) - op.null_gram_inv @ (
        dL.T @ op.adjoint_dir
    )
