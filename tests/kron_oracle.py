"""Materialized perturbation operator: a small-size oracle for the tests.

The package never forms the n x m(n+1) matrix K acting on vec([dL dh]),
which holds m^2 (n+1) entries. Here it is assembled with np.kron in two
algebraically identical layouts, and the condition numbers are read off it
by their definitions, to check the structured formulas of
tlsekit.conditioning on small problems.
"""
import numpy as np

from tlsekit.conditioning import KOperator, Weights


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vec operator."""
    return np.asarray(m, dtype=float).reshape(-1, order="F")


def materialize_k(op: KOperator, form: str = "combined") -> np.ndarray:
    """Explicit n x m(n+1) matrix acting on vec([dL dh]).

    "combined" assembles gain @ ([x.T -1] kron I_m) minus the lifted adjoint
    term; "split" assembles [(x.T kron gain) - null_gram_inv (I kron t.T),
    -gain].
    """
    n, m = op.n, op.m
    if form == "combined":
        lift = np.kron(np.append(op.x, -1.0)[None, :], np.eye(m))
        selector = np.hstack([np.eye(n), np.zeros((n, 1))])
        adjoint_term = op.null_gram_inv @ np.kron(selector, op.adjoint_dir[None, :])
        return op.gain @ lift - adjoint_term
    if form == "split":
        left = np.kron(op.x[None, :], op.gain) - op.null_gram_inv @ np.kron(
            np.eye(n), op.adjoint_dir[None, :]
        )
        return np.hstack([left, -op.gain])
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
    z = np.hstack([-(nx / w.beta) * op.gain, (nt / w.alpha) * op.null_gram_inv])
    return np.linalg.norm(z @ block, 2) * _data_norm(L, h, w) / nx


def mixed_componentwise_target(op: KOperator, L, h) -> np.ndarray:
    """|K| vec(|[L h]|), the numerator of the mixed and componentwise numbers."""
    data = np.abs(np.column_stack([L, h]))
    return np.abs(materialize_k(op)) @ vec(data)
