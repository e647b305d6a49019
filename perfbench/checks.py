"""Independent references and the checks every timed output must pass.

The reference solution is computed here without tlsekit's solvers: an SVD
null-space basis of [C d] replaces tlsekit's QR of C.T, and the solution is
read off the trailing right singular vector of the data projected on that
basis. Both routes are backward stable, so they agree within a modest
multiple of u * kappa_n, where u is the unit roundoff and kappa_n the
normwise condition number that tlsekit itself reports.

Every check returns None when the output passes, else a one-line reason.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

#: Unit roundoff of float64.
U = np.finfo(float).eps / 2

#: The constant c of every "within c * u * kappa" bound. Over 150 seeds of
#: the sweep problems and 40 seeds of the tall and kron shapes the largest
#: ratio seen was 85 (stationarity) and 24 (forward error), so 1e3 leaves an
#: order of magnitude for data the tuning runs did not draw.
C_ACC = 1e3

#: Largest relative disagreement between a perturbed re-solve and the
#: first-order prediction of apply_k, with the perturbation sized by
#: first_order_error.
FIRST_ORDER_TOL = 0.1

#: Relative slack allowed when an upper bound is compared with its exact
#: value, so that two roundings of the same number never count as a failure.
DOMINANCE_SLACK = 1e-10


@dataclass(frozen=True)
class Reference:
    """Reference solution and the quantities its error bounds need.

    kappa_s is the condition number of the shifted Gram matrix that
    solve_closed_form inverts: (s_max^2 - sigma^2) / (s_min^2 - sigma^2),
    with s the singular values of A restricted to ker(C) and sigma the
    smallest singular value of the projected data.
    """

    x: np.ndarray
    x_feas: np.ndarray
    kappa_s: float


@dataclass(frozen=True)
class Bounds:
    """Error allowances of one problem, fixed once per run.

    x_qr holds for solve_qr_svd; x_closed for solve_closed_form (None where
    only the Gram bound applies, see closed_gram); x_nwtls for solve_nwtls
    (None where check_eps_bound rejects its eps); cx bounds ||C x - d||.
    """

    x_qr: float
    x_closed: float | None
    closed_gram: float
    x_nwtls: float | None
    cx: float
    kappa_n: float


def reference(C, d, A, b) -> Reference:
    n = A.shape[1]
    p = C.shape[0]
    if p:
        basis = scipy.linalg.null_space(np.column_stack([C, d]))
        null_c = scipy.linalg.null_space(C)
        x_feas = np.linalg.lstsq(C, d, rcond=None)[0]
    else:
        basis = np.eye(n + 1)
        null_c = np.eye(n)
        x_feas = np.zeros(n)
    _, sigma, vt = np.linalg.svd(
        np.column_stack([A, b]) @ basis, full_matrices=False
    )
    z = basis @ vt[-1]
    s = np.linalg.svd(A @ null_c, compute_uv=False)
    shift = sigma[-1] ** 2
    return Reference(
        x=z[:n] / -z[n],
        x_feas=x_feas,
        kappa_s=float((s[0] ** 2 - shift) / (s[-1] ** 2 - shift)),
    )


def bounds(ref: Reference, C, d, kappa_n, eps_bound, closed_by_kappa_n) -> Bounds:
    """Allowances from the reference and tlsekit's own kappa_n.

    solve_closed_form forms the normal equations, so its error grows with
    kappa_s rather than kappa_n (fault 2 in the README). It is held to
    c*u*kappa_n only where closed_by_kappa_n is set, on inputs that do not
    depend on the seed, and elsewhere to the bound its formulation can meet,
    c*u*(kappa_n*||x|| + kappa_s*||x - x_feas||). solve_nwtls solves an
    eps-weighted relaxation; where check_eps_bound admits eps it is held to
    c*(u*kappa_n + lhs/gap), the admissibility ratio bounding the relaxation
    error.
    """
    nx = float(np.linalg.norm(ref.x))
    x_qr = C_ACC * U * kappa_n * nx
    closed_gram = C_ACC * U * (
        kappa_n * nx + ref.kappa_s * float(np.linalg.norm(ref.x - ref.x_feas))
    )
    x_nwtls = None
    if eps_bound.ok:
        x_nwtls = C_ACC * (U * kappa_n + eps_bound.lhs / eps_bound.gap) * nx
    norm_c = float(np.linalg.norm(C, 2)) if C.size else 0.0
    return Bounds(
        x_qr=x_qr,
        x_closed=x_qr if closed_by_kappa_n else None,
        closed_gram=closed_gram,
        x_nwtls=x_nwtls,
        cx=C_ACC * U * (norm_c * nx + float(np.linalg.norm(d))),
        kappa_n=float(kappa_n),
    )


def check_x(x, ref: Reference, tol, C=None, d=None, cx_tol=None):
    """Forward error against the reference, and C x = d when C is given."""
    x = np.asarray(x, dtype=float)
    if x.shape != ref.x.shape or not np.all(np.isfinite(x)):
        return f"solution has shape {x.shape} or non-finite entries"
    if tol is not None:
        err = float(np.linalg.norm(x - ref.x))
        if not err <= tol:
            return f"forward error {err:.3e} exceeds {tol:.3e}"
    if C is not None and C.size:
        res = float(np.linalg.norm(C @ x - d))
        if not res <= cx_tol:
            return f"constraint residual {res:.3e} exceeds {cx_tol:.3e}"
    return None


def check_stationarity(report, A, b, C, d, x, sigma_min):
    """The three residuals of validate_stationarity against their scales."""
    lam = float(np.linalg.norm(report.multiplier))
    nx = float(np.linalg.norm(x))
    na = float(np.linalg.norm(A, 2))
    nc = float(np.linalg.norm(C, 2)) if C.size else 0.0
    nb = float(np.linalg.norm(b))
    nd = float(np.linalg.norm(d))
    s2 = sigma_min**2
    scales = {
        "gradient": na**2 * nx + na * nb + nc * lam + s2 * nx,
        "coupling": nb * na * nx + nb**2 + nd * lam + s2,
        "constraint": nc * nx + nd,
    }
    values = {
        "gradient": report.grad_norm,
        "coupling": report.coupling_norm,
        "constraint": report.constraint_norm,
    }
    for key, scale in scales.items():
        if not values[key] <= C_ACC * U * scale:
            return f"{key} residual {values[key]:.3e} exceeds c*u*{scale:.3e}"
    return None


def _dominates(upper, exact, what):
    if not upper >= exact * (1 - DOMINANCE_SLACK):
        return f"{what} upper bound {upper:.6e} is below its value {exact:.6e}"
    return None


def check_kappas(kappa_n, kappa_n_upper, kappa_m, kappa_m_upper, kappa_c,
                 kappa_c_upper, kappa_c_finite, kappa_n_ref=None):
    """Finite positive values, every upper bound above its value."""
    for name, val in (("kappa_n", kappa_n), ("kappa_m", kappa_m),
                      ("kappa_c_finite", kappa_c_finite)):
        if not (np.isfinite(val) and val > 0):
            return f"{name} = {val!r} is not finite and positive"
    for fail in (
        _dominates(kappa_n_upper, kappa_n, "kappa_n"),
        _dominates(kappa_m_upper, kappa_m, "kappa_m"),
        _dominates(kappa_c_upper, kappa_c, "kappa_c"),
        _dominates(kappa_c, kappa_c_finite, "kappa_c over kappa_c_finite"),
    ):
        if fail:
            return fail
    if kappa_n_ref is not None and not abs(kappa_n - kappa_n_ref) <= 1e-6 * kappa_n_ref:
        return f"kappa_n {kappa_n:.9e} differs from the verified {kappa_n_ref:.9e}"
    return None


def check_report(rep, kappa_n_ref=None):
    fail = check_kappas(rep.kappa_n, rep.kappa_n_upper, rep.kappa_m,
                        rep.kappa_m_upper, rep.kappa_c, rep.kappa_c_upper,
                        rep.kappa_c_finite, kappa_n_ref)
    if fail is None:
        fail = _dominates(rep.kappa_n_upper_loose, rep.kappa_n_upper, "loose kappa_n")
    return fail


def check_row(row, kappa_n_ref=None, first_order=False):
    """One ExperimentRow: bounds dominate; with first_order, eta_rel is small."""
    fail = check_kappas(row.kappa_n, row.kappa_n_upper, row.kappa_m,
                        row.kappa_m_upper, row.kappa_c, row.kappa_c_upper,
                        row.kappa_c_finite, kappa_n_ref)
    if fail:
        return f"{row.label}: {fail}"
    if not (row.eps1 > 0 and row.eps2 > 0):
        return f"{row.label}: backward errors {row.eps1}, {row.eps2} not positive"
    if (row.fwd_err_2 is None) != ("degenerate" in row.flags.split(";")):
        return f"{row.label}: forward error {row.fwd_err_2} disagrees with flags {row.flags!r}"
    if first_order and not (row.eta_rel is not None and row.eta_rel <= FIRST_ORDER_TOL):
        return f"{row.label}: first-order disagreement {row.eta_rel} exceeds {FIRST_ORDER_TOL}"
    if row.nwtls_dev is not None and not (np.isfinite(row.nwtls_dev) and row.nwtls_dev >= 0):
        return f"{row.label}: nwtls deviation {row.nwtls_dev!r}"
    return None


def check_rows(rows, expected):
    if len(rows) != expected:
        return f"{len(rows)} table rows, expected {expected}"
    for row in rows:
        fail = check_row(row)
        if fail:
            return fail
    return None


def check_limit(rows, grid, floor):
    """Weighted-limit rows converge like eps^2 until they reach roundoff.

    Each grid step divides eps by 10, so x_err must fall by at least 20x
    (100x in exact arithmetic) unless it is already below floor.
    """
    if [r.eps for r in rows] != list(grid):
        return "diagnostic rows do not follow the eps grid"
    for prev, cur in zip(rows, rows[1:]):
        if not (cur.x_err <= prev.x_err / 20 or cur.x_err <= floor):
            return (f"x_err {cur.x_err:.3e} at eps {cur.eps:g} is not eps^2 "
                    f"below {prev.x_err:.3e}")
    return None
