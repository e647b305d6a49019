"""Problem model and deterministic solvers for equality-constrained TLS.

The problem: given data A x ~ b subject to an exact constraint C x = d, find
the correction [E f] of minimal Frobenius norm with (A+E) x = b+f and
C x = d. The solver pipeline:

1. QR of C.T splits coordinates into the constraint range and its null space
   and yields the minimum-norm feasible point.
2. One streamed QR of [A b] compresses the data to its (n+1) x (n+1)
   triangular factor R, which has the same Gram matrix; the rows pass once
   through a small workspace, a block at a time, and are not read again.
   On R run the SVD of the data restricted to ker(C) and the SVD of the
   core matrix (the data on ker([C d])), which supplies the optimal
   direction and the shift sigma_min that appears everywhere downstream.
3. The solution is read off by normalizing the last component of the lifted
   core singular vector to -1 (solve_qr_svd), or from the restricted SVD as
   a filtered correction of the feasible point (solve_closed_form). The
   shifted Gram inverse comes from the restricted SVD too: no normal
   equations are formed.

Well-posedness requires the restricted data matrix (A on the null space of
C) to have its smallest singular value strictly above sigma_min; this gap is
what check_genericity reports and what the conditioning module divides by.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import IllPosedError, InputError, NonGenericError, RankError
from .linalg import RANK_TOL, SvdResult, as_matrix, as_vector, r_factor, svd

#: Hard ill-posedness warning when gap <= GAP_WARN_FACTOR * eps * sigma_bar^2.
GAP_WARN_FACTOR = 1e3

#: Soft warning when the relative genericity gap drops below this.
NEAR_DEGENERATE_TOL = 0.1

#: Factor for flagging (near-)multiple smallest singular values.
MULTIPLICITY_FACTOR = 1e3

#: Smallest acceptable magnitude for the normalizing component.
LAST_COMPONENT_TOL = 1e-12


@dataclass(frozen=True)
class TlseProblem:
    """The quadruple (C, d, A, b) with C p x n, A q x n.

    Requires p < n, q >= n - p + 1, and full row rank of C (checked when the
    basis is built). p = 0 is the plain TLS case; C and d are then empty.
    """

    C: np.ndarray
    d: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "C", as_matrix(self.C, "C"))
        object.__setattr__(self, "d", as_vector(self.d, "d"))
        object.__setattr__(self, "A", as_matrix(self.A, "A"))
        object.__setattr__(self, "b", as_vector(self.b, "b"))
        p, n = self.C.shape
        q, n2 = self.A.shape
        if p == 0 and n != n2:
            object.__setattr__(self, "C", np.zeros((0, n2)))
            n = n2
        if n2 != n:
            raise InputError(f"C has {n} columns but A has {n2}")
        if p >= n:
            raise InputError(f"need p < n, got p={p}, n={n}")
        if self.d.shape[0] != p:
            raise InputError(f"d has length {self.d.shape[0]}, expected {p}")
        if self.b.shape[0] != q:
            raise InputError(f"b has length {self.b.shape[0]}, expected {q}")
        if q < n - p + 1:
            raise InputError(
                f"need q >= n - p + 1 for a full core spectrum, got "
                f"q={q}, n={n}, p={p}"
            )

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def q(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.p + self.q

    @property
    def L(self) -> np.ndarray:
        """Stacked coefficient matrix [C; A] of shape m x n."""
        if self.p == 0:
            return self.A
        return np.vstack([self.C, self.A])

    @property
    def h(self) -> np.ndarray:
        """Stacked right-hand side [d; b] of length m."""
        return np.concatenate([self.d, self.b])

    def aug_data(self) -> np.ndarray:
        """[A b], q x (n+1)."""
        return np.hstack([self.A, self.b[:, None]])

    def aug_constraint(self) -> np.ndarray:
        """[C d], p x (n+1)."""
        return np.hstack([self.C, self.d[:, None]])


@dataclass(frozen=True)
class ConstraintBasis:
    """QR-derived geometry of the constraint C x = d.

    q1/r1 are the thin QR factors of C.T, null_basis the orthonormal basis
    of ker(C), x_feas the minimum-norm point with C x_feas = d.
    aug_null_basis is the (n+1) x (n-p+1) orthonormal basis of ker([C d])
    built from null_basis and the scaled feasible point
    (aug_scale = 1/sqrt(1 + ||x_feas||^2)). problem is the problem the basis
    was built for.
    """

    q1: np.ndarray
    null_basis: np.ndarray
    r1: np.ndarray
    x_feas: np.ndarray
    aug_scale: float
    aug_null_basis: np.ndarray
    problem: TlseProblem = field(repr=False, compare=False)

    @cached_property
    def feas_residual(self) -> np.ndarray:
        """A x_feas - b, computed on first use (the solvers use R instead)."""
        return self.problem.A @ self.x_feas - self.problem.b


@dataclass(frozen=True)
class CoreSvd:
    """Spectral data of [A b], computed on its triangular factor.

    data_r is the min(q, n+1) x (n+1) R of a QR of [A b]; [A b] @ M and
    R @ M share singular values and right singular vectors for every M.
    restricted is the SVD of R[:, :n] @ null_basis (A on ker(C)); sigma and
    right are the n-p+1 core singular values (nonincreasing) and right
    singular vectors of R @ aug_null_basis. Genericity means
    restricted_min_sv > sigma[-1]. gap is the difference of their squares,
    rel_gap the gap relative to restricted_min_sv**2.
    """

    data_r: np.ndarray
    restricted: SvdResult
    sigma: np.ndarray
    right: np.ndarray
    gap: float
    rel_gap: float
    satisfied: bool
    warnings: tuple = field(default_factory=tuple)

    @property
    def sigma_min(self) -> float:
        return float(self.sigma[-1])

    @property
    def restricted_min_sv(self) -> float:
        return float(self.restricted.s[-1])


@dataclass(frozen=True)
class TlseSolution:
    """Solution vector with the spectral byproducts conditioning needs.

    gram_inv inverts null_basis.T (A.T A - sigma_min^2 I) null_basis, as
    V diag(1/((s-sigma_min)(s+sigma_min))) V.T from the restricted SVD;
    null_gram_inv lifts it back to n x n; constraint_gain maps constraint
    right-hand-side perturbations to first-order solution changes.
    """

    x: np.ndarray
    rho: float
    sigma_min: float
    basis: ConstraintBasis
    core: CoreSvd
    gram_inv: np.ndarray
    null_gram_inv: np.ndarray
    constraint_gain: np.ndarray

    @cached_property
    def residual(self) -> np.ndarray:
        """A x - b, computed on first use (the solvers read R instead)."""
        problem = self.basis.problem
        return problem.A @ self.x - problem.b


@dataclass(frozen=True)
class StationarityReport:
    """Residual norms of the three block rows of the optimality system."""

    multiplier: np.ndarray
    grad_norm: float
    coupling_norm: float
    constraint_norm: float


def build_basis(problem: TlseProblem) -> ConstraintBasis:
    """QR of C.T plus the feasible-point quantities derived from it.

    For p = 0 the null basis is the identity, x_feas = 0, aug_scale = 1 and
    the augmented basis is [[I, 0], [0, -1]].
    """
    n = problem.n
    p = problem.p
    if p == 0:
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = np.eye(n)
        aug[n, n] = -1.0
        return ConstraintBasis(
            q1=np.zeros((n, 0)),
            null_basis=np.eye(n),
            r1=np.zeros((0, 0)),
            x_feas=np.zeros(n),
            aug_scale=1.0,
            aug_null_basis=aug,
            problem=problem,
        )
    q, r = np.linalg.qr(problem.C.T, mode="complete")
    q1, null_basis = q[:, :p], q[:, p:]
    r1 = r[:p, :]
    diag = np.abs(np.diag(r1))
    scale = diag.max(initial=0.0)
    bad = np.nonzero(diag <= RANK_TOL * max(scale, np.finfo(float).tiny))[0]
    if bad.size:
        raise RankError(
            f"C is rank deficient: triangular diagonal {bad[0]} is "
            f"{diag[bad[0]]:.3e} against scale {scale:.3e}"
        )
    x_feas = q1 @ scipy.linalg.solve_triangular(r1, problem.d, trans="T")
    aug_scale = 1.0 / np.sqrt(1.0 + float(x_feas @ x_feas))
    aug = np.zeros((n + 1, n - p + 1))
    aug[:n, : n - p] = null_basis
    aug[:n, n - p] = aug_scale * x_feas
    aug[n, n - p] = -aug_scale
    return ConstraintBasis(
        q1=q1,
        null_basis=null_basis,
        r1=r1,
        x_feas=x_feas,
        aug_scale=aug_scale,
        aug_null_basis=aug,
        problem=problem,
    )


def constraint_pinv(basis: ConstraintBasis) -> np.ndarray:
    """Pseudoinverse of C assembled from the already-built QR factors."""
    p = basis.q1.shape[1]
    if p == 0:
        return np.zeros((basis.null_basis.shape[0], 0))
    inv_rt = scipy.linalg.solve_triangular(
        basis.r1, np.eye(p), trans="T", lower=False
    )
    return basis.q1 @ inv_rt


def check_genericity(
    basis: ConstraintBasis,
    problem: TlseProblem,
    warn_gap_factor: float = GAP_WARN_FACTOR,
    near_degenerate_tol: float = NEAR_DEGENERATE_TOL,
) -> CoreSvd:
    """Factor [A b] once, then the restricted and core SVDs on R.

    satisfied means the strict spectral gap holds. Warnings carried in the
    result (never raised here):

    - "ill-posed" when the gap is at or below warn_gap_factor * eps *
      restricted_min_sv**2 (includes every unsatisfied case),
    - "near-degenerate" when satisfied but rel_gap < near_degenerate_tol,
    - "non-unique" when the two smallest core singular values nearly
      coincide, so the minimizing direction is not well determined.
    """
    data_r = r_factor(problem.A, problem.b)
    restricted = svd(data_r[:, :-1] @ basis.null_basis)
    res = svd(data_r @ basis.aug_null_basis)
    sig = res.s
    restricted_min_sv = float(restricted.s[-1])
    gap = restricted_min_sv**2 - float(sig[-1]) ** 2
    rel_gap = gap / max(restricted_min_sv**2, np.finfo(float).tiny)
    satisfied = restricted_min_sv > float(sig[-1])
    warnings = []
    eps = np.finfo(float).eps
    if gap <= warn_gap_factor * eps * restricted_min_sv**2:
        warnings.append("ill-posed")
    elif rel_gap < near_degenerate_tol:
        warnings.append("near-degenerate")
    if sig.size >= 2 and sig[-2] - sig[-1] <= MULTIPLICITY_FACTOR * eps * sig[0]:
        warnings.append("non-unique")
    return CoreSvd(
        data_r=data_r,
        restricted=restricted,
        sigma=sig,
        right=res.v,
        gap=gap,
        rel_gap=rel_gap,
        satisfied=satisfied,
        warnings=tuple(warnings),
    )


def _shifts(core: CoreSvd) -> np.ndarray:
    """s^2 - sigma_min^2 over the restricted singular values s, factored."""
    s = core.restricted.s
    return (s - core.sigma_min) * (s + core.sigma_min)


def _filtered(core: CoreSvd, rhs: np.ndarray) -> np.ndarray:
    """V diag(s/shifts) U.T rhs, i.e. gram_inv (A N).T on R's coordinates."""
    res = core.restricted
    return res.v @ (res.s / _shifts(core) * (res.u.T @ rhs).T).T


def solve_qr_svd(problem: TlseProblem) -> TlseSolution:
    """Solve by lifting the trailing core singular vector and normalizing.

    Sign convention: the lifted vector is flipped so its last component is
    negative, and rho = +sqrt(1 + ||x||^2). Raises IllPosedError when the
    genericity gap fails, NonGenericError when the normalizing component is
    numerically zero. The data are read once, by the streamed QR of [A b];
    solution.residual reads them again only when it is first accessed.
    """
    basis = build_basis(problem)
    core = check_genericity(basis, problem)
    if not core.satisfied:
        raise IllPosedError(
            "genericity gap violated: restricted data spectrum "
            f"{core.restricted_min_sv:.6e} does not exceed core sigma_min "
            f"{core.sigma_min:.6e}"
        )
    lifted = basis.aug_null_basis @ core.right[:, -1]
    if abs(lifted[-1]) < LAST_COMPONENT_TOL:
        raise NonGenericError(
            f"normalizing component {lifted[-1]:.3e} is below "
            f"{LAST_COMPONENT_TOL:g}; solution direction is not generic"
        )
    if lifted[-1] > 0:
        lifted = -lifted
    x = lifted[:-1] / (-lifted[-1])
    rho = float(np.sqrt(1.0 + x @ x))
    v, null_basis = core.restricted.v, basis.null_basis
    gram_inv = v @ (v.T / _shifts(core)[:, None])
    pinv = constraint_pinv(basis)
    # (I - null_gram_inv A.T A) pinv, with A.T A = R_A.T R_A kept spectral
    gain = pinv - null_basis @ _filtered(core, core.data_r[:, :-1] @ pinv)
    return TlseSolution(
        x=x,
        rho=rho,
        sigma_min=core.sigma_min,
        basis=basis,
        core=core,
        gram_inv=gram_inv,
        null_gram_inv=null_basis @ gram_inv @ null_basis.T,
        constraint_gain=gain,
    )


def solve_closed_form(problem: TlseProblem) -> np.ndarray:
    """Solve through the shifted Gram system on the constraint null space.

    x = x_feas - N S^{-1} (A N).T (A x_feas - b) with N = null_basis and
    S = (A N).T (A N) - sigma_min^2 I, evaluated on R through the restricted
    SVD U diag(s) V.T as x_feas - N V diag(s/shifts) U.T (R [x_feas; -1]);
    S is never formed. It shares R, the restricted SVD and sigma_min with
    solve_qr_svd but does not use the core singular vectors, so the two act
    as cross-checks. Returns the solution vector only.
    """
    basis = build_basis(problem)
    core = check_genericity(basis, problem)
    if not core.satisfied:
        raise IllPosedError(
            "genericity gap violated: cannot invert the shifted Gram matrix"
        )
    r = core.data_r
    step = _filtered(core, r[:, :-1] @ basis.x_feas - r[:, -1])
    return basis.x_feas - basis.null_basis @ step


def validate_stationarity(
    problem: TlseProblem, solution: TlseSolution
) -> StationarityReport:
    """Residuals of the constrained optimality system at the solution.

    Recovers the multiplier by least squares from the gradient block
    A.T A x - A.T b + C.T lam = sigma_min^2 x, then reports the norms of all
    three block rows (gradient, the scalar coupling row
    b.T A x - b.T b + d.T lam + sigma_min^2, and the constraint row C x - d).
    Always returns; this is a diagnostic, not a gate.
    """
    x = solution.x
    a, b, c, d = problem.A, problem.b, problem.C, problem.d
    s2 = solution.sigma_min**2
    grad_rhs = s2 * x - a.T @ (a @ x) + a.T @ b
    if problem.p:
        multiplier = np.linalg.lstsq(c.T, grad_rhs, rcond=None)[0]
    else:
        multiplier = np.zeros(0)
    grad = a.T @ (a @ x) - a.T @ b + c.T @ multiplier - s2 * x
    coupling = float(b @ (a @ x) - b @ b + d @ multiplier + s2)
    constraint = c @ x - d
    return StationarityReport(
        multiplier=multiplier,
        grad_norm=float(np.linalg.norm(grad)),
        coupling_norm=abs(coupling),
        constraint_norm=float(np.linalg.norm(constraint)),
    )
