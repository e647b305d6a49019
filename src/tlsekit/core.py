"""Problem model and deterministic solvers for equality-constrained TLS.

The problem: given data A x ~ b subject to an exact constraint C x = d, find
the correction [E f] of minimal Frobenius norm with (A+E) x = b+f and
C x = d. The solver pipeline:

1. First, one streamed QR of [A b] compresses the data to its (n+1) x
   (n+1) triangular factor R, which has the same Gram matrix; the rows
   pass once through a small workspace, a block at a time.
2. QR of C.T splits coordinates into the constraint range and its null
   space and yields the minimum-norm feasible point. On R runs one SVD, of
   the data restricted to ker(C). The core matrix (the data on ker([C d]))
   is that matrix with one column appended, so a rank-one secular update
   of the restricted SVD (linalg.bordered_svd) supplies sigma_max, the
   optimal direction and the shift sigma_min used everywhere downstream
   (no other core singular value is computed), with the shifts s^2 -
   sigma_min^2 as products of accurate differences.
3. The solution is read off by normalizing the last component of the lifted
   core direction to -1 (solve_qr_svd), or from the restricted SVD as
   a filtered correction of the feasible point (solve_closed_form). The
   shifted Gram inverse comes from the restricted SVD too: no normal
   equations are formed. So do the spectral norms of that inverse and of
   its product with A.T (null_gram_inv_norm, data_map_norm), in closed
   form.

Well-posedness requires the restricted data matrix (A on the null space of
C) to have its smallest singular value strictly above sigma_min; this gap is
what check_genericity reports and what the conditioning module divides by.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    IllPosedError, InputError, NonGenericError, NumericalError, RankError,
)
from .linalg import (
    RANK_TOL, SvdResult, as_matrix, as_vector, bordered_svd, r_factor,
    solve_triangular, svd,
)

#: Hard ill-posedness warning when gap <= GAP_WARN_FACTOR * eps * sigma_bar^2.
GAP_WARN_FACTOR = 1e3

#: Soft warning when the relative genericity gap drops below this.
NEAR_DEGENERATE_TOL = 0.1

#: Factor for flagging (near-)multiple smallest singular values.
MULTIPLICITY_FACTOR = 1e3

#: Smallest acceptable magnitude for the normalizing component.
LAST_COMPONENT_TOL = 1e-12

_OUT_OF_RANGE = (
    "restricted singular values {:.3e} to {:.3e}: their squares leave the "
    "float range; rescale the data"
)


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

    def aug_constraint(self) -> np.ndarray:
        """[C d], p x (n+1)."""
        return np.hstack([self.C, self.d[:, None]])


@dataclass(frozen=True)
class ConstraintBasis:
    """QR-derived geometry of the constraint C x = d.

    q1/r1 are the thin QR factors of C.T, null_basis the orthonormal basis
    of ker(C), x_feas the minimum-norm point with C x_feas = d. The
    (n+1) x (n-p+1) orthonormal basis aug_null_basis of ker([C d]) is
    null_basis above a zero row, beside aug_scale [x_feas; -1] (aug_scale =
    1/sqrt(1 + ||x_feas||^2)); it is formed anew on each access. problem is
    the problem the basis was built for.
    """

    q1: np.ndarray
    null_basis: np.ndarray
    r1: np.ndarray
    x_feas: np.ndarray
    aug_scale: float
    problem: TlseProblem = field(repr=False, compare=False)

    @property
    def aug_null_basis(self) -> np.ndarray:
        n, k = self.null_basis.shape
        aug = np.zeros((n + 1, k + 1))
        aug[:n, :k], aug[:n, k] = self.null_basis, self.aug_scale * self.x_feas
        aug[n, k] = -self.aug_scale
        return aug


@dataclass(frozen=True)
class CoreSvd:
    """Spectral data of [A b], computed on its triangular factor.

    data_r is the min(q, n+1) x (n+1) R of a QR of [A b]; [A b] @ M and
    R @ M share singular values and right singular vectors for every M.
    restricted is the SVD U diag(s) V.T of R[:, :n] @ null_basis (A on
    ker(C)); sigma_max and sigma_min are the extreme singular values of the
    core matrix R @ aug_null_basis (no other is computed) and direction its
    unit right singular vector for sigma_min, read off the restricted SVD
    by check_genericity. shifts = s^2 - sigma_min^2, factored; shifts >= 0,
    so restricted_min_sv >= sigma_min, and genericity means the strict
    inequality. gap = shifts[-1], the difference of the two squares,
    rel_gap the gap relative to restricted_min_sv**2; problem is the one
    whose [A b] was factored.
    """

    data_r: np.ndarray
    restricted: SvdResult
    sigma_max: float
    sigma_min: float
    shifts: np.ndarray
    direction: np.ndarray
    gap: float
    rel_gap: float
    satisfied: bool
    problem: TlseProblem = field(repr=False, compare=False)
    warnings: tuple = field(default_factory=tuple)

    @property
    def restricted_min_sv(self) -> float:
        return float(self.restricted.s[-1])


@dataclass(frozen=True)
class TlseSolution:
    """Solution vector with the spectral byproducts conditioning needs.

    null_gram_inv lifts the inverse of null_basis.T (A.T A - sigma_min^2 I)
    null_basis, V diag(1/((s-sigma_min)(s+sigma_min))) V.T from the
    restricted SVD (_gram_inv), back to n x n; constraint_gain maps
    constraint right-hand-side perturbations to first-order solution
    changes. Both are formed on first use, so reading x alone skips them.
    """

    x: np.ndarray
    rho: float
    basis: ConstraintBasis
    core: CoreSvd

    @property
    def sigma_min(self) -> float:
        return self.core.sigma_min

    @cached_property
    def null_gram_inv(self) -> np.ndarray:
        return self.basis.null_basis @ _gram_inv(self.core) @ self.basis.null_basis.T

    @cached_property
    def constraint_gain(self) -> np.ndarray:
        # (I - null_gram_inv A.T A) pinv, with A.T A = R_A.T R_A kept spectral
        pinv, core = constraint_pinv(self.basis), self.core
        return pinv - self.basis.null_basis @ _filtered(core, core.data_r[:, :-1] @ pinv)

    @cached_property
    def residual(self) -> np.ndarray:
        """A x - b, computed on first use. Neither the solvers nor
        condition_report read it: they read R, and the report forms each
        block's rows of it in its pass over the data."""
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

    p = 0 takes the same path: the complete QR of the n x 0 matrix C.T is
    Q = I, so the null basis is I, x_feas = 0, aug_scale = 1 and the
    augmented basis is [[I, 0], [0, -1]].
    """
    p = problem.p
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
    x_feas = q1 @ solve_triangular(r1, problem.d, trans=1)
    aug_scale = 1.0 / np.sqrt(1.0 + float(x_feas @ x_feas))
    return ConstraintBasis(
        q1=q1,
        null_basis=null_basis,
        r1=r1,
        x_feas=x_feas,
        aug_scale=aug_scale,
        problem=problem,
    )


def constraint_pinv(basis: ConstraintBasis) -> np.ndarray:
    """Pseudoinverse of C assembled from the already-built QR factors."""
    return basis.q1 @ solve_triangular(basis.r1, np.eye(len(basis.r1)), trans=1)


def check_genericity(basis: ConstraintBasis) -> CoreSvd:
    """Factor [A b] once, then one SVD, of the data restricted to ker(C).

    The core matrix R @ aug_null_basis is [B w] with B = R_A @ null_basis
    (R_A = data_r[:, :-1]) and w = aug_scale R [x_feas; -1], a column
    appended to B. With B = U diag(s) V.T the restricted SVD, z = U.T w
    and gamma = ||w - U z||, it is [U u] [[diag(s), z], [0, gamma]]
    blkdiag(V, 1).T for a unit u orthogonal to U, so linalg.bordered_svd
    reads sigma_max, sigma_min, the shifts s^2 - sigma_min^2 and the
    trailing right singular vector off s, z and gamma by a secular update;
    the core matrix is never formed or factored. satisfied means the strict
    spectral gap holds. NumericalError when the data's scale puts the
    squared spectrum outside the float range: the largest restricted
    singular value's square overflows, or the gap holds but the smallest
    shift underflows below the smallest normal float, where the shifted
    Gram inverse would overflow or lose its digits. Warnings carried in the
    result (never raised here):

    - "ill-posed" when the gap is at or below GAP_WARN_FACTOR * eps *
      restricted_min_sv**2 (includes every unsatisfied case),
    - "near-degenerate" when satisfied but rel_gap < NEAR_DEGENERATE_TOL,
    - "non-unique" when the two smallest core singular values nearly
      coincide, so the minimizing direction is not well determined.
    """
    return _genericity(basis, r_factor(basis.problem.A, basis.problem.b))


def _genericity(basis: ConstraintBasis, data_r: np.ndarray) -> CoreSvd:
    """check_genericity on the R factor data_r of basis.problem's [A b]."""
    restricted = svd(data_r[:, :-1] @ basis.null_basis)
    s, tiny, eps = restricted.s, np.finfo(float).tiny, np.finfo(float).eps
    if s[0] >= np.sqrt(np.finfo(float).max):
        raise NumericalError(_OUT_OF_RANGE.format(s[0], s[-1]))
    w = data_r @ np.append(basis.aug_scale * basis.x_feas, -basis.aug_scale)
    z = restricted.u.T @ w
    off = w - restricted.u @ z
    gamma = math.sqrt(off @ off)
    (sigma_max, second, sigma_min), shifts, y = bordered_svd(s, z, gamma)
    restricted_min_sv = float(s[-1])
    gap = float(shifts[-1])
    satisfied = restricted_min_sv > sigma_min
    if satisfied and gap < tiny:
        raise NumericalError(_OUT_OF_RANGE.format(s[0], s[-1]))
    rel_gap = gap / max(restricted_min_sv**2, tiny)
    warnings = []
    if gap <= GAP_WARN_FACTOR * eps * restricted_min_sv**2:
        warnings.append("ill-posed")
    elif rel_gap < NEAR_DEGENERATE_TOL:
        warnings.append("near-degenerate")
    if second - sigma_min <= MULTIPLICITY_FACTOR * eps * sigma_max:
        warnings.append("non-unique")
    return CoreSvd(
        data_r=data_r,
        restricted=restricted,
        sigma_max=float(sigma_max),
        sigma_min=float(sigma_min),
        shifts=shifts,
        direction=np.concatenate((restricted.v @ y[:-1], y[-1:])),
        gap=gap,
        rel_gap=rel_gap,
        satisfied=satisfied,
        problem=basis.problem,
        warnings=tuple(warnings),
    )


def _shifts(core: CoreSvd, shift: float | None = None) -> np.ndarray:
    """s^2 - shift^2 over the restricted singular values s, factored; the
    shift defaults to sigma_min, whose shifts check_genericity stored."""
    if shift is None:
        return core.shifts
    s = core.restricted.s
    return (s - shift) * (s + shift)


def null_gram_inv_norm(core: CoreSvd) -> float:
    """||null_gram_inv||_2 = 1/shifts[-1]: null_gram_inv = (N V)
    diag(1/shifts) (N V).T, N = null_basis, with the smallest shift last."""
    return float(1.0 / _shifts(core)[-1])


def data_map_norm(core: CoreSvd) -> float:
    """||null_gram_inv R_A.T||_2 = ||null_gram_inv A.T||_2 = max(s/shifts),
    as null_gram_inv R_A.T = (N V) diag(s/shifts) U.T with U diag(s) V.T
    the restricted SVD of R_A N (R_A = data_r[:, :-1], N = null_basis)."""
    return float(np.max(core.restricted.s / _shifts(core)))


def _filtered(core: CoreSvd, rhs: np.ndarray, shift: float | None = None) -> np.ndarray:
    """V diag(s/shifts) U.T rhs, i.e. gram_inv (A N).T on R's coordinates."""
    res = core.restricted
    return res.v @ (res.s / _shifts(core, shift) * (res.u.T @ rhs).T).T


def _gram_inv(core: CoreSvd, shift: float | None = None) -> np.ndarray:
    """V diag(1/shifts) V.T, the inverse of (A N).T (A N) - shift^2 I."""
    v = core.restricted.v
    return v @ (v.T / _shifts(core, shift)[:, None])


def _posed(problem: TlseProblem) -> tuple[ConstraintBasis, CoreSvd]:
    """check_genericity with R factored first; IllPosedError on a failed gap."""
    data_r = r_factor(problem.A, problem.b)
    basis = build_basis(problem)
    core = _genericity(basis, data_r)
    if not core.satisfied:
        raise IllPosedError(
            "genericity gap violated: restricted data spectrum "
            f"{core.restricted_min_sv:.6e} does not exceed core sigma_min "
            f"{core.sigma_min:.6e}"
        )
    return basis, core


def _check_solution(problem: TlseProblem, solution: TlseSolution) -> None:
    """InputError unless solution was solved from this very problem object:
    its factors (R, the basis QR) would otherwise be mixed with another
    problem's C, d and A, such as a perturbed copy's."""
    if solution.basis.problem is not problem:
        raise InputError("solution was not solved from this problem")


def _x_from_direction(v: np.ndarray) -> np.ndarray:
    """x with [x; -1] parallel to v, the same for v and -v bit for bit.

    Raises NonGenericError when |v[-1]| < LAST_COMPONENT_TOL.
    """
    if abs(v[-1]) < LAST_COMPONENT_TOL:
        raise NonGenericError(
            f"normalizing component {v[-1]:.3e} is below "
            f"{LAST_COMPONENT_TOL:g}; solution direction is not generic"
        )
    return v[:-1] / -v[-1]


def solve_qr_svd(problem: TlseProblem) -> TlseSolution:
    """Solve by lifting the core direction and normalizing.

    The direction is the trailing right singular vector of the core matrix,
    which check_genericity reads off the restricted SVD with no second SVD.

    rho = +sqrt(1 + ||x||^2). Raises IllPosedError when the genericity gap
    fails, NonGenericError when the normalizing component is below
    LAST_COMPONENT_TOL. The data are read once, by the streamed QR of
    [A b]; solution.residual reads them again only when it is first
    accessed.
    """
    basis, core = _posed(problem)
    x = _x_from_direction(basis.aug_null_basis @ core.direction)
    rho = float(np.sqrt(1.0 + x @ x))
    return TlseSolution(x=x, rho=rho, basis=basis, core=core)


def solve_closed_form(problem: TlseProblem) -> np.ndarray:
    """Solve through the shifted Gram system on the constraint null space.

    x = x_feas - N S^{-1} (A N).T (A x_feas - b) with N = null_basis and
    S = (A N).T (A N) - sigma_min^2 I, evaluated on R through the restricted
    SVD U diag(s) V.T as x_feas - N V diag(s/shifts) U.T (R [x_feas; -1]);
    S is never formed. It shares R, the restricted SVD and the shifts with
    solve_qr_svd but does not use the core direction, so the two act as
    cross-checks. Returns the solution vector only.
    """
    basis, core = _posed(problem)
    r = core.data_r
    step = _filtered(core, r[:, :-1] @ basis.x_feas - r[:, -1])
    return basis.x_feas - basis.null_basis @ step


def validate_stationarity(
    problem: TlseProblem, solution: TlseSolution
) -> StationarityReport:
    """Residuals of the constrained optimality system at the solution.

    With g = [A b].T [A b] [x; -1] = R.T (R [x; -1]), R = core.data_r, the
    gradient block reads g[:n] + C.T lam = sigma_min^2 x; its least-squares
    multiplier is r1^-1 q1.T (sigma_min^2 x - g[:n]) from the basis QR C.T
    = q1 r1. Reports the norms of all three block rows (gradient, the scalar
    coupling row g[n] + d.T lam + sigma_min^2, and the constraint row C x -
    d). The data are not read: only R, the basis QR and C, d. Always
    returns; this is a diagnostic, not a gate. InputError when solution
    was not solved from problem itself.
    """
    _check_solution(problem, solution)
    x, basis, r = solution.x, solution.basis, solution.core.data_r
    c, d = problem.C, problem.d
    s2 = solution.sigma_min**2
    g = r.T @ (r @ np.append(x, -1.0))
    multiplier = solve_triangular(basis.r1, basis.q1.T @ (s2 * x - g[:-1]))
    grad = g[:-1] + c.T @ multiplier - s2 * x
    coupling = float(g[-1] + d @ multiplier + s2)
    constraint = c @ x - d
    return StationarityReport(
        multiplier=multiplier,
        grad_norm=float(np.linalg.norm(grad)),
        coupling_norm=abs(coupling),
        constraint_norm=float(np.linalg.norm(constraint)),
    )
