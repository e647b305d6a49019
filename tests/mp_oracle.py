"""60-digit references from mpmath, for problems with n <= 12 or so.

The float64 data are converted exactly, the arithmetic runs at mp.dps = 60,
and the result is rounded back to float64 once, so at the sizes used here
the reference is exact to float64 working accuracy.
"""
import mpmath
import numpy as np

#: Decimal digits of the reference arithmetic.
DIGITS = 60


def shifted_inverse(problem, sigma, eps) -> np.ndarray:
    """(C.T C / eps^2 + A.T A - sigma^2 I)^-1 from the problem's own C and A."""
    with mpmath.workdps(DIGITS):
        a = mpmath.matrix(problem.A.tolist())
        mat = a.T * a - mpmath.mpf(sigma) ** 2 * mpmath.eye(problem.n)
        if problem.p:
            c = mpmath.matrix(problem.C.tolist())
            mat += c.T * c / mpmath.mpf(eps) ** 2
        return np.array(mpmath.inverse(mat).tolist(), dtype=float)
