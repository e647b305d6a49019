"""validate_stationarity on the data itself: the oracle for the R route.

The package's validate_stationarity reads [A b] only through the solve's R
factor and C only through the basis QR of C.T, so a fault in R would pass
its own check unseen. The function below is the plain form, which reads A
and b directly (seven passes over A) and recovers the multiplier by
least squares on C.T with NumPy's lstsq.
"""
import numpy as np

from tlsekit.core import StationarityReport


def stationarity_from_data(problem, solution) -> StationarityReport:
    x = solution.x
    a, b, c, d = problem.A, problem.b, problem.C, problem.d
    s2 = solution.sigma_min**2
    grad_rhs = s2 * x - a.T @ (a @ x) + a.T @ b
    multiplier = np.linalg.lstsq(c.T, grad_rhs, rcond=None)[0]
    grad = a.T @ (a @ x) - a.T @ b + c.T @ multiplier - s2 * x
    coupling = float(b @ (a @ x) - b @ b + d @ multiplier + s2)
    constraint = c @ x - d
    return StationarityReport(
        multiplier=multiplier,
        grad_norm=float(np.linalg.norm(grad)),
        coupling_norm=abs(coupling),
        constraint_norm=float(np.linalg.norm(constraint)),
    )
