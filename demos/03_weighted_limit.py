"""How the weighted relaxation converges to the constrained solution.

The constrained problem is the limit of an unconstrained weighted one in
which the constraint rows are amplified by 1/eps. This demo checks the
admissibility condition on eps, then drives eps to zero and tabulates
four convergence measures. All four shrink like eps^2, which the slope
of the error curve confirms.
"""
import numpy as np

from tlsekit import (
    TlseProblem,
    check_eps_bound,
    embed,
    solve_qr_svd,
    solve_wtls_direct,
    wtls_limit_diagnostics,
)


def make_problem(seed=7, p=3, n=8, q=15):
    rng = np.random.default_rng(seed)
    return TlseProblem(
        C=rng.standard_normal((p, n)),
        d=rng.standard_normal(p),
        A=rng.standard_normal((q, n)),
        b=rng.standard_normal(q),
    )


def main():
    problem = make_problem()
    reference = solve_qr_svd(problem)
    print("reference solution through QR-SVD, sigma=%.6f"
          % reference.sigma_min)

    # The relaxation is only faithful when eps is small enough; the
    # bound compares a squared-eps term against the genericity gap of the
    # core that the solve already holds.
    for eps in (0.3, 1e-2, 1e-4):
        bound = check_eps_bound(problem, eps, reference.core)
        print("eps=%.0e admissible=%s margin=%.3e"
              % (eps, bound.ok, bound.margin))

    # Solve the weighted problem once at a fixed eps.
    emb = embed(problem, 1e-6)
    x_w, sigma_w = solve_wtls_direct(emb)
    print("\nweighted solve at eps=1e-6:")
    print("  deviation from reference: %.3e"
          % np.linalg.norm(x_w - reference.x))
    print("  sigma deviation:          %.3e"
          % abs(sigma_w - reference.sigma_min))

    # Drive eps down a grid and watch all four diagnostics decay.
    grid = [1e-1, 1e-2, 1e-3, 1e-4]
    rows = wtls_limit_diagnostics(problem, grid, solution=reference)
    print("\n%-8s %-12s %-12s %-12s %-12s"
          % ("eps", "x_err", "sigma_err", "resolvent", "gain"))
    for row in rows:
        print("%-8.0e %-12.3e %-12.3e %-12.3e %-12.3e"
              % (row.eps, row.x_err, row.sigma_err,
                 row.resolvent_err, row.gain_err))

    x_errs = np.array([row.x_err for row in rows])
    slope = np.polyfit(np.log10(grid), np.log10(x_errs), 1)[0]
    print("\nlog-log slope of x_err vs eps: %.3f (expected near 2)" % slope)


if __name__ == "__main__":
    main()
