"""Tour of the condition-number toolkit on one seeded problem.

Builds the first-order perturbation operator for a solved problem, then
reads every number off condition_report, the one entry point: the exact
normwise condition number against its tight and loose upper bounds, across
several weightings of the two data blocks, and the exact mixed and
componentwise numbers against theirs. Finishes by checking the numbers
against an actual finite perturbation.
"""
import numpy as np

from tlsekit import (
    TlseProblem,
    Weights,
    apply_sample,
    build_k_operator,
    condition_report,
    perturb,
    solve_qr_svd,
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
    solution = solve_qr_svd(problem)
    op = build_k_operator(problem, solution)
    print("operator maps %d x %d stacked perturbations to %d coordinates"
          % (op.m, op.n + 1, op.n))

    print("\nnormwise condition number under three weightings")
    print("%-12s %-14s %-14s %-14s" % ("weights", "exact", "upper", "loose upper"))
    for alpha, beta in ((1, 1), (10, 1), (1, 10)):
        report = condition_report(
            problem, solution=solution, weights=Weights(alpha, beta)
        )
        exact, tight, loose = (
            report.kappa_n, report.kappa_n_upper, report.kappa_n_upper_loose
        )
        print("%-12s %-14.6e %-14.6e %-14.6e"
              % ("(%g,%g)" % (alpha, beta), exact, tight, loose))
        assert exact <= tight <= loose * (1 + 1e-12)

    print("\nmixed and componentwise measures")
    base = condition_report(problem, solution=solution)
    print("mixed:         %.6e  (upper %.6e)" % (base.kappa_m, base.kappa_m_upper))
    print("componentwise: %.6e  (upper %.6e)" % (base.kappa_c, base.kappa_c_upper))

    # method "upper" reports the mixed and componentwise bounds in place of
    # the exact values, and skips the exact sum.
    print()
    for method in ("exact", "upper"):
        report = condition_report(problem, method=method)
        print("%-5s report: kappa_n=%.4e kappa_m=%.4e kappa_c=%.4e"
              % (method, report.kappa_n, report.kappa_m, report.kappa_c))

    # Sanity-check the first-order prediction with a real perturbation.
    scale = 1e-8
    sample = perturb(problem, "normwise", scale, seed=3)
    perturbed = solve_qr_svd(apply_sample(problem, sample))
    fwd = np.linalg.norm(perturbed.x - solution.x) / np.linalg.norm(solution.x)
    eps = np.sqrt(
        np.linalg.norm(sample.dL, "fro") ** 2 + np.linalg.norm(sample.dh) ** 2
    ) / np.sqrt(
        np.linalg.norm(problem.L, "fro") ** 2 + np.linalg.norm(problem.h) ** 2
    )
    exact = base.kappa_n
    print("\nperturbation of relative size %.2e" % eps)
    print("observed forward error:  %.6e" % fwd)
    print("first-order bound:       %.6e" % (exact * eps))
    assert fwd <= 1.1 * exact * eps


if __name__ == "__main__":
    main()
