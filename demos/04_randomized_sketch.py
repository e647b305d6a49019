"""Randomized sketching route: accuracy, oversampling, and gap effects.

The randomized solver compresses the stacked weighted system through a
seeded Gaussian sketch before extracting the solution. This demo shows
how the sketch width is resolved from the problem size, how accuracy
responds to the oversampling margin, and how the singular value gap of
the underlying data controls the attainable accuracy.
"""
import numpy as np

from tlsekit import (
    GeneratorSpec,
    NwtlsConfig,
    TlseProblem,
    gen_householder_spectrum,
    solve_nwtls,
    solve_qr_svd,
)


def deviation(problem, cfg):
    reference = solve_qr_svd(problem).x
    x = solve_nwtls(problem, cfg)
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


def main():
    # A problem with an exactly prescribed singular spectrum; delta is
    # the gap separating the smallest singular value from the rest.
    spec = GeneratorSpec(
        kind="householder_spectrum", m=50, delta=1e-3, seed=3
    )
    problem = gen_householder_spectrum(spec)
    print("problem: p=%d n=%d q=%d" % (problem.p, problem.n, problem.q))

    cfg = NwtlsConfig(seed=0)
    width = cfg.resolve(problem.n, problem.p)
    print("default sketch width %d (of maximum %d)" % (width, problem.n + 1))
    print("default-config deviation: %.3e" % deviation(problem, cfg))

    # On a generic dense problem a starved sketch visibly hurts; extra
    # oversampling columns restore full accuracy.
    rng = np.random.default_rng(5)
    dense = TlseProblem(
        C=rng.standard_normal((3, 8)),
        d=rng.standard_normal(3),
        A=rng.standard_normal((15, 8)),
        b=rng.standard_normal(15),
    )
    print("\noversampling sweep, dense problem, sketch width 3 + oversample")
    for oversample in (1, 3, 5):
        devs = [
            deviation(
                dense,
                NwtlsConfig(sample_size=3 + oversample, seed=seed),
            )
            for seed in range(15)
        ]
        print("oversample=%d median deviation %.3e"
              % (oversample, float(np.median(devs))))

    # A wider spectral gap makes the compressed problem easier.
    print("\ngap sensitivity at a tight sketch (width 5)")
    for delta in (1e-2, 1e-3, 1e-4):
        spec = GeneratorSpec(
            kind="householder_spectrum", m=50, delta=delta, seed=3
        )
        tight = gen_householder_spectrum(spec)
        devs = [
            deviation(tight, NwtlsConfig(sample_size=5, seed=seed))
            for seed in range(10)
        ]
        print("delta=%.0e median deviation %.3e"
              % (delta, float(np.median(devs))))


if __name__ == "__main__":
    main()
