"""table2 with one solve_nwtls call per trial: the oracle for the batch.

The package's table2 factors the weighted stack once per problem and runs
all trials through one batched Nystrom kernel, reusing run_experiment's
QR-SVD solve as the reference. The loop below is the plain form: a fresh
reference solve and a separate solve_nwtls (its own R factor and its own
four triangular solves) for every seed. The two must agree bit for bit.
"""
from dataclasses import replace
from statistics import median

import numpy as np

from tlsekit import (
    GeneratorSpec,
    NwtlsConfig,
    gen_householder_spectrum,
    perturb,
    run_experiment,
    solve_nwtls,
    solve_qr_svd,
)
from tlsekit.bench import derive_seed


def table2_per_trial(
    ms=(50, 100),
    deltas=(1e-2, 1e-3, 1e-4),
    seed=0,
    trials=20,
    scale=1e-8,
    eps=1e-8,
    oversample=5,
    sketch=None,
):
    rows = []
    for mi, m in enumerate(ms):
        for di, delta in enumerate(deltas):
            spec = GeneratorSpec(
                kind="householder_spectrum",
                m=m,
                delta=delta,
                seed=derive_seed(seed, mi, di),
            )
            problem = gen_householder_spectrum(spec)
            sample = perturb(
                problem, "normwise", scale, derive_seed(seed, mi, di, 1)
            )
            row = run_experiment(
                problem, sample, label=f"m={m} delta={delta:.0e}"
            )
            x_ref = solve_qr_svd(problem).x
            ref_norm = np.linalg.norm(x_ref)
            devs = []
            for s in range(trials):
                cfg = NwtlsConfig(
                    eps=eps,
                    oversample=oversample,
                    sample_size=sketch,
                    seed=derive_seed(seed, mi, di, 2, s),
                )
                x_rand = solve_nwtls(problem, cfg)
                devs.append(float(np.linalg.norm(x_rand - x_ref) / ref_norm))
            rows.append(replace(row, nwtls_dev=median(devs)))
    return rows
