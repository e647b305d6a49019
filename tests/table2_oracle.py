"""table2 one trial at a time: the oracle for the batch.

The package's table2 factors the weighted stack once per problem and runs
all trials through one batched Nystrom kernel, reusing run_experiment's
QR-SVD solve as the reference. The loop below is the plain form: it draws
each row's (trials, n+1, width) stream of test matrices as table2 does,
then takes a fresh reference solve, and for every trial a fresh R factor
of the weighted stack and one kernel call on that trial's slab alone. The
two must agree bit for bit.
"""
from dataclasses import replace
from statistics import median

import numpy as np

from tlsekit import (
    GeneratorSpec,
    NwtlsConfig,
    embed,
    gen_householder_spectrum,
    perturb,
    run_experiment,
    solve_qr_svd,
)
from tlsekit.bench import derive_seed
from tlsekit.wtls import _nystrom


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
    cfg = NwtlsConfig(eps=eps, oversample=oversample, sample_size=sketch)
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
            width = cfg.resolve(problem.n, problem.p)
            stream = np.random.default_rng(derive_seed(seed, mi, di, 2))
            draws = stream.standard_normal((trials, problem.n + 1, width))
            devs = []
            for slab in draws:
                x_rand = _nystrom(embed(problem, eps).r, slab[None])[0]
                devs.append(float(np.linalg.norm(x_rand - x_ref) / ref_norm))
            rows.append(replace(row, nwtls_dev=median(devs)))
    return rows
