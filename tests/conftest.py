"""Shared fixtures: seeded problem batteries reused across the suite."""
import os

# One BLAS thread unless the caller chose otherwise: set before numpy is
# imported, since the BLAS reads these once when it loads. Several threads
# oversubscribe small hosts and make the suite about twice as slow.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_configure(config):
    # Any SciPy LinAlgWarning fails the suite. The filter is registered here
    # rather than in pyproject.toml: pytest resolves an ini filter's warning
    # class, importing scipy and numpy, before it loads this file.
    config.addinivalue_line("filterwarnings", "error::scipy.linalg.LinAlgWarning")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from tlsekit import TlseProblem, solve_qr_svd  # noqa: E402
from tlsekit.core import build_basis, check_genericity  # noqa: E402


def make_battery(count: int, seed: int, p_min: int = 0) -> list[TlseProblem]:
    """Seeded random problems with a comfortable genericity gap.

    Draws p in [p_min, 5], n in [max(p+1, 2), 20], q in [n-p+1, 40] and
    keeps only instances whose relative gap exceeds 1e-3, so every battery
    problem is solvable by all three routes.
    """
    problems = []
    attempt = 0
    while len(problems) < count:
        rng = np.random.default_rng([seed, attempt])
        attempt += 1
        p = int(rng.integers(p_min, 6))
        n = int(rng.integers(max(p + 1, 2), 21))
        q = int(rng.integers(n - p + 1, 41))
        problem = TlseProblem(
            C=rng.standard_normal((p, n)),
            d=rng.standard_normal(p),
            A=rng.standard_normal((q, n)),
            b=rng.standard_normal(q),
        )
        core = check_genericity(build_basis(problem), problem)
        if core.satisfied and core.rel_gap > 1e-3:
            problems.append(problem)
    return problems


@pytest.fixture(scope="session")
def battery100():
    return make_battery(100, seed=11)


@pytest.fixture(scope="session")
def solved100(battery100):
    return [(problem, solve_qr_svd(problem)) for problem in battery100]


@pytest.fixture(scope="session")
def constrained20():
    # p >= 1 so the weighted embedding differs from the plain problem
    return make_battery(20, seed=11, p_min=1)
