import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_instance(seed, n=10, p=5, noise=0.5, offset=0.0):
    """Generic dense instance with a simplex-interior signal."""
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, p)) + offset
    w = gen.dirichlet(np.full(p, 2.0))
    y = x @ w + noise * gen.normal(size=n)
    return y, x


def random_design(gen, shape):
    """A draw of ``shape`` "tall" (fewer donors than periods), "wide" (up to
    three times as many) or "duplicated" (tall, two donors repeated)."""
    n = int(gen.integers(5, 20))
    p = int(gen.integers(n + 1, 3 * n)) if shape == "wide" else int(gen.integers(2, n))
    x = gen.normal(size=(n, p))
    if shape == "duplicated":
        x = np.column_stack([x, x[:, gen.integers(0, p, size=2)]])
    y = x @ gen.dirichlet(np.ones(x.shape[1])) + 0.3 * gen.normal(size=n)
    return y, x


def near_common_rows(gen, k):
    """The sum row over ``k`` donors plus 1-3 rows, each one common vector
    plus noise of relative size 1e-4 to 1e-3: covariates that barely differ
    across donors, which make ``E`` ill conditioned."""
    common = gen.normal(size=k)
    rows = [common + 10 ** gen.uniform(-4, -3) * gen.normal(size=k)
            for _ in range(int(gen.integers(1, 4)))]
    return np.vstack([np.ones(k), *rows])
