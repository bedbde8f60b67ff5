import numpy as np
import pytest

from helmbound import (
    BasisSpec,
    Method,
    Parity,
    QuadratureConfig,
    build_context,
    iterate_mode,
    make_domain,
    mode_seeds,
)

A, B = 1.0, 1.5


@pytest.fixture(scope="session")
def domain():
    return make_domain(A, B)


@pytest.fixture(scope="session")
def quad():
    return QuadratureConfig()


@pytest.fixture(scope="session")
def context_for(domain, quad):
    """Factory for cached assembly contexts keyed by (parity, n_max)."""
    cache = {}

    def get(parity: Parity, size: int = 15):
        key = (parity, size)
        if key not in cache:
            spec = BasisSpec(parity=parity, n_max=size, m_max=size)
            cache[key] = build_context(spec, domain, quad)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def converged(domain, context_for):
    """Factory for cached converged runs keyed by (method, label, size, tol)."""
    cache = {}
    seeds = mode_seeds(domain)

    def get(method: Method, label: str, size: int = 15, tol: float = 5e-5):
        key = (method, label, size, tol)
        if key not in cache:
            parity = Parity(label.split(",")[0])
            ctx = context_for(parity, size)
            cache[key] = iterate_mode(method, seeds[label], ctx.spec, domain, tol=tol, context=ctx)
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
