"""Generalized eigensolve and the kappa fixed-point iteration.

The trial family is strongly non-orthogonal: the metric Delta is numerically
singular in double precision already for moderate n_max (its spectrum spans
more than sixteen decades), so a plain Cholesky reduction fails.  The solve
instead filters the metric: eigendecompose Delta, keep directions with
sigma > filter_tol * sigma_max, whiten, and solve the standard symmetric
problem in the kept subspace.  Returned eigenpairs are exact pairs of the
filtered pencil; the physically tracked low modes carry full-pencil
residuals at the 1e-10 level, while Ritz values far outside the physical
window (e.g. the large negative ones of the NtD pencil) are meaningful only
as subspace artifacts and are never selected by the tracking rule.

The fixed-point loop sets kappa to the square root of the tracked eigenvalue
until successive estimates of k agree within the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    DEFAULT_STEKLOV_MODES,
    AssemblyContext,
    MatrixPair,
    Method,
    QuadratureConfig,
    assemble,
    build_context,
)
from .basis import BasisSpec
from .errors import MetricNotPositiveDefinite, NoPositiveEigenvalue, NotConverged
from .geometry import CompositeDomain
from .reconstruct import ModeEstimate, gamma2_coefficients

DEFAULT_FILTER_TOL = 1e-13
DEFAULT_K_TOL = 5e-5
DEFAULT_MAX_ITER = 20


@dataclass(frozen=True)
class EigenSolution:
    """Ascending eigenvalues and metric-orthonormal eigenvectors.

    ``vectors[:, i]`` belongs to ``values[i]``; ``kept`` is the dimension of
    the filtered subspace actually solved (<= basis size).
    """

    values: np.ndarray
    vectors: np.ndarray
    kept: int


@dataclass
class IterationTrace:
    """kappa inputs and k estimates per iteration of the fixed point."""

    kappas: list[float] = field(default_factory=list)
    estimates: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.estimates)

    def last_step(self) -> float:
        if len(self.estimates) < 2:
            return float("inf")
        return abs(self.estimates[-1] - self.estimates[-2])


def solve_generalized(pair: MatrixPair, filter_tol: float = DEFAULT_FILTER_TOL) -> EigenSolution:
    """Solve Lambda x = F Delta x with metric filtering.

    Sign convention: each eigenvector's largest-magnitude component is made
    positive, so repeated solves are bit-reproducible.
    """
    sigma, U = np.linalg.eigh(pair.delta)
    if sigma[-1] <= 0:
        raise MetricNotPositiveDefinite("metric has no positive direction")
    keep = sigma > filter_tol * sigma[-1]
    if not np.any(keep):
        raise MetricNotPositiveDefinite("metric filtering removed every direction")
    X = U[:, keep] / np.sqrt(sigma[keep])
    values, Z = np.linalg.eigh(X.T @ pair.lam @ X)
    vectors = X @ Z
    flip = np.sign(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])])
    flip[flip == 0] = 1.0
    return EigenSolution(values=values, vectors=vectors * flip, kept=int(keep.sum()))


def select_mode(previous_k_squared: float, solution: EigenSolution) -> int:
    """Index of the positive eigenvalue nearest previous_k_squared.

    Ties break toward the smaller index; raises NoPositiveEigenvalue when
    the whole spectrum is non-positive.
    """
    values = solution.values
    positive = values > 0
    if not np.any(positive):
        raise NoPositiveEigenvalue("no positive eigenvalue to track")
    dist = np.where(positive, np.abs(values - previous_k_squared), np.inf)
    return int(np.argmin(dist))


def iterate_mode(
    method: Method,
    kappa0: float,
    spec: BasisSpec,
    domain: CompositeDomain,
    quad: QuadratureConfig = QuadratureConfig(),
    n_modes: int = DEFAULT_STEKLOV_MODES,
    tol: float = DEFAULT_K_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    filter_tol: float = DEFAULT_FILTER_TOL,
    context: AssemblyContext | None = None,
):
    """Run the self-consistency loop kappa <- sqrt(F) for one tracked mode.

    Assembly and the returned estimate read the trial family and the domain
    from the context; without one, a context is built from spec, domain,
    quad and n_modes.  A context built for another spec or domain raises
    ValueError.

    Returns (ModeEstimate, IterationTrace); raises NotConverged (with the
    trace attached) if max_iter is exhausted first.
    """
    if kappa0 <= 0:
        raise ValueError(f"kappa0 must be > 0, got {kappa0}")
    if context is not None and (context.spec, context.domain) != (spec, domain):
        raise ValueError("context was built for another trial family or domain")
    ctx = context if context is not None else build_context(spec, domain, quad, n_modes)
    trace = IterationTrace()
    kappa = float(kappa0)
    target = kappa0**2
    result = None
    for _ in range(max_iter):
        pair = assemble(method, kappa, context=ctx)
        solution = solve_generalized(pair, filter_tol)
        idx = select_mode(target, solution)
        f_val = solution.values[idx]
        k = float(np.sqrt(f_val))
        trace.kappas.append(kappa)
        trace.estimates.append(k)
        target = f_val
        result = (kappa, f_val, solution.vectors[:, idx])
        if trace.last_step() < tol:
            trace.converged = True
            break
        kappa = k
    if not trace.converged:
        raise NotConverged(trace)
    kappa_final, f_final, vec = result
    gamma2 = gamma2_coefficients(method, vec, kappa_final, ctx)
    estimate = ModeEstimate(
        k_estimate=float(np.sqrt(f_final)),
        method=method,
        gamma1=vec,
        gamma2=gamma2,
        spec=ctx.spec,
        domain=ctx.domain,
        kappa=kappa_final,
    )
    return estimate, trace
