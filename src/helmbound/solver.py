"""Generalized eigensolve and the kappa fixed-point iteration.

The solve reads one AssemblyContext alone and runs on the pencil in its
compressed coordinates (``assembly`` module docstring), so each iteration
works on r x r matrices.  The converged mode keeps the tracked vector a and
that context: gamma2 reads a, sampling gamma1 = Y a.

The compression drops the directions that are negligible for the family's
Gram, not for the method's metric: the reduced Delta still spans the whole
float64 range (at b = 1.5 its smallest eigenvalues lie between 9e-19 and
9e-15 of the largest, and 9 to 62 of them below 1e-13, at 15x15 and
30x30), so a plain Cholesky reduction is not an option.  The solve instead
filters the reduced metric: eigendecompose Delta, keep directions with
sigma > filter_tol * sigma_max, whiten, and solve the standard symmetric
problem in the kept subspace.

One eigh fixes the eigenvalues of Delta only to about eps * sigma_max, so
near the cut it cannot tell apart directions a few dozen eps * sigma_max
apart: at b = 1.5 the dropped span at filter_tol 1e-14 is off by 1e-2 to
1e-1 in angle.  The kept span then moves with the rounding of every kappa,
and the fixed point jitters by 1e-7 to 1e-6 (15x15 NtD odd,1).  So the
directions below sqrt(eps) * sigma_max are solved a second time, by eigh of
the metric restricted to their span, U_b^T Delta U_b.  That span is fixed to
about eps / sqrt(eps) against the rest, and the restricted metric has norm
sqrt(eps) * sigma_max, so the second eigh resolves the bottom to about
eps^1.5 * sigma_max: the dropped span at 1e-14 comes out within 1e-10 to
1e-7 in angle of the one from an SVD of Delta's Cholesky factor.

Returned eigenvalues are those of the filtered pencil, from ``eigvalsh`` of
the whitened kept block H = X^T Lambda X; no eigenvector is computed with
them, since each iteration of the fixed point reads only the tracked value.
``EigenSolution.vector(i)`` computes the one eigenvector the converged
iteration needs, by inverse iteration on H, and maps it through X.  The
physically tracked low modes carry pencil residuals at the 1e-10 level,
while Ritz values far outside the physical window (e.g. the large negative
ones of the NtD pencil) are meaningful only as subspace artifacts and are
never selected by the tracking rule.

The fixed-point loop sets kappa to the square root of the tracked eigenvalue
and stops when the estimate k agrees within the tolerance with the kappa the
pencil was assembled at, |k - kappa| < tol.  From the second iteration on
kappa is the previous estimate, so this is the step between successive
estimates; on the first, the seed kappa0 counts as estimate 0.  Physical
roots are stationary (d sqrt(F) / d kappa = 0 there), so a seed already
within tol of the root, such as the other method's or a neighbouring basis
size's converged k, returns after one pencil solve.  The tracked eigenvector
is computed once, at convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import AssemblyContext, MatrixPair, Method, assemble
from .assembly import build_context  # noqa: F401  (helmbench/tracing.py wraps this name)
from .errors import MetricNotPositiveDefinite, NoPositiveEigenvalue, NotConverged
from .reconstruct import ModeEstimate, gamma2_coefficients

DEFAULT_FILTER_TOL = 1e-13
DEFAULT_K_TOL = 5e-5
DEFAULT_MAX_ITER = 20
# metric eigenvalues below this fraction of the largest are solved a second
# time, restricted to their span (module docstring)
REFINE_BELOW = np.sqrt(np.finfo(float).eps)
# EigenSolution.vector takes two inverse-iteration steps from all-ones, with
# the shift this fraction of ||H|| above the eigenvalue: a few ulps of the
# largest, so H - s I is never exactly singular
INVERSE_SHIFT = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class EigenSolution:
    """Ascending eigenvalues of the filtered pencil, and what their vectors need.

    ``kept`` is the dimension of the filtered subspace actually solved (<= the
    pencil's size, which for an assembled pair is the context's trial
    dimension r); ``whitening`` is X (X^T Delta X = I) and ``block`` is
    H = X^T Lambda X, whose eigenvalues are ``values``.  ``vector(i)`` returns
    the metric-normalised eigenvector of ``values[i]``.
    """

    values: np.ndarray
    kept: int
    whitening: np.ndarray = field(repr=False)
    block: np.ndarray = field(repr=False)

    def vector(self, i: int) -> np.ndarray:
        """Eigenvector x of ``values[i]`` with x^T Delta x = 1, by inverse
        iteration on H (INVERSE_SHIFT).  Its largest-magnitude component is
        made positive, so repeated solves are bit-reproducible."""
        shift = self.values[i] + INVERSE_SHIFT * np.max(np.abs(self.values))
        M = self.block - shift * np.eye(self.kept)
        z = np.ones(self.kept)
        for _ in range(2):
            z = np.linalg.solve(M, z)
            z /= np.linalg.norm(z)
        x = self.whitening @ z
        return x if x[np.argmax(np.abs(x))] >= 0 else -x


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
        """Fixed-point residual |k - kappa| of the last iteration (inf before the first)."""
        if not self.estimates:
            return float("inf")
        return abs(self.estimates[-1] - self.kappas[-1])


def solve_generalized(pair: MatrixPair, filter_tol: float = DEFAULT_FILTER_TOL) -> EigenSolution:
    """Solve Lambda x = F Delta x with metric filtering.

    The metric's eigenvalues below REFINE_BELOW * sigma_max come from a
    second eigh on their span, so the filter cut reads resolved values.
    Only eigenvalues are computed; ``vector(i)`` of the result gives one
    eigenvector on demand.
    """
    sigma, U = np.linalg.eigh(pair.delta)
    if sigma[-1] <= 0:
        raise MetricNotPositiveDefinite("metric has no positive direction")
    low = int(np.sum(sigma < REFINE_BELOW * sigma[-1]))
    Ub = U[:, :low]
    sigma[:low], W = np.linalg.eigh(Ub.T @ pair.delta @ Ub)
    U[:, :low] = Ub @ W
    # sigma ascends: the refined values up to about REFINE_BELOW * sigma_max,
    # the rest from there, so the kept directions are its top slice
    first = int(np.searchsorted(sigma, filter_tol * sigma[-1], side="right"))
    if first == sigma.size:
        raise MetricNotPositiveDefinite("metric filtering removed every direction")
    X = U[:, first:] / np.sqrt(sigma[first:])
    H = X.T @ pair.lam @ X
    return EigenSolution(values=np.linalg.eigvalsh(H), kept=X.shape[1], whitening=X, block=H)


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
    context: AssemblyContext,
    *,
    tol: float = DEFAULT_K_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    filter_tol: float = DEFAULT_FILTER_TOL,
):
    """Run the self-consistency loop kappa <- sqrt(F) for one tracked mode.

    It stops at the first iteration whose estimate lies within tol of the
    kappa it was assembled at, so a seed within tol of the root costs one
    pencil solve (module docstring).  The context is all the loop reads:
    the trial family, the domain, the quadrature and the Steklov truncation
    are those it was built for, and the returned estimate keeps it.

    Returns (ModeEstimate, IterationTrace); raises NotConverged (with the
    trace attached) if max_iter is exhausted first.
    """
    if kappa0 <= 0:
        raise ValueError(f"kappa0 must be > 0, got {kappa0}")
    trace = IterationTrace()
    kappa = float(kappa0)
    target = kappa0**2
    for _ in range(max_iter):
        pair = assemble(method, kappa, context=context)
        solution = solve_generalized(pair, filter_tol)
        idx = select_mode(target, solution)
        target = solution.values[idx]
        k = float(np.sqrt(target))
        trace.kappas.append(kappa)
        trace.estimates.append(k)
        if trace.last_step() < tol:
            trace.converged = True
            break
        kappa = k
    if not trace.converged:
        raise NotConverged(trace)
    a = solution.vector(idx)
    gamma2 = gamma2_coefficients(method, a, kappa, context)
    return ModeEstimate(k_estimate=k, a=a, gamma2=gamma2, kappa=kappa, context=context), trace
