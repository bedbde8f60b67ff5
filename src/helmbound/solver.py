"""Generalized eigensolve and the kappa fixed-point iteration.

The solve reads one AssemblyContext alone and runs on the pencil in its
compressed coordinates (``assembly`` module docstring), so each iteration
works on r x r matrices.  The converged mode keeps the tracked vector a and
that context: gamma2 reads a, sampling gamma1 = Y a.

The compression (``assembly.COMPRESS_FLOOR``) is the only cut of the trial
space, and the solve is the Cholesky reduction of the pencil it leaves:
Delta = L L^T, X = L^-T, and the eigenvalues of H = X^T Lambda X.  The
reduced Gram is diagonal, or an arrowhead through the even linear member,
with entries between COMPRESS_FLOOR and 1 times its largest, and each
method adds a positive semidefinite interface term of rank n_r to it, so
Delta is positive definite and graded: Cholesky is accurate on such
matrices (van der Sluis, Numer. Math. 14, 1969).  Scaled by its diagonal,
Delta's condition number is 9e2 to 1.4e6 for DtN but 2e8 to 5.5e11 for NtD
(b = 1.5, 15x15 and 30x30), so NtD's accuracy rests on the tests against
DtN, the oracle and the uncompressed family.  L^-1 is a recursive 2x2-block
inverse, with residual |L^-1 L - I| below 3e-10 where one ``np.linalg.inv``
of L leaves up to 1e-6 (30x30 NtD, kappa 1.9 to 4.4).

Returned eigenvalues come from ``eigvalsh`` of H; no eigenvector is
computed with them, since each iteration of the fixed point reads only the
tracked value.  ``EigenSolution.vector(i)`` computes the one eigenvector
the converged iteration needs, by inverse iteration on H, and maps it
through X.  The physically tracked low modes carry pencil residuals at the
1e-10 level, while Ritz values far outside the physical window (e.g. the
large negative ones of the NtD pencil) are meaningful only as subspace
artifacts and are never selected by the tracking rule.

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

DEFAULT_K_TOL = 5e-5
DEFAULT_MAX_ITER = 20
# EigenSolution.vector takes two inverse-iteration steps from all-ones, with
# the shift this fraction of ||H|| above the eigenvalue: a few ulps of the
# largest, so H - s I is never exactly singular
INVERSE_SHIFT = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class EigenSolution:
    """Ascending eigenvalues of the pencil, and what their vectors need.

    ``whitening`` is X = L^-T (X^T Delta X = I) and ``block`` is
    H = X^T Lambda X, whose eigenvalues are ``values``.  ``vector(i)``
    returns the metric-normalised eigenvector of ``values[i]``.
    """

    values: np.ndarray
    whitening: np.ndarray = field(repr=False)
    block: np.ndarray = field(repr=False)

    @property
    def kept(self) -> int:
        """The pencil's size r (helmbench/tracing.py reads it)."""
        return self.values.size

    def vector(self, i: int) -> np.ndarray:
        """Eigenvector x of ``values[i]`` with x^T Delta x = 1, by inverse
        iteration on H (INVERSE_SHIFT).  Its largest-magnitude component is
        made positive, so repeated solves are bit-reproducible."""
        shift = self.values[i] + INVERSE_SHIFT * np.max(np.abs(self.values))
        M = self.block - shift * np.eye(self.values.size)
        z = np.ones(self.values.size)
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


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of lower-triangular L, [[A, 0], [C, D]]^-1 = [[A^-1, 0],
    [-D^-1 C A^-1, D^-1]], down to blocks of at most 32 rows."""
    n = L.shape[0]
    if n <= 32:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    A, D = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    return np.block([[A, np.zeros((h, n - h))], [-D @ L[h:, :h] @ A, D]])


def solve_generalized(pair: MatrixPair) -> EigenSolution:
    """Solve Lambda x = F Delta x by the Cholesky reduction of the pencil.

    Only eigenvalues are computed; ``vector(i)`` of the result gives one
    eigenvector on demand.  Raises MetricNotPositiveDefinite when Delta has
    no Cholesky factor (a singular metric has none).
    """
    try:
        L = np.linalg.cholesky(pair.delta)
    except np.linalg.LinAlgError as exc:
        raise MetricNotPositiveDefinite(f"metric has no Cholesky factor: {exc}") from exc
    X = _lower_inverse(L).T
    H = X.T @ pair.lam @ X
    H = 0.5 * (H + H.T)  # eigvalsh reads one triangle, vector() all of H
    return EigenSolution(values=np.linalg.eigvalsh(H), whitening=X, block=H)


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
        solution = solve_generalized(pair)
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
