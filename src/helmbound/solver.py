"""The kappa fixed-point iteration, and the eigensolves it rests on.

Every solve reads one AssemblyContext alone and works in its compressed
coordinates (``assembly`` module docstring), where a method's pencil at
kappa is Lambda = B + K A1 K^T and Delta = G + K A2 K^T: B (the method's
-S + X), G and K (r x n_r) depend on neither kappa nor b, and only the
n_r x n_r cores A1, A2 = F^T diag(w(kappa)) F do.  The converged mode keeps
the tracked vector a and that context, which gamma2 and field sampling read.

Set-up (``spectrum``, once per context and method, cached on the context).
G = L L^T is factored once and shared by both methods, B W = G W Theta is
solved by ``eigh`` of L^-1 B L^-T, and U = W^T K.  The interface term in W
coordinates, U F^T diag(w) F U^T, is reduced by two small SVDs to
U' P^T diag(w) P U'^T with P (N x q) orthonormal; the cut (RANGE_CUT) drops
only exactly null directions, such as the even linear member's, which has no
normal derivative on the interface, and leaves q = 9 to 10 at 15x15 and 15
to 16 at 30x30.  About 2 ms per (context, method) at 15x15 and 18 to 23 ms
at 30x30, on one BLAS thread of a 2-core machine.

Count (per kappa).  With C = A1 - F A2 (q x q, A_i = P^T diag(w_i) P) and
D = Theta - F, the matrix E(F) = C^-1 + U'^T D^-1 U' is congruent to
-S, S = -C - C U'^T D^-1 U' C, and by Sylvester's law the number of pencil
eigenvalues below F is #(Theta < F) + #(E > 0) - #(C > 0) (the restricted
rank modification of Golub, SIAM Review 15, 1973, and of Bunch, Nielsen and
Sorensen, Numer. Math. 31, 1978).  One evaluation is two q x q
eigendecompositions and an r x q product, about 0.03 to 0.07 ms.

Root.  The pencil's eigenvalues are the F where E(F) is singular.  Since A2
(the rectangle's norm) and U'^T D^-2 U' are positive semidefinite, every
eigenvalue of E increases with F between the poles Theta and the zeros of
det C, and falls from +inf to -inf across each.  ``_nearest`` takes the
positive eigenvalue nearest the target (``select_mode``'s rule, ties to the
smaller): it runs Newton on the branch of E whose zero is nearest in the
direction the branches point, keeps it inside a bracket that the counts
maintain, bisects where it leaves the bracket or fails to halve its step
(it can cycle across a pole), confirms the root by the count COUNT_GAP
past it, and checks by one more count that no eigenvalue lies nearer on
the other side of the target.  S itself has spurious zeros where
C is singular and, from the grading of the cores, eigenvalues near 0 that
never cross it; E has neither.  Over 20 depths b = 1 + i/128 from the
closed-form seeds (15x15 and 30x30, default tol) a kappa took 6.7
evaluations on average: 8.3 in the first iteration, 5.5 (median 4) from the
fourth on.

Vector.  At convergence the null vector w of E gives y = -D^-1 U' w, and
two steps of inverse iteration on D + U' C U'^T, solved through E by
Woodbury's identity, refine it; x = W y is scaled so that x^T Delta x = 1
with its largest component positive.  The steps matter only at an
eigenvalue on a pole Theta_i whose direction does not couple to the
interface.  For the four labels at b = 1.5, 1.0078125 and 2.0 (15x15 and
30x30) the pencil residual of x is below 1e-16 ||Lambda||_2 ||x||.

``solve_generalized`` is the tests' dense reference: Delta = L L^T,
X = L^-T and one ``eigh`` of H = X^T Lambda X, whose vectors Z give the
pencil's as X Z (X^T Delta X = I).  The reduced Gram is diagonal, or an
arrowhead through the even linear member, with entries between
COMPRESS_FLOOR and 1 times its largest, and each method adds a positive
semidefinite interface term of rank n_r to it, so Delta is positive definite
and graded: Cholesky is accurate on such matrices (van der Sluis, Numer.
Math. 14, 1969).  Scaled by its diagonal, Delta's condition number is 9e2 to
1.4e6 for DtN but 2e8 to 5.5e11 for NtD (b = 1.5, 15x15 and 30x30), so
NtD's accuracy rests on the tests against DtN, the oracle and the
uncompressed family.  L^-1, here and of the set-up's Gram, is a recursive
2x2-block inverse: |L^-1 L - I| stays below 3e-10 where one
``np.linalg.inv`` of L leaves up to 1e-6 (30x30 NtD, kappa 1.9 to 4.4).
Ritz values far outside the physical window, such as the NtD pencil's large
negative ones, are subspace artifacts that the tracking rule never selects.

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
from typing import NamedTuple

import numpy as np

from .assembly import AssemblyContext, MatrixPair, Method, assemble
from .assembly import build_context  # noqa: F401  (helmbench/tracing.py wraps this name)
from .errors import MetricNotPositiveDefinite, NoPositiveEigenvalue, NotConverged
from .reconstruct import ModeEstimate, gamma2_coefficients

DEFAULT_K_TOL = 5e-5
DEFAULT_MAX_ITER = 20
# Interface directions whose singular value is at most this fraction of the
# largest are dropped at set-up.  At b = 1.5 the kept ones reach down to
# 2.35e-3 (15x15 and 30x30, both parities and methods); the dropped ones are
# exactly 0, the even linear member's under NtD (it has no normal derivative)
RANGE_CUT = 1e-10
# Newton has converged once its step is at most this fraction of F; its last
# step then leaves an error far below it
STEP_TOL = 1e-10
# A root is confirmed by the count this fraction of F past it
COUNT_GAP = 1e-9
# Evaluations one eigenvalue search may take before it settles for its bracket
MAX_EVALUATIONS = 100


@dataclass
class IterationTrace:
    """kappa inputs and k estimates per iteration of the fixed point."""

    kappas: list[float] = field(default_factory=list)
    estimates: list[float] = field(default_factory=list)

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


def _cholesky_inverse(metric: np.ndarray, name: str) -> np.ndarray:
    """L^-1 of metric = L L^T; raises MetricNotPositiveDefinite where there is no L."""
    try:
        L = np.linalg.cholesky(metric)
    except np.linalg.LinAlgError as exc:
        raise MetricNotPositiveDefinite(f"{name} has no Cholesky factor: {exc}") from exc
    return _lower_inverse(L)


def solve_generalized(pair: MatrixPair) -> tuple[np.ndarray, np.ndarray]:
    """Solve Lambda x = F Delta x by the Cholesky reduction of the pencil.

    The dense reference: it reads the r x r ``lam`` and ``delta`` of the
    pair (of any object that has them) and returns the ascending eigenvalues
    and their eigenvectors as columns, x^T Delta x = 1.  Raises
    MetricNotPositiveDefinite when Delta has no Cholesky factor (a singular
    metric has none).
    """
    X = _cholesky_inverse(pair.delta, "metric").T
    H = X.T @ pair.lam @ X
    values, Z = np.linalg.eigh(0.5 * (H + H.T))
    return values, X @ Z


def select_mode(previous_k_squared: float, values: np.ndarray) -> int:
    """Index of the positive eigenvalue nearest previous_k_squared.

    Ties break toward the smaller index; raises NoPositiveEigenvalue when
    the whole spectrum is non-positive.
    """
    positive = values > 0
    if not np.any(positive):
        raise NoPositiveEigenvalue("no positive eigenvalue to track")
    dist = np.where(positive, np.abs(values - previous_k_squared), np.inf)
    return int(np.argmin(dist))


@dataclass(frozen=True)
class Spectrum:
    """One method's kappa-independent set-up (module docstring).

    ``theta`` (r,) ascending and ``vectors`` W solve B W = G W diag(theta)
    with W^T G W = I; ``coupling`` U' (r x q) and ``factor`` P (N x q,
    orthonormal columns) carry the interface term, W^T K F^T diag(w) F K^T W
    = U' P^T diag(w) P U'^T.
    """

    theta: np.ndarray
    vectors: np.ndarray = field(repr=False)
    coupling: np.ndarray = field(repr=False)
    factor: np.ndarray = field(repr=False)

    def cores(self, weights) -> list[np.ndarray]:
        """(A1, A2) = P^T diag(w) P for the weights of a ``MatrixPair``."""
        return [self.factor.T @ (w[:, None] * self.factor) for w in weights]


def spectrum(method: Method, context: AssemblyContext) -> Spectrum:
    """The method's set-up on this context, built on first use and cached on it.

    Raises MetricNotPositiveDefinite when the context's Gram has no Cholesky
    factor.
    """
    cache = context.spectra
    if method not in cache:
        if "gram" not in cache:  # L^-1, shared by both methods
            cache["gram"] = _cholesky_inverse(context.gram, "Gram")
        X = cache["gram"]
        base, F, c = context.method_tables(method)
        H = X @ base @ X.T
        theta, V = np.linalg.eigh(0.5 * (H + H.T))
        W = X.T @ V
        # K restricted to the radial factors the pairs use, then U = W^T K = Pu su Qt
        used, column = np.unique(context.pairs[0], return_inverse=True)
        K = np.zeros((context.trial_dim, used.size))
        K[np.arange(context.trial_dim), column] = c
        Pu, su, Qt = np.linalg.svd(W.T @ K, full_matrices=False)
        # F K^T W = P s (Pu R^T)^T: the interface term's range on both sides
        P, s, Rt = np.linalg.svd(F[:, used] @ (Qt.T * su), full_matrices=False)
        q = int(np.count_nonzero(s > RANGE_CUT * s[0]))
        cache[method] = Spectrum(theta=theta, vectors=W, coupling=(Pu @ Rt[:q].T) * s[:q],
                                 factor=P[:, :q])
    return cache[method]


class _Point(NamedTuple):
    """E at one F: the count of eigenvalues below F, and the Newton steps to
    the nearest zero above (``up``, inf if none) and below (``down``, -inf)."""

    F: float
    count: int
    up: float
    down: float


class _Secular:
    """E(F) = C^-1 + U'^T (Theta - F)^-1 U' of one method at one kappa (module docstring)."""

    def __init__(self, spec: Spectrum, cores):
        self.spec = spec
        self.A1, self.A2 = cores

    def _at(self, F: float, vectors: bool):
        """(F, count, e, Z, C^-1, D^-1 U') at F, moved up by ulps off any pole."""
        theta, U = self.spec.theta, self.spec.coupling
        while True:
            c, Q = np.linalg.eigh(self.A1 - F * self.A2)
            D = theta - F
            if np.all(c != 0) and np.all(D != 0):
                break
            F = float(np.nextafter(F, np.inf))
        Cinv = (Q / c) @ Q.T
        Y = U / D[:, None]
        E = Cinv + U.T @ Y
        e, Z = np.linalg.eigh(E) if vectors else (np.linalg.eigvalsh(E), None)
        count = int(np.searchsorted(theta, F)) + int(np.count_nonzero(e > 0)) - int(np.count_nonzero(c > 0))
        return F, count, e, Z, Cinv, Y

    def count(self, F: float) -> int:
        """Number of the pencil's eigenvalues below F."""
        return self._at(F, False)[1]

    def point(self, F: float) -> _Point:
        F, count, e, Z, Cinv, Y = self._at(F, True)
        G, YZ = Cinv @ Z, Y @ Z
        slope = np.sum(G * (self.A2 @ G), axis=0) + np.sum(YZ * YZ, axis=0)
        rising = slope > 0
        step = np.divide(-e, slope, out=np.zeros_like(e), where=rising)
        up = float(np.min(step[rising & (e < 0)], initial=np.inf))
        down = float(np.max(step[rising & (e > 0)], initial=-np.inf))
        return _Point(F, count, up, down)

    def mode(self, F: float) -> np.ndarray:
        """Eigenvector x at the eigenvalue F, x^T Delta x = 1, largest component positive.

        It starts from E's null vector, mapped as y = -D^-1 U' w, plus a
        constant vector unless that cancels it (y along -1, always so at
        r = 1 when y < 0), and takes two steps of inverse iteration on
        D + U' C U'^T, solved by Woodbury's identity through E.  The steps
        matter where the eigenvalue lies within roundoff of a pole Theta_i
        whose direction barely couples to the interface: E is far from
        singular there, and y lacks that direction.
        """
        F, _, e, Z, _, Y = self._at(F, True)
        U, D = self.spec.coupling, self.spec.theta - F
        y = -(Y @ Z[:, np.argmin(np.abs(e))])
        start = y / max(np.linalg.norm(y), np.finfo(float).tiny) + 1 / np.sqrt(y.size)
        y = start if np.any(start) else y
        floor = np.finfo(float).eps * max(np.max(np.abs(e)), 1.0)  # E may be exactly singular at F
        e = np.where(np.abs(e) < floor, np.copysign(floor, e), e)
        for _ in range(2):
            b = y + U @ (self.A2 @ (U.T @ y))  # Delta y, in W coordinates
            y = b / D - Y @ (Z @ ((Z.T @ (Y.T @ b)) / e))
            y /= np.linalg.norm(y)
        s = U.T @ y
        x = self.spec.vectors @ y / np.sqrt(y @ y + s @ self.A2 @ s)
        return x if x[np.argmax(np.abs(x))] >= 0 else -x


def _eigenvalue(secular: _Secular, j: int, lo: float, hi: float, point: _Point):
    """The eigenvalue lambda_j (0-based, ascending) in [lo, hi], hi possibly inf.

    ``point`` lies in [lo, hi], and count(hi) > j.  Returns None if lambda_j < lo.
    """
    start, lo_known, last = point.F, False, np.inf
    for _ in range(MAX_EVALUATIONS):
        below = point.count <= j
        if below:
            lo, lo_known = max(lo, point.F), True
        else:
            hi = min(hi, point.F)
        step = point.up if below else point.down
        F = point.F + step
        if np.isfinite(F) and abs(step) <= STEP_TOL * abs(F):
            past = F + COUNT_GAP * abs(F) if below else F - COUNT_GAP * abs(F)
            if (secular.count(past) > j) == below:
                return F
            lo, hi = (past, hi) if below else (lo, past)
        # bisect where Newton leaves the bracket, or does not halve its step
        # (it can cycle across a pole of E)
        if not lo < F < hi or abs(step) > 0.5 * last:
            if not lo_known:
                if secular.count(lo) > j:
                    return None
                lo_known = True
            F = 0.5 * (lo + hi) if np.isfinite(hi) else lo + max(lo - start, 1e-2 * abs(start))
        if np.isfinite(hi) and hi - lo <= STEP_TOL * abs(hi):
            return 0.5 * (lo + hi)
        last = abs(F - point.F)
        point = secular.point(F)
    if not np.isfinite(hi):
        raise NoPositiveEigenvalue(f"no eigenvalue found above {lo}")
    return 0.5 * (lo + hi)


def _nearest(secular: _Secular, target: float) -> float:
    """The positive eigenvalue nearest target, ties to the smaller (``select_mode``'s rule)."""
    point = secular.point(target)
    n, r = point.count, secular.spec.theta.size
    up_ok, down_ok = n < r and point.up < np.inf, n > 0 and point.down > -np.inf
    up = up_ok and not (down_ok and -point.down <= point.up) if up_ok or down_ok else n < r
    if up:
        F = _eigenvalue(secular, n, target, np.inf, point)
        d = F - target
        if n == 0 or secular.count(target - d) == n:
            return F
        lower = _eigenvalue(secular, n - 1, max(target - d, 0.0), target, point)
        return F if lower is None else lower
    F = _eigenvalue(secular, n - 1, 0.0, target, point)
    if F is None:
        if n == r:
            raise NoPositiveEigenvalue("no positive eigenvalue to track")
        return _eigenvalue(secular, n, target, np.inf, point)
    d = target - F
    if n == r or secular.count(target + d) == n:
        return F
    return _eigenvalue(secular, n, target, target + d, point)


def iterate_mode(
    method: Method,
    kappa0: float,
    context: AssemblyContext,
    *,
    tol: float = DEFAULT_K_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Run the self-consistency loop kappa <- sqrt(F) for one tracked mode.

    Each iteration assembles the pair at kappa and finds the positive
    eigenvalue nearest the previous one from the method's cached set-up
    (module docstring).  It stops at the first iteration whose estimate lies
    within tol of the kappa it was assembled at, so a seed within tol of the
    root costs one pencil solve.  The context is all the loop reads: the
    trial family, the domain, the quadrature and the Steklov truncation are
    those it was built for, and the returned estimate keeps it.

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
        spec = spectrum(method, context)
        secular = _Secular(spec, spec.cores(pair.weights))
        target = _nearest(secular, target)
        k = float(np.sqrt(target))
        trace.kappas.append(kappa)
        trace.estimates.append(k)
        if trace.last_step() < tol:
            a = secular.mode(target)
            gamma2 = gamma2_coefficients(method, a, kappa, context)
            return ModeEstimate(k_estimate=k, a=a, gamma2=gamma2, kappa=kappa, context=context), trace
        kappa = k
    raise NotConverged(trace)
