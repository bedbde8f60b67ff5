"""Exception types raised by the solver stack.

Every error signals a detectable, recoverable condition (bad input, a
resonant operator parameter, failed convergence); numerical routines never
propagate inf/NaN silently.
"""


class HelmboundError(Exception):
    """Base class for all package errors."""


class NonPositiveGeometry(HelmboundError):
    """Domain dimensions must be strictly positive."""


class InvalidInterval(HelmboundError):
    """Quadrature interval has lo >= hi."""


class OutsideSubdomain(HelmboundError):
    """Point lies outside the subdomain a function is defined on."""


class NearDirichletResonance(HelmboundError):
    """kappa sits at an internal Dirichlet resonance of the rectangle.

    sin(mu_n * b) vanishes for some retained mode n, so b_n(kappa) and the
    mode normalization A_n have a pole there.
    """

    def __init__(self, n: int, kappa: float):
        self.n = n
        self.kappa = kappa
        super().__init__(
            f"Dirichlet resonance: |sin(mu_n b)| below guard for mode n={n} at kappa={kappa}"
        )


class NearNeumannResonance(HelmboundError):
    """Some retained b_n(kappa) is (near) zero, so 1/b_n is unusable."""

    def __init__(self, n: int, kappa: float):
        self.n = n
        self.kappa = kappa
        super().__init__(
            f"Neumann resonance: |b_n| below guard for mode n={n} at kappa={kappa}"
        )


class MetricNotPositiveDefinite(HelmboundError):
    """The metric matrix of the generalized eigenproblem is not positive definite."""


class NoPositiveEigenvalue(HelmboundError):
    """No positive eigenvalue available for the fixed-point update."""


class NotConverged(HelmboundError):
    """Fixed-point iteration hit max_iter before meeting the tolerance."""

    def __init__(self, trace):
        self.trace = trace
        super().__init__(
            f"iteration did not converge in {trace.iterations} steps "
            f"(last |dk| = {trace.last_step():.3e})"
        )


class GridTooCoarse(HelmboundError):
    """A finite-difference or field grid does not resolve the domain."""


class IterationStalled(HelmboundError):
    """Sparse eigensolver failed to converge."""


class IoFailure(HelmboundError):
    """Export to disk failed."""
