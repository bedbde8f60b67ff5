"""Steklov spectrum of the rectangle, whose symbols define the interface operators.

For the rectangle -a < x < a, -b < y < 0 with zero walls on x = +-a, y = -b
and the spectral boundary condition on y = 0, the eigenpairs at a fixed real
parameter kappa are closed-form.  With lam_n = n^2 pi^2 / (4 a^2):

    oscillatory (kappa^2 >= lam_n), mu = sqrt(kappa^2 - lam_n):
        b_n = -mu cot(mu b)
        psi_n = A_n sin(n pi (x+a) / 2a) sin(mu (y+b)),  A_n = 1/(sqrt(a) sin(mu b))
    evanescent (kappa^2 < lam_n), s = sqrt(lam_n - kappa^2):
        b_n = -s coth(s b)
        psi_n = A_n sin(n pi (x+a) / 2a) sinh(s (y+b)),  A_n = 1/(sqrt(a) sinh(s b))

The interface traces psi_n(x, 0) = sin(n pi (x+a)/2a)/sqrt(a) are orthonormal
on (-a, a) and independent of kappa.  Green's theorem applied to the
kappa-differentiated Helmholtz pair gives the volume norm of such a
unit-trace mode exactly: <psi_n|psi_n> = b_n'(kappa) / (2 kappa).  The
Dirichlet-to-Neumann map scales the n-th trace coefficient by b_n(kappa);
the Neumann-to-Dirichlet map by 1/b_n.

Both b_n branches meet the regime switch kappa^2 = lam_n continuously with
value -1/b.  With t = (kappa^2 - lam_n) b^2, a single series covers both
sides; it is used for |t| < 1e-6 because the closed-form derivative loses
~10 digits to cancellation there (two ~1/u terms differing by O(u)).
"""

from __future__ import annotations

import numpy as np

from .errors import NearDirichletResonance, NearNeumannResonance
from .geometry import CompositeDomain

# |sin(mu b)| below this is treated as a Dirichlet resonance (pole of b_n).
DIRICHLET_POLE_GUARD = 1e-8
# |b_n| below this is treated as a Neumann resonance (pole of 1/b_n).
NEUMANN_POLE_GUARD = 1e-12
# Regime-switch series band in t = (kappa^2 - lam_n) b^2.
SWITCH_BAND = 1e-6


def steklov_lambda(n, domain: CompositeDomain):
    """Transverse threshold lam_n = n^2 pi^2 / (4 a^2)."""
    n = np.asarray(n, dtype=float)
    return n * n * np.pi**2 / (4.0 * domain.a**2)


def _sinh_ratio_term(u):
    """u / sinh(u)^2, stable for large u (no overflow)."""
    # u/sinh(u)^2 = 4 u exp(-2u) / (1 - exp(-2u))^2
    return 4.0 * u * np.exp(-2.0 * u) / np.expm1(-2.0 * u) ** 2


def _regimes(kappa: float, n: np.ndarray, domain: CompositeDomain):
    """The regime split of mode indices n at kappa.

    Returns (t, band, osc, ev, q): t = (kappa^2 - lam_n) b^2; the masks of
    the series band |t| < SWITCH_BAND and of the oscillatory and evanescent
    sides outside it; q = sqrt(|kappa^2 - lam_n|), which is mu on the
    oscillatory side and s on the evanescent one.  Raises
    NearDirichletResonance if a requested oscillatory mode sits on a pole
    of b_n (sin(mu b) = 0).
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if np.any(n < 1):
        raise ValueError(f"mode indices must be >= 1, got {n.min()}")
    b = domain.b
    lam = steklov_lambda(n, domain)
    t = (kappa**2 - lam) * b * b
    band = np.abs(t) < SWITCH_BAND
    osc = ~band & (t >= 0)
    ev = ~band & (t < 0)
    q = np.sqrt(np.abs(kappa**2 - lam))
    pole = osc & (np.abs(np.sin(q * b)) < DIRICHLET_POLE_GUARD)
    if np.any(pole):
        raise NearDirichletResonance(int(n[pole][0]), kappa)
    return t, band, osc, ev, q


def _symbols(kappa: float, n: np.ndarray, domain: CompositeDomain):
    """(b_n, db_n/dkappa) for an array of mode indices n."""
    t, band, osc, ev, q = _regimes(kappa, n, domain)
    b = domain.b
    bn = np.empty(t.shape)
    dbn = np.empty(t.shape)

    ts = t[band]
    bn[band] = (-1.0 + ts / 3.0 + ts**2 / 45.0 + 2.0 * ts**3 / 945.0) / b
    dbn[band] = 2.0 * kappa * b * (1.0 / 3.0 + 2.0 * ts / 45.0 + 2.0 * ts**2 / 315.0)

    mu = q[osc]
    u = mu * b
    sin_u = np.sin(u)
    cot_u = np.cos(u) / sin_u
    bn[osc] = -mu * cot_u
    dbn[osc] = (kappa / mu) * (-cot_u + u / sin_u**2)

    s = q[ev]
    u = s * b
    coth_u = 1.0 / np.tanh(u)
    bn[ev] = -s * coth_u
    dbn[ev] = (-kappa / s) * (-coth_u + _sinh_ratio_term(u))
    return bn, dbn


def steklov_table(kappa: float, n_modes: int, domain: CompositeDomain):
    """Vectorized (b_n, db_n/dkappa) for n = 1..n_modes; db_n/dkappa >= 0.

    Raises NearDirichletResonance if any retained oscillatory mode sits on a
    pole of b_n.
    """
    return _symbols(kappa, np.arange(1, n_modes + 1), domain)


def steklov_trace(n, domain: CompositeDomain, x):
    """Interface trace psi_n(x, 0) = sin(n pi (x+a)/2a) / sqrt(a).

    Independent of kappa for this geometry; orthonormal on (-a, a).
    ``n`` may be an int or an array of mode indices (broadcast against x).
    """
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    a = domain.a
    return np.sin(n * np.pi * (x + a) / (2.0 * a)) / np.sqrt(a)


def steklov_profile(kappa: float, n, domain: CompositeDomain, y):
    """y-profiles g_n(y) with g_n(0) = 1 and g_n(-b) = 0, shape n.shape + y.shape.

    The mode inside the rectangle is psi_n(kappa, x, y) = steklov_trace(n, x)
    * g_n(y); the evanescent profile uses exp/expm1 so large s b cannot
    overflow.  Raises NearDirichletResonance as ``steklov_table`` does.
    """
    n = np.asarray(n)
    y = np.asarray(y, dtype=float)
    t, band, osc, ev, q = _regimes(kappa, n.ravel(), domain)
    b = domain.b
    yb = y + b
    col = (slice(None),) + (None,) * y.ndim  # per-mode values against y
    out = np.empty(t.shape + y.shape)
    out[band] = (yb / b) * (1.0 - t[band][col] * (yb * yb - b * b) / (6.0 * b * b))
    mu = q[osc][col]
    out[osc] = np.sin(mu * yb) / np.sin(mu * b)
    s = q[ev][col]
    out[ev] = np.exp(s * y) * np.expm1(-2.0 * s * yb) / np.expm1(-2.0 * s * b)
    return out.reshape(n.shape + y.shape)


def _guard_neumann(bn: np.ndarray, kappa: float):
    small = np.abs(bn) < NEUMANN_POLE_GUARD
    if np.any(small):
        raise NearNeumannResonance(int(np.nonzero(small)[0][0] + 1), kappa)
