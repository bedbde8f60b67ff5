"""Composite domain, coordinate conventions and quadrature rules.

The domain is a semicircle of radius ``a`` sitting on top of a rectangle of
width ``2a`` and depth ``b``::

    upper subdomain   x^2 + y^2 < a^2, y > 0        (semicircle)
    lower subdomain   -a < x < a, -b < y < 0        (rectangle)
    interface         y = 0, |x| < a

The interface normal points from the semicircle into the rectangle,
n = (0, -1), so the interface normal derivative of a field f is -df/dy.

Polar coordinates in the semicircle measure the angle phi from the y-axis,
positive for x < 0:  x = -r sin(phi),  y = r cos(phi),  phi in [-pi/2, pi/2].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidInterval, NonPositiveGeometry, OutsideSubdomain

# Absolute tolerance for interface / closure membership at unit scale.
INTERFACE_TOL = 1e-12


@dataclass(frozen=True)
class CompositeDomain:
    """Semicircle of radius ``a`` joined to a rectangle of depth ``b``."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise NonPositiveGeometry(f"need a > 0 and b > 0, got a={self.a}, b={self.b}")


def make_domain(a: float, b: float) -> CompositeDomain:
    """Validate and build the composite domain."""
    return CompositeDomain(float(a), float(b))


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes/weights on an interval (the semicircle's radial weights also carry r)."""

    nodes: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=16)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(order)`` on (-1, 1), computed once per order and returned read-only."""
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(order: int, lo: float, hi: float) -> QuadratureRule1D:
    """Gauss-Legendre rule with ``order`` nodes on (lo, hi).

    Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not lo < hi:
        raise InvalidInterval(f"need lo < hi, got ({lo}, {hi})")
    x, w = _leggauss(order)
    half = 0.5 * (hi - lo)
    return QuadratureRule1D(
        nodes=half * x + 0.5 * (hi + lo),
        weights=half * w,
    )


def interface_rule(domain: CompositeDomain, n_s: int) -> QuadratureRule1D:
    """Composite Gauss-Legendre rule on the interface x in (-a, a).

    Two Gauss-Legendre panels of ``n_s`` nodes each, split at x = 0 (2*n_s
    nodes total).  Interface traces of the semicircle trial functions carry
    |x| factors with a kink at the origin; splitting there keeps the rule
    spectrally accurate for them, while plain polynomial integrands are
    integrated exactly panel by panel.
    """
    if n_s < 1:
        raise ValueError(f"n_s must be >= 1, got {n_s}")
    a = domain.a
    left = gauss_legendre(n_s, -a, 0.0)
    right = gauss_legendre(n_s, 0.0, a)
    return QuadratureRule1D(
        nodes=np.concatenate([left.nodes, right.nodes]),
        weights=np.concatenate([left.weights, right.weights]),
    )


def semicircle_rule(
    domain: CompositeDomain, n_r: int, n_phi: int
) -> tuple[QuadratureRule1D, QuadratureRule1D]:
    """Tensor Gauss-Legendre rule over the semicircle in polar coordinates, as its two factors.

    Returns (radial, angular): r in (0, a) with n_r nodes, whose weights
    include the polar factor r, and phi in (-pi/2, pi/2) with n_phi nodes.
    The rule integrates f(r, phi) as
    sum_ij radial.weights[i] angular.weights[j] f(radial.nodes[i], angular.nodes[j]).
    """
    rad = gauss_legendre(n_r, 0.0, domain.a)
    radial = QuadratureRule1D(nodes=rad.nodes, weights=rad.weights * rad.nodes)
    return radial, gauss_legendre(n_phi, -0.5 * np.pi, 0.5 * np.pi)


def cartesian_to_polar(domain, x, y):
    """Map a point in the closed semicircle to (r, phi).

    phi is the angle from the y-axis, positive for x < 0:
    x = -r sin(phi), y = r cos(phi).  Accepts scalars or arrays that
    broadcast together and returns arrays of their broadcast shape.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    if np.any(r > domain.a * (1.0 + 1e-12) + INTERFACE_TOL) or np.any(y < -INTERFACE_TOL):
        raise OutsideSubdomain("point not in the closure of the semicircle")
    return r, np.arctan2(-x, y)
