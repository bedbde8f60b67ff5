"""Trial family on the semicircle: evaluation, Laplacian, interface traces.

In polar coordinates (r, phi) with phi measured from the y-axis (positive
for x < 0), the family splits by parity in x:

    even:  phi_1 = r - a
           phi_mu = r sin(n alpha (r-a)) cos(m beta phi),   mu = 2, 3, ...
    odd:   phi_mu = r sin(n alpha (r-a)) sin(m beta phi),   mu = 1, 2, ...

All members vanish on the arc r = a.  The linear function is included in the
even family because every product member vanishes at r = 0 while even
eigenfunctions generally do not.

Index bijection (fixed for reproducibility): row-major in n then m, with the
linear function first for the even family:

    even:  mu = 1 -> linear;  mu = 1 + (n-1) m_max + m  ->  (n, m)
    odd:   mu = (n-1) m_max + m  ->  (n, m)

On the interface y = 0 one has r = |x| and phi = +-pi/2 (positive sign for
x < 0), so with the interface normal n = (0, -1):

    d(r)/dy = 0  and  d(phi)/dy = 1/x   on y = 0,

hence the normal-derivative trace is -(1/x) d(phi_mu)/d(phi), which reduces
to closed forms with the 1/x absorbed analytically (finite at x -> 0):

    even:  -m beta sin(m beta pi/2) sin(n alpha (|x|-a))
    odd:   -m beta cos(m beta pi/2) sign(x) sin(n alpha (|x|-a))

The odd form has a sign(x) jump (zero is returned at x = 0, the symmetric
limit); products of two such traces are even and kink-free off the origin,
which the split-panel interface rule integrates spectrally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import CompositeDomain, QuadratureRule1D, QuadratureRule2D


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class BasisSpec:
    """Trial-family parameters; size is n_max*m_max (+1 for even)."""

    parity: Parity
    alpha: float = 1.0
    beta: float = 1.0
    n_max: int = 15
    m_max: int = 15

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be > 0")
        if self.n_max < 1 or self.m_max < 1:
            raise ValueError("n_max and m_max must be >= 1")

    @property
    def size(self) -> int:
        base = self.n_max * self.m_max
        return base + 1 if self.parity is Parity.EVEN else base


def _frequencies(count: int, step: float):
    """step * (1, 2, ..., count): the n alpha or m beta of the family."""
    return np.arange(1, count + 1) * step


def _radial_phase(spec: BasisSpec, domain: CompositeDomain, r):
    """n alpha (r - a) for n = 1..n_max, shape (n_max, P)."""
    return np.multiply.outer(_frequencies(spec.n_max, spec.alpha), np.asarray(r, dtype=float) - domain.a)


def family_factors(spec: BasisSpec, domain: CompositeDomain, r, phi):
    """Separable factors of the product members at points (r, phi).

    Returns (R, A) with R[n-1] = r sin(n alpha (r - a)), shape (n_max, P),
    and A[m-1] = cos(m beta phi) (even) or sin(m beta phi) (odd), shape
    (m_max, P); member (n, m) is R[n-1] * A[m-1].  The even linear member
    r - a is not included.
    """
    r = np.asarray(r, dtype=float)
    ang = np.cos if spec.parity is Parity.EVEN else np.sin
    R = r * np.sin(_radial_phase(spec, domain, r))
    A = ang(np.multiply.outer(_frequencies(spec.m_max, spec.beta), np.asarray(phi, dtype=float)))
    return R, A


def volume_tables(spec: BasisSpec, domain: CompositeDomain, r, phi):
    """Values and polar Laplacians of the whole family at points (r, phi).

    Returns (V, L), each of shape (M, P) for P points, with rows in the
    index order of the family.  The Laplacian is d_rr + (1/r) d_r +
    (1/r^2) d_phiphi.  For the radial part g(r) = r sin(w(r-a)) with
    w = n alpha:

        g'' + g'/r = 3 w cos(w(r-a)) - w^2 r sin(w(r-a)) + sin(w(r-a))/r,

    and the angular factor contributes -(m beta)^2 sin(w(r-a))/r.  The even
    linear function gives exactly 1/r, so L is singular at r = 0.  The
    (n, m) rows are the broadcast product of per-n radial rows and per-m
    angular columns (the factors of ``family_factors``), without a loop
    over members.
    """
    r = np.asarray(r, dtype=float)
    M = spec.size
    V = np.empty((M, r.size))
    L = np.empty((M, r.size))
    row = 0
    if spec.parity is Parity.EVEN:
        V[0] = r - domain.a
        L[0] = 1.0 / r
        row = 1
    nm = (spec.n_max, spec.m_max)
    w = _frequencies(spec.n_max, spec.alpha)[:, None]
    mb = _frequencies(spec.m_max, spec.beta)
    R, ang = family_factors(spec, domain, r, phi)
    np.multiply(R[:, None, :], ang, out=V[row:].reshape(nm + (r.size,)))
    phase = _radial_phase(spec, domain, r)
    sr = np.sin(phase)
    cr = np.cos(phase)
    # L[(n, m)] = (3 w cos - w^2 r sin + (1 - (m beta)^2) sin / r) ang_m
    radial_lap = 3.0 * w * cr - w * w * r * sr
    Lnm = L[row:].reshape(nm + (r.size,))
    np.multiply((1.0 - mb * mb)[None, :, None], (sr / r)[:, None, :], out=Lnm)
    Lnm += radial_lap[:, None, :]
    Lnm *= ang
    return V, L


def interface_tables(spec: BasisSpec, domain: CompositeDomain, x):
    """Traces and normal-derivative traces of the whole family at interface points x.

    Returns (T, D), each of shape (M, P), from the closed forms of the
    module docstring: on y = 0, r = |x| and phi = +-pi/2.  The odd
    normal-derivative rows take the value 0 at x = 0 through sign(0) = 0.
    """
    xs = np.asarray(x, dtype=float)
    absx = np.abs(xs)
    M = spec.size
    T = np.empty((M, xs.size))
    D = np.empty((M, xs.size))
    even = spec.parity is Parity.EVEN
    row = 0
    if even:
        T[0] = absx - domain.a
        D[0] = 0.0
        row = 1
    nm = (spec.n_max, spec.m_max)
    mb = _frequencies(spec.m_max, spec.beta)
    tr_rad = np.sin(_radial_phase(spec, domain, absx))[:, None, :]
    half = mb * np.pi / 2.0
    Tnm = T[row:].reshape(nm + (xs.size,))
    Dnm = D[row:].reshape(nm + (xs.size,))
    if even:
        Tnm[...] = (absx * tr_rad) * np.cos(half)[:, None]
        Dnm[...] = (-mb * np.sin(half))[:, None] * tr_rad
    else:
        Tnm[...] = (-xs * tr_rad) * np.sin(half)[:, None]
        Dnm[...] = ((-mb * np.cos(half))[:, None] * np.sign(xs)) * tr_rad
    return T, D


def basis_tables(
    spec: BasisSpec,
    domain: CompositeDomain,
    volume_rule: QuadratureRule2D,
    surface_rule: QuadratureRule1D,
):
    """Evaluate the whole family on quadrature nodes.

    Returns (V, L, T, D): values and Laplacians at the volume nodes
    (``volume_tables``), traces and normal-derivative traces at the surface
    nodes (``interface_tables``), each of shape (M, #nodes).  This is the
    hot path for assembly.
    """
    V, L = volume_tables(spec, domain, volume_rule.r, volume_rule.phi)
    T, D = interface_tables(spec, domain, surface_rule.nodes)
    return V, L, T, D
