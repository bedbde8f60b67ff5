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

The family is evaluated as radial and angular factor tables
(``family_factors``), the even ones led by the linear member's r - a and 1.
With lead = 1 (even) or 0 (odd), member (n, m) is the product at flat index
(n - 1 + lead) (m_max + lead) + m - 1 + lead of the factor grid, the linear
member at 0.  Each table's rows come from one rotation recurrence
(``_multiples``), at two transcendental calls per point.

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

from .geometry import CompositeDomain, QuadratureRule1D


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


def _multiples(theta, n):
    """(cos k theta, sin k theta), k = 1..n, each (n,) + theta.shape, as the powers of
    z = cos theta + i sin theta.  The error grows like k eps, as the rounding of
    k theta in a direct call does, and the parity is exact: at -theta the
    cosines are bitwise equal and the sines bitwise negated."""
    theta = np.asarray(theta, dtype=float)
    z = np.empty(theta.shape, dtype=complex)
    z.real, z.imag = np.cos(theta), np.sin(theta)
    powers = np.empty((n,) + z.shape, dtype=complex)
    powers[0] = z
    for k in range(1, n):
        np.multiply(powers[k - 1], z, out=powers[k, ...])
    return powers.real, powers.imag


def _angular_frequencies(spec: BasisSpec):
    """nu = m beta of the angular factors, led by 0 (the constant 1) for the even family."""
    first = 0 if spec.parity is Parity.EVEN else 1
    return np.arange(first, spec.m_max + 1) * spec.beta


def family_factors(spec: BasisSpec, domain: CompositeDomain, r, phi):
    """Separable factors of the family at 1-D arrays of radii r and angles phi.

    Returns (R, A): the radial rows r sin(n alpha (r - a)), n = 1..n_max,
    one column per radius, and the angular rows cos(m beta phi) (even) or
    sin(m beta phi) (odd), m = 1..m_max, one column per angle.  The even
    family leads both with the linear member's factors, R[0] = r - a and
    A[0] = cos(0 phi) = 1.  Member (n, m) is R[n - 1 + lead] A[m - 1 + lead],
    with lead = 1 (even) or 0 (odd).
    """
    r = np.asarray(r, dtype=float)
    R = r * _multiples(spec.alpha * (r - domain.a), spec.n_max)[1]
    cos, sin = _multiples(spec.beta * np.asarray(phi, dtype=float), spec.m_max)
    if spec.parity is Parity.EVEN:
        return np.vstack([r - domain.a, R]), np.vstack([np.ones_like(cos[:1]), cos])
    return R, sin


def laplacian_factors(spec: BasisSpec, domain: CompositeDomain, r):
    """Factors of the polar Laplacian of the family at radii r.

    Returns (P, Q, nu): the Laplacian d_rr + (1/r) d_r + (1/r^2) d_phiphi of
    the factor product R[i] A[j] of ``family_factors`` is
    (P[i] - nu[j]^2 Q[i]) A[j], with P = R'' + R'/r, Q = R/r^2 and nu[j] the
    frequency of A[j].  For R = r sin(w (r - a)) with w = n alpha,

        P = 3 w cos(w(r-a)) - w^2 r sin(w(r-a)) + sin(w(r-a))/r,
        Q = sin(w(r-a))/r,

    and the even linear member r - a gives P = 1/r (singular at r = 0),
    while its angular factor 1 has nu = 0.
    """
    r = np.asarray(r, dtype=float)
    w = np.arange(1, spec.n_max + 1)[:, None] * spec.alpha
    cos, sin = _multiples(spec.alpha * (r - domain.a), spec.n_max)
    Q = sin / r
    P = 3.0 * w * cos - w * w * r * sin + Q
    if spec.parity is Parity.EVEN:
        P = np.vstack([1.0 / r, P])
        Q = np.vstack([(r - domain.a) / r**2, Q])
    return P, Q, _angular_frequencies(spec)


def interface_factors(spec: BasisSpec, domain: CompositeDomain, x):
    """Separable factors of the family's interface traces at points x.

    Returns (R, A, DR, DA): radial rows R and DR with one column per point,
    and angular constants A and DA with one entry per angular row.  On
    y = 0, r = |x| and phi = -sign(x) pi/2, so every angular factor is a
    constant times s(x), with s = 1 (even) or sign(x) (odd).  The trace of
    the member R[i] A[j] of ``family_factors`` is therefore R[i] A[j], with
    s folded into R: R = s r sin(n alpha (|x| - a)) and A = the angular
    factor at phi = -pi/2.  Its normal-derivative trace is DR[i] DA[j], the
    closed form of the module docstring: DR = s sin(n alpha (|x| - a)),
    which the even linear member lacks (its row is 0, since its angular
    factor is constant), and DA = -nu sin(nu pi/2) (even) or
    -nu cos(nu pi/2) (odd).  The odd rows take the value 0 at x = 0
    through sign(0) = 0.
    """
    xs = np.asarray(x, dtype=float)
    absx = np.abs(xs)
    s = np.ones_like(xs) if spec.parity is Parity.EVEN else np.sign(xs)
    R, A = family_factors(spec, domain, absx, [-np.pi / 2.0])
    DR = _multiples(spec.alpha * (absx - domain.a), spec.n_max)[1]
    cos, sin = _multiples(spec.beta * np.pi / 2.0, spec.m_max)
    nu = _angular_frequencies(spec)
    if spec.parity is Parity.EVEN:
        DR = np.vstack([np.zeros_like(xs), DR])
        DA = -nu * np.concatenate([[0.0], sin])
    else:
        DA = -nu * cos
    return R * s, A[:, 0], DR * s, DA


def basis_tables(
    spec: BasisSpec,
    domain: CompositeDomain,
    volume_rule: tuple[QuadratureRule1D, QuadratureRule1D],
    surface_rule: QuadratureRule1D,
):
    """1-D radial and angular tables of the whole family's volume and interface products.

    Returns (RR, RP, RQ, AA, AAnu, R, A, DR, DA): the 1-D products
    (X|Y)_r = (X w_r) Y^T (w_r carries r) and (X|Y)_phi = (X w_phi) Y^T of
    the factors of ``family_factors`` and ``laplacian_factors``,

        RR = (R|R)_r, RP = (R|P)_r, RQ = (R|Q)_r, AA = (A|A)_phi, AAnu = (A|A)_phi diag(nu^2),

    and the ``interface_factors`` at the surface nodes.  The volume rule
    (``semicircle_rule``) and every member are separable in (r, phi), so the
    Gram <phi_mu|phi_nu> and the stiffness <phi_mu|Lap phi_nu> are Kronecker
    products restricted to the members' rows and columns (module docstring),

        G = RR x AA,   S = RP x AA - RQ x AAnu,

    and the interface values and normal derivatives of the member R[i] A[j]
    are R[i] A[j] and DR[i] DA[j].  No table over all members is formed.
    """
    radial, angular = volume_rule
    R, A = family_factors(spec, domain, radial.nodes, angular.nodes)
    P, Q, nu = laplacian_factors(spec, domain, radial.nodes)
    # einsum sums outside BLAS: (R|R)_r and (A|A)_phi come out exactly
    # symmetric and the same on any number of BLAS threads
    RR, RP, RQ = (np.einsum("ik,jk,k->ij", R, X, radial.weights) for X in (R, P, Q))
    AA = np.einsum("ik,jk,k->ij", A, A, angular.weights)
    return (RR, RP, RQ, AA, AA * nu**2, *interface_factors(spec, domain, surface_rule.nodes))
