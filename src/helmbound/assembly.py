"""Assembly of the DtN/NtD matrix pencil.

Both methods reduce the membrane eigenproblem to one generalized matrix
pencil (Lambda, Delta) over the semicircle trial family, at a fixed
operator parameter kappa.  They share one variational principle and differ
only in the interface operator: DtN uses the Dirichlet-to-Neumann map B,
NtD its reciprocal R = B^-1.  With S = <phi_m|Lap phi_n>,
G = <phi_m|phi_n> and C = (phi_m|grad_perp phi_n) (the cross
term), and ' denoting d/dkappa, the pencil is

    Lambda = -S + X + W^T sigma W - (kappa/2) W^T sigma' W
    Delta  =  G - W^T sigma' W / (2 kappa)

where each method supplies only its triple (W, sigma, X):

    method  W                                       sigma    X
    DtN     P[n,mu] = (psi_n | phi_mu)              -b_n     C
    NtD     Q[n,mu] = (psi_n | grad_perp phi_mu)    1/b_n    -C^T

The operator is applied spectrally: W holds the projections of the trial
traces onto the first N Steklov traces psi_n, and the diagonal symbol
sigma(kappa) recombines them, so the distributional kernels are never
formed pointwise.  b_n and b_n' come from ``steklov_table``; NtD
additionally refuses a kappa where some b_n ~ 0 (``NearNeumannResonance``).

Everything kappa-independent is cached in an AssemblyContext, which also
compresses the strongly redundant family once, without forming any table
over all M members.  Each member and the volume rule are separable in
(r, phi), so ``basis_tables`` returns 1-D radial and angular tables only;
G, S, T and D are their Kronecker or member-wise products.  With the
orthonormal eigenvectors u_r,i and u_a,j of the product-member blocks of
the 1-D Grams (R|R)_r and (A|A)_phi, u_r,i x u_a,j is an eigenvector of G's
product-member block with eigenvalue lambda_r,i lambda_a,j.  The context
keeps the pairs (i, j) whose product exceeds COMPRESS_FLOOR times the
largest, plus the even family's linear member as one more coordinate; these
columns form the orthonormal compressed basis Y (M x r).  Y is never
formed: every table is an entry-wise product of eigenvector-transformed 1-D
tables at the kept pairs, e.g. Y^T G Y = (U_r^T RR U_r)[i, i'] (U_a^T AA U_a)[j, j'],
and Y a is two small products on the factor grid (``factor_grid``).

The selection reads G alone.  A dropped direction is a product f(r) g(phi)
of a radial and an angular combination whose semicircle norm squared is at
most COMPRESS_FLOOR times the largest.  f and g are finite sums of sines and
cosines, whose values and derivatives on the interface an inverse inequality
bounds by their norm times a power of the family size, so the interface
terms that both methods' metrics add through W are small on the dropped
span too, though not at roundoff: at b = 1.5 the augmented Gram
A = G + T w T^T + D w D^T on the dropped complement stays below 9e-8 of A's
largest eigenvalue at 15x15 (1.4e-6 at 30x30).  What the cut costs in k is
in the COMPRESS_FLOOR comment.

The interface terms have low rank.  On y = 0, phi = -sign(x) pi/2, so the
angular factor of every member is a constant times s(x), with s = 1 (even)
or sign(x) (odd), and so is its normal-derivative factor
(``interface_factors``, which folds s into the radial rows).  Column k of
W Y is then F[:, i_k] c_k, with F = (psi w) (U_r^T R)^T (N x n_r, for the
n_r = n_max + lead radial factors) and c_k the angular constant of pair
(i_k, j_k) after U_a: W Y = F K^T, where K (r x n_r) holds c_k at
(k, i_k), has rank at most n_r (31 at 30x30, against r = 314).  DtN uses
the value factors, NtD the normal-derivative ones, and the cross term is
Y^T C Y = C_R[i_k, i_l] c_k d_l with the n_r x n_r radial product C_R.  The
context keeps F and the constants, never an N x r projection or an r x Ks
trace table.

Every table depends on the semicircle alone (a = ``domain.a``): the depth b
enters only through ``steklov_table`` in ``assemble``.  A context built at
one depth therefore serves any other after ``dataclasses.replace`` of its
``domain``, with bit-identical tables.

``assemble`` returns the pencil Y^T (Lambda, Delta) Y at kappa in factored
form.  The context holds the kappa-independent parts -S + X of both methods
and G, each symmetrized once (``symmetry_defect`` records their defects), and
the interface term of either method is (F K^T)^T diag(w) (F K^T) with the
method's radial factor F and the weights w(kappa) over the N Steklov modes.
So ``assemble`` evaluates the symbols sigma and sigma' once per call, O(N),
and keeps the two weight vectors; the r x r matrices are built only when
``MatrixPair.lam`` or ``delta`` is read, by forming the n_r x n_r products
F^T diag(w) F, at O(N n_r^2), and adding them onto the pairs as
c_k c_l M[i_k, i_l], at O(r^2), about 1.1 ms for both at 30x30 on one BLAS
thread of a 2-core machine.  Both come out exactly symmetric.  Since Y is
orthonormal, the reduced pencil is the family pencil restricted to the kept
subspace, with its scale and rounding level.  The solver reads only the
weights (``solver`` module docstring).  Downstream of the solve, gamma2 and
the interface jumps read the reduced vector a; only field sampling maps it
to the factor grid.

All arithmetic is real.  The pencil's Rayleigh quotient at a is the paper's
discontinuous functional at the real mixing 0 (DtN) or 1 (NtD), with gamma2
matched to a; the functional at a complex mixing is a check in the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import BasisSpec, Parity, basis_tables
from .errors import MetricNotPositiveDefinite
from .geometry import CompositeDomain, QuadratureRule1D, interface_rule, semicircle_rule
from .steklov import _guard_neumann, steklov_table, steklov_trace

DEFAULT_STEKLOV_MODES = 200
# Pairs whose Gram eigenvalue lambda_r,i lambda_a,j is at most this fraction
# of the largest are dropped: the only cut of the trial space, since the
# solver keeps every direction it leaves.  At b = 1.5 it keeps
# r = 110/105 of 226/225 directions (15x15, even/odd) and 308/298 of 901/900
# (30x30), on 1 and 2 BLAS threads.  At 1e-12 the eight Table 2 k (tol 1e-8)
# move by at most 5.9e-7 (DtN) and 2.2e-6 (NtD) at 15x15, 4.3e-6 and 6.2e-6
# at 30x30.  At 1e-14 the 15x15 k fall by 2.4e-7 to 3.3e-5, but the tracked
# vectors degrade: acceptance 5's order drops below 1.9 and NtD's derivative
# jump exceeds its value jump.
COMPRESS_FLOOR = 1e-13


class Method(enum.Enum):
    DTN = "dtn"
    NTD = "ntd"


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature orders: volume tensor rule and interface panels.

    n_s counts nodes per interface panel (two panels, split at x = 0).  The
    interface rule resolves Steklov traces up to n ~ 2 n_s, so keep the
    Steklov truncation below that.
    """

    n_r: int = 64
    n_phi: int = 64
    n_s: int = 128


@dataclass(frozen=True)
class AssemblyContext:
    """kappa-independent tables for one (spec, domain, quadrature, N).

    Every table is in the coordinates of the compressed basis Y (module
    docstring), held in factored form: column k of Y is
    radial_basis[:, i_k] x angular_basis[:, j_k] on the factor grid of
    ``family_factors``, read at the members, with (i_k, j_k) =
    ``pairs[:, k]``.  r is the compressed dimension, N the number of
    Steklov modes, Ks the number of interface nodes and n_r the number of
    radial factors.  The interface tables are factored too: row k of Y^T T
    is radial_values[i_k] c_k and of Y^T D radial_derivs[i_k] d_k, so
    column k of P Y is value_factor[:, i_k] c_k and of Q Y
    deriv_factor[:, i_k] d_k, with c = value_consts and d = deriv_consts.
    """

    spec: BasisSpec
    domain: CompositeDomain
    quad: QuadratureConfig
    n_modes: int
    surface_rule: QuadratureRule1D
    radial_basis: np.ndarray = field(repr=False)  # U_r, eigenvectors of (R|R)_r's product block
    angular_basis: np.ndarray = field(repr=False)  # U_a, eigenvectors of (A|A)_phi's product block
    pairs: np.ndarray = field(repr=False)  # (2, r) factor indices (i, j) of Y's columns
    dtn_base: np.ndarray = field(repr=False)  # (r, r) Y^T (-S + C) Y, symmetrized
    ntd_base: np.ndarray = field(repr=False)  # (r, r) Y^T (-S - C^T) Y, symmetrized
    gram: np.ndarray = field(repr=False)  # (r, r) Y^T G Y, symmetrized
    radial_values: np.ndarray = field(repr=False)  # (n_r, Ks) U_r^T R, interface values' radial factors
    radial_derivs: np.ndarray = field(repr=False)  # (n_r, Ks) U_r^T DR, normal derivatives' radial factors
    value_consts: np.ndarray = field(repr=False)  # (r,) c_k = (U_a^T A)[j_k], angular value constants
    deriv_consts: np.ndarray = field(repr=False)  # (r,) d_k = (U_a^T DA)[j_k], angular derivative constants
    value_factor: np.ndarray = field(repr=False)  # (N, n_r) F_v = (psi w) radial_values^T
    deriv_factor: np.ndarray = field(repr=False)  # (N, n_r) F_d = (psi w) radial_derivs^T
    # max |X - X^T| / max |X| of the three (r, r) parts before symmetrization
    symmetry_defect: float
    # set-ups that ``solver.spectrum`` builds on first use, one per method, and
    # the Gram factor they share; none depends on b, so a context moved to
    # another depth by dataclasses.replace shares them
    spectra: dict = field(default_factory=dict, repr=False, compare=False)

    def method_tables(self, method: Method):
        """(-S + X, F, c) of a method: its kappa-independent part, radial
        interface factor (N x n_r) and angular constants (r,)."""
        if method is Method.DTN:
            return self.dtn_base, self.value_factor, self.value_consts
        return self.ntd_base, self.deriv_factor, self.deriv_consts

    @property
    def trial_dim(self) -> int:
        """r, the number of compressed coordinates."""
        return self.pairs.shape[1]

    def factor_grid(self, a) -> np.ndarray:
        """Y a as the coefficients of the products R[i] A[j] of ``family_factors``
        (0 off the members): U_r (a on the kept pairs) U_a^T."""
        grid = np.zeros((self.radial_basis.shape[1], self.angular_basis.shape[1]))
        grid[tuple(self.pairs)] = a
        return self.radial_basis @ grid @ self.angular_basis.T

    def radial_coefficients(self, a):
        """(a c, a d) summed over the pairs onto their radial factors, each of length n_r.

        a^T Y^T T = first @ radial_values and a^T Y^T D = second @ radial_derivs,
        and likewise P Y a = value_factor @ first and Q Y a = deriv_factor @ second.
        """
        i, n = self.pairs[0], self.radial_basis.shape[1]
        return (np.bincount(i, self.value_consts * a, n), np.bincount(i, self.deriv_consts * a, n))


def _product_eigenbasis(gram: np.ndarray, lead: int):
    """Eigenvalues of a 1-D Gram's product-member block (rows ``lead`` on) and
    its orthonormal eigenvectors, bordered by the identity on the lead rows."""
    lam, U = np.linalg.eigh(gram[lead:, lead:])
    V = np.eye(gram.shape[0])
    V[lead:, lead:] = U
    return lam, V


def _at_pairs(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[index[k], index[l]], gathered by rows then columns: about 0.07 ms
    at r = 314, against 0.6 ms through np.ix_."""
    return table[:, index][index]


def _defect(A: np.ndarray) -> float:
    """max |A - A^T| / max |A|.  A - A^T is exactly antisymmetric in floating
    point, so its largest entry is its largest magnitude."""
    scale = max(A.max(), -A.min())
    if scale == 0:
        return 0.0
    return float((A - A.T).max() / scale)


def build_context(
    spec: BasisSpec,
    domain: CompositeDomain,
    quad: QuadratureConfig = QuadratureConfig(),
    n_modes: int = DEFAULT_STEKLOV_MODES,
) -> AssemblyContext:
    """Precompute every kappa-independent ingredient, the compression included.

    Raises MetricNotPositiveDefinite when the compression keeps no
    direction, i.e. the volume rule sees no member of the family (the odd
    family on a one-node angular rule): the pencil would have no rows.
    """
    vol = semicircle_rule(domain, quad.n_r, quad.n_phi)
    surf = interface_rule(domain, quad.n_s)
    RR, RP, RQ, AA, AAnu, R, A, DR, DA = basis_tables(spec, domain, vol, surf)
    lead = int(spec.parity is Parity.EVEN)  # even: row 0 of each 1-D table is the linear member's
    lam_r, Ur = _product_eigenbasis(RR, lead)
    lam_a, Ua = _product_eigenbasis(AA, lead)
    prod = np.multiply.outer(lam_r, lam_a)
    kept = np.nonzero(prod > COMPRESS_FLOOR * prod.max())
    ii, jj = (np.concatenate([np.zeros(lead, dtype=int), k + lead]) for k in kept)
    if ii.size == 0:
        raise MetricNotPositiveDefinite(
            f"the {spec.parity.value} {spec.n_max}x{spec.m_max} family has no direction of "
            f"positive norm on the {quad.n_r}x{quad.n_phi} volume rule"
        )

    def volume(radial, angular):  # Y^T (radial x angular)[members] Y
        return _at_pairs(Ur.T @ radial @ Ur, ii) * _at_pairs(Ua.T @ angular @ Ua, jj)

    ws = surf.weights
    n = np.arange(1, n_modes + 1)
    psi = steklov_trace(n[:, None], domain, surf.nodes[None, :])
    values, derivs = Ur.T @ R, Ur.T @ DR
    c, d = (Ua.T @ A)[jj], (Ua.T @ DA)[jj]
    stiffness = volume(RP, AA) - volume(RQ, AAnu)
    cross = _at_pairs((values * ws) @ derivs.T, ii) * np.multiply.outer(c, d)  # Y^T C Y
    parts = (-stiffness + cross, -stiffness - cross.T, volume(RR, AA))
    dtn_base, ntd_base, gram = (0.5 * (X + X.T) for X in parts)
    return AssemblyContext(
        spec=spec,
        domain=domain,
        quad=quad,
        n_modes=n_modes,
        surface_rule=surf,
        radial_basis=Ur,
        angular_basis=Ua,
        pairs=np.array([ii, jj]),
        dtn_base=dtn_base,
        ntd_base=ntd_base,
        gram=gram,
        radial_values=values,
        radial_derivs=derivs,
        value_consts=c,
        deriv_consts=d,
        value_factor=(psi * ws) @ values.T,
        deriv_factor=(psi * ws) @ derivs.T,
        symmetry_defect=max(_defect(X) for X in parts),
    )


@dataclass(frozen=True)
class MatrixPair:
    """(Lambda, Delta) of one method at one kappa, in the context's coordinates Y.

    Held factored: ``weights`` = (w_Lambda, w_Delta) over the N Steklov
    modes, the interface terms being (F K^T)^T diag(w) (F K^T) on the
    method's kappa-independent part and on G (module docstring).  ``lam``
    and ``delta`` build the r x r matrices on first read; both are exactly
    symmetric.
    """

    method: Method
    weights: tuple
    context: AssemblyContext = field(repr=False)

    @cached_property
    def lam(self) -> np.ndarray:
        return self._dense(self.context.method_tables(self.method)[0], self.weights[0])

    @cached_property
    def delta(self) -> np.ndarray:
        return self._dense(self.context.gram, self.weights[1])

    def _dense(self, part, weights):
        """part + Y^T W^T diag(weights) W Y; M + M^T is exactly symmetric."""
        _, F, c = self.context.method_tables(self.method)
        M = F.T @ ((0.5 * weights)[:, None] * F)
        return part + _at_pairs(M + M.T, self.context.pairs[0]) * (c[:, None] * c)


def assemble(method: Method, kappa: float, context: AssemblyContext) -> MatrixPair:
    """Matrix pair of either method at kappa, in the context's coordinates Y.

    Evaluates the method's symbol sigma and its derivative once and returns
    the pair factored as the interface weights sigma - (kappa/2) sigma' and
    -sigma' / (2 kappa) (module docstring).

    Raises NearDirichletResonance on a pole of some b_n, and for NtD
    NearNeumannResonance if some b_n ~ 0.
    """
    bn, dbn = steklov_table(kappa, context.n_modes, context.domain)
    if method is Method.DTN:
        sigma, dsigma = -bn, -dbn
    else:
        _guard_neumann(bn, kappa)
        sigma, dsigma = 1.0 / bn, -dbn / bn**2
    return MatrixPair(method, (sigma - 0.5 * kappa * dsigma, -dsigma / (2.0 * kappa)), context)
