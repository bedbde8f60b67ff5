"""Assembly of the DtN/NtD matrix pencil and the discontinuous functional.

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

The operator is applied spectrally: W projects the trial traces onto the
first N Steklov traces and the diagonal symbol sigma(kappa) recombines them,
so the distributional kernels are never formed pointwise.  b_n and b_n' come
from ``steklov_table``; NtD additionally refuses a kappa where some b_n ~ 0
(``NearNeumannResonance``).

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
and gamma1 = Y a is two small products on the factor grid (``family_vector``).

The selection reads G alone.  A dropped direction is a product f(r) g(phi)
of a radial and an angular combination whose semicircle norm squared is at
most COMPRESS_FLOOR times the largest.  f and g are finite sums of sines and
cosines, whose values and derivatives on the interface an inverse inequality
bounds by their norm times a power of the family size, so the interface
terms that both methods' metrics add through W are small on the dropped
span too, though not at roundoff: at b = 1.5 the augmented Gram
A = G + T w T^T + D w D^T on the dropped complement stays below 1e-7 of A's
largest eigenvalue at 15x15 (2e-7 at 30x30).  What that costs in k is
measured against the uncompressed family (COMPRESS_FLOOR comment).

Every table depends on the semicircle alone (a = ``domain.a``): the depth b
enters only through ``steklov_table`` in ``assemble``.  A context built at
one depth therefore serves any other after ``dataclasses.replace`` of its
``domain``, with bit-identical tables.

``assemble`` returns the pencil Y^T (Lambda, Delta) Y at kappa, so the
fixed-point iteration only refreshes the diagonal symbols and two
N x r x r products, and the solver works on r x r matrices.  Since Y is
orthonormal, the reduced pencil is the family pencil restricted to the kept
subspace, with its scale and rounding level.  Downstream of the solve,
gamma2, the functional and the interface jumps read the reduced vector a;
only field sampling maps it to the family vector gamma1 = Y a.

All arithmetic is real; complex enters only through the mixing parameter of
the discontinuous functional.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, Parity, basis_tables, member_index
from .errors import MetricNotPositiveDefinite, ZeroTrial
from .geometry import CompositeDomain, QuadratureRule1D, interface_rule, semicircle_rule
from .steklov import _guard_neumann, steklov_table, steklov_trace

DEFAULT_STEKLOV_MODES = 200
# Pairs whose Gram eigenvalue lambda_r,i lambda_a,j is at most this fraction
# of the largest are dropped.  At b = 1.5 it keeps r = 122/115 of 226/225
# directions (15x15, even/odd) and 314/306 of 901/900 (30x30), the same on 1
# and 2 BLAS threads.  Against the uncompressed family (Y = I), the eight
# Table 2 k at tol 1e-8 move by at most 2.1e-8 (15x15) and 6.8e-9 (30x30).
# 1e-15 keeps 125/118 and 332/326 directions and moves them by 1.6e-8 and
# 5.5e-10, at the cost of larger solves; 1e-13 moves them by 8.2e-7 and
# 1.8e-7, and 1e-11 by 1.3e-4 at 30x30.
COMPRESS_FLOOR = 1e-14


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
class MatrixPair:
    """Assembled (Lambda, Delta) at one kappa in the context's coordinates Y, symmetrized.

    The recorded defects are max|X - X^T| / max|X| before symmetrization,
    for X = Lambda and Delta; Hermiticity of the construction keeps them at
    quadrature-noise level, and the orthonormal Y does not magnify them.
    """

    lam: np.ndarray
    delta: np.ndarray
    lambda_defect: float
    delta_defect: float


@dataclass(frozen=True)
class TrialPair:
    """Trial function: gamma1 = Y a over the semicircle family, gamma2 over Steklov modes."""

    a: np.ndarray
    gamma2: np.ndarray
    kappa: float


@dataclass(frozen=True)
class AssemblyContext:
    """kappa-independent tables for one (spec, domain, quadrature, N).

    Every table is in the coordinates of the compressed basis Y (module
    docstring), held in factored form: column k of Y is
    radial_basis[:, i_k] x angular_basis[:, j_k] on the factor grid of
    ``family_factors``, read at ``member_index``, with (i_k, j_k) =
    ``pairs[:, k]``.  r is the compressed dimension, N the number of
    Steklov modes and Ks the number of interface nodes.
    """

    spec: BasisSpec
    domain: CompositeDomain
    quad: QuadratureConfig
    n_modes: int
    surface_rule: QuadratureRule1D
    steklov_traces: np.ndarray = field(repr=False)  # (N, Ks) psi_n at the interface nodes
    radial_basis: np.ndarray = field(repr=False)  # U_r, eigenvectors of (R|R)_r's product block
    angular_basis: np.ndarray = field(repr=False)  # U_a, eigenvectors of (A|A)_phi's product block
    pairs: np.ndarray = field(repr=False)  # (2, r) factor indices (i, j) of Y's columns
    stiffness: np.ndarray = field(repr=False)  # (r, r) Y^T S Y, S = <phi_m | Lap phi_n>
    gram: np.ndarray = field(repr=False)  # (r, r) Y^T G Y, G = <phi_m | phi_n>
    cross: np.ndarray = field(repr=False)  # (r, r) Y^T C Y
    traces: np.ndarray = field(repr=False)  # (r, Ks) Y^T T, values on the interface
    dtraces: np.ndarray = field(repr=False)  # (r, Ks) Y^T D, normal derivatives
    proj_values: np.ndarray = field(repr=False)  # (N, r) P Y = (psi w T^T) Y
    proj_derivs: np.ndarray = field(repr=False)  # (N, r) Q Y = (psi w D^T) Y

    @property
    def trial_dim(self) -> int:
        """r, the number of compressed coordinates."""
        return self.pairs.shape[1]

    def family_vector(self, a) -> np.ndarray:
        """gamma1 = Y a: U_r (a on the kept pairs) U_a^T, read at the members."""
        grid = np.zeros((self.radial_basis.shape[1], self.angular_basis.shape[1]))
        grid[tuple(self.pairs)] = a
        return (self.radial_basis @ grid @ self.angular_basis.T).flat[member_index(self.spec)]


def _product_eigenbasis(gram: np.ndarray, lead: int):
    """Eigenvalues of a 1-D Gram's product-member block (rows ``lead`` on) and
    its orthonormal eigenvectors, bordered by the identity on the lead rows."""
    lam, U = np.linalg.eigh(gram[lead:, lead:])
    V = np.eye(gram.shape[0])
    V[lead:, lead:] = U
    return lam, V


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
    radial_pairs, angular_pairs = np.ix_(ii, ii), np.ix_(jj, jj)

    def volume(radial, angular):  # Y^T (radial x angular)[members] Y
        return (Ur.T @ radial @ Ur)[radial_pairs] * (Ua.T @ angular @ Ua)[angular_pairs]

    def interface(radial, angular):  # Y^T of the member rows radial[i] angular[j]
        return (Ur.T @ radial)[ii] * (Ua.T @ angular)[jj]

    ws = surf.weights
    n = np.arange(1, n_modes + 1)
    psi = steklov_trace(n[:, None], domain, surf.nodes[None, :])
    traces, dtraces = interface(R, A), interface(DR, DA)
    return AssemblyContext(
        spec=spec,
        domain=domain,
        quad=quad,
        n_modes=n_modes,
        surface_rule=surf,
        steklov_traces=psi,
        radial_basis=Ur,
        angular_basis=Ua,
        pairs=np.array([ii, jj]),
        stiffness=volume(RP, AA) - volume(RQ, AAnu),
        gram=volume(RR, AA),
        cross=(traces * ws) @ dtraces.T,
        traces=traces,
        dtraces=dtraces,
        proj_values=(psi * ws) @ traces.T,
        proj_derivs=(psi * ws) @ dtraces.T,
    )


def _defect(A: np.ndarray) -> float:
    """max |A - A^T| / max |A|.  A - A^T is exactly antisymmetric in floating
    point, so its largest entry is its largest magnitude."""
    scale = max(A.max(), -A.min())
    if scale == 0:
        return 0.0
    return float((A - A.T).max() / scale)


def assemble(method: Method, kappa: float, context: AssemblyContext) -> MatrixPair:
    """Matrix pair of either method at kappa, in the context's coordinates Y.

    Reads only the r x r and N x r tables of the context.

    Raises NearDirichletResonance on a pole of some b_n, and for NtD
    NearNeumannResonance if some b_n ~ 0.
    """
    bn, dbn = steklov_table(kappa, context.n_modes, context.domain)
    # the method's (W, sigma, sigma', X); see the module docstring
    if method is Method.DTN:
        W, sigma, dsigma, X = context.proj_values, -bn, -dbn, context.cross
    else:
        _guard_neumann(bn, kappa)
        W, sigma, dsigma, X = context.proj_derivs, 1.0 / bn, -dbn / bn**2, -context.cross.T
    lam = -context.stiffness + X + W.T @ (sigma[:, None] * W)
    dop = W.T @ (dsigma[:, None] * W)
    lam -= 0.5 * kappa * dop
    delta = context.gram - dop / (2.0 * kappa)
    lambda_defect, delta_defect = _defect(lam), _defect(delta)
    return MatrixPair(
        lam=0.5 * (lam + lam.T),
        delta=0.5 * (delta + delta.T),
        lambda_defect=lambda_defect,
        delta_defect=delta_defect,
    )


def _surface_fields(ctx: AssemblyContext, trial: TrialPair):
    """Values/normal derivatives of both trial parts at the interface nodes."""
    a = np.asarray(trial.a, dtype=float)
    g2 = np.asarray(trial.gamma2, dtype=float)
    n2 = g2.size
    if n2 > ctx.n_modes:
        raise ValueError(
            f"gamma2 has {n2} coefficients but the context holds {ctx.n_modes} Steklov modes"
        )
    bn, dbn = steklov_table(trial.kappa, n2, ctx.domain) if n2 else (np.empty(0), np.empty(0))
    psi = ctx.steklov_traces[:n2]
    v1 = a @ ctx.traces
    d1 = a @ ctx.dtraces
    v2 = g2 @ psi
    d2 = (bn * g2) @ psi
    return a, g2, bn, dbn, v1, d1, v2, d2


def evaluate_discontinuous_functional(
    trial: TrialPair,
    mixing: complex,
    context: AssemblyContext,
) -> complex:
    """General discontinuous functional at a complex mixing parameter.

    The two interface terms weight the value/derivative mismatches with the
    mixing constant m and its reality partner 1 - m*; for real trial
    fields the imaginary part cancels identically, so any residual imag is
    floating-point noise.

    Semicircle volume products come from the context's compressed stiffness
    and Gram, read at the trial's reduced vector a; rectangle ones from the closed identities for a Helmholtz solution:
    <psi|psi> = sum c_n^2 b_n'/(2 kappa) and <psi|Lap psi> = -kappa^2 <psi|psi>.
    """
    a, g2, bn, dbn, v1, d1, v2, d2 = _surface_fields(context, trial)
    if not (np.any(a) or np.any(g2)):
        raise ZeroTrial("both trial coefficient vectors vanish")
    kappa = trial.kappa
    norm2_ii = float(np.dot(g2 * g2, dbn)) / (2.0 * kappa)
    lap = float(a @ context.stiffness @ a) - kappa**2 * norm2_ii
    norm2 = float(a @ context.gram @ a) + norm2_ii
    ws = context.surface_rule.weights
    vmm = v1 - v2
    dmm = d1 - d2
    G1 = float(np.dot(ws, d1 * vmm))
    G2 = float(np.dot(ws, d2 * vmm))
    H1 = float(np.dot(ws, v1 * dmm))
    H2 = float(np.dot(ws, v2 * dmm))
    m = complex(mixing)
    num = -lap - (np.conj(m) * G1 + (1.0 - np.conj(m)) * G2) + ((1.0 - m) * H1 + m * H2)
    return num / norm2
