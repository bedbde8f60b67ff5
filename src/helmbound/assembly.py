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
compresses the strongly redundant family once.  S and G come from
``basis_tables`` as Kronecker products of 1-D radial and angular matrices:
each member and the volume rule are separable in (r, phi), so no table over
the 2-D volume nodes is formed.  With the interface values
T and normal derivatives D of the members and the interface weights w, the
augmented Gram A = G + T w T^T + D w D^T bounds Delta up to a kappa-dependent
constant, so a direction that is null for A is null for both methods'
metrics.  The context keeps the orthonormal eigenvectors Y of A (M x r,
``coords``) whose eigenvalue exceeds COMPRESS_FLOOR times the largest, and
every other table in Y coordinates only: S, G, C, P, Q, Y^T T and Y^T D.
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

from .basis import BasisSpec, basis_tables
from .errors import ZeroTrial
from .geometry import CompositeDomain, QuadratureRule1D, interface_rule, semicircle_rule
from .steklov import _guard_neumann, steklov_table, steklov_trace

DEFAULT_STEKLOV_MODES = 200
# Eigenvalues of A below this fraction of the largest are dropped.  At
# b = 1.5 it keeps r = 111/108 of 226/225 directions (15x15, even/odd) and
# 287/281 of 901/900 (30x30) on 1 and 2 OpenBLAS threads.  It sits inside
# the roundoff cloud of A's spectrum, so r can move by a few directions with
# the rounding.  Measured on the eight Table 2 solves per size (tol 1e-8),
# 1 / 2 threads: 1e-16 keeps 121/117-118 and 319-320/309-310 and moves k by
# at most 6.3e-9 / 7.0e-9 at 15x15 and 2.0e-8 / 9.8e-9 at 30x30; 1e-14 keeps
# 108/102 and 282/272-273 and moves 30x30 k by up to 1.7e-6.
COMPRESS_FLOOR = 1e-15


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
    """Trial function: gamma1 = Y a over the semicircle family, gamma2 over Steklov modes.

    A family vector g1 enters as a = Y^T g1, exact only for g1 in span(Y)."""

    a: np.ndarray
    gamma2: np.ndarray
    kappa: float


@dataclass(frozen=True)
class AssemblyContext:
    """kappa-independent tables for one (spec, domain, quadrature, N).

    Every table is in the coordinates of the compressed basis Y
    (``coords``): a family vector g1 enters as a = Y^T g1, which is exact
    only for g1 in span(Y).  r is the compressed dimension, N the number of
    Steklov modes and Ks the number of interface nodes.
    """

    spec: BasisSpec
    domain: CompositeDomain
    quad: QuadratureConfig
    n_modes: int
    surface_rule: QuadratureRule1D
    steklov_traces: np.ndarray = field(repr=False)  # (N, Ks) psi_n at the interface nodes
    coords: np.ndarray = field(repr=False)  # Y (M, r), orthonormal eigenvectors of A
    stiffness: np.ndarray = field(repr=False)  # (r, r) Y^T S Y, S = <phi_m | Lap phi_n>
    gram: np.ndarray = field(repr=False)  # (r, r) Y^T G Y, G = <phi_m | phi_n>
    cross: np.ndarray = field(repr=False)  # (r, r) Y^T C Y
    traces: np.ndarray = field(repr=False)  # (r, Ks) Y^T T, values on the interface
    dtraces: np.ndarray = field(repr=False)  # (r, Ks) Y^T D, normal derivatives
    proj_values: np.ndarray = field(repr=False)  # (N, r) P Y = (psi w T^T) Y
    proj_derivs: np.ndarray = field(repr=False)  # (N, r) Q Y = (psi w D^T) Y


def build_context(
    spec: BasisSpec,
    domain: CompositeDomain,
    quad: QuadratureConfig = QuadratureConfig(),
    n_modes: int = DEFAULT_STEKLOV_MODES,
) -> AssemblyContext:
    """Precompute every kappa-independent ingredient, the compression included."""
    vol = semicircle_rule(domain, quad.n_r, quad.n_phi)
    surf = interface_rule(domain, quad.n_s)
    gram, stiffness, T, D = basis_tables(spec, domain, vol, surf)
    ws = surf.weights
    Tw, Dw = T * ws, D * ws
    n = np.arange(1, n_modes + 1)
    psi = steklov_trace(n[:, None], domain, surf.nodes[None, :])
    lam, U = np.linalg.eigh(gram + Tw @ T.T + Dw @ D.T)
    Y = U[:, lam > COMPRESS_FLOOR * lam[-1]]  # a copy: U is freed on return
    return AssemblyContext(
        spec=spec,
        domain=domain,
        quad=quad,
        n_modes=n_modes,
        surface_rule=surf,
        steklov_traces=psi,
        coords=Y,
        stiffness=Y.T @ stiffness @ Y,
        gram=Y.T @ gram @ Y,
        cross=(Y.T @ Tw) @ (D.T @ Y),
        traces=Y.T @ T,
        dtraces=Y.T @ D,
        # (psi w T^T) Y, not (psi w)(Y^T T)^T: the latter rounds differently
        # and moves the NtD k at 15x15 by up to 2e-10
        proj_values=(psi * ws) @ T.T @ Y,
        proj_derivs=(psi * ws) @ D.T @ Y,
    )


def _defect(A: np.ndarray) -> float:
    scale = np.max(np.abs(A))
    if scale == 0:
        return 0.0
    return float(np.max(np.abs(A - A.T)) / scale)


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
