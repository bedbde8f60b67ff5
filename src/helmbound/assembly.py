"""Assembly of the DtN/NtD matrix pencil and the discontinuous functional.

Both methods reduce the membrane eigenproblem to one generalized matrix
pencil (Lambda, Delta) over the semicircle trial family, at a fixed
operator parameter kappa.  They share one variational principle and differ
only in the interface operator: DtN uses the Dirichlet-to-Neumann map B,
NtD its reciprocal R = B^-1.  With S = <phi_m|Lap phi_n> (``stiffness``),
G = <phi_m|phi_n> (``gram``) and C = (phi_m|grad_perp phi_n) (``cross``)
from the context, and ' denoting d/dkappa, the pencil is

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

Everything kappa-independent (S, G, C, the surface trace tables and the
projections P, Q) is cached in an AssemblyContext, so the fixed-point
iteration only refreshes the diagonal symbols and two N x M x M products.

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
    """Assembled (Lambda, Delta) at one kappa, symmetrized.

    The recorded defects are max|A - A^T| / max|A| before symmetrization;
    Hermiticity of the construction keeps them at quadrature-noise level.
    """

    lam: np.ndarray
    delta: np.ndarray
    lambda_defect: float
    delta_defect: float


@dataclass(frozen=True)
class TrialPair:
    """Trial function: gamma1 over the semicircle family, gamma2 over Steklov modes."""

    gamma1: np.ndarray
    gamma2: np.ndarray
    kappa: float


@dataclass(frozen=True)
class AssemblyContext:
    """kappa-independent tables for one (spec, domain, quadrature, N)."""

    spec: BasisSpec
    domain: CompositeDomain
    quad: QuadratureConfig
    n_modes: int
    surface_rule: QuadratureRule1D
    stiffness: np.ndarray = field(repr=False)  # <phi_m | Lap phi_n>
    gram: np.ndarray = field(repr=False)  # <phi_m | phi_n>
    cross: np.ndarray = field(repr=False)  # (phi_m | grad_perp phi_n)
    traces: np.ndarray = field(repr=False)  # (M, Ks) values on the interface
    dtraces: np.ndarray = field(repr=False)  # (M, Ks) normal derivatives
    steklov_traces: np.ndarray = field(repr=False)  # (N, Ks)
    proj_values: np.ndarray = field(repr=False)  # P[n,mu] = (psi_n | phi_mu)
    proj_derivs: np.ndarray = field(repr=False)  # Q[n,mu] = (psi_n | grad_perp phi_mu)


def build_context(
    spec: BasisSpec,
    domain: CompositeDomain,
    quad: QuadratureConfig = QuadratureConfig(),
    n_modes: int = DEFAULT_STEKLOV_MODES,
) -> AssemblyContext:
    """Precompute every kappa-independent ingredient of the assembly."""
    vol = semicircle_rule(domain, quad.n_r, quad.n_phi)
    surf = interface_rule(domain, quad.n_s)
    V, L, T, D = basis_tables(spec, domain, vol, surf)
    wv = vol.weights
    ws = surf.weights
    stiffness = (V * wv) @ L.T
    gram = (V * wv) @ V.T
    cross = (T * ws) @ D.T
    n = np.arange(1, n_modes + 1)
    psi = steklov_trace(n[:, None], domain, surf.nodes[None, :])
    proj_values = (psi * ws) @ T.T
    proj_derivs = (psi * ws) @ D.T
    return AssemblyContext(
        spec=spec,
        domain=domain,
        quad=quad,
        n_modes=n_modes,
        surface_rule=surf,
        stiffness=stiffness,
        gram=gram,
        cross=cross,
        traces=T,
        dtraces=D,
        steklov_traces=psi,
        proj_values=proj_values,
        proj_derivs=proj_derivs,
    )


def _defect(A: np.ndarray) -> float:
    scale = np.max(np.abs(A))
    if scale == 0:
        return 0.0
    return float(np.max(np.abs(A - A.T)) / scale)


def assemble(method: Method, kappa: float, context: AssemblyContext) -> MatrixPair:
    """Matrix pair of either method at kappa, from the context's tables.

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
    # W^T sigma W stays a temporary and the defects are taken before the
    # symmetrized copies exist: at most six M x M arrays are live at once
    # (6.5 MB each at 30x30), which bounds the sweep's peak memory
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
    g1 = np.asarray(trial.gamma1, dtype=float)
    g2 = np.asarray(trial.gamma2, dtype=float)
    n2 = g2.size
    if n2 > ctx.n_modes:
        raise ValueError(
            f"gamma2 has {n2} coefficients but the context holds {ctx.n_modes} Steklov modes"
        )
    bn, dbn = steklov_table(trial.kappa, n2, ctx.domain) if n2 else (np.empty(0), np.empty(0))
    psi = ctx.steklov_traces[:n2]
    v1 = g1 @ ctx.traces
    d1 = g1 @ ctx.dtraces
    v2 = g2 @ psi
    d2 = (bn * g2) @ psi
    return g1, g2, bn, dbn, v1, d1, v2, d2


def evaluate_discontinuous_functional(
    trial: TrialPair,
    mixing: complex,
    context: AssemblyContext,
) -> complex:
    """General discontinuous functional at a complex mixing parameter.

    The two interface terms weight the value/derivative mismatches with the
    mixing constant ``a`` and its reality partner 1 - a*; for real trial
    fields the imaginary part cancels identically, so any residual imag is
    floating-point noise.

    Semicircle volume products come from the cached quadrature matrices,
    rectangle ones from the closed identities for a Helmholtz solution:
    <psi|psi> = sum c_n^2 b_n'/(2 kappa) and <psi|Lap psi> = -kappa^2 <psi|psi>.
    """
    g1, g2, bn, dbn, v1, d1, v2, d2 = _surface_fields(context, trial)
    if not (np.any(g1) or np.any(g2)):
        raise ZeroTrial("both trial coefficient vectors vanish")
    kappa = trial.kappa
    norm2_ii = float(np.dot(g2 * g2, dbn)) / (2.0 * kappa)
    lap = float(g1 @ context.stiffness @ g1) - kappa**2 * norm2_ii
    norm2 = float(g1 @ context.gram @ g1) + norm2_ii
    ws = context.surface_rule.weights
    vmm = v1 - v2
    dmm = d1 - d2
    G1 = float(np.dot(ws, d1 * vmm))
    G2 = float(np.dot(ws, d2 * vmm))
    H1 = float(np.dot(ws, v1 * dmm))
    H2 = float(np.dot(ws, v2 * dmm))
    a = complex(mixing)
    num = -lap - (np.conj(a) * G1 + (1.0 - np.conj(a)) * G2) + ((1.0 - a) * H1 + a * H2)
    return num / norm2
