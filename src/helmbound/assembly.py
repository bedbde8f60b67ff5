"""Assembly of the DtN/NtD matrix pairs and the discontinuous functional.

Both methods reduce the membrane eigenproblem to a generalized matrix pencil
(Lambda, Delta) over the semicircle trial family, at a fixed operator
parameter kappa.  With volume products <.|.> over the semicircle, surface
products (.|.) over the interface, B the DtN map, R = B^-1 the NtD map and
' denoting d/dkappa:

    DtN:  Lambda_mn = -<phi_m|Lap phi_n> + (phi_m| grad_perp phi_n - B phi_n + (kappa/2) B' phi_n)
          Delta_mn  =  <phi_m|phi_n> + (1/2 kappa) (phi_m| B' phi_n)
    NtD:  Lambda_mn = -<phi_m|Lap phi_n> + (grad_perp phi_m| R grad_perp phi_n - phi_n - (kappa/2) R' grad_perp phi_n)
          Delta_mn  =  <phi_m|phi_n> - (1/2 kappa) (grad_perp phi_m| R' grad_perp phi_n)

Operator surface terms are evaluated spectrally: project both traces onto
the first N Steklov traces and recombine with the diagonal symbol (b_n, b_n',
1/b_n, (1/b_n)'), never forming the distributional kernels pointwise.

Everything kappa-independent (volume Gram/stiffness, surface trace tables,
Steklov projections) is cached in an AssemblyContext so the fixed-point
iteration only refreshes the diagonal symbols and a few small GEMMs.

All arithmetic is real; complex enters only through the mixing parameter of
the discontinuous functional.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, basis_tables
from .errors import ZeroTrial
from .geometry import CompositeDomain, QuadratureRule1D, QuadratureRule2D, interface_rule, semicircle_rule
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
    kappa: float
    method: Method
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
    volume_rule: QuadratureRule2D
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
        volume_rule=vol,
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


def _finish(lam, delta, kappa, method) -> MatrixPair:
    dl = _defect(lam)
    dd = _defect(delta)
    return MatrixPair(
        lam=0.5 * (lam + lam.T),
        delta=0.5 * (delta + delta.T),
        kappa=kappa,
        method=method,
        lambda_defect=dl,
        delta_defect=dd,
    )


def assemble_dtn(kappa: float, context: AssemblyContext) -> MatrixPair:
    """DtN matrix pair at kappa; raises NearDirichletResonance on a pole."""
    bn, dbn = steklov_table(kappa, context.n_modes, context.domain)
    P = context.proj_values
    op_b = P.T @ (bn[:, None] * P)
    op_db = P.T @ (dbn[:, None] * P)
    lam = -context.stiffness + context.cross - op_b + 0.5 * kappa * op_db
    delta = context.gram + op_db / (2.0 * kappa)
    return _finish(lam, delta, kappa, Method.DTN)


def assemble_ntd(kappa: float, context: AssemblyContext) -> MatrixPair:
    """NtD matrix pair at kappa; raises NearNeumannResonance if some b_n ~ 0."""
    bn, dbn = steklov_table(kappa, context.n_modes, context.domain)
    _guard_neumann(bn, kappa)
    Q = context.proj_derivs
    op_r = Q.T @ ((1.0 / bn)[:, None] * Q)
    # -(kappa/2) (.| R' .) with R' = d(1/b)/dkappa = -b'/b^2
    op_dr = Q.T @ ((dbn / bn**2)[:, None] * Q)
    lam = -context.stiffness + op_r - context.cross.T + 0.5 * kappa * op_dr
    delta = context.gram + op_dr / (2.0 * kappa)
    return _finish(lam, delta, kappa, Method.NTD)


def assemble(method: Method, kappa: float, context: AssemblyContext) -> MatrixPair:
    """Matrix pair of either method at kappa, from the context's tables."""
    if method is Method.DTN:
        return assemble_dtn(kappa, context)
    return assemble_ntd(kappa, context)


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


def _volume_terms(ctx: AssemblyContext, trial, g1, g2, dbn):
    """(<Psi|Lap Psi>, <Psi|Psi>) summed over both subdomains.

    Rectangle-side products use the closed identities for a Helmholtz
    solution: <psi|psi> = sum c_n^2 b_n'/(2 kappa) and <psi|Lap psi> =
    -kappa^2 <psi|psi>; semicircle-side products come from the cached
    volume quadrature matrices.
    """
    kappa = trial.kappa
    norm2_ii = float(np.dot(g2 * g2, dbn)) / (2.0 * kappa)
    lap_ii = -(kappa**2) * norm2_ii
    lap_i = float(g1 @ ctx.stiffness @ g1)
    norm2_i = float(g1 @ ctx.gram @ g1)
    return lap_i + lap_ii, norm2_i + norm2_ii


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
    """
    g1, g2, bn, dbn, v1, d1, v2, d2 = _surface_fields(context, trial)
    if not (np.any(g1) or np.any(g2)):
        raise ZeroTrial("both trial coefficient vectors vanish")
    lap, norm2 = _volume_terms(context, trial, g1, g2, dbn)
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


def functional_with_matched_values(trial: TrialPair, context: AssemblyContext) -> float:
    """Reduced form valid under value matching on the interface.

    F = [-<Psi|Lap Psi> + (Psi_I | grad_perp Psi_I - grad_perp Psi_II)] / <Psi|Psi>.
    """
    g1, g2, bn, dbn, v1, d1, v2, d2 = _surface_fields(context, trial)
    if not (np.any(g1) or np.any(g2)):
        raise ZeroTrial("both trial coefficient vectors vanish")
    lap, norm2 = _volume_terms(context, trial, g1, g2, dbn)
    ws = context.surface_rule.weights
    H1 = float(np.dot(ws, v1 * (d1 - d2)))
    return (-lap + H1) / norm2


def functional_with_matched_derivatives(trial: TrialPair, context: AssemblyContext) -> float:
    """Reduced form valid under normal-derivative matching on the interface.

    F = [-<Psi|Lap Psi> - (grad_perp Psi_I | Psi_I - Psi_II)] / <Psi|Psi>.
    """
    g1, g2, bn, dbn, v1, d1, v2, d2 = _surface_fields(context, trial)
    if not (np.any(g1) or np.any(g2)):
        raise ZeroTrial("both trial coefficient vectors vanish")
    lap, norm2 = _volume_terms(context, trial, g1, g2, dbn)
    ws = context.surface_rule.weights
    G1 = float(np.dot(ws, d1 * (v1 - v2)))
    return (-lap - G1) / norm2
