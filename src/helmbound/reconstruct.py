"""Full-domain eigenfunction reconstruction, sampling and export.

A converged solve yields a vector a in the compressed coordinates Y of the
context it was solved in, which sets the semicircle part through that
context's factor grid (``AssemblyContext.factor_grid``); the rectangle part
is expanded over the Steklov modes with coefficients fixed by the method's
matching rule:

    DtN:  c_n = (psi_n | trace of Psi_I)            (value matching)
    NtD:  c_n = (psi_n | grad_perp Psi_I) / b_n     (derivative matching)

|Psi|^2 is sampled on a tensor grid covering the bounding box, zeroed
outside the domain, and normalized so the volume-weighted cell sum is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly as _assembly
from .basis import BasisSpec, family_factors
from .errors import IoFailure
from .geometry import INTERFACE_TOL, CompositeDomain, cartesian_to_polar
from .steklov import _guard_neumann, steklov_profile, steklov_table, steklov_trace


@dataclass(frozen=True)
class ModeEstimate:
    """One converged mode: k estimate, its coefficients and the context it was solved in.

    ``a`` holds the semicircle coordinates in the context's compressed
    basis Y, and ``gamma2`` the Steklov coefficients.  ``kappa`` is the
    operator parameter the final matrices were assembled at; it agrees with
    ``k_estimate`` within the iteration tolerance.  The trial family and the
    domain are those of ``context``.
    """

    k_estimate: float
    a: np.ndarray
    gamma2: np.ndarray
    kappa: float
    context: "_assembly.AssemblyContext"


@dataclass(frozen=True)
class GridSpec:
    nx: int = 401
    ny: int = 701


@dataclass(frozen=True)
class FieldGrid:
    """|Psi|^2 samples on a tensor grid; values[i, j] sits at (xs[i], ys[j])."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray

    @property
    def nx(self) -> int:
        return self.xs.size

    @property
    def ny(self) -> int:
        return self.ys.size


def gamma2_coefficients(
    method: "_assembly.Method",
    a: np.ndarray,
    kappa: float,
    context: "_assembly.AssemblyContext",
) -> np.ndarray:
    """Rectangle-side Steklov coefficients for a given semicircle solution.

    ``a`` holds the solution's coordinates in the context's compressed basis
    Y.  The projections P Y a and Q Y a of its interface value and normal
    derivative onto the context's n_modes Steklov traces, read from the
    context's radial factors, give c_n = (psi_n | Psi_I) for DtN and
    (psi_n | grad_perp Psi_I) / b_n for NtD.
    """
    values, derivs = context.radial_coefficients(np.asarray(a, dtype=float))
    if method is _assembly.Method.DTN:
        return context.value_factor @ values
    bn, _ = steklov_table(kappa, context.n_modes, context.domain)
    _guard_neumann(bn, kappa)
    return (context.deriv_factor @ derivs) / bn


# Semicircle points evaluated per block: bounds the (n_max + m_max) x CHUNK
# factor tables, so sampling adds no memory beyond the grid itself.
CHUNK = 4096


def _semicircle_field(spec: BasisSpec, domain: CompositeDomain, G, x, y):
    """sum_ij G_ij R_i A_j at scattered semicircle points, for G on the factor
    grid of ``family_factors``, summed as sum_i R_i (G A)_i, so the M x P
    table of members is never formed."""
    r, phi = cartesian_to_polar(domain, x, y)
    out = np.empty_like(r)
    for lo in range(0, r.size, CHUNK):
        R, A = family_factors(spec, domain, r[lo:lo + CHUNK], phi[lo:lo + CHUNK])
        out[lo:lo + CHUNK] = np.einsum("np,np->p", R, G @ A)
    return out


def sample_field(estimate: ModeEstimate, grid: GridSpec = GridSpec()) -> FieldGrid:
    """Sample normalized |Psi|^2 on a grid covering [-a, a] x [-b, a] of the estimate's domain.

    Semicircle cells, the interface row (|y| <= INTERFACE_TOL) included,
    take |sum G_ij R_i A_j|^2 with G = ``context.factor_grid(a)``, rectangle
    cells |sum c_n psi_n(k)|^2 at the estimate's k, outside cells 0.  The
    semicircle sum runs over blocks of CHUNK points through the separable
    factors R, A of ``family_factors``; the rectangle block is one product
    (X^T c) Y of the Steklov traces X (modes x columns) and the y-profiles Y
    (modes x rows), over the modes with c_n != 0.
    """
    ctx = estimate.context
    domain = ctx.domain
    a, b = domain.a, domain.b
    xs = np.linspace(-a, a, grid.nx)
    ys = np.linspace(-b, a, grid.ny)
    values = np.zeros((grid.nx, grid.ny))

    x = xs[:, None]
    i, j = np.nonzero((ys > -INTERFACE_TOL) & (x * x + ys * ys < a * a))
    if i.size:
        field = _semicircle_field(ctx.spec, domain, ctx.factor_grid(estimate.a), xs[i], ys[j])
        values[i, j] = field**2

    rect_rows = ys < -INTERFACE_TOL
    y_rect = ys[rect_rows]
    in_x = np.abs(xs) < a
    if np.any(rect_rows):
        c = estimate.gamma2
        n = np.flatnonzero(c) + 1
        traces = steklov_trace(n[:, None], domain, xs[in_x][None, :])
        block = (traces.T * c[n - 1]) @ steklov_profile(estimate.k_estimate, n, domain, y_rect)
        values[np.ix_(in_x, rect_rows)] = block**2

    dx = xs[1] - xs[0] if grid.nx > 1 else 2 * a
    dy = ys[1] - ys[0] if grid.ny > 1 else a + b
    total = values.sum() * dx * dy
    if total > 0:
        values = values / total
    return FieldGrid(xs=xs, ys=ys, values=values)


def export_grid(grid: FieldGrid, fmt: str, path) -> None:
    """Write the grid as CSV ("x,y,value", 9 significant digits) or plain PGM.

    CSV has one line per cell, x-major: ``f"{x:.9g},{y:.9g},{value:.9g}"``.
    PGM output is P2 with maxval 65535; values scale linearly so the grid
    maximum maps to 65535 (an all-zero grid stays all-zero), rows run top
    to bottom (y descending), columns left to right (x ascending).

    Both writers format a whole grid row per call: the x/y labels are
    printed once per grid, each row's line template is assembled from them,
    and the row's values are filled in with one ``%`` substitution.
    """
    fmt = fmt.lower()
    if fmt not in ("csv", "pgm"):
        raise ValueError(f"unsupported format {fmt!r}")
    try:
        if fmt == "csv":
            # x.join(tails) = x,y_0,%.9g\n x,y_1,%.9g\n ... for one x-row
            tails = [""] + [f",{y:.9g},%.9g\n" for y in grid.ys.tolist()]
            with open(path, "w", newline="\n") as fh:
                fh.write("x,y,value\n")
                for x, row in zip(grid.xs.tolist(), grid.values):
                    fh.write(f"{x:.9g}".join(tails) % tuple(row.tolist()))
        else:
            vmax = float(grid.values.max())
            scale = 65535.0 / vmax if vmax > 0 else 0.0
            raster = np.rint(grid.values * scale).astype(np.int64)
            line = " ".join(["%d"] * grid.nx) + "\n"
            with open(path, "w", newline="\n") as fh:
                fh.write("P2\n")
                fh.write(f"{grid.nx} {grid.ny}\n")
                fh.write("65535\n")
                for j in range(grid.ny - 1, -1, -1):
                    fh.write(line % tuple(raster[:, j].tolist()))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def interface_mismatch(estimate: ModeEstimate) -> tuple[float, float]:
    """L2 norms of the value and normal-derivative jumps across the interface.

    Both sides are evaluated at the interface nodes of the estimate's
    context, from its radial interface rows at the estimate's a.
    DtN solutions have (by construction) only the Steklov-truncation tail in
    the value jump; NtD solutions the analogue in the derivative jump.
    """
    context = estimate.context
    *_, v1, d1, v2, d2 = _assembly._surface_fields(context, estimate)
    ws = context.surface_rule.weights
    norm = np.sqrt(float(np.dot(ws, v1 * v1))) or 1.0
    value_jump = np.sqrt(float(np.dot(ws, (v1 - v2) ** 2)))
    deriv_jump = np.sqrt(float(np.dot(ws, (d1 - d2) ** 2)))
    return value_jump / norm, deriv_jump / norm
