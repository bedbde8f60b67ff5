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
from .errors import GridTooCoarse, IoFailure
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

# Image rows whose PGM digits are built per block: bounds the writer's
# int32 pixels and digit bytes to PGM_ROWS x nx, so no full-grid raster is formed.
PGM_ROWS = 32


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

    The x nodes a (2i - (nx-1)) / (nx-1) are exact mirror pairs (nx = 1
    samples x = 0), and every mode is even or odd in x, so only the x >= 0
    rows (i >= nx // 2) are evaluated and the x < 0 rows are copied from
    their mirrors: the density is exactly even in x.  The half's BLAS
    products are smaller than a whole grid's, so a cell can differ from a
    whole-grid evaluation in its last bits.  A grid with no node inside the
    domain (nx = 2, or ny = 1: the wall y = -b) raises GridTooCoarse.
    """
    ctx = estimate.context
    domain = ctx.domain
    a, b = domain.a, domain.b
    xs = a * (2 * np.arange(grid.nx) - (grid.nx - 1)) / max(grid.nx - 1, 1)
    ys = np.linspace(-b, a, grid.ny)
    values = np.zeros((grid.nx, grid.ny))
    half = grid.nx // 2
    right, x = values[half:], xs[half:]  # the x >= 0 rows, a view and their nodes

    col = x[:, None]
    i, j = np.nonzero((ys > -INTERFACE_TOL) & (col * col + ys * ys < a * a))
    rect_rows = ys < -INTERFACE_TOL
    y_rect = ys[rect_rows]
    in_x = x < a
    if not (i.size or (in_x.any() and np.any(y_rect > -b))):
        raise GridTooCoarse(f"the {grid.nx}x{grid.ny} field grid has no node inside the domain")
    if i.size:
        field = _semicircle_field(ctx.spec, domain, ctx.factor_grid(estimate.a), x[i], ys[j])
        right[i, j] = field**2

    if np.any(rect_rows):
        c = estimate.gamma2
        n = np.flatnonzero(c) + 1
        traces = steklov_trace(n[:, None], domain, x[in_x][None, :])
        block = (traces.T * c[n - 1]) @ steklov_profile(estimate.k_estimate, n, domain, y_rect)
        right[np.ix_(in_x, rect_rows)] = block**2
    values[:half] = values[::-1][:half]

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

    The CSV writer formats a whole grid row per call: the x/y labels are
    printed once per grid, each row's line template is assembled from them,
    and the row's values are filled in with one ``%`` substitution.  A CSV
    row j > nx - 1 - j equal bit for bit to its mirror row is not formatted:
    the mirror's text is read back from the file with the x label at each
    line start swapped, so one row's text is held at a time.

    The PGM writer builds its digits with numpy, PGM_ROWS image rows at a
    time: the block's pixels rint(value * scale) as int32, five decimal
    digits per pixel by repeated integer division by 10, and a separator
    byte (a space, or a newline after a row's last pixel); a mask drops each
    pixel's leading zeros, and the kept bytes are written in one call.  The
    bytes are those of a ``" ".join(str(pixel) ...)`` line per image row.

    A grid with a NaN or infinite cell, or (for PGM) a cell that would give
    a negative pixel, raises IoFailure before the file is opened, so no
    partial file is left.
    """
    fmt = fmt.lower()
    if fmt not in ("csv", "pgm"):
        raise ValueError(f"unsupported format {fmt!r}")
    bad = grid.values.size - np.count_nonzero(np.isfinite(grid.values))
    if bad:
        raise IoFailure(f"cannot write {path}: {bad} non-finite grid cells")
    try:
        if fmt == "csv":
            # x.join(tails) = x,y_0,%.9g\n x,y_1,%.9g\n ... for one x-row
            tails = [""] + [f",{y:.9g},%.9g\n" for y in grid.ys.tolist()]
            labels = [f"{x:.9g}" for x in grid.xs.tolist()]
            copies = {}  # row -> offset, length and line start of the earlier row it repeats
            with open(path, "w+b") as fh:
                fh.write(b"x,y,value\n")
                for i, (label, row) in enumerate(zip(labels, grid.values)):
                    if i in copies:
                        offset, length, start = copies.pop(i)
                        fh.seek(offset)  # flushes the pending writes first
                        text = b"\n" + fh.read(length)
                        fh.seek(0, 2)  # back to the end of the file
                        fh.write(text.replace(start, f"\n{label},".encode())[1:])
                    else:
                        offset = fh.tell()
                        length = fh.write((label.join(tails) % tuple(row.tolist())).encode())
                        mirror = grid.nx - 1 - i
                        if i < mirror and row.tobytes() == grid.values[mirror].tobytes():
                            copies[mirror] = offset, length, f"\n{label},".encode()
        else:
            vmax = float(grid.values.max())
            scale = 65535.0 / vmax if vmax > 0 else 0.0
            if np.rint(grid.values.min() * scale) < 0:
                raise IoFailure(f"cannot write {path}: a PGM pixel would be negative")
            # per pixel: five decimal digits, most significant first, then a separator
            chars = np.empty((PGM_ROWS, grid.nx, 6), dtype=np.uint8)
            chars[..., 5] = ord(" ")
            chars[:, -1, 5] = ord("\n")
            keep = np.ones(chars.shape, dtype=bool)  # the units digit and separator stay
            # built contiguous, then copied into chars in one strided store
            digits = np.empty((5, PGM_ROWS, grid.nx), dtype=np.uint8)
            places = np.array([10000, 1000, 100, 10], dtype=np.int32)[:, None, None]
            with open(path, "wb") as fh:
                fh.write(f"P2\n{grid.nx} {grid.ny}\n65535\n".encode())
                for top in range(grid.ny, 0, -PGM_ROWS):
                    rows = min(top, PGM_ROWS)
                    # image rows run top to bottom: grid columns top - 1 down to top - rows
                    block = grid.values[:, top - rows:top][:, ::-1].T
                    pixels = np.rint(block * scale).astype(np.int32)
                    rest = pixels
                    for place in range(4, -1, -1):
                        quot = rest // 10
                        digits[place, :rows] = rest - 10 * quot  # rest % 10, one division fewer
                        rest = quot
                    digits[:, :rows] += ord("0")
                    np.moveaxis(chars, -1, 0)[:5, :rows] = digits[:, :rows]
                    np.moveaxis(keep, -1, 0)[:4, :rows] = pixels >= places
                    fh.write(chars[:rows][keep[:rows]].tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _surface_fields(ctx: "_assembly.AssemblyContext", a, gamma2, kappa: float):
    """(v1, d1, v2, d2): the values and normal derivatives at the context's
    interface nodes of the semicircle part Y a, read from its radial
    interface rows, and of the rectangle part sum gamma2_n psi_n, whose
    normal derivative is sum b_n(kappa) gamma2_n psi_n."""
    n = np.arange(1, gamma2.size + 1)
    bn, _ = steklov_table(kappa, gamma2.size, ctx.domain)
    psi = steklov_trace(n[:, None], ctx.domain, ctx.surface_rule.nodes[None, :])
    values, derivs = ctx.radial_coefficients(a)
    return values @ ctx.radial_values, derivs @ ctx.radial_derivs, gamma2 @ psi, (bn * gamma2) @ psi


def interface_mismatch(estimate: ModeEstimate) -> tuple[float, float]:
    """L2 norms of the value and normal-derivative jumps across the interface.

    Both sides are evaluated at the interface nodes of the estimate's
    context, from its radial interface rows at the estimate's a.
    DtN solutions have (by construction) only the Steklov-truncation tail in
    the value jump; NtD solutions the analogue in the derivative jump.
    """
    context = estimate.context
    v1, d1, v2, d2 = _surface_fields(context, estimate.a, estimate.gamma2, estimate.kappa)
    ws = context.surface_rule.weights
    norm = np.sqrt(float(np.dot(ws, v1 * v1))) or 1.0
    value_jump = np.sqrt(float(np.dot(ws, (v1 - v2) ** 2)))
    deriv_jump = np.sqrt(float(np.dot(ws, (d1 - d2) ** 2)))
    return value_jump / norm, deriv_jump / norm
