"""Independent finite-difference reference for the membrane eigenproblem.

The Shortley-Weller cut-cell Laplacian on a uniform grid (Shortley & Weller
1938; Fox, Henrici & Moler 1967).  Where a grid neighbour lies outside the
shape, the stencil reaches to the wall along that axis instead, so the arc
and any wall that falls between grid lines keep the scheme second order:
eigenvalue errors are O(h^2), and Richardson extrapolation from the
spacings (h, h/2) cancels the leading term.  On a grid-aligned wall the
stencil is the plain 5-point one.

Deliberately unrelated to the embedding pipeline: different discretization,
different eigensolver (sparse shift-invert Arnoldi), no shared code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import GridTooCoarse, IterationStalled
from .geometry import CompositeDomain

MIN_POINTS_ACROSS = 10
# A node closer to a wall than this fraction of h counts as a wall node, so
# rounding in the node coordinates never makes a vanishing stencil arm.
WALL_MARGIN = 1e-9
# The cut-cell operator is not symmetric; its spectrum is real, so an
# imaginary part above this fraction of the largest |lambda| is a failed solve.
IMAG_TOL = 1e-8


@dataclass(frozen=True)
class Rectangle:
    """Plain rectangle (0, width) x (0, height) with Dirichlet walls."""

    width: float
    height: float


@dataclass(frozen=True)
class FdmProblem:
    """Interior grid of a shape: spacing, node coordinates, inside mask."""

    h: float
    xs: np.ndarray
    ys: np.ndarray
    mask: np.ndarray  # (nx, ny) bool

    @property
    def n_unknowns(self) -> int:
        return int(self.mask.sum())


def _frame(shape):
    """(x centre, x half-width, y bottom, y top, smallest dimension)."""
    if isinstance(shape, Rectangle):
        half = 0.5 * shape.width
        return half, half, 0.0, shape.height, min(shape.width, shape.height)
    if isinstance(shape, CompositeDomain):
        return 0.0, shape.a, -shape.b, shape.a, min(shape.a, shape.b)
    raise TypeError(f"unsupported shape {type(shape).__name__}")


def _x_walls(shape, y):
    """Walls (lo, hi) met along the horizontal line through height y."""
    if isinstance(shape, Rectangle):
        return np.zeros_like(y), np.full_like(y, shape.width)
    a = shape.a
    half = np.where(y > 0, np.sqrt(np.maximum(a * a - y * y, 0.0)), a)
    return -half, half


def _y_walls(shape, x):
    """Walls (lo, hi) met along the vertical line through abscissa x."""
    if isinstance(shape, Rectangle):
        return np.zeros_like(x), np.full_like(x, shape.height)
    a = shape.a
    return np.full_like(x, -shape.b), np.sqrt(np.maximum(a * a - x * x, 0.0))


def build_fdm_problem(shape, h: float) -> FdmProblem:
    """Grid nodes strictly inside the shape at spacing h.

    The grid is anchored on the shape's x-symmetry axis and on y = 0 (the
    interface of the composite domain, the bottom wall of a Rectangle), so
    it is mirror-symmetric in x and any h works; walls need not fall on
    grid lines.
    """
    cx, half, y0, y1, min_dim = _frame(shape)
    if min_dim / h < MIN_POINTS_ACROSS:
        raise GridTooCoarse(f"fewer than {MIN_POINTS_ACROSS} points span the smallest dimension")
    n_half = int(np.ceil(half / h)) - 1
    xs = cx + h * np.arange(-n_half, n_half + 1)
    ys = h * np.arange(int(np.floor(y0 / h)) + 1, int(np.ceil(y1 / h)))
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    x_lo, x_hi = _x_walls(shape, Y)
    y_lo, y_hi = _y_walls(shape, X)
    margin = WALL_MARGIN * h
    mask = (X > x_lo + margin) & (X < x_hi - margin) & (Y > y_lo + margin) & (Y < y_hi - margin)
    return FdmProblem(h=h, xs=xs, ys=ys, mask=mask)


def _laplacian(shape, problem: FdmProblem) -> sp.csr_matrix:
    """Positive Shortley-Weller operator -Lap_h with Dirichlet walls built in.

    Per axis, with arms h- and h+ to the neighbouring node or, where that
    lies outside, to the wall: diagonal 2/(h- h+), the neighbour on the h-
    side -2/(h- (h- + h+)), likewise on the h+ side; wall neighbours drop out.
    """
    h = problem.h
    mask = problem.mask
    nx, ny = mask.shape
    index = np.full((nx + 2, ny + 2), -1, dtype=np.int64)  # padded: off-grid reads -1
    ii, jj = np.nonzero(mask)
    n = ii.size
    rows_all = np.arange(n)
    index[ii + 1, jj + 1] = rows_all
    x, y = problem.xs[ii], problem.ys[jj]
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for (lo, hi), pos, (di, dj) in (
        (_x_walls(shape, y), x, (1, 0)),
        (_y_walls(shape, x), y, (0, 1)),
    ):
        arm_lo = np.minimum(h, pos - lo)
        arm_hi = np.minimum(h, hi - pos)
        diag += 2.0 / (arm_lo * arm_hi)
        for step, arm in ((-1, arm_lo), (1, arm_hi)):
            neighbour = index[ii + 1 + step * di, jj + 1 + step * dj]
            ok = neighbour >= 0
            rows.append(rows_all[ok])
            cols.append(neighbour[ok])
            vals.append(-2.0 / (arm[ok] * (arm_lo[ok] + arm_hi[ok])))
    rows.append(rows_all)
    cols.append(rows_all)
    vals.append(diag)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def fdm_eigen(shape, h: float, num_modes: int):
    """Smallest num_modes eigenpairs of -Lap_h; returns (problem, [(k, field), ...]).

    Fields come back on the full grid (zeros outside the mask), ascending
    in k, scaled so their largest-magnitude entry is positive.
    Deterministic: the Arnoldi start vector is fixed.  Raises
    IterationStalled when ARPACK does not converge or returns eigenvalues
    that are not real.
    """
    problem = build_fdm_problem(shape, h)
    A = _laplacian(shape, problem)
    # The sparsity pattern is symmetric: ordering on A + A^T roughly halves the
    # LU fill of eigs' default (COLAMD), and with it the shift-invert solves.
    lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    inverse = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float)
    v0 = np.ones(A.shape[0])
    try:
        lam, vecs = spla.eigs(A, k=num_modes, sigma=0.0, which="LM", v0=v0, OPinv=inverse)
    except spla.ArpackNoConvergence as exc:
        raise IterationStalled(f"eigensolve stalled: {exc}") from exc
    if np.max(np.abs(lam.imag)) > IMAG_TOL * np.max(np.abs(lam)):
        raise IterationStalled(f"eigensolve returned complex eigenvalues {lam}")
    out = []
    for j in np.argsort(lam.real):
        vec = vecs[:, j]
        peak = vec[np.argmax(np.abs(vec))]
        field = np.zeros(problem.mask.shape)
        field[problem.mask] = (vec * (abs(peak) / peak)).real  # peak onto the positive axis
        out.append((float(np.sqrt(lam[j].real)), field))
    return problem, out


def field_parity(problem: FdmProblem, field: np.ndarray) -> str:
    """Classify a grid field as even/odd in x (the grid is x-symmetric)."""
    mirrored = field[::-1, :]
    scale = np.linalg.norm(field)
    if scale == 0:
        return "none"
    even_err = np.linalg.norm(field - mirrored) / scale
    odd_err = np.linalg.norm(field + mirrored) / scale
    if even_err < 0.1 and even_err < odd_err:
        return "even"
    if odd_err < 0.1:
        return "odd"
    return "none"


def richardson_eigen(shape, h: float, num_modes: int):
    """Eigenvalues from spacings (h, h/2) combined by Richardson.

    The scheme is O(h^2), so lam = (4 lam_{h/2} - lam_h) / 3.  Both grids
    are classified by parity and modes pair by (parity, rank): the r-th
    mode of a parity on the coarse grid meets the r-th of that parity on
    the fine grid, so a near-degenerate pair that swaps order between the
    grids is never mixed.  A mode without a partner is dropped.  Returns a
    list of (k_extrapolated, parity), ascending in k, plus the matching raw
    (k_h, k_{h/2}) list.
    """
    problem_c, coarse = fdm_eigen(shape, h, num_modes)
    problem_f, fine = fdm_eigen(shape, h / 2.0, num_modes)
    coarse_k = {}
    for k1, field1 in coarse:
        coarse_k.setdefault(field_parity(problem_c, field1), []).append(k1)
    rank = {}
    paired = []
    for k2, field2 in fine:
        parity = field_parity(problem_f, field2)
        r = rank[parity] = rank.get(parity, -1) + 1
        if r < len(coarse_k.get(parity, ())):
            k1 = coarse_k[parity][r]
            lam = (4.0 * k2 * k2 - k1 * k1) / 3.0
            paired.append((float(np.sqrt(lam)), parity, k1, k2))
    paired.sort()
    return [(k, parity) for k, parity, _, _ in paired], [(k1, k2) for _, _, k1, k2 in paired]
