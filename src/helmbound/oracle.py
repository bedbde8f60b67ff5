"""Independent finite-difference reference for the membrane eigenproblem.

The Shortley-Weller cut-cell Laplacian on a uniform grid (Shortley & Weller
1938; Fox, Henrici & Moler 1967).  Where a grid neighbour lies outside the
shape, the stencil reaches to the wall along that axis instead, so the arc
and any wall that falls between grid lines keep the scheme second order:
eigenvalue errors are O(h^2), and Richardson extrapolation from the
spacings (h, h/2) cancels the leading term.  On a grid-aligned wall the
stencil is the plain 5-point one.

The grid is mirror-symmetric in x, so A = -Lap_h splits exactly into an
even and an odd block on the half grid (the columns from the axis, or from
the axis + h), whose rows are A's rows of the half nodes: the even block
folds the neighbour across the axis onto column 1, and the odd block, whose
modes vanish on the axis, meets the axis as a wall at distance h.  Mirrored
with its parity's sign, each eigenvector of a block is an exactly even or
odd mode of A.  Each block is solved for num_modes of its parity; A itself
is never built.  A mode is known by its (parity, rank): each parity's modes
stay in their own list, ascending in k, from the block that solves them to
the Richardson pairs, so rank r of a parity sits at index r - 1.

Below y = 0 the composite's walls are straight, so there (and everywhere in
a Rectangle) a block's rows form a Kronecker sum Tx (x) I + I (x) Ty of two
tridiagonals, each with its own axis's arms and diagonal.  A block orders
its unknowns [these tensor rows | the rest (the semicircle and the y = 0
row)], each part x-major, and keeps the tensor rows only as Tx and Ty, which
meet the rest only through their top row, y = -h.  Each shift-invert solve
eliminates the tensor rows by fast diagonalization (Lynch, Rice & Thomas
1964) and solves their Schur complement on the rest (Buzbee, Dorr, George &
Golub 1971) with that complement's one sparse LU.

The coarse grid of a Richardson pair starts from sigma = 0 and an all-ones
vector.  The fine grid starts from the coarse solve: its Arnoldi start
vector is the sum of the parity's coarse fields interpolated onto the fine
grid, and sigma is 0.9 times the lowest coarse eigenvalue of that parity.
The O(h^2) change between the grids is far under 10 %, so every eigenvalue
of the fine block lies above sigma and the eigenvalues nearest sigma are
still the lowest.  The start changes how many solves Arnoldi needs, not
the eigenvalues it converges to.

Deliberately unrelated to the embedding pipeline: different discretization,
different eigensolver (sparse shift-invert Arnoldi), no shared code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dgemm, dgemv

from .errors import GridTooCoarse, IterationStalled
from .geometry import CompositeDomain

MIN_POINTS_ACROSS = 10
# A node closer to a wall than this fraction of h counts as a wall node, so
# rounding in the node coordinates never makes a vanishing stencil arm.
WALL_MARGIN = 1e-9
# The cut-cell operator is not symmetric, and its spectrum is real only low
# down: at b = 1.5, dense eigvals of the mirror blocks give complex pairs from
# rank 102 of the even block at h = 0.1, rank 254 of the odd block at h = 1/16
# and rank 139 of the even block at h = 1/32.  The few lowest modes read
# here are real, so an imaginary part above this fraction of the largest
# |lambda| is a failed solve (or a num_modes that reaches the complex pairs).
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


class _Block(NamedTuple):
    """A parity block, unknowns [tensor rows | rest], each part x-major (see the module docstring)."""

    nodes: np.ndarray  # flat full-grid position of each unknown
    tx: tuple  # Tx as (lower, diagonal, upper), over the n_x tensor columns
    ty: tuple  # Ty likewise, over the n_y tensor rows
    rest: sp.csr_matrix  # the rest's rows on the rest
    to_top: sp.csr_matrix  # the rest's rows on the tensor top row (n_rest x n_x)
    from_top: sp.csr_matrix  # the tensor top row's rows on the rest (n_x x n_rest)


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


def _weights(h: float, lo, hi, pos):
    """Shortley-Weller weights along one axis, (diagonal, lower neighbour, upper neighbour).

    With arms h- and h+ to the neighbouring node or, where that lies
    outside, to the wall: 2/(h- h+), -2/(h- (h- + h+)) and -2/(h+ (h- + h+)).
    """
    arm_lo = np.minimum(h, pos - lo)
    arm_hi = np.minimum(h, hi - pos)
    span = arm_lo + arm_hi
    return 2.0 / (arm_lo * arm_hi), -2.0 / (arm_lo * span), -2.0 / (arm_hi * span)


def _factor(h: float, walls, pos):
    """(lower, diagonal, upper) of one axis's tridiagonal along a full line of nodes at pos."""
    diag, lower, upper = _weights(h, *walls, pos)
    return lower[1:], diag, upper[:-1]


def _block(shape, problem: FdmProblem, parity: str) -> _Block:
    """One parity's block of A, built on its half grid (see the module docstring)."""
    h, xs, ys = problem.h, problem.xs, problem.ys
    first = xs.size // 2 + (parity == "odd")  # the half grid's first column
    half = problem.mask[first:]
    below = ys < 0.0 if isinstance(shape, CompositeDomain) else np.ones(ys.size, bool)
    tensor = half & below
    order = np.concatenate((np.flatnonzero(tensor), np.flatnonzero(half & ~below)))
    cols, rows = np.flatnonzero(tensor.any(axis=1)), np.flatnonzero(tensor.any(axis=0))
    n_x, n_y = cols.size, rows.size
    n_t, n_r = n_x * n_y, order.size - n_x * n_y
    x = xs[first:]
    tx = _factor(h, _x_walls(shape, ys[rows[:1]]), x[cols])
    ty = _factor(h, _y_walls(shape, x[cols[:1]]), ys[rows])
    # block position of each half node, padded all round by one off-grid (-1) node
    index = np.full((half.shape[0] + 2, half.shape[1] + 2), -1)
    index[1:-1, 1:-1].flat[order] = np.arange(order.size)
    if parity == "even":  # the neighbour across the axis is column 1's mirror
        tx[2][0] *= 2.0  # an axis node's two arms are equal
        index[0] = index[2]
    # the rows of the tensor top row and of the rest, in that order
    ii, jj = np.unravel_index(np.concatenate((order[n_y - 1:n_t:n_y], order[n_t:])), half.shape)
    diag = 0.0
    r, c, w = [], [], []
    for walls, pos, (di, dj) in ((_x_walls(shape, ys[jj]), x[ii], (1, 0)),
                                 (_y_walls(shape, x[ii]), ys[jj], (0, 1))):
        d, *sides = _weights(h, *walls, pos)
        diag = diag + d
        for step, weight in zip((-1, 1), sides):
            neighbour = index[ii + 1 + step * di, jj + 1 + step * dj]
            ok = neighbour >= 0
            r.append(np.flatnonzero(ok))
            c.append(neighbour[ok])
            w.append(weight[ok])
    r, c, w = map(np.concatenate, (r, c, w))
    in_rest, on_rest = r >= n_x, c >= n_t
    own, up, down = in_rest & on_rest, in_rest & ~on_rest, ~in_rest & on_rest
    diagonal = np.arange(n_r)
    rest = sp.csr_matrix((np.concatenate((w[own], diag[n_x:])),
                          (np.concatenate((r[own] - n_x, diagonal)),
                           np.concatenate((c[own] - n_t, diagonal)))), shape=(n_r, n_r))
    # a rest node meets only the tensor top row, whose node in column i is i n_y + n_y - 1
    to_top = sp.csr_matrix((w[up], (r[up] - n_x, c[up] // n_y)), shape=(n_r, n_x))
    from_top = sp.csr_matrix((w[down], (r[down], c[down] - n_t)), shape=(n_x, n_r))
    return _Block(order + first * ys.size, tx, ty, rest, to_top, from_top)


def _coarse_start(problem: FdmProblem, start, parity: str, nodes: np.ndarray):
    """(v0, sigma) of one block from a coarser solve of the shape (see the module docstring).

    The coarse fields are interpolated bilinearly onto this grid: both grids
    hang from the x-symmetry axis and y = 0.
    """
    coarse, modes = start
    ks, fields = zip(*modes[parity])
    total = np.sum(fields, axis=0)
    along_x = np.array([np.interp(problem.xs, coarse.xs, column) for column in total.T])
    fine = np.array([np.interp(problem.ys, coarse.ys, row) for row in along_x.T])
    return fine.ravel()[nodes], 0.9 * min(ks) ** 2


def _eig(lo, d, up):
    """(lambda, V, V^-1) of the tridiagonal M = (lo, d, up), whose off-diagonal products are positive.

    With S = diag(s), s_{i+1} / s_i = sqrt(M_{i,i+1} / M_{i+1,i}), S M S^-1 is
    symmetric, its off-diagonal +-sqrt(M_{i,i+1} M_{i+1,i}) with M_{i,i+1}'s
    sign; for its orthonormal eigenvectors Q, V = S^-1 Q and V^-1 = Q^T S.
    Raises ValueError if a product is not positive.
    """
    if not np.all(lo * up > 0.0):
        raise ValueError("a tensor factor is not similar to a symmetric tridiagonal")
    s = np.cumprod(np.r_[1.0, np.sqrt(up / lo)])
    lam, Q = eigh_tridiagonal(d, np.copysign(np.sqrt(lo * up), up))
    return lam, Q / s[:, None], Q.T * s


def _shift_invert(block: _Block, sigma: float) -> spla.LinearOperator:
    """r -> (B - sigma I)^-1 r for a parity block B.

    (T - sigma I)^-1 = (Vx (x) Vy) diag(1 / (lx + ly - sigma)) (Vx^-1 (x) Vy^-1)
    for the tensor rows' block T = Tx (x) I + I (x) Ty, from the two 1-D
    eigendecompositions (fast diagonalization).  The Schur complement on the
    rest R is R - sigma I less one dense block C G D: G is the top row's own
    block of (T - sigma I)^-1, and C and D are the couplings to and from that
    row.  sigma lies below every eigenvalue of B, so also below every
    lx + ly (T is a principal submatrix of an M-matrix).  A Rectangle has no
    rest, and its LU is empty.  The transforms are accurate to about eps
    times T's largest entry, not componentwise: k of a 2 x 2.5 rectangle at
    h = 1/128 lie 1.7e-12 from exact, against 1.4e-13 for a whole-block LU.
    """
    (lam_x, Vx, Vx_inv), (lam_y, Vy, Vy_inv) = _eig(*block.tx), _eig(*block.ty)
    n_x, n_y = lam_x.size, lam_y.size
    n_t, n_r = n_x * n_y, block.rest.shape[0]
    C, D = block.to_top, block.from_top
    scale = 1.0 / (lam_x[:, None] + lam_y - sigma)
    G = (Vx * (scale @ (Vy[-1] * Vy_inv[:, -1]))) @ Vx_inv
    schur = block.rest - sigma * sp.identity(n_r) - C @ sp.csr_matrix(G) @ D
    # The sparsity pattern is symmetric: ordering on S + S^T halves the LU fill
    # of SuperLU's default (COLAMD), 574,596 against 1,158,282 L+U nonzeros on
    # the b = 1.5, h = 1/128 even block, and with it the solves.  Smaller
    # supernodes than SuperLU's default factor it faster at the same fill.
    # Scan on the six h = 1/128 blocks at b = 1.2, 1.5, 1.8 (12,985 even and
    # 12,857 odd unknowns; 1 BLAS thread, 15 interleaved repeats; per-block
    # medians over the default of 36-41 ms per factorization and 1.1-1.3 ms
    # per solve):
    #   relax, panel_size   factor      solve
    #   1, 2                0.66-0.75   0.81-0.99
    #   2, 2                0.66-0.76   0.87-1.12
    #   3, 2                0.66-0.74   0.85-0.98
    #   1, 4                0.66-0.78   0.80-0.97
    #   3, 4                0.74-0.90   0.90-1.15
    #   4, 4                0.66-0.79   0.84-0.98
    #   6, 4                0.67-0.77   0.81-1.06
    #   3, 8                0.77-0.84   0.82-0.99
    #   6, 8                0.74-0.83   0.85-1.18
    # richardson_eigen at h = 1/64, 2 modes, over the same three depths took
    # 0.42-0.48 s (medians of 12) with (2, 2), 0.42-0.49 s with (3, 4) and
    # 0.45-0.52 s at the default.
    lu = spla.splu(schur.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=2, panel_size=2)

    # The transforms call scipy's BLAS, which ARPACK and SuperLU use too.
    # numpy's wheel bundles its own OpenBLAS, and with numpy's matmul here the
    # switches between the two thread pools made richardson_eigen at b = 1.5,
    # h = 1/64, 8 modes, take 1.6-1.8 s at 2 BLAS threads against 0.8 s at 1
    # (0.87 s at 2 threads with scipy's BLAS).  Both parts of rhs are
    # contiguous views: the tensor rows as an n_x x n_y grid, then the rest.
    def solve(rhs):
        z = dgemm(1.0, dgemm(1.0, Vx_inv, rhs[:n_t].reshape(n_x, n_y)), Vy_inv, trans_b=1) * scale
        x_rest = lu.solve(rhs[n_t:] - C @ dgemv(1.0, Vx, dgemv(1.0, z, Vy[-1])))
        z -= np.outer(dgemv(1.0, Vx_inv, D @ x_rest), Vy_inv[:, -1]) * scale
        return np.concatenate((dgemm(1.0, dgemm(1.0, Vx, z), Vy, trans_b=1).ravel(), x_rest))

    return spla.LinearOperator((n_t + n_r, n_t + n_r), matvec=solve, dtype=float)


def _block_modes(shape, problem: FdmProblem, parity: str, num_modes: int, start=None):
    """The num_modes lowest (k, field) of one parity's block, ascending in k.

    A coarse start (problem, modes) gives v0, the shift and a basis of
    2 num_modes + 2 Arnoldi vectors; without one, shift 0, v0 = ones and
    ARPACK's default basis.  Each shift-invert solve is _shift_invert's:
    one transform of the tensor rows, one solve with the Schur complement's
    sparse LU and one back transform.  That LU is freed on return, before
    the next block is factored."""
    block = _block(shape, problem, parity)
    n = block.nodes.size
    if num_modes >= n - 1:  # ARPACK finds at most n - 2 eigenvalues
        raise GridTooCoarse(f"the {parity} block has {n} unknowns, too few for "
                            f"{num_modes} modes (need more than num_modes + 1)")
    v0, sigma, ncv = np.ones(n), 0.0, None
    if start is not None:
        v0, sigma = _coarse_start(problem, start, parity, block.nodes)
        ncv = min(n - 1, 2 * num_modes + 2)
    inverse = _shift_invert(block, sigma)
    # With a real shift and OPinv, eigs never multiplies by its first
    # argument, whose shape and dtype alone it reads.
    try:
        lam, vecs = spla.eigs(inverse, k=num_modes, sigma=sigma, which="LM", v0=v0, ncv=ncv,
                              OPinv=inverse)
    except spla.ArpackNoConvergence as exc:
        raise IterationStalled(f"eigensolve stalled: {exc}") from exc
    imag = np.max(np.abs(lam.imag)) / np.max(np.abs(lam))
    if imag > IMAG_TOL:
        raise IterationStalled(f"eigensolve returned complex eigenvalues ({parity} block, "
                               f"largest |Im lambda| / |lambda|max = {imag:.2e})")
    centre = problem.xs.size // 2
    modes = []
    for j in np.argsort(lam.real):
        vec = vecs[:, j]
        peak = vec[np.argmax(np.abs(vec))]
        field = np.zeros(problem.mask.shape)
        field.flat[block.nodes] = (vec * (abs(peak) / peak)).real  # peak onto the positive axis
        field[:centre] = (1.0 if parity == "even" else -1.0) * field[:centre:-1]
        modes.append((float(np.sqrt(lam[j].real)), field))
    return modes


def fdm_eigen(shape, h: float, num_modes: int, start=None):
    """num_modes smallest eigenpairs of -Lap_h per parity; returns (problem, modes).

    modes is {"even": [(k, field), ...], "odd": [...]}, each list ascending
    in k, so a parity's rank r sits at index r - 1.  Fields come back on
    the full grid (zeros outside the mask), exactly even or odd in x, with
    their largest-magnitude half-grid entry positive.  start, the (problem,
    modes) of a coarser fdm_eigen of the same shape, seeds each block's
    Arnoldi start vector and shift (see _coarse_start); without it the
    shift is 0 and the start vector all ones.  Deterministic: the Arnoldi
    start vector is fixed by the coarse solve, or all ones without one.
    Raises IterationStalled when ARPACK does not converge or returns
    eigenvalues that are not real.
    """
    problem = build_fdm_problem(shape, h)
    return problem, {parity: _block_modes(shape, problem, parity, num_modes, start)
                     for parity in ("even", "odd")}


def richardson_eigen(shape, h: float, num_modes: int):
    """Eigenvalues from spacings (h, h/2) combined by Richardson, num_modes per parity.

    The scheme is O(h^2), so lam = (4 lam_{h/2} - lam_h) / 3.  Modes pair
    by (parity, rank): the r-th mode of a parity on the coarse grid meets
    the r-th of that parity on the fine grid, so a near-degenerate pair that
    swaps order between the grids is never mixed.  The fine solve starts
    from the coarse one (fdm_eigen's start): same eigenvalues, fewer
    shift-invert solves.  Returns {"even": [(k_extrapolated, k_h, k_{h/2}),
    ...], "odd": [...]}, each list in rank order.
    """
    start = fdm_eigen(shape, h, num_modes)
    fine = fdm_eigen(shape, h / 2.0, num_modes, start=start)[1]
    return {parity: [(float(np.sqrt((4.0 * k2 * k2 - k1 * k1) / 3.0)), k1, k2)
                     for (k1, _), (k2, _) in zip(coarse, fine[parity])]
            for parity, coarse in start[1].items()}
