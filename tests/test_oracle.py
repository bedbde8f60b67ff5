import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmbound import make_domain, oracle
from helmbound.cli import main
from helmbound.errors import GridTooCoarse, IterationStalled
from helmbound.oracle import (Rectangle, _block, _shift_invert, _x_walls, _y_walls,
                               build_fdm_problem, fdm_eigen, richardson_eigen)

RECT_SEEDS = {"even": [2.0116, 2.9638], "odd": [3.3836, 4.0232]}  # 2 x 2.5 rectangle, 4 lowest


def _laplacian(shape, problem):
    """Reference: the positive Shortley-Weller operator -Lap_h on the whole grid.

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


def _extension(problem, parity):
    """Reference: mirror extension E (full grid x half grid) of one parity, and the half's rows.

    Column q of E is 1 at half node q and the parity's sign at its mirror.
    """
    ii, jj = np.nonzero(problem.mask)
    index = np.zeros(problem.mask.shape, dtype=np.int64)
    index[ii, jj] = np.arange(ii.size)
    centre = problem.mask.shape[0] // 2
    rows = np.flatnonzero(ii >= centre if parity == "even" else ii > centre)
    off = np.flatnonzero(ii[rows] > centre)  # half nodes whose mirror is another node
    mirror = index[-1 - ii[rows[off]], jj[rows[off]]]  # grid column -1 - i mirrors column i
    vals = np.r_[np.ones(rows.size), np.full(off.size, 1.0 if parity == "even" else -1.0)]
    cols = np.r_[np.arange(rows.size), off]
    return sp.csc_matrix((vals, (np.r_[rows, mirror], cols)), shape=(ii.size, rows.size)), rows


def _reference_block(A, problem, parity, nodes):
    """(E, B) with B = (A E)[half rows] of the full-grid operator A, in a production block's order.

    nodes are the block's unknowns as flat positions in the full grid.
    """
    E, rows = _extension(problem, parity)
    half = np.searchsorted(rows, np.searchsorted(np.flatnonzero(problem.mask), nodes))
    return E[:, half], (A[rows] @ E).tocsr()[half][:, half]


def _assembled(block):
    """A production block as one sparse matrix: [[Tx (x) I + I (x) Ty, D on the top row], [C, R]]."""
    Tx, Ty = (sp.diags([lo, d, up], [-1, 0, 1]) for lo, d, up in (block.tx, block.ty))
    n_x, n_y = Tx.shape[0], Ty.shape[0]
    top = sp.identity(n_x * n_y, format="csr")[n_y - 1::n_y]  # picks the top row, y = -h
    T = sp.kron(Tx, sp.identity(n_y)) + sp.kron(sp.identity(n_x), Ty)
    return sp.bmat([[T, top.T @ block.from_top], [block.to_top @ top, block.rest]], format="csr")


def _oracle_parities(tmp_path, **oracle_config):
    """The parities of the modes that the ``oracle`` command writes, in its order."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path), "oracle": oracle_config}))
    assert main(["--config", str(path), "oracle"]) == 0
    return [mode["parity"] for mode in json.loads((tmp_path / "oracle.json").read_text())["modes"]]


def test_unit_square_fundamental():
    fdm = richardson_eigen(Rectangle(1.0, 1.0), 1.0 / 128.0, 1)
    k1 = fdm["even"][0][0]
    assert k1 == pytest.approx(np.pi * np.sqrt(2.0), abs=2e-3)
    assert k1 < fdm["odd"][0][0]


def test_unit_square_convergence_order():
    exact = 2.0 * np.pi**2
    _, k1, k2 = richardson_eigen(Rectangle(1.0, 1.0), 1.0 / 64.0, 1)["even"][0]
    e1 = abs(k1 * k1 - exact)
    e2 = abs(k2 * k2 - exact)
    order = np.log2(e1 / e2)
    assert 1.8 <= order <= 2.2


def test_rectangle_seed_values():
    fdm = richardson_eigen(Rectangle(2.0, 2.5), 1.0 / 64.0, 4)
    for parity, seeds in RECT_SEEDS.items():
        for (k, _, _), want in zip(fdm[parity], seeds):
            assert k == pytest.approx(want, abs=2e-3), parity


def test_rectangle_parities(tmp_path):
    # the bounding rectangle of the default domain is 2 x 2.5
    parities = _oracle_parities(tmp_path, h=1.0 / 64.0, num_modes=4, shape="bounding_rectangle")
    assert parities == ["even", "even", "odd", "odd"]


def test_composite_fundamental(domain):
    fdm = richardson_eigen(domain, 1.0 / 64.0, 1)
    k1 = fdm["even"][0][0]
    assert k1 == pytest.approx(2.0611, abs=1e-4)
    assert k1 < fdm["odd"][0][0]


def test_composite_parity_classes(tmp_path):
    parities = _oracle_parities(tmp_path, h=1.0 / 64.0, num_modes=5)
    assert parities[:3] == ["even", "even", "odd"]
    assert set(parities[3:5]) == {"even", "odd"}  # near-degenerate pair


def test_grid_checks(domain):
    # walls need not fall on grid lines: h = 0.03 tiles neither 2 nor 2.5
    problem = build_fdm_problem(domain, 0.03)
    assert np.array_equal(problem.mask, problem.mask[::-1, :])
    (interface_row,) = np.flatnonzero(problem.ys == 0.0)  # the grid keeps the interface
    assert problem.xs[problem.xs.size // 2] == 0.0
    assert problem.mask[problem.xs.size // 2, interface_row]
    with pytest.raises(GridTooCoarse):
        build_fdm_problem(domain, 0.3)  # under 10 points across a = 1
    with pytest.raises(GridTooCoarse):
        build_fdm_problem(Rectangle(1.0, 1.0), 0.25)  # under 10 points across


@pytest.mark.parametrize(
    "shape, h",
    [
        (Rectangle(1.0, 0.75), 1.0 / 16.0),
        (Rectangle(0.9, 2.1), 0.03),  # walls on grid lines only up to rounding
    ],
)
def test_aligned_walls_give_five_point_stencil(shape, h):
    problem = build_fdm_problem(shape, h)
    nx, ny = round(shape.width / h) - 1, round(shape.height / h) - 1
    assert problem.n_unknowns == nx * ny

    def second_difference(n):
        return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))

    five = (sp.kron(second_difference(nx), sp.eye(ny)) + sp.kron(sp.eye(nx), second_difference(ny))) / h**2
    assert abs(_laplacian(shape, problem) - five).max() < 1e-12 / h**2
    for parity in ("even", "odd"):
        block = _block(shape, problem, parity)
        assert block.rest.shape == (0, 0)  # a Rectangle is all tensor rows
        _, reference = _reference_block(five.tocsr(), problem, parity, block.nodes)
        assert abs(_assembled(block) - reference).max() < 1e-12 / h**2, parity


def test_cut_cell_stencil_exact_for_quadratics():
    # neither wall pair falls on a grid line (arms of 0.0125 = h/5 at all four);
    # the cut-cell stencil differentiates quadratics exactly, arms included
    shape = Rectangle(0.9, 0.7)
    problem = build_fdm_problem(shape, 1.0 / 16.0)
    X, Y = np.meshgrid(problem.xs, problem.ys, indexing="ij")
    u = X * (0.9 - X) * Y * (0.7 - Y)
    minus_lap = 2.0 * Y * (0.7 - Y) + 2.0 * X * (0.9 - X)
    # u is even about the axis x = 0.45, so the even block applies to it
    block = _block(shape, problem, "even")
    got = _assembled(block) @ u.ravel()[block.nodes]
    assert np.max(np.abs(got - minus_lap.ravel()[block.nodes])) < 1e-10
    assert problem.xs[0] == pytest.approx(0.0125) and problem.ys[-1] == pytest.approx(0.6875)


def test_composite_observed_order(domain):
    # second order on the arc: errors at h = 1/16, 1/32, 1/64 against the
    # (1/64, 1/128) Richardson value fall by four per halving
    fdm = richardson_eigen(domain, 1.0 / 64.0, 2)
    ladder = [fdm_eigen(domain, h, 2)[1] for h in (1.0 / 16.0, 1.0 / 32.0)]
    for parity, pairs in fdm.items():
        for rank, (ref, k_h, _) in enumerate(pairs, start=1):
            errors = [abs(modes[parity][rank - 1][0] - ref) for modes in ladder] + [abs(k_h - ref)]
            orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
            assert np.all((1.8 <= orders) & (orders <= 2.2)), (parity, rank, errors, orders)


def test_non_tiling_depth_matches_finer_pair():
    # h = 1/64 does not tile 1 + b = 2.5078125; the grid hangs from y = 0 instead
    dom = make_domain(1.0, 1.5078125)
    coarse = richardson_eigen(dom, 1.0 / 64.0, 2)
    fine = richardson_eigen(dom, 1.0 / 128.0, 2)
    for parity in ("even", "odd"):
        pairs = zip(coarse[parity], fine[parity], strict=True)
        for rank, ((k_c, _, _), (k_f, _, _)) in enumerate(pairs, start=1):
            assert abs(k_c - k_f) < 1e-5, (parity, rank, k_c, k_f)


def test_richardson_pairs_by_parity_and_rank(domain, monkeypatch):
    # the near-degenerate pair near k = 4.21 (even,3 and odd,2) may leave
    # the two grids in opposite orders; the extrapolation must not mix its
    # two modes, so rank r of a parity pairs with rank r of that parity
    unpatched = oracle.fdm_eigen
    solved = []

    def recorded(shape, h, num_modes, start=None):
        result = unpatched(shape, h, num_modes, start=start)
        solved.append(result[1])
        return result

    monkeypatch.setattr(oracle, "fdm_eigen", recorded)
    fdm = richardson_eigen(domain, 1.0 / 32.0, 6)
    assert abs(fdm["even"][2][0] - fdm["odd"][1][0]) < 1e-2  # the pair is in range
    coarse, fine = solved
    for parity, pairs in fdm.items():
        assert len(pairs) == len(coarse[parity]) == len(fine[parity]) == 6, parity
        for (k, k1, k2), (c, _), (f, _) in zip(pairs, coarse[parity], fine[parity]):
            assert (k1, k2) == (c, f), parity
            assert k == np.sqrt((4.0 * f * f - c * c) / 3.0), parity


@pytest.mark.parametrize(
    "shape, h, num_modes",
    [
        *((make_domain(1.0, b), 1.0 / 32.0, n) for b in (1.5, 1.84375, 2.25) for n in (2, 8)),
        (Rectangle(0.9, 0.7), 1.0 / 16.0, 4),  # walls off the grid lines
        (Rectangle(1.0, 1.0), 1.0 / 16.0, 4),  # even,3 and even,4 exactly degenerate
    ],
)
def test_seeded_fine_solve_matches_unseeded(shape, h, num_modes):
    # the coarse start changes where Arnoldi begins, not what it converges to
    start = fdm_eigen(shape, h, num_modes)
    _, seeded = fdm_eigen(shape, h / 2.0, num_modes, start=start)
    _, plain = fdm_eigen(shape, h / 2.0, num_modes)
    for parity in ("even", "odd"):
        for (k_s, _), (k_p, _) in zip(seeded[parity], plain[parity], strict=True):
            assert abs(k_s - k_p) < 1e-12, (parity, k_s, k_p)


def test_seeded_fine_solve_needs_fewer_inverse_applications(domain, monkeypatch):
    unpatched = oracle.spla.splu
    solves = []

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves[-1] += 1
            return self.lu.solve(rhs)

    def counted(*args, **kwargs):
        solves.append(0)
        return Counted(unpatched(*args, **kwargs))

    monkeypatch.setattr(oracle.spla, "splu", counted)
    start = fdm_eigen(domain, 1.0 / 64.0, 2)
    fdm_eigen(domain, 1.0 / 128.0, 2)
    fdm_eigen(domain, 1.0 / 128.0, 2, start=start)
    plain, seeded = sum(solves[2:4]), sum(solves[4:6])  # one LU per parity block
    assert len(solves) == 6 and seeded < plain, solves


@pytest.mark.parametrize(
    "shape, h",
    [
        (make_domain(1.0, 1.5078125), 0.03),
        (Rectangle(0.9, 0.7), 1.0 / 16.0),  # walls off the grid lines
        (make_domain(1.0, 1.5), 1.0 / 64.0),
        (make_domain(1.0, 1.0078125), 1.0 / 64.0),  # bottom wall off the grid lines
        (make_domain(0.9, 1.3), 1.0 / 64.0),  # side walls off the grid lines
    ],
)
def test_mirror_blocks_are_exact(shape, h):
    # A E_p = E_p B_p for the full-grid reference A, each production block
    # equals its B_p entry by entry, and each block's shift-invert solve is
    # exact to rounding
    problem = build_fdm_problem(shape, h)
    A = _laplacian(shape, problem)
    tol = 1e-12 * abs(A).max()
    rng = np.random.default_rng(7)
    sigma = 4.0  # below the lowest eigenvalue of every shape here (4.25 at b = 1.5)
    sizes = 0
    for parity in ("even", "odd"):
        block = _block(shape, problem, parity)
        E, reference = _reference_block(A, problem, parity, block.nodes)
        assert abs(A @ E - E @ reference).max() <= tol, parity
        B = _assembled(block)
        assert abs(B - reference).max() <= tol, parity
        sizes += block.nodes.size
        rhs = rng.standard_normal(block.nodes.size)
        x = _shift_invert(block, sigma).matvec(rhs)
        residual = np.linalg.norm(B @ x - sigma * x - rhs) / np.linalg.norm(rhs)
        assert residual <= 1e-11, (parity, residual)
        # the comparison is entry-wise: a changed coupling of the x factor
        # (at the even block's fold) or of the rest shows
        lo, d, up = block.tx
        mutations = [block._replace(tx=(lo, d, np.r_[1.001 * up[0], up[1:]]))]
        if block.rest.nnz:  # a Rectangle has no rest
            rest = block.rest.copy()
            rest.data[np.flatnonzero(rest.data < 0.0)[0]] *= 1.001
            mutations.append(block._replace(rest=rest))
        for mutated in mutations:
            assert abs(_assembled(mutated) - reference).max() > tol, parity
        # each factor must be similar to a symmetric tridiagonal, checked at run time
        with pytest.raises(ValueError, match="symmetric tridiagonal"):
            _shift_invert(block._replace(ty=(-block.ty[0], *block.ty[1:])), sigma)
    assert sizes == problem.n_unknowns


def test_blocks_reproduce_full_spectrum(domain):
    # the two production blocks' spectra make up the full-grid operator's
    h = 1.0 / 32.0
    problem = build_fdm_problem(domain, h)
    A = _laplacian(domain, problem).tocsc()

    def lowest(M):
        lam = spla.eigs(M.tocsc(), k=8, sigma=0.0, which="LM", v0=np.ones(M.shape[0]))[0]
        return np.sqrt(lam.real)

    full = np.sort(lowest(A))
    blocks = np.sort(np.concatenate([lowest(_assembled(_block(domain, problem, p)))
                                     for p in ("even", "odd")]))[:8]
    _, modes = fdm_eigen(domain, h, 8)
    solved = np.sort([k for parity_modes in modes.values() for k, _ in parity_modes])[:8]
    assert np.max(np.abs(blocks - full) / full) < 1e-10
    assert np.max(np.abs(solved - full) / full) < 1e-10


def test_fields_are_exactly_even_or_odd(domain):
    problem, modes = fdm_eigen(domain, 1.0 / 32.0, 4)
    centre = problem.xs.size // 2
    for parity, parity_modes in modes.items():
        sign = 1.0 if parity == "even" else -1.0
        for _, field in parity_modes:
            assert np.array_equal(field[::-1, :], sign * field), parity
            if parity == "odd":
                assert not field[centre, :].any()


def test_complex_spectrum_stalls(monkeypatch):
    unpatched = oracle.spla.eigs

    def tilted(*args, **kwargs):
        lam, vecs = unpatched(*args, **kwargs)
        return lam + 1e-6j * np.abs(lam).max(), vecs

    monkeypatch.setattr(oracle.spla, "eigs", tilted)
    with pytest.raises(IterationStalled):
        fdm_eigen(Rectangle(1.0, 1.0), 1.0 / 16.0, 2)


def test_mask_matches_domain(domain):
    problem = build_fdm_problem(domain, 1.0 / 32.0)
    X, Y = np.meshgrid(problem.xs, problem.ys, indexing="ij")
    inside = problem.mask
    upper = inside & (Y > 0)
    assert np.all(X[upper] ** 2 + Y[upper] ** 2 < 1.0 + 1e-12)
    assert np.all(np.abs(X[inside & (Y <= 0)]) < 1.0)
    assert np.all(Y[inside] > -1.5)
    # interface nodes are interior
    j0 = np.argmin(np.abs(problem.ys))
    assert problem.ys[j0] == pytest.approx(0.0, abs=1e-12)
    assert inside[problem.xs.size // 2, j0]


def test_deterministic(domain):
    _, m1 = fdm_eigen(domain, 1.0 / 32.0, 3)
    _, m2 = fdm_eigen(domain, 1.0 / 32.0, 3)
    assert m1.keys() == m2.keys()
    for parity in m1:
        for (k1, f1), (k2, f2) in zip(m1[parity], m2[parity], strict=True):
            assert k1 == k2
            assert np.array_equal(f1, f2)


def test_cross_validation_off_reference_geometry():
    # nothing in the pipeline may assume the unit-scale reference geometry
    from helmbound import (BasisSpec, Method, Parity, build_context, iterate_mode, make_domain,
                           mode_seeds)

    dom = make_domain(0.8, 1.2)
    seeds = mode_seeds(dom)
    fdm_even1 = richardson_eigen(dom, 1.0 / 80.0, 4)["even"][0][0]
    ctx = build_context(BasisSpec(parity=Parity.EVEN, n_max=10, m_max=10), dom)
    est_d, _ = iterate_mode(Method.DTN, seeds["even,1"], ctx)
    est_n, _ = iterate_mode(Method.NTD, seeds["even,1"], ctx)
    assert abs(est_d.k_estimate - est_n.k_estimate) < 1e-4
    assert abs(est_d.k_estimate - fdm_even1) < 1e-2


@pytest.mark.parametrize("width, height, h", [(2.0, 2.5, 1.0 / 128.0), (1.0, 1.0, 1.0 / 256.0)])
def test_aligned_rectangle_matches_exact_discrete_eigenvalues(width, height, h):
    # on grid-aligned walls the operator is the 5-point Laplacian, whose
    # eigenvalues are (4/h^2)(sin^2(p pi h / 2W) + sin^2(q pi h / 2H)); p odd
    # is even in x.  The fast-diagonalization solve is accurate to about eps
    # times the largest entry, not componentwise: 1.7e-12 and 2.2e-12 measured
    _, modes = fdm_eigen(Rectangle(width, height), h, 3)
    p, q = np.meshgrid(np.arange(1, round(width / h)), np.arange(1, round(height / h)), indexing="ij")
    lam = 4.0 / h**2 * (np.sin(p * np.pi * h / (2 * width)) ** 2 + np.sin(q * np.pi * h / (2 * height)) ** 2)
    for parity, odd_p in (("even", True), ("odd", False)):
        exact = np.sqrt(np.sort(lam[(p % 2 == 1) == odd_p])[:3])
        got = np.array([k for k, _ in modes[parity]])
        assert np.max(np.abs(got - exact)) < 3e-12, (parity, got - exact)


def test_fdm_eigen_peak_memory():
    # each block lives on its half grid and keeps its tensor rows as two 1-D
    # factors: 13.1 MB traced peak at b = 1.5, h = 1/128, against 29.7 MB when
    # the full-grid operator was assembled and sliced into blocks
    tracemalloc.start()
    try:
        fdm_eigen(make_domain(1.0, 1.5), 1.0 / 128.0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


def test_richardson_reaches_fdm_eigen_by_module_attribute(domain, monkeypatch):
    # the benchmark's tracer wraps oracle.fdm_eigen by module attribute and
    # reads result[0].n_unknowns as the full grid's count of unknowns
    unpatched = oracle.fdm_eigen
    seen = []

    def recorded(shape, h, num_modes, start=None):
        result = unpatched(shape, h, num_modes, start=start)
        seen.append((h, result[0].n_unknowns))
        return result

    monkeypatch.setattr(oracle, "fdm_eigen", recorded)
    richardson_eigen(domain, 1.0 / 32.0, 2)
    assert [h for h, _ in seen] == [1.0 / 32.0, 1.0 / 64.0]
    for h, n_unknowns in seen:
        problem = build_fdm_problem(domain, h)
        halves = [_block(domain, problem, parity).nodes.size for parity in ("even", "odd")]
        assert n_unknowns == sum(halves) == np.count_nonzero(problem.mask)
