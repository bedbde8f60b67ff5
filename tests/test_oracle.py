import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmbound import make_domain, oracle
from helmbound.errors import GridTooCoarse, IterationStalled
from helmbound.oracle import (Rectangle, _extension, _laplacian, _shift_invert, _tensor_grid,
                               build_fdm_problem, fdm_eigen, richardson_eigen)

RECT_SEEDS = [2.0116, 2.9638, 3.3836, 4.0232]  # 2 x 2.5 rectangle, 4 lowest
LABELS = ("even,1", "even,2", "odd,1", "odd,2")


def _labels(pairs):
    """{'parity,rank': k} from (k, parity) pairs ascending in k."""
    counts, out = {}, {}
    for k, parity in pairs:
        counts[parity] = counts.get(parity, 0) + 1
        out[f"{parity},{counts[parity]}"] = k
    return out


def test_unit_square_fundamental():
    results, _ = richardson_eigen(Rectangle(1.0, 1.0), 1.0 / 128.0, 1)
    k1, parity = results[0]
    assert k1 == pytest.approx(np.pi * np.sqrt(2.0), abs=2e-3)
    assert parity == "even"


def test_unit_square_convergence_order():
    exact = 2.0 * np.pi**2
    _, raw = richardson_eigen(Rectangle(1.0, 1.0), 1.0 / 64.0, 1)
    k1, k2 = raw[0]
    e1 = abs(k1 * k1 - exact)
    e2 = abs(k2 * k2 - exact)
    order = np.log2(e1 / e2)
    assert 1.8 <= order <= 2.2


def test_rectangle_seed_values():
    results, _ = richardson_eigen(Rectangle(2.0, 2.5), 1.0 / 64.0, 4)
    for (k, _), want in zip(results, RECT_SEEDS):
        assert k == pytest.approx(want, abs=2e-3)


def test_rectangle_parities():
    results, _ = richardson_eigen(Rectangle(2.0, 2.5), 1.0 / 64.0, 4)
    assert [parity for _, parity in results[:4]] == ["even", "even", "odd", "odd"]


def test_composite_fundamental(domain):
    results, _ = richardson_eigen(domain, 1.0 / 64.0, 1)
    k1, parity = results[0]
    assert k1 == pytest.approx(2.0611, abs=1e-4)
    assert parity == "even"


def test_composite_parity_classes(domain):
    _, modes = fdm_eigen(domain, 1.0 / 64.0, 5)
    parities = [parity for _, parity, _ in modes]
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


def test_cut_cell_stencil_exact_for_quadratics():
    # neither wall pair falls on a grid line (arms of 0.0125 = h/5 at all four);
    # the cut-cell stencil differentiates quadratics exactly, arms included
    shape = Rectangle(0.9, 0.7)
    problem = build_fdm_problem(shape, 1.0 / 16.0)
    X, Y = np.meshgrid(problem.xs, problem.ys, indexing="ij")
    u = X * (0.9 - X) * Y * (0.7 - Y)
    minus_lap = 2.0 * Y * (0.7 - Y) + 2.0 * X * (0.9 - X)
    mask = problem.mask
    got = _laplacian(shape, problem) @ u[mask]
    assert np.max(np.abs(got - minus_lap[mask])) < 1e-10
    assert problem.xs[0] == pytest.approx(0.0125) and problem.ys[-1] == pytest.approx(0.6875)


def test_composite_observed_order(domain):
    # second order on the arc: errors at h = 1/16, 1/32, 1/64 against the
    # (1/64, 1/128) Richardson value fall by four per halving
    results, raw = richardson_eigen(domain, 1.0 / 64.0, 2)
    ref = _labels(results)
    ladder = []
    for h in (1.0 / 16.0, 1.0 / 32.0):
        _, modes = fdm_eigen(domain, h, 2)
        ladder.append(_labels((k, parity) for k, parity, _ in modes))
    ladder.append(_labels((k1, parity) for (_, parity), (k1, _) in zip(results, raw)))
    for label in LABELS:
        errors = [abs(ks[label] - ref[label]) for ks in ladder]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all((1.8 <= orders) & (orders <= 2.2)), (label, errors, orders)


def test_non_tiling_depth_matches_finer_pair():
    # h = 1/64 does not tile 1 + b = 2.5078125; the grid hangs from y = 0 instead
    dom = make_domain(1.0, 1.5078125)
    coarse = _labels(richardson_eigen(dom, 1.0 / 64.0, 2)[0])
    fine = _labels(richardson_eigen(dom, 1.0 / 128.0, 2)[0])
    for label in LABELS:
        assert abs(coarse[label] - fine[label]) < 1e-5, (label, coarse[label], fine[label])


def test_richardson_pairs_by_parity_and_rank(domain, monkeypatch):
    # the near-degenerate pair near k = 4.21 may leave the two grids in
    # opposite orders; the extrapolation must not mix its two modes
    plain = richardson_eigen(domain, 1.0 / 32.0, 6)
    assert {parity for _, parity in plain[0][3:5]} == {"even", "odd"}
    unpatched = oracle.fdm_eigen

    def coarse_swapped(shape, h, num_modes, start=None):
        problem, modes = unpatched(shape, h, num_modes, start=start)
        if h == 1.0 / 32.0:
            modes[3], modes[4] = modes[4], modes[3]
        return problem, modes

    monkeypatch.setattr(oracle, "fdm_eigen", coarse_swapped)
    assert richardson_eigen(domain, 1.0 / 32.0, 6) == plain


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
    # by label: the square's k = sqrt(5) pi is an even and an odd mode, in either order
    seeded, plain = (_labels((k, p) for k, p, _ in modes) for modes in (seeded, plain))
    assert seeded.keys() == plain.keys()
    assert max(abs(seeded[label] - plain[label]) for label in plain) < 1e-12


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
    # A E_p = E_p B_p: each block carries its parity's part of the spectrum,
    # and the shift-invert solve of each block is exact to rounding
    problem = build_fdm_problem(shape, h)
    A = _laplacian(shape, problem)
    rng = np.random.default_rng(7)
    sigma = 4.0  # below the lowest eigenvalue of every shape here (4.25 at b = 1.5)
    sizes = 0
    for parity in ("even", "odd"):
        E, rows = _extension(problem, parity)
        B = (A[rows] @ E).tocsr()
        assert abs(A @ E - E @ B).max() <= 1e-12 * abs(A).max(), parity
        sizes += rows.size
        grid = _tensor_grid(shape, problem, rows)
        rhs = rng.standard_normal(rows.size)
        x = _shift_invert(B, grid, sigma).matvec(rhs)
        residual = np.linalg.norm(B @ x - sigma * x - rhs) / np.linalg.norm(rhs)
        assert residual <= 1e-11, (parity, residual)
        # the tensor rows are checked to be a Kronecker sum, not assumed to be one
        for node, neighbour, factor in ((grid[1, 1], grid[1, 1], 1.0 + 1e-12),
                                        (grid[1, 1], grid[2, 1], 1.001)):
            mutated = B.copy()
            mutated[node, neighbour] *= factor
            with pytest.raises(ValueError, match="Kronecker sum"):
                _shift_invert(mutated, grid, sigma)
    assert sizes == problem.n_unknowns


def test_blocks_reproduce_full_spectrum(domain):
    h = 1.0 / 32.0
    _, modes = fdm_eigen(domain, h, 8)
    problem = build_fdm_problem(domain, h)
    A = _laplacian(domain, problem).tocsc()
    lam = spla.eigs(A, k=8, sigma=0.0, which="LM", v0=np.ones(A.shape[0]))[0]
    full = np.sort(np.sqrt(lam.real))
    blocks = np.array([k for k, _, _ in modes[:8]])
    assert np.max(np.abs(blocks - full) / full) < 1e-10


def test_fields_are_exactly_even_or_odd(domain):
    problem, modes = fdm_eigen(domain, 1.0 / 32.0, 4)
    centre = problem.xs.size // 2
    for _, parity, field in modes:
        sign = 1.0 if parity == "even" else -1.0
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
    for (k1, p1, f1), (k2, p2, f2) in zip(m1, m2):
        assert k1 == k2 and p1 == p2
        assert np.array_equal(f1, f2)


def test_cross_validation_off_reference_geometry():
    # nothing in the pipeline may assume the unit-scale reference geometry
    from helmbound import (BasisSpec, Method, Parity, build_context, iterate_mode, make_domain,
                           mode_seeds)

    dom = make_domain(0.8, 1.2)
    seeds = mode_seeds(dom)
    results, _ = richardson_eigen(dom, 1.0 / 80.0, 4)
    fdm_even1 = next(k for k, parity in results if parity == "even")
    ctx = build_context(BasisSpec(parity=Parity.EVEN, n_max=10, m_max=10), dom)
    est_d, _ = iterate_mode(Method.DTN, seeds["even,1"], ctx)
    est_n, _ = iterate_mode(Method.NTD, seeds["even,1"], ctx)
    assert abs(est_d.k_estimate - est_n.k_estimate) < 1e-4
    assert abs(est_d.k_estimate - fdm_even1) < 1e-2
