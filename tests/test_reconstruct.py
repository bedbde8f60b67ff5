import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from helmbound import (
    FieldGrid,
    GridSpec,
    Method,
    Parity,
    build_context,
    export_grid,
    gamma2_coefficients,
    iterate_mode,
    make_domain,
    mode_seeds,
    sample_field,
    steklov_table,
    steklov_trace,
)
from helmbound.errors import IoFailure
from helmbound.reconstruct import interface_mismatch

# Steklov indices checked against adaptive quadrature
PROJECTED_MODES = (1, 2, 7, 20, 50)


def _adaptive_projection(ctx, g1, rows):
    """(psi_n | g1 @ rows(x)) for n in PROJECTED_MODES by adaptive quadrature.

    rows(x) gives the family's interface traces or normal-derivative traces
    at the points x, one column per point, and g1 is a family vector.
    Each half of the interface is integrated on its own: the traces carry
    |x| and sign(x) factors that kink or jump at x = 0.
    """
    radius = ctx.domain.a
    field = lambda x: float(g1 @ rows([x])[:, 0])
    out = []
    for n in PROJECTED_MODES:
        integrand = lambda x: steklov_trace(n, ctx.domain, x) * field(x)
        halves = (quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                  for lo, hi in ((-radius, 0.0), (0.0, radius)))
        out.append(sum(halves))
    return np.array(out)


def test_gamma2_matches_surface_projection(domain, context_for, dense_coords, interface_tables, rng):
    # the DtN coefficients are the interface projection of the trace of Y a
    ctx = context_for(Parity.EVEN, 5)
    a = rng.normal(size=ctx.trial_dim)
    c = gamma2_coefficients(Method.DTN, a, 2.0116, ctx)
    got = c[np.array(PROJECTED_MODES) - 1]
    want = _adaptive_projection(ctx, dense_coords(ctx) @ a,
                                lambda x: interface_tables(ctx.spec, ctx.domain, x)[0])
    assert got == pytest.approx(want, rel=1e-13, abs=1e-14)


def test_gamma2_zero_trace_gives_zero(domain, context_for, zero_trace_coords, rng):
    ctx = context_for(Parity.EVEN, 5)
    c = gamma2_coefficients(Method.DTN, zero_trace_coords(ctx, rng), 2.0116, ctx)
    assert np.max(np.abs(c)) < 1e-14


def test_ntd_gamma2_respects_operator(domain, context_for, dense_coords, interface_tables, rng):
    # NtD coefficients times b_n reproduce the normal-derivative projection
    ctx = context_for(Parity.ODD, 5)
    a = rng.normal(size=ctx.trial_dim)
    c = gamma2_coefficients(Method.NTD, a, 3.4507, ctx)
    bn, _ = steklov_table(3.4507, ctx.n_modes, domain)
    got = (bn * c)[np.array(PROJECTED_MODES) - 1]
    want = _adaptive_projection(ctx, dense_coords(ctx) @ a,
                                lambda x: interface_tables(ctx.spec, ctx.domain, x)[1])
    assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_value_mismatch_shrinks_with_basis(converged):
    est5, _ = converged(Method.NTD, "even,1", size=5)
    est15, _ = converged(Method.NTD, "even,1", size=15)
    v5, _ = interface_mismatch(est5)
    v15, _ = interface_mismatch(est15)
    assert v15 < v5


def test_dtn_value_mismatch_is_truncation_tail(converged):
    est, _ = converged(Method.DTN, "even,1")
    value_jump, deriv_jump = interface_mismatch(est)
    assert value_jump < 1e-4  # projection leaves only the truncation tail
    assert deriv_jump > value_jump


def test_ntd_derivative_mismatch_is_truncation_tail(converged):
    # the NtD construction matches normal derivatives, so the roles swap
    est, _ = converged(Method.NTD, "even,1")
    value_jump, deriv_jump = interface_mismatch(est)
    assert deriv_jump < value_jump


@pytest.mark.parametrize("method", list(Method))
def test_estimate_reads_depth_from_its_context(context_for, method):
    # a context built at b = 1.5 and moved to another depth by
    # dataclasses.replace solves, matches and samples bit for bit as a
    # fresh build there: the estimate reads its depth only from its context
    deep = make_domain(1.0, 1.8046875)
    moved = dataclasses.replace(context_for(Parity.EVEN, 15), domain=deep)
    fresh = build_context(moved.spec, deep, moved.quad, moved.n_modes)
    seed = mode_seeds(deep)["even,1"]
    (est_m, _), (est_f, _) = (iterate_mode(method, seed, ctx) for ctx in (moved, fresh))
    assert est_m.context is moved and est_f.context is fresh
    assert est_m.k_estimate == est_f.k_estimate
    assert np.array_equal(est_m.a, est_f.a)
    assert np.array_equal(est_m.gamma2, est_f.gamma2)
    assert interface_mismatch(est_m) == interface_mismatch(est_f)
    grid = GridSpec(nx=41, ny=71)
    assert np.array_equal(sample_field(est_m, grid).values, sample_field(est_f, grid).values)


def _grid(converged, method, label, size=15, spec=GridSpec(nx=81, ny=141)):
    est, _ = converged(method, label, size=size)
    return sample_field(est, spec)


def test_field_even_symmetry(converged):
    grid = _grid(converged, Method.DTN, "even,1")
    assert grid.values == pytest.approx(grid.values[::-1, :], abs=1e-10)


def test_field_odd_parity_kills_axis(converged):
    grid = _grid(converged, Method.DTN, "odd,1")
    mid = grid.nx // 2
    assert np.max(np.abs(grid.values[mid, :])) < 1e-10
    assert grid.values == pytest.approx(grid.values[::-1, :], abs=1e-10)


def test_field_outside_zero_and_normalized(converged):
    grid = _grid(converged, Method.DTN, "even,1")
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    outside = (Y > 0) & (X * X + Y * Y > 1.0 + 1e-9)
    assert np.max(grid.values[outside]) == 0.0
    dx = grid.xs[1] - grid.xs[0]
    dy = grid.ys[1] - grid.ys[0]
    assert grid.values.sum() * dx * dy == pytest.approx(1.0, rel=1e-12)
    assert np.min(grid.values) >= 0.0


def test_field_vanishes_toward_boundary(converged):
    # Dirichlet: the outermost populated ring decays as the grid refines
    est, _ = converged(Method.DTN, "even,1")
    coarse = sample_field(est, GridSpec(nx=41, ny=71))
    fine = sample_field(est, GridSpec(nx=161, ny=281))

    def boundary_max(grid):
        vals = grid.values
        populated = vals > 0
        edge = populated & ~(
            np.roll(populated, 1, 0) & np.roll(populated, -1, 0)
            & np.roll(populated, 1, 1) & np.roll(populated, -1, 1)
        )
        return np.max(vals[edge])

    assert boundary_max(fine) < boundary_max(coarse)


def _reference_field(est, gamma1, domain, grid):
    # |Psi|^2 cell by cell, summing closed forms written out here, one member
    # and one Steklov mode at a time, with the family coefficients gamma1 = Y a
    a, b, kappa, spec = domain.a, domain.b, est.k_estimate, est.context.spec
    even = spec.parity is Parity.EVEN
    ang = np.cos if even else np.sin
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    values = np.zeros_like(X)
    semi = (Y > 0) & (X * X + Y * Y < a**2)
    inter = (np.abs(Y) <= 1e-12) & (np.abs(X) < a)
    rect = (Y < 0) & (np.abs(X) < a) & ~inter
    for cells in (semi, inter):
        r, phi = np.hypot(X[cells], Y[cells]), np.arctan2(-X[cells], Y[cells])
        field = np.zeros_like(r)
        for mu in range(1, spec.size + 1):
            if even and mu == 1:
                member = r - a
            else:
                # the basis docstring's bijection, row-major in (n, m)
                n, m = divmod(mu - (2 if even else 1), spec.m_max)
                member = r * np.sin((n + 1) * spec.alpha * (r - a)) * ang((m + 1) * spec.beta * phi)
            field += gamma1[mu - 1] * member
        values[cells] = field**2
    x, y = X[rect], Y[rect]
    field = np.zeros_like(x)
    for n, c in enumerate(est.gamma2, start=1):
        lam = (n * np.pi / (2 * a)) ** 2
        if kappa**2 > lam:
            mu = np.sqrt(kappa**2 - lam)
            profile = np.sin(mu * (y + b)) / np.sin(mu * b)
        else:
            s = np.sqrt(lam - kappa**2)
            profile = np.sinh(s * (y + b)) / np.sinh(s * b)
        field += c * np.sin(n * np.pi * (x + a) / (2 * a)) / np.sqrt(a) * profile
    values[rect] = field**2
    dx = grid.xs[1] - grid.xs[0]
    dy = grid.ys[1] - grid.ys[0]
    return values / (values.sum() * dx * dy)


@pytest.mark.parametrize("label", ["even,1", "odd,1"])
def test_field_matches_scalar_reference(domain, converged, dense_coords, monkeypatch, label):
    from helmbound import reconstruct

    # small blocks, so the semicircle points span several of them plus a remainder
    monkeypatch.setattr(reconstruct, "CHUNK", 37)
    est, _ = converged(Method.DTN, label)
    grid = sample_field(est, GridSpec(nx=21, ny=36))
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    n_semi = int(np.sum((Y > 0) & (X * X + Y * Y < 1.0)))
    assert n_semi > 2 * 37 and n_semi % 37 != 0
    assert np.any(np.abs(grid.ys) <= 1e-12)  # the interface row is sampled
    ref = _reference_field(est, dense_coords(est.context) @ est.a, domain, grid)
    assert np.max(np.abs(grid.values - ref)) <= 1e-12 * np.max(ref)


def test_csv_lines_per_cell(tmp_path, rng):
    xs = np.array([-1.0, -1.0 / 3.0, 0.0, 2.0 / 3.0])
    ys = np.array([-1.5, -1e-17, 0.25, 1.0, 123456.789])
    values = rng.random((4, 5)) * 10.0 ** rng.integers(-300, 300, size=(4, 5))
    values[0, 0] = 0.0
    path = tmp_path / "cells.csv"
    export_grid(FieldGrid(xs=xs, ys=ys, values=values), "csv", path)
    expected = ["x,y,value"] + [
        f"{x:.9g},{y:.9g},{values[i, j]:.9g}" for i, x in enumerate(xs) for j, y in enumerate(ys)
    ]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_pgm_rows_top_to_bottom(tmp_path, rng):
    values = rng.random((7, 4))
    path = tmp_path / "rows.pgm"
    export_grid(FieldGrid(xs=np.arange(7.0), ys=np.arange(4.0), values=values), "pgm", path)
    raster = np.rint(values * (65535.0 / values.max())).astype(np.int64)
    rows = [" ".join(str(int(v)) for v in raster[:, j]) for j in range(3, -1, -1)]
    assert path.read_bytes() == ("\n".join(["P2", "7 4", "65535"] + rows) + "\n").encode()


def test_csv_roundtrip(tmp_path, converged, read_grid_csv):
    grid = _grid(converged, Method.DTN, "even,1", spec=GridSpec(nx=21, ny=36))
    path = tmp_path / "field.csv"
    export_grid(grid, "csv", path)
    back = read_grid_csv(path)
    assert back.xs == pytest.approx(grid.xs, rel=1e-8, abs=1e-8)
    assert back.ys == pytest.approx(grid.ys, rel=1e-8, abs=1e-8)
    scale = np.max(np.abs(grid.values))
    assert np.max(np.abs(back.values - grid.values)) < 1e-9 * scale


def test_pgm_format(tmp_path, converged):
    grid = _grid(converged, Method.DTN, "even,1", spec=GridSpec(nx=21, ny=36))
    path = tmp_path / "field.pgm"
    export_grid(grid, "pgm", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "21 36"
    assert lines[2] == "65535"
    raster = np.array([[int(v) for v in line.split()] for line in lines[3:]])
    assert raster.shape == (36, 21)
    assert raster.max() == 65535
    assert raster.min() >= 0


def test_pgm_all_zero_grid(tmp_path):
    grid = FieldGrid(xs=np.array([0.0, 1.0]), ys=np.array([0.0, 1.0]),
                     values=np.zeros((2, 2)))
    path = tmp_path / "zero.pgm"
    export_grid(grid, "pgm", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    raster = [int(v) for line in lines[3:] for v in line.split()]
    assert raster == [0, 0, 0, 0]


def test_export_bad_path(converged):
    grid = _grid(converged, Method.DTN, "even,1", spec=GridSpec(nx=11, ny=18))
    with pytest.raises(IoFailure):
        export_grid(grid, "csv", "/nonexistent-dir/field.csv")
    with pytest.raises(ValueError):
        export_grid(grid, "svg", "/tmp/x.svg")
