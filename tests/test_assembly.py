import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from helmbound import (
    BasisSpec,
    Method,
    Parity,
    QuadratureConfig,
    TrialPair,
    assemble,
    build_context,
    evaluate_discontinuous_functional,
    iterate_mode,
    make_domain,
    mode_seeds,
    steklov_table,
)
from helmbound import assembly
from helmbound.assembly import COMPRESS_FLOOR
from helmbound.basis import member_index
from helmbound.errors import NearDirichletResonance, ZeroTrial

KAPPA = 2.0116
SIZES = [(3, 3), (5, 5), (15, 15)]


def _family_pencil(method, kappa, ctx, tables):
    """(Lambda, Delta) over the whole family, unsymmetrized, written out from
    the family tables (the formula in the assembly docstring)."""
    G, S, T, D, psi, ws = tables
    bn, dbn = steklov_table(kappa, ctx.n_modes, ctx.domain)
    cross = (T * ws) @ D.T
    psi_w = psi * ws
    if method is Method.DTN:
        W, sigma, dsigma, X = psi_w @ T.T, -bn, -dbn, cross
    else:
        W, sigma, dsigma, X = psi_w @ D.T, 1.0 / bn, -dbn / bn**2, -cross.T
    dop = W.T @ (dsigma[:, None] * W)
    lam = -S + X + W.T @ (sigma[:, None] * W) - 0.5 * kappa * dop
    return lam, G - dop / (2.0 * kappa)


def _contexts(domain, quad, size):
    """The even,1 and odd,1 seeds with a context of their parity at size."""
    seeds = mode_seeds(domain)
    return [(seed, build_context(BasisSpec(parity=parity, n_max=size[0], m_max=size[1]), domain, quad))
            for parity, seed in ((Parity.EVEN, seeds["even,1"]), (Parity.ODD, seeds["odd,1"]))]


def _pairs(domain, quad, size):
    return [assemble(method, seed, ctx) for seed, ctx in _contexts(domain, quad, size) for method in Method]


@pytest.mark.parametrize("size", SIZES)
def test_symmetry_defects(domain, quad, size):
    # the defect of the kappa-independent parts is measured once per context
    # (2.0-2.2e-12 at 30x30, 2.5-2.8e-15 at 15x15); the assembled pencils of
    # both methods are exactly symmetric
    for seed, ctx in _contexts(domain, quad, size):
        assert ctx.symmetry_defect < 1e-10
        for method in Method:
            pair = assemble(method, seed, ctx)
            assert np.array_equal(pair.lam, pair.lam.T)
            assert np.array_equal(pair.delta, pair.delta.T)


def test_defect_equals_magnitude_ratio(domain, quad, monkeypatch):
    # _defect reads the largest entry of A - A^T over max(A.max(), -A.min());
    # on every matrix build_context passes it (-S + C, -S - C^T and G, both
    # parities), that is max |A - A^T| / max |A| bit for bit
    seen, defect = [], assembly._defect
    monkeypatch.setattr(assembly, "_defect", lambda A: seen.append(A.copy()) or defect(A))
    _contexts(domain, quad, (15, 15))
    assert len(seen) == 6
    for A in seen:
        assert defect(A) == float(np.max(np.abs(A - A.T)) / np.max(np.abs(A)))
    assert any(defect(A) > 0 for A in seen)


@pytest.mark.parametrize("size", SIZES)
def test_delta_positive_definite(domain, quad, size):
    # PD analytically; numerically the lowest eigenvalues sit at roundoff,
    # so "no direction below -1e-13 * sigma_max" is the meaningful check
    for pair in _pairs(domain, quad, size):
        sigma = np.linalg.eigvalsh(pair.delta)
        assert sigma[-1] > 0
        assert sigma[0] > -1e-13 * sigma[-1]


def test_resonance_propagates(domain, quad):
    spec = BasisSpec(parity=Parity.EVEN, n_max=3, m_max=3)
    with pytest.raises(NearDirichletResonance):
        assemble(Method.DTN, 5.0 * np.pi / 6.0, build_context(spec, domain, quad))


def test_delta11_volume_part(domain, context_for, family_tables):
    # <r-a | r-a> over the semicircle = pi * int_0^1 (r-1)^2 r dr = pi/12
    G = family_tables(context_for(Parity.EVEN, 15))[0]
    assert G[0, 0] == pytest.approx(np.pi / 12.0, abs=1e-13)


@pytest.mark.parametrize("size", [5, 15])
@pytest.mark.parametrize("parity", list(Parity))
def test_assemble_is_compressed_family_pencil(context_for, family_tables, dense_coords, size, parity):
    ctx = context_for(parity, size)
    Y = dense_coords(ctx)
    for method in Method:
        pair = assemble(method, KAPPA, ctx)
        lam, delta = _family_pencil(method, KAPPA, ctx, family_tables(ctx))
        for got, full in ((pair.lam, lam), (pair.delta, delta)):
            want = Y.T @ (0.5 * (full + full.T)) @ Y
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)), method


@pytest.mark.parametrize("size", [5, 15])
@pytest.mark.parametrize("parity", list(Parity))
def test_compressed_basis_is_orthonormal_and_diagonalizes_gram(context_for, family_tables, dense_coords,
                                                              size, parity):
    # Y's product columns are eigenvectors of G, so the compressed Gram is
    # diagonal off the even linear member's row and column, and the
    # complement Y drops is null for G below COMPRESS_FLOOR up to the
    # rounding of G's entries.  Its interface traces are small, not null:
    # the augmented Gram A = G + T w T^T + D w D^T on it stays below 1e-7 of
    # A's largest eigenvalue (8.7e-8 measured at 15x15; the assembly docstring)
    ctx = context_for(parity, size)
    G, _, T, D, _, ws = family_tables(ctx)
    Y = dense_coords(ctx)
    r = ctx.trial_dim
    g_max = np.linalg.norm(G, 2)
    assert np.max(np.abs(Y.T @ Y - np.eye(r))) < 1e-13
    assert np.max(np.abs(ctx.gram - Y.T @ G @ Y)) < 1e-14 * g_max
    lead = int(parity is Parity.EVEN)
    block = ctx.gram[lead:, lead:]
    assert np.max(np.abs(block - np.diag(np.diag(block)))) < 1e-14 * g_max
    drop = np.eye(ctx.spec.size) - Y @ Y.T
    assert np.linalg.norm(drop @ G @ drop, 2) < (COMPRESS_FLOOR + 16 * np.finfo(float).eps) * g_max
    A = G + (T * ws) @ T.T + (D * ws) @ D.T
    assert np.linalg.norm(drop @ A @ drop, 2) < 1e-7 * np.linalg.eigvalsh(A)[-1]


def test_compressed_dimensions_at_reference_depth(context_for):
    # the r of each family that the README and the COMPRESS_FLOOR comment
    # quote, at b = 1.5.  The selection reads the eigenvalues of two 1-D
    # Grams of at most 31 x 31, the same on 1 and 2 BLAS threads
    quoted = {("even", 15): (226, 110), ("odd", 15): (225, 105),
              ("even", 30): (901, 308), ("odd", 30): (900, 298)}
    for (parity, size), (family, r) in quoted.items():
        ctx = context_for(Parity(parity), size)
        assert (ctx.spec.size, ctx.trial_dim) == (family, r), (parity, size)


def _array_fields(ctx):
    fields = {f.name: getattr(ctx, f.name) for f in dataclasses.fields(ctx)}
    return {name: v for name, v in fields.items() if isinstance(v, np.ndarray)}


def test_context_keeps_no_family_table(context_for):
    # every table is in the compressed coordinates and Y is kept as its 1-D
    # factors, so at 15x15 (M = 226, r = 110) no array has a dimension of
    # size M.  The 30x30 context holds 2.53 MB of arrays, the interface as
    # its N x n_r radial factors and no N x Ks table of Steklov traces
    ctx = context_for(Parity.EVEN, 15)
    M = ctx.spec.size
    assert M > ctx.trial_dim
    arrays = _array_fields(ctx)
    assert "dtn_base" in arrays and "value_factor" in arrays
    assert [name for name, v in arrays.items() if M in v.shape] == []
    assert [name for name, v in arrays.items() if ctx.surface_rule.nodes.size in v.shape
            and ctx.n_modes in v.shape] == []
    assert sum(v.nbytes for v in _array_fields(context_for(Parity.EVEN, 30)).values()) < 2.6e6


@pytest.mark.parametrize("parity", list(Parity))
def test_factored_maps_match_dense_coords(context_for, dense_coords, parity, rng):
    # Y a on the factor grid, through the 1-D factors, against a dense Y at
    # the members; the other products of the grid carry nothing
    ctx = context_for(parity, 15)
    Y = dense_coords(ctx)
    a = rng.normal(size=ctx.trial_dim)
    grid = ctx.factor_grid(a).ravel()
    members = member_index(ctx.spec)
    assert np.max(np.abs(grid[members] - Y @ a)) < 1e-13
    assert not np.any(np.delete(grid, members))


@pytest.mark.parametrize("b", [1.0078125, 1.8515625, 2.25])
@pytest.mark.parametrize("parity", list(Parity))
def test_context_tables_independent_of_depth(domain, quad, context_for, parity, b):
    # the depth enters only through steklov_table in assemble (the assembly
    # docstring): a context moved to another depth is a fresh build there,
    # and it shares the solver's depth-independent set-ups with the original
    ctx = context_for(parity, 5)
    moved = dataclasses.replace(ctx, domain=make_domain(domain.a, b))
    fresh = build_context(moved.spec, moved.domain, quad)
    assert moved.spectra is ctx.spectra
    for f in dataclasses.fields(fresh):
        got, want = getattr(moved, f.name), getattr(fresh, f.name)
        if f.name == "spectra":
            continue
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), f.name
        elif f.name == "surface_rule":
            assert np.array_equal(got.nodes, want.nodes) and np.array_equal(got.weights, want.weights)
        else:
            assert got == want, f.name


def _uncompressed(parity, domain, quad, monkeypatch):
    """The context of the 15x15 family with Y = I, built by build_context
    itself: every 1-D eigenbasis is the identity and every pair is kept."""
    with monkeypatch.context() as patch:
        patch.setattr(assembly, "_product_eigenbasis",
                      lambda gram, lead: (np.ones(gram.shape[0] - lead), np.eye(gram.shape[0])))
        ctx = build_context(BasisSpec(parity=parity), domain, quad)
    assert ctx.trial_dim == ctx.spec.size
    assert np.array_equal(ctx.pairs, np.divmod(member_index(ctx.spec), ctx.angular_basis.shape[0]))
    return ctx


def _filtered_solve(pair):
    """A reference solve that accepts a singular metric: eigendecompose
    Delta (its directions below sqrt(eps) of the largest a second time,
    restricted to their span), keep those above 1e-13 of the largest,
    whiten, and solve the kept block: (values, vectors) like
    solve_generalized."""
    sigma, U = np.linalg.eigh(pair.delta)
    low = int(np.sum(sigma < np.sqrt(np.finfo(float).eps) * sigma[-1]))
    sigma[:low], W = np.linalg.eigh(U[:, :low].T @ pair.delta @ U[:, :low])
    U[:, :low] = U[:, :low] @ W
    first = int(np.searchsorted(sigma, 1e-13 * sigma[-1], side="right"))
    X = U[:, first:] / np.sqrt(sigma[first:])
    values, Z = np.linalg.eigh(X.T @ pair.lam @ X)
    return values, X @ Z


# The default finite-difference oracle's k at b = 1.5 (h = 1/64, Richardson;
# test_cli's ORACLE_DEFAULT)
ORACLE_K = {"even,1": 2.061071395, "even,2": 3.073017257, "odd,1": 3.450614741, "odd,2": 4.218866332}


def test_compression_matches_uncompressed_family(domain, quad, converged, dense_fixed_point, monkeypatch):
    # the eight Table 2 k at tol 1e-8 against the solve over the whole
    # family (Y = I).  Its Gram is singular at roundoff, so it has no
    # Cholesky factor and no spectral set-up: its fixed point runs over
    # _filtered_solve.  DtN: measured at most 2.65e-8 apart at 15x15.  NtD:
    # the compressed k lie 1.7e-6 to 3.9e-5 closer to the oracle than the
    # filtered ones, on 1 and 2 BLAS threads
    seeds = mode_seeds(domain)
    full = {parity: _uncompressed(parity, domain, quad, monkeypatch) for parity in Parity}
    for label, seed in seeds.items():
        parity = Parity(label.split(",")[0])
        for method in Method:
            k = converged(method, label, tol=1e-8)[0].k_estimate
            k_full = dense_fixed_point(_filtered_solve, method, seed, full[parity], 1e-8)[0]
            if method is Method.DTN:
                assert abs(k - k_full) < 5e-8, label
            else:
                assert abs(k - ORACLE_K[label]) < abs(k_full - ORACLE_K[label]) + 5e-8, label


@pytest.mark.parametrize("size", [5, 15])
@pytest.mark.parametrize("parity", list(Parity))
def test_factored_interface_matches_family_tables(context_for, family_tables, dense_coords,
                                                  compressed_traces, size, parity):
    # the factored interface tables against the dense family tables: P Y,
    # Q Y, Y^T T, Y^T D and Y^T C Y, and the two symmetrized bases -S + C
    # and -S - C^T and G
    ctx = context_for(parity, size)
    G, S, T, D, psi, ws = family_tables(ctx)
    Y = dense_coords(ctx)
    YT, YD = compressed_traces(ctx)
    i, c, d = ctx.pairs[0], ctx.value_consts, ctx.deriv_consts
    PY, QY = (psi * ws) @ T.T @ Y, (psi * ws) @ D.T @ Y
    C = (T * ws) @ D.T

    def sym(X):
        return 0.5 * (X + X.T)

    for got, want in ((ctx.value_factor[:, i] * c, PY), (ctx.deriv_factor[:, i] * d, QY),
                      (YT, Y.T @ T), (YD, Y.T @ D), ((YT * ws) @ YD.T, Y.T @ C @ Y),
                      (ctx.dtn_base, Y.T @ sym(-S + C) @ Y), (ctx.ntd_base, Y.T @ sym(-S - C.T) @ Y),
                      (ctx.gram, Y.T @ G @ Y)):
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
    # W Y = F K^T has rank at most n_r = n_max + lead, against r columns
    n_r = ctx.radial_basis.shape[1]
    assert ctx.trial_dim > n_r
    for W in (PY, QY):
        assert np.linalg.matrix_rank(W) <= n_r


@pytest.mark.parametrize("parity", list(Parity))
def test_gamma2_reads_dense_projections(context_for, family_tables, dense_coords, parity, rng):
    # gamma2 from the radial factors against the dense P Y a and Q Y a / b_n
    from helmbound import gamma2_coefficients

    ctx = context_for(parity, 15)
    _, _, T, D, psi, ws = family_tables(ctx)
    Y = dense_coords(ctx)
    a = rng.normal(size=ctx.trial_dim)
    bn, _ = steklov_table(KAPPA, ctx.n_modes, ctx.domain)
    for method, want in ((Method.DTN, (psi * ws) @ T.T @ Y @ a),
                         (Method.NTD, (psi * ws) @ D.T @ Y @ a / bn)):
        got = gamma2_coefficients(method, a, KAPPA, ctx)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want)), method


def test_compress_floor_moves_no_k(domain, context_for, converged, monkeypatch):
    # the floor is the only cut of the trial space (solver docstring), so a
    # floor a decade lower (1e-14) moves k, but never up: it keeps 10-12
    # more directions per family at 15x15, a superset of the pairs, so the
    # Ritz values of the nested subspaces interlace.  The eight Table 2 k
    # (tol 1e-8, 1 and 2 BLAS threads) fell by 2.4e-7 (NtD even,1) to
    # 3.3e-5 (NtD odd,2).  A decade up is test_solver's test_filter_sensitivity
    seeds = mode_seeds(domain)
    ctx = {parity: context_for(parity) for parity in Parity}  # cached at the default floor
    monkeypatch.setattr(assembly, "COMPRESS_FLOOR", COMPRESS_FLOOR / 10)
    lower = {parity: build_context(ctx[parity].spec, domain) for parity in Parity}
    for label, seed in seeds.items():
        parity = Parity(label.split(",")[0])
        assert lower[parity].trial_dim > ctx[parity].trial_dim
        for method in Method:
            k = converged(method, label, tol=1e-8)[0].k_estimate
            k_lower = iterate_mode(method, seed, lower[parity], tol=1e-8)[0].k_estimate
            assert k_lower <= k + 1e-9, (label, method)
            assert k - k_lower < 1e-4, (label, method)


def test_delta11_full_entry_against_independent_quadrature(domain, quad, family_tables):
    # adaptive-quadrature oracle for Delta_11 = pi/12 + (1/2k) sum b_n' (psi_n||x|-a)^2,
    # an entry of the family pencil
    ctx = build_context(BasisSpec(parity=Parity.EVEN, n_max=3, m_max=3), domain, quad)
    _, delta = _family_pencil(Method.DTN, KAPPA, ctx, family_tables(ctx))
    n_modes = 200
    _, dbn = steklov_table(KAPPA, n_modes, domain)
    surface = 0.0
    for n in range(1, n_modes + 1):
        integrand = lambda x: np.sin(n * np.pi * (x + 1.0) / 2.0) * (abs(x) - 1.0)
        proj, _ = scipy_quad(integrand, -1.0, 1.0, points=[0.0], limit=200)
        surface += dbn[n - 1] * proj * proj
    expected = np.pi / 12.0 + surface / (2.0 * KAPPA)
    assert delta[0, 0] == pytest.approx(expected, rel=1e-8)


def test_truncation_stability(domain, family_tables):
    # family pencil entries: Delta is stable at 1e-10 under N doubling;
    # Lambda's DtN tail decays only like N^-2 (kinked basis traces),
    # measured ~5e-6 at N=200
    quad = QuadratureConfig(n_r=64, n_phi=64, n_s=256)
    spec = BasisSpec(parity=Parity.EVEN, n_max=15, m_max=15)
    ctx200 = build_context(spec, domain, quad, n_modes=200)
    ctx400 = build_context(spec, domain, quad, n_modes=400)
    for method in Method:
        lam200, delta200 = _family_pencil(method, KAPPA, ctx200, family_tables(ctx200))
        lam400, delta400 = _family_pencil(method, KAPPA, ctx400, family_tables(ctx400))
        assert np.max(np.abs(delta200 - delta400)) < 1e-10
        assert np.max(np.abs(lam200 - lam400)) < 2e-5


def test_quadrature_stability(domain, family_tables):
    # family pencil entry drift under 50% richer quadrature, relative to the
    # matrix scale (the two contexts' compressed bases differ)
    spec = BasisSpec(parity=Parity.EVEN, n_max=15, m_max=15)
    ctx1 = build_context(spec, domain, QuadratureConfig(64, 64, 128))
    ctx2 = build_context(spec, domain, QuadratureConfig(96, 96, 192))
    for method in Method:
        lam1, delta1 = _family_pencil(method, KAPPA, ctx1, family_tables(ctx1))
        lam2, delta2 = _family_pencil(method, KAPPA, ctx2, family_tables(ctx2))
        assert np.max(np.abs(lam1 - lam2)) < 1e-10 * max(1.0, np.max(np.abs(lam1)))
        assert np.max(np.abs(delta1 - delta2)) < 1e-10 * max(1.0, np.max(np.abs(delta1)))


def test_functional_reality(domain, context_for, rng):
    ctx = context_for(Parity.EVEN, 5)
    trial = TrialPair(a=rng.normal(size=ctx.trial_dim), gamma2=rng.normal(size=40), kappa=KAPPA)
    for _ in range(20):
        mixing = complex(rng.normal(), rng.normal())
        value = evaluate_discontinuous_functional(trial, mixing, ctx)
        assert abs(value.imag) < 1e-12


def test_functional_mixing_independence_for_matched_trial(domain, context_for, zero_trace_coords, rng):
    # zero interface value and gamma2 = 0: every interface term vanishes
    ctx = context_for(Parity.EVEN, 5)
    trial = TrialPair(a=zero_trace_coords(ctx, rng), gamma2=np.zeros(8), kappa=KAPPA)
    base = evaluate_discontinuous_functional(trial, 0.0, ctx).real
    for _ in range(10):
        mixing = complex(rng.normal(), rng.normal())
        value = evaluate_discontinuous_functional(trial, mixing, ctx)
        assert abs(value - base) < 1e-10


def test_functional_zero_trial(domain, context_for):
    ctx = context_for(Parity.EVEN, 5)
    trial = TrialPair(a=np.zeros(ctx.trial_dim), gamma2=np.zeros(10), kappa=KAPPA)
    with pytest.raises(ZeroTrial):
        evaluate_discontinuous_functional(trial, 0.3, ctx)


def test_functional_rejects_gamma2_beyond_context(domain, context_for, rng):
    ctx = context_for(Parity.EVEN, 5)
    n2 = ctx.n_modes + 1
    trial = TrialPair(a=rng.normal(size=ctx.trial_dim), gamma2=rng.normal(size=n2), kappa=KAPPA)
    with pytest.raises(ValueError, match=f"{n2} coefficients .* {ctx.n_modes} Steklov modes"):
        evaluate_discontinuous_functional(trial, 0.3, ctx)


@pytest.fixture(scope="module")
def fn_ctx(domain):
    # trace-product integrands reach Steklov frequency 2N; 256 nodes per
    # panel resolves them (the default 128 only resolves single traces)
    spec = BasisSpec(parity=Parity.EVEN, n_max=5, m_max=5)
    return build_context(spec, domain, QuadratureConfig(48, 48, 256))


def _matched_trial(method, ctx, rng):
    """A trial at a random reduced vector a, its gamma2 matched; returns (trial, a)."""
    from helmbound import gamma2_coefficients

    a = rng.normal(size=ctx.trial_dim)
    g2 = gamma2_coefficients(method, a, KAPPA, ctx)
    return TrialPair(a=a, gamma2=g2, kappa=KAPPA), a


def test_functional_matches_rayleigh_quotient(domain, fn_ctx, rng):
    # for a value-matched trial at mixing 0 the functional equals the
    # assembled DtN Rayleigh quotient of the trial's reduced coordinates
    trial, a = _matched_trial(Method.DTN, fn_ctx, rng)
    pair = assemble(Method.DTN, KAPPA, fn_ctx)
    rq = float(a @ pair.lam @ a) / float(a @ pair.delta @ a)
    general = evaluate_discontinuous_functional(trial, 0.0, fn_ctx).real
    assert general == pytest.approx(rq, rel=1e-10)


def test_functional_matches_ntd_rayleigh_quotient(domain, fn_ctx, rng):
    trial, a = _matched_trial(Method.NTD, fn_ctx, rng)
    pair = assemble(Method.NTD, KAPPA, fn_ctx)
    rq = float(a @ pair.lam @ a) / float(a @ pair.delta @ a)
    general = evaluate_discontinuous_functional(trial, 1.0, fn_ctx).real
    assert general == pytest.approx(rq, rel=1e-10)
