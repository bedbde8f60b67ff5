import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from helmbound import BasisSpec, Method, Parity, assemble, build_context, iterate_mode, make_domain, mode_seeds
from helmbound import assembly, solver
from helmbound.assembly import COMPRESS_FLOOR
from helmbound.cli import MUTUAL_TOL
from helmbound.config import MODE_LABELS
from helmbound.errors import (MetricNotPositiveDefinite, NearDirichletResonance, NearNeumannResonance,
                              NoPositiveEigenvalue, NotConverged)
from helmbound.solver import solve_generalized

from conftest import select_mode


def _pair(lam, delta):
    """A dense pencil: solve_generalized reads only lam and delta."""
    return SimpleNamespace(lam=np.asarray(lam, dtype=float), delta=np.asarray(delta, dtype=float))


def test_identity_metric():
    values, vectors = solve_generalized(_pair(np.diag([2.0, 3.0]), np.eye(2)))
    assert values == pytest.approx([2.0, 3.0], abs=1e-14)
    # both values are exact eigenvalues of H = diag(2, 3)
    assert np.abs(vectors) == pytest.approx(np.eye(2), abs=1e-14)


def test_coupled_two_by_two():
    values, _ = solve_generalized(_pair([[2.0, 1.0], [1.0, 2.0]], np.eye(2)))
    assert values == pytest.approx([1.0, 3.0], abs=1e-14)


def test_diagonal_generalized():
    values, _ = solve_generalized(_pair(np.diag([2.0, 3.0]), np.diag([2.0, 1.0])))
    assert values == pytest.approx([1.0, 3.0], abs=1e-14)


def test_metric_orthonormality_trivial():
    pair = _pair([[2.0, 1.0], [1.0, 2.0]], np.diag([2.0, 1.0]))
    _, vectors = solve_generalized(pair)
    gram = vectors.T @ pair.delta @ vectors
    assert gram == pytest.approx(np.eye(2), abs=1e-13)


def test_metric_not_positive_definite():
    # a singular metric has no Cholesky factor either: no filter drops its
    # null direction
    for delta in (-np.eye(2), np.diag([1.0, 0.0])):
        with pytest.raises(MetricNotPositiveDefinite):
            solve_generalized(_pair(np.eye(2), delta))


def test_select_mode_nearest():
    assert select_mode(2.0116**2, np.array([4.24, 9.4, 16.1])) == 0


def test_select_mode_exact_and_tie():
    values = np.array([1.0, 3.0, 5.0])
    assert select_mode(3.0, values) == 1
    assert select_mode(2.0, values) == 0  # equidistant from 1 and 3: smaller index


def test_select_mode_skips_nonpositive():
    assert select_mode(0.05, np.array([-5.0, -0.1, 2.0])) == 2
    with pytest.raises(NoPositiveEigenvalue):
        select_mode(4.0, np.array([-5.0, -0.1]))


def test_secular_search_follows_select_mode():
    # on random pencils diag(Theta) + U A1 U^T, I + U A2 U^T (A2 positive
    # definite, some rows of U exactly 0, so some eigenvalues sit on a pole),
    # the secular search picks what select_mode picks from the dense
    # eigenvalues, or raises where it raises, and its vector is an
    # eigenvector: measured over 2000 pencils, k within 5e-11 relative,
    # residuals below 1e-8.  This stream holds a pencil on which Newton
    # without the halving safeguard cycles across a pole of E
    rng = np.random.default_rng(160)
    for _ in range(40):
        r, q, N = int(rng.integers(3, 30)), int(rng.integers(1, 5)), 30
        U = rng.uniform(0.1, 3.0) * rng.normal(size=(r, q))
        U[rng.random(r) < 0.15] = 0.0
        spec = solver.Spectrum(theta=np.sort(rng.normal(scale=rng.uniform(0.5, 20.0), size=r)) + rng.normal(scale=3.0),
                               vectors=np.eye(r), coupling=U, factor=np.linalg.qr(rng.normal(size=(N, q)))[0])
        cores = spec.cores((rng.normal(size=N), rng.uniform(0.1, 1.0, size=N)))
        lam, delta = np.diag(spec.theta) + U @ cores[0] @ U.T, np.eye(r) + U @ cores[1] @ U.T
        values, _ = solve_generalized(_pair(0.5 * (lam + lam.T), 0.5 * (delta + delta.T)))
        secular = solver._Secular(spec, cores)
        for target in rng.uniform(1e-3, 1.3 * max(values[-1], 1.0), 10):
            try:
                want = values[select_mode(target, values)]
            except NoPositiveEigenvalue:
                with pytest.raises(NoPositiveEigenvalue):
                    solver._nearest(secular, target)
                continue
            got = solver._nearest(secular, target)
            assert abs(got - want) <= 1e-9 * max(1.0, want), (r, q, target)
            x = secular.mode(got)
            assert np.linalg.norm(lam @ x - got * (delta @ x)) <= 1e-8 * np.linalg.norm(lam)
            assert x @ delta @ x == pytest.approx(1.0, abs=1e-10)


def test_iterate_table_run(converged):
    estimate, trace = converged(Method.DTN, "even,1")
    assert trace.estimates == pytest.approx([2.0633, 2.0611, 2.0611], abs=5e-4)
    assert trace.last_step() < 5e-5
    assert estimate.k_estimate == pytest.approx(2.0611, abs=5e-4)
    # the fixed point writes each estimate back as the next kappa
    assert trace.kappas[1:] == pytest.approx(trace.estimates[:-1])


def test_single_direction_modes_are_finite(domain, quad):
    # the odd 1x1 family has r = 1, where the constant that the start of the
    # inverse iteration adds cancels a negative null vector: half of these
    # solves returned a NaN vector
    ctx = build_context(BasisSpec(parity=Parity.ODD, n_max=1, m_max=1), domain, quad)
    assert ctx.trial_dim == 1
    for method in Method:
        for label in ("odd,1", "odd,2"):
            estimate, _ = iterate_mode(method, mode_seeds(domain)[label], ctx)
            a, delta = estimate.a, assemble(method, estimate.kappa, ctx).delta
            assert np.all(np.isfinite(a)), (method, label)
            assert a @ delta @ a == pytest.approx(1.0, abs=1e-12), (method, label)


def test_iterate_not_converged(context_for):
    ctx = context_for(Parity.EVEN, 15)
    with pytest.raises(NotConverged) as info:
        iterate_mode(Method.DTN, 2.0116, ctx, max_iter=1)
    trace = info.value.trace
    assert trace.iterations == 1
    # the seed counts as estimate 0, so one iteration already has a step
    assert trace.last_step() == abs(trace.estimates[0] - 2.0116)
    assert f"last |dk| = {trace.last_step():.3e}" in str(info.value)


@pytest.mark.parametrize("label", ["even,1", "even,2", "odd,1", "odd,2"])
def test_warm_starts_take_one_iteration(converged, context_for, label):
    # physical roots are stationary, so a seed within tol of the root passes
    # the fixed-point test after one solve.  At 15x15 a restart from a
    # method's own k lands within 2.1e-11 (DtN) and 1.6e-9 (NtD) of it, and
    # NtD seeded with DtN's k (as sweep-basis and compare do) within 1.5e-9
    # of NtD's cold k
    ctx = context_for(MODE_LABELS[label][0], 15)
    est = {method: converged(method, label)[0].k_estimate for method in Method}
    starts = [(Method.DTN, est[Method.DTN], 1e-9), (Method.NTD, est[Method.NTD], 1e-8),
              (Method.NTD, est[Method.DTN], 1e-8)]
    for method, seed, bound in starts:
        warm, trace = iterate_mode(method, seed, ctx)
        assert trace.iterations == 1, (method, seed)
        assert abs(warm.k_estimate - est[method]) < bound, (method, seed)


def test_warm_ntd_stays_on_dtn_root_where_seed_hops(quad):
    # b = 2.0, odd,2: from the closed-form seed NtD climbs over 7 iterations
    # to the mode at 4.6486 (defect D2, which solve still shows); from DtN's
    # k it stays on DtN's root, 2.5e-5 away after one iteration
    domain = make_domain(1.0, 2.0)
    ctx = build_context(BasisSpec(parity=Parity.ODD, n_max=15, m_max=15), domain, quad)
    seed = mode_seeds(domain)["odd,2"]
    est_d, _ = iterate_mode(Method.DTN, seed, ctx)
    cold, _ = iterate_mode(Method.NTD, seed, ctx)
    warm, trace = iterate_mode(Method.NTD, est_d.k_estimate, ctx)
    assert est_d.k_estimate == pytest.approx(3.9006, abs=1e-4)
    assert cold.k_estimate == pytest.approx(4.6486, abs=1e-4)
    assert trace.iterations == 1
    assert abs(warm.k_estimate - est_d.k_estimate) < MUTUAL_TOL


def test_iterate_rejects_bad_seed(context_for):
    with pytest.raises(ValueError):
        iterate_mode(Method.DTN, 0.0, context_for(Parity.EVEN, 3))


@pytest.mark.parametrize("a", [0.5, 1.7, 2.0])
def test_scaling_law(domain, quad, converged, a):
    # alpha -> alpha / a and b -> a b dilate the domain, the trial family and
    # the Steklov modes by a, so a k(a) = k(1): measured at most 3.4e-13 apart
    scaled = make_domain(a * domain.a, a * domain.b)
    seeds = mode_seeds(scaled)
    for label, (parity, _) in MODE_LABELS.items():
        spec = BasisSpec(parity=parity, alpha=BasisSpec(parity).alpha / a)
        ctx = build_context(spec, scaled, quad)
        for method in Method:
            k = iterate_mode(method, seeds[label], ctx, tol=1e-12)[0].k_estimate
            assert abs(a * k - converged(method, label, tol=1e-12)[0].k_estimate) < 1e-12, (label, method)


def test_monotone_convergence_after_first_step(converged):
    for method, label in [(Method.DTN, "even,1"), (Method.NTD, "even,1"),
                          (Method.DTN, "odd,1"), (Method.NTD, "odd,1")]:
        _, trace = converged(method, label)
        steps = np.abs(np.diff(trace.estimates))
        assert np.all(np.diff(steps) <= 0.0)


def test_cross_method_agreement(converged):
    for label in ("even,1", "odd,1"):
        est_d, _ = converged(Method.DTN, label)
        est_n, _ = converged(Method.NTD, label)
        assert abs(est_d.k_estimate - est_n.k_estimate) < 1e-4


# The cut-cell FD Richardson pair (1/128, 1/256) at b = 1.5, to 7 decimals.
FD_REFERENCE = {"even,1": 2.0610714, "even,2": 3.0730174, "odd,1": 3.4506149, "odd,2": 4.2188668}


def test_convergence_is_one_sided(converged):
    # every converged k lies above the reference, for both methods and both
    # sizes: by 1.09e-5 to 1.88e-4 at 15x15 and 2.49e-6 to 4.16e-5 at 30x30
    # (measured at the default tol and at 1e-10 alike), far above the
    # reference's 5e-8 rounding
    for size in (15, 30):
        for label, reference in FD_REFERENCE.items():
            for method in Method:
                k = converged(method, label, size=size)[0].k_estimate
                assert k > reference, (size, label, method, k - reference)


def test_filter_sensitivity(domain, context_for, converged, monkeypatch):
    # the solve filters nothing: the compression floor is the only cut of the
    # trial space (solver docstring).  A floor a decade up (1e-12) drops 3-4
    # directions per family at 15x15 and moves the eight Table 2 k (tol
    # 1e-8, 1 and 2 BLAS threads) by at most 5.9e-7 (DtN odd,1) and 2.2e-6
    # (NtD odd,2).  A decade down is test_assembly's
    # test_compress_floor_moves_no_k
    seeds = mode_seeds(domain)
    ctx = {parity: context_for(parity) for parity in Parity}  # cached at the default floor
    monkeypatch.setattr(assembly, "COMPRESS_FLOOR", COMPRESS_FLOOR * 10)
    higher = {parity: build_context(ctx[parity].spec, domain) for parity in Parity}
    bounds = {Method.DTN: 1e-6, Method.NTD: 1e-4}
    for label, seed in seeds.items():
        parity = MODE_LABELS[label][0]
        assert higher[parity].trial_dim < ctx[parity].trial_dim
        for method, bound in bounds.items():
            k = converged(method, label, tol=1e-8)[0].k_estimate
            k_higher = iterate_mode(method, seed, higher[parity], tol=1e-8)[0].k_estimate
            assert abs(k_higher - k) < bound, (label, method)


def test_spectral_setup_diagonalizes_the_pencil(context_for):
    # solver.spectrum at b = 1.5 for both parities and methods.  q, the rank
    # of the interface term in W coordinates, is pinned exactly (even DtN,
    # even NtD, odd DtN, odd NtD).  W^T G W = I measured within 1.8e-12, and
    # at two kappas W^T Lambda W = diag(Theta) + U' A1 U'^T and W^T Delta W =
    # I + U' A2 U'^T within 5.6e-14 of the largest entry (odd NtD at 15x15),
    # on 1 and 2 BLAS threads; the bounds leave a margin of 5 and 9
    ranks = {15: [10, 9, 9, 9], 30: [16, 15, 15, 15]}
    for size, q in ranks.items():
        got = []
        for parity in (Parity.EVEN, Parity.ODD):
            ctx = context_for(parity, size)
            for method in (Method.DTN, Method.NTD):
                spec = solver.spectrum(method, ctx)
                W, U = spec.vectors, spec.coupling
                got.append(U.shape[1])
                eye = np.eye(ctx.trial_dim)
                assert np.max(np.abs(W.T @ ctx.gram @ W - eye)) < 1e-11, (size, parity, method)
                for kappa in (2.0611, 3.4506):
                    pair = assemble(method, kappa, ctx)
                    A1, A2 = spec.cores(pair.weights)
                    for M, base, core in ((pair.lam, np.diag(spec.theta), A1), (pair.delta, eye, A2)):
                        WMW = W.T @ M @ W
                        assert np.max(np.abs(WMW - base - U @ core @ U.T)) < 5e-13 * np.max(np.abs(WMW)), \
                            (size, parity, method, kappa)
        assert got == q, size


def test_range_cut_leaves_a_gap(context_for):
    # the RANGE_CUT comment at b = 1.5: the interface singular values that
    # spectrum keeps, the column norms of U', against a dense SVD of
    # F K^T L^-T (G = L L^T), which has the singular values of F K^T W.  The
    # kept ones measured down to 2.35e-3 of the largest (even NtD at 30x30),
    # the dropped ones at most 9.6e-16, with the kept ones within 4e-14
    for size in (15, 30):
        for parity in Parity:
            ctx = context_for(parity, size)
            L = np.linalg.cholesky(ctx.gram)
            for method in Method:
                _, F, c = ctx.method_tables(method)
                s = np.linalg.svd(np.linalg.solve(L, (F[:, ctx.pairs[0]] * c).T), compute_uv=False)
                kept = np.linalg.norm(solver.spectrum(method, ctx).coupling, axis=0)
                where = (size, parity, method)
                assert kept == pytest.approx(s[:kept.size], rel=1e-10), where
                assert kept.min() >= 1e-3 * s[0], where
                assert np.all(s[kept.size:] <= 1e-12 * s[0]), where


def test_eigenvalues_real_ascending(context_for):
    ctx = context_for(Parity.EVEN, 15)
    for method in (Method.DTN, Method.NTD):
        values, _ = solve_generalized(assemble(method, 2.0611, ctx))
        assert np.all(np.isfinite(values))
        assert np.all(np.diff(values) >= 0.0)


def test_tracked_residual_and_orthonormality(context_for):
    # full-pencil residual of the tracked column within 1e-10 ||Lambda||_F;
    # metric orthonormality of the physical block within 2e-10 (the
    # rounding floor of the whitening X = L^-T)
    for parity, target in ((Parity.EVEN, 2.0611**2), (Parity.ODD, 3.4507**2)):
        ctx = context_for(parity, 15)
        for method in (Method.DTN, Method.NTD):
            pair = assemble(method, np.sqrt(target), ctx)
            values, vectors = solve_generalized(pair)
            jt = int(np.argmin(np.abs(values - target)))
            vec = vectors[:, jt]
            res = np.linalg.norm(pair.lam @ vec - values[jt] * (pair.delta @ vec))
            assert res <= 1e-10 * np.linalg.norm(pair.lam, "fro")
            lo, hi = max(0, jt - 2), min(values.size, jt + 3)
            block = vectors[:, lo:hi]
            gram = block.T @ pair.delta @ block
            assert np.max(np.abs(gram - np.eye(hi - lo))) < 2e-10


def test_solve_ignores_row_order(context_for, rng):
    # an exact reordering of the pencil changes only the rounding (and the
    # order in which Cholesky meets the graded metric), so the tracked k
    # must not move with it (measured at most 5.9e-12, DtN even,1)
    for parity, kappa in ((Parity.EVEN, 2.0610714), (Parity.ODD, 3.4506149)):
        ctx = context_for(parity, 15)
        for method in Method:
            pair = assemble(method, kappa, ctx)
            ks = []
            for _ in range(8):
                order = np.ix_(*2 * [rng.permutation(ctx.trial_dim)])
                values, _ = solve_generalized(_pair(pair.lam[order], pair.delta[order]))
                ks.append(np.sqrt(values[select_mode(kappa**2, values)]))
            assert np.ptp(ks) < 1e-9, (parity, method)


def test_solve_deterministic(context_for):
    ctx = context_for(Parity.ODD, 5)
    pair = assemble(Method.NTD, 3.4507, ctx)
    (v1, x1), (v2, x2) = solve_generalized(pair), solve_generalized(pair)
    assert np.array_equal(v1, v2)
    assert np.array_equal(x1, x2)


def _outcome(run):
    try:
        return run()
    except (NearDirichletResonance, NearNeumannResonance) as exc:
        return type(exc)


def test_iterate_matches_full_eigh_loop(context_for, dense_fixed_point):
    # iterate_mode tracks the mode by the secular equation of its spectral
    # set-up; the fixed point over solve_generalized, the eigh of the dense
    # whitened block H of every pencil, must take as many iterations to the same k (measured within
    # 1.6e-11 at 15x15 and 30x30, b = 1.5, 1.0078125 and 2.0), hop where it
    # hops (b = 2.0, NtD odd,2 from the closed-form seed: defect D2) and
    # meet the same resonance (b = 1.0: defect D1).  The contexts are the
    # b = 1.5 ones moved to b, sharing their set-ups
    for size, b in ((15, 1.5), (30, 1.5), (15, 1.0078125), (15, 2.0), (15, 1.0)):
        _check_against_full_eigh_loop(context_for, dense_fixed_point, size, b)


def _check_against_full_eigh_loop(context_for, dense_fixed_point, size, b):
    domain = make_domain(1.0, b)
    contexts = {parity: dataclasses.replace(context_for(parity, size), domain=domain) for parity in Parity}
    for label, seed in mode_seeds(domain).items():
        ctx = contexts[MODE_LABELS[label][0]]
        for method in Method:
            got = _outcome(lambda: iterate_mode(method, seed, ctx, tol=1e-8))
            want = _outcome(lambda: dense_fixed_point(solve_generalized, method, seed, ctx, 1e-8))
            if isinstance(want, type) or isinstance(got, type):
                assert got is want, (method, label)
                continue
            (estimate, trace), (k, iterations, ref) = got, want
            assert trace.iterations == iterations, (method, label)
            assert abs(estimate.k_estimate - k) < 1e-10, (method, label)
            if (b, label, method) == (2.0, "odd,2", Method.NTD):
                assert k == pytest.approx(4.64856, abs=1e-5)
            # the converged vector has a pencil residual at the rounding level
            # (measured at most 1e-16 ||Lambda||_2), and it is eigh's up to
            # sign in the metric norm (measured at most 1.1e-10, 30x30 NtD
            # even,1).  In the Euclidean norm of the coordinates it is up to
            # 3e-8 from eigh's at 30x30, in directions of tiny metric weight
            # that neither solve resolves
            pair = assemble(method, estimate.kappa, ctx)
            a, F = estimate.a, estimate.k_estimate**2
            assert np.linalg.norm(pair.lam @ a - F * (pair.delta @ a)) <= 1e-10 * np.linalg.norm(pair.lam, "fro")
            gap = a - np.sign(a @ ref) * ref
            assert np.sqrt(gap @ pair.delta @ gap) < 1e-9, (method, label)
    if b == 1.5:
        # Sylvester: the count of the secular matrix is the number of dense
        # eigenvalues below F, over the four labels' windows
        for ctx in contexts.values():
            for method in Method:
                spec = solver.spectrum(method, ctx)
                for kappa in (2.0611, 3.0730, 3.4506, 4.2189):
                    pair = assemble(method, kappa, ctx)
                    values, _ = solve_generalized(pair)
                    secular = solver._Secular(spec, spec.cores(pair.weights))
                    for F in np.linspace(3.5, 19.0, 32):
                        assert secular.count(F) == np.count_nonzero(values < F), (method, kappa, F)
