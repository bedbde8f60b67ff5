import numpy as np
import pytest

from helmbound import (
    BasisSpec,
    EigenSolution,
    MatrixPair,
    Method,
    Parity,
    assemble,
    build_context,
    iterate_mode,
    make_domain,
    mode_seeds,
    select_mode,
    solve_generalized,
)
from helmbound import assembly
from helmbound.assembly import COMPRESS_FLOOR
from helmbound.cli import MUTUAL_TOL
from helmbound.errors import MetricNotPositiveDefinite, NoPositiveEigenvalue, NotConverged


def _pair(lam, delta):
    return MatrixPair(lam=np.asarray(lam, dtype=float), delta=np.asarray(delta, dtype=float))


def _vectors(sol, indices):
    return np.column_stack([sol.vector(i) for i in indices])


def _diagonal_solution(values):
    values = np.array(values)
    return EigenSolution(values=values, whitening=np.eye(values.size), block=np.diag(values))


def test_identity_metric():
    sol = solve_generalized(_pair(np.diag([2.0, 3.0]), np.eye(2)))
    assert sol.values == pytest.approx([2.0, 3.0], abs=1e-14)
    # both values are exact eigenvalues of H = diag(2, 3)
    assert np.abs(_vectors(sol, range(2))) == pytest.approx(np.eye(2), abs=1e-14)


def test_coupled_two_by_two():
    sol = solve_generalized(_pair([[2.0, 1.0], [1.0, 2.0]], np.eye(2)))
    assert sol.values == pytest.approx([1.0, 3.0], abs=1e-14)


def test_diagonal_generalized():
    sol = solve_generalized(_pair(np.diag([2.0, 3.0]), np.diag([2.0, 1.0])))
    assert sol.values == pytest.approx([1.0, 3.0], abs=1e-14)


def test_metric_orthonormality_trivial():
    pair = _pair([[2.0, 1.0], [1.0, 2.0]], np.diag([2.0, 1.0]))
    sol = solve_generalized(pair)
    vectors = _vectors(sol, range(2))
    gram = vectors.T @ pair.delta @ vectors
    assert gram == pytest.approx(np.eye(2), abs=1e-13)


def test_metric_not_positive_definite():
    # a singular metric has no Cholesky factor either: no filter drops its
    # null direction
    for delta in (-np.eye(2), np.diag([1.0, 0.0])):
        with pytest.raises(MetricNotPositiveDefinite):
            solve_generalized(_pair(np.eye(2), delta))


def test_select_mode_nearest():
    sol = _diagonal_solution([4.24, 9.4, 16.1])
    assert select_mode(2.0116**2, sol) == 0


def test_select_mode_exact_and_tie():
    sol = _diagonal_solution([1.0, 3.0, 5.0])
    assert select_mode(3.0, sol) == 1
    assert select_mode(2.0, sol) == 0  # equidistant from 1 and 3: smaller index


def test_select_mode_skips_nonpositive():
    sol = _diagonal_solution([-5.0, -0.1, 2.0])
    assert select_mode(0.05, sol) == 2
    sol = _diagonal_solution([-5.0, -0.1])
    with pytest.raises(NoPositiveEigenvalue):
        select_mode(4.0, sol)


def test_iterate_table_run(converged):
    estimate, trace = converged(Method.DTN, "even,1")
    assert trace.estimates == pytest.approx([2.0633, 2.0611, 2.0611], abs=5e-4)
    assert trace.converged
    assert estimate.k_estimate == pytest.approx(2.0611, abs=5e-4)
    # the fixed point writes each estimate back as the next kappa
    assert trace.kappas[1:] == pytest.approx(trace.estimates[:-1])


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
    ctx = context_for(Parity(label.split(",")[0]), 15)
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
        parity = Parity(label.split(",")[0])
        assert higher[parity].trial_dim < ctx[parity].trial_dim
        for method, bound in bounds.items():
            k = converged(method, label, tol=1e-8)[0].k_estimate
            k_higher = iterate_mode(method, seed, higher[parity], tol=1e-8)[0].k_estimate
            assert abs(k_higher - k) < bound, (label, method)


def test_eigenvalues_real_ascending(context_for):
    ctx = context_for(Parity.EVEN, 15)
    for method in (Method.DTN, Method.NTD):
        pair = assemble(method, 2.0611, ctx)
        sol = solve_generalized(pair)
        assert np.all(np.isfinite(sol.values))
        assert np.all(np.diff(sol.values) >= 0.0)


def test_tracked_residual_and_orthonormality(context_for):
    # full-pencil residual of the tracked column within 1e-10 ||Lambda||_F;
    # metric orthonormality of the physical block within 2e-10 (the
    # rounding floor of the whitening X = L^-T)
    for parity, target in ((Parity.EVEN, 2.0611**2), (Parity.ODD, 3.4507**2)):
        ctx = context_for(parity, 15)
        for method in (Method.DTN, Method.NTD):
            pair = assemble(method, np.sqrt(target), ctx)
            sol = solve_generalized(pair)
            jt = int(np.argmin(np.abs(sol.values - target)))
            vec = sol.vector(jt)
            res = np.linalg.norm(pair.lam @ vec - sol.values[jt] * (pair.delta @ vec))
            assert res <= 1e-10 * np.linalg.norm(pair.lam, "fro")
            lo, hi = max(0, jt - 2), min(sol.values.size, jt + 3)
            block = _vectors(sol, range(lo, hi))
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
                sol = solve_generalized(_pair(pair.lam[order], pair.delta[order]))
                ks.append(np.sqrt(sol.values[select_mode(kappa**2, sol)]))
            assert np.ptp(ks) < 1e-9, (parity, method)


def test_solve_deterministic(context_for):
    ctx = context_for(Parity.ODD, 5)
    pair = assemble(Method.NTD, 3.4507, ctx)
    s1 = solve_generalized(pair)
    s2 = solve_generalized(pair)
    assert np.array_equal(s1.values, s2.values)
    for i in range(s1.kept):
        assert np.array_equal(s1.vector(i), s2.vector(i))


def test_iterate_matches_full_eigh_loop(domain, context_for):
    # the fixed point reads eigvalsh values and one inverse-iteration vector;
    # a loop that takes eigh of the same whitened block H must take as many
    # iterations to the same k
    seeds = mode_seeds(domain)
    for label, seed in seeds.items():
        ctx = context_for(Parity(label.split(",")[0]), 15)
        for method in (Method.DTN, Method.NTD):
            estimate, trace = iterate_mode(method, seed, ctx, tol=1e-8)
            kappa, target, ks = seed, seed**2, []
            while len(ks) < 2 or abs(ks[-1] - ks[-2]) >= 1e-8:
                assert len(ks) < 20, (method, label)
                sol = solve_generalized(assemble(method, kappa, ctx))
                values, Z = np.linalg.eigh(sol.block)
                j = int(np.argmin(np.where(values > 0, np.abs(values - target), np.inf)))
                target = values[j]
                kappa = np.sqrt(target)
                ks.append(kappa)
            assert trace.iterations == len(ks), (method, label)
            assert abs(estimate.k_estimate - ks[-1]) < 1e-10, (method, label)
            # the converged vector is eigh's up to sign (measured: within 5e-11)
            vec, ref = sol.vector(j), sol.whitening @ Z[:, j]
            assert np.linalg.norm(vec - np.sign(vec @ ref) * ref) < 1e-9 * np.linalg.norm(ref)
