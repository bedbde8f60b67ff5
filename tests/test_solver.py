import numpy as np
import pytest

from helmbound import (
    BasisSpec,
    EigenSolution,
    MatrixPair,
    Method,
    Parity,
    assemble,
    iterate_mode,
    make_domain,
    mode_seeds,
    select_mode,
    solve_generalized,
)
from helmbound.errors import MetricNotPositiveDefinite, NoPositiveEigenvalue, NotConverged


def _pair(lam, delta):
    return MatrixPair(
        lam=np.asarray(lam, dtype=float),
        delta=np.asarray(delta, dtype=float),
        lambda_defect=0.0,
        delta_defect=0.0,
    )


def test_identity_metric():
    sol = solve_generalized(_pair(np.diag([2.0, 3.0]), np.eye(2)))
    assert sol.values == pytest.approx([2.0, 3.0], abs=1e-14)
    assert np.abs(sol.vectors) == pytest.approx(np.eye(2), abs=1e-14)


def test_coupled_two_by_two():
    sol = solve_generalized(_pair([[2.0, 1.0], [1.0, 2.0]], np.eye(2)))
    assert sol.values == pytest.approx([1.0, 3.0], abs=1e-14)


def test_diagonal_generalized():
    sol = solve_generalized(_pair(np.diag([2.0, 3.0]), np.diag([2.0, 1.0])))
    assert sol.values == pytest.approx([1.0, 3.0], abs=1e-14)


def test_metric_orthonormality_trivial():
    pair = _pair([[2.0, 1.0], [1.0, 2.0]], np.diag([2.0, 1.0]))
    sol = solve_generalized(pair)
    gram = sol.vectors.T @ pair.delta @ sol.vectors
    assert gram == pytest.approx(np.eye(2), abs=1e-13)


def test_metric_not_positive_definite():
    with pytest.raises(MetricNotPositiveDefinite):
        solve_generalized(_pair(np.eye(2), -np.eye(2)))


def test_select_mode_nearest():
    sol = EigenSolution(values=np.array([4.24, 9.4, 16.1]), vectors=np.eye(3), kept=3)
    assert select_mode(2.0116**2, sol) == 0


def test_select_mode_exact_and_tie():
    sol = EigenSolution(values=np.array([1.0, 3.0, 5.0]), vectors=np.eye(3), kept=3)
    assert select_mode(3.0, sol) == 1
    assert select_mode(2.0, sol) == 0  # equidistant from 1 and 3: smaller index


def test_select_mode_skips_nonpositive():
    sol = EigenSolution(values=np.array([-5.0, -0.1, 2.0]), vectors=np.eye(3), kept=3)
    assert select_mode(0.05, sol) == 2
    sol = EigenSolution(values=np.array([-5.0, -0.1]), vectors=np.eye(2), kept=2)
    with pytest.raises(NoPositiveEigenvalue):
        select_mode(4.0, sol)


def test_iterate_table_run(converged):
    estimate, trace = converged(Method.DTN, "even,1")
    assert trace.estimates == pytest.approx([2.0633, 2.0611, 2.0611], abs=5e-4)
    assert trace.converged
    assert estimate.k_estimate == pytest.approx(2.0611, abs=5e-4)
    # the fixed point writes each estimate back as the next kappa
    assert trace.kappas[1:] == pytest.approx(trace.estimates[:-1])


def test_iterate_not_converged(domain, context_for):
    ctx = context_for(Parity.EVEN, 15)
    with pytest.raises(NotConverged) as info:
        iterate_mode(Method.DTN, 2.0116, ctx.spec, domain, max_iter=1, context=ctx)
    assert info.value.trace.iterations == 1


def test_iterate_rejects_bad_seed(domain, quad):
    spec = BasisSpec(parity=Parity.EVEN, n_max=3, m_max=3)
    with pytest.raises(ValueError):
        iterate_mode(Method.DTN, 0.0, spec, domain, quad=quad)


@pytest.mark.parametrize("foreign", ["domain", "spec"])
def test_iterate_rejects_foreign_context(domain, context_for, foreign):
    # a context for b = 1.5 and a 15x15 family must not be paired with b = 2.0
    # (Steklov symbols of one depth, tables of another) or with a 5x5 spec
    # (a 226-entry gamma1 labelled with a 26-member family)
    ctx = context_for(Parity.EVEN, 15)
    spec, dom = ctx.spec, domain
    if foreign == "domain":
        dom = make_domain(1.0, 2.0)
    else:
        spec = BasisSpec(parity=Parity.EVEN, n_max=5, m_max=5)
    with pytest.raises(ValueError, match="another trial family or domain"):
        iterate_mode(Method.DTN, 2.0116, spec, dom, context=ctx)


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


def test_filter_sensitivity(domain, context_for):
    # a decade either side of the default filter_tol = 1e-13 moves converged
    # k by at most 3.3e-7 (DtN) and 3.9e-5 (NtD), measured with tol = 1e-8
    # at 15x15 (1 and 2 BLAS threads) and 30x30 (1 thread); the NtD odd,1
    # solve at filter_tol = 1e-14 takes 10 iterations on 1 BLAS thread and
    # 15 on 2, against max_iter = 20: its step sits at the tolerance
    seeds = mode_seeds(domain)
    bounds = {Method.DTN: 1e-6, Method.NTD: 1e-4}
    for label in ("even,1", "even,2", "odd,1", "odd,2"):
        ctx = context_for(Parity(label.split(",")[0]), 15)
        for method, bound in bounds.items():
            k = {
                ft: iterate_mode(method, seeds[label], ctx.spec, domain, tol=1e-8,
                                 filter_tol=ft, context=ctx)[0].k_estimate
                for ft in (1e-14, 1e-13, 1e-12)
            }
            assert abs(k[1e-14] - k[1e-13]) < bound, (method, label)
            assert abs(k[1e-12] - k[1e-13]) < bound, (method, label)


def test_eigenvalues_real_ascending(context_for):
    ctx = context_for(Parity.EVEN, 15)
    for method in (Method.DTN, Method.NTD):
        pair = assemble(method, 2.0611, ctx)
        sol = solve_generalized(pair)
        assert np.all(np.isfinite(sol.values))
        assert np.all(np.diff(sol.values) >= 0.0)


def test_tracked_residual_and_orthonormality(context_for):
    # full-pencil residual of the tracked column within 1e-10 ||Lambda||_F;
    # metric orthonormality of the physical block within 2e-10 (whitening
    # noise floor for columns adjacent to the filter edge)
    for parity, target in ((Parity.EVEN, 2.0611**2), (Parity.ODD, 3.4507**2)):
        ctx = context_for(parity, 15)
        for method in (Method.DTN, Method.NTD):
            pair = assemble(method, np.sqrt(target), ctx)
            sol = solve_generalized(pair)
            jt = int(np.argmin(np.abs(sol.values - target)))
            vec = sol.vectors[:, jt]
            res = np.linalg.norm(pair.lam @ vec - sol.values[jt] * (pair.delta @ vec))
            assert res <= 1e-10 * np.linalg.norm(pair.lam, "fro")
            lo, hi = max(0, jt - 2), min(sol.values.size, jt + 3)
            block = sol.vectors[:, lo:hi]
            gram = block.T @ pair.delta @ block
            assert np.max(np.abs(gram - np.eye(hi - lo))) < 2e-10


def test_solve_deterministic(context_for):
    ctx = context_for(Parity.ODD, 5)
    pair = assemble(Method.NTD, 3.4507, ctx)
    s1 = solve_generalized(pair)
    s2 = solve_generalized(pair)
    assert np.array_equal(s1.values, s2.values)
    assert np.array_equal(s1.vectors, s2.vectors)
