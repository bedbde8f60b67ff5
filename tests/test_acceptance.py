"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line (visible with -s or
in captured output) after all its assertions hold.
"""

import time

import numpy as np
import pytest

from helmbound import (
    BasisSpec,
    Method,
    Parity,
    TrialPair,
    assemble,
    build_context,
    evaluate_discontinuous_functional,
    export_grid,
    interface_rule,
    mode_seeds,
    sample_field,
    steklov_profile,
    steklov_table,
    steklov_trace,
)
from helmbound.errors import NearDirichletResonance
from helmbound.oracle import Rectangle, richardson_eigen

# Reference values, four decimals.
TABLE1 = {
    (Method.DTN, "even,1"): [2.0633, 2.0611, 2.0611],
    (Method.NTD, "even,1"): [2.0487, 2.0604, 2.0611, 2.0611],
    (Method.DTN, "odd,1"): [3.4586, 3.4508, 3.4507, 3.4507],
    (Method.NTD, "odd,1"): [3.4200, 3.4447, 3.4505, 3.4507, 3.4507],
}
TABLE2 = {
    (3, 3): {"even,1": (2.0630, 2.0628), "even,2": (3.0745, 3.0809),
             "odd,1": (3.4527, 3.4527), "odd,2": (4.2234, 4.2234)},
    (5, 5): {"even,1": (2.0611, 2.0611), "even,2": (3.0734, 3.0734),
             "odd,1": (3.4511, 3.4511), "odd,2": (4.2200, 4.2200)},
    (15, 15): {"even,1": (2.0611, 2.0611), "even,2": (3.0731, 3.0731),
               "odd,1": (3.4507, 3.4507), "odd,2": (4.2190, 4.2190)},
    (25, 25): {"even,1": (2.0611, 2.0611), "even,2": (3.0730, 3.0730),
               "odd,1": (3.4506, 3.4506), "odd,2": (4.2189, 4.2189)},
    (30, 30): {"even,1": (2.0611, 2.0611), "even,2": (3.0730, 3.0730),
               "odd,1": (3.4506, 3.4506), "odd,2": (4.2189, 4.2189)},
}
RECT_SEEDS = [2.0116, 2.9638, 3.3836, 4.0232]


def test_criterion_1_table1_iteration(converged):
    for (method, label), reference in TABLE1.items():
        t0 = time.perf_counter()
        estimate, trace = converged(method, label)
        elapsed = time.perf_counter() - t0
        final = reference[-1]
        assert abs(estimate.k_estimate - final) <= 5e-4, (method, label, "converged")
        if (method, label) == (Method.DTN, "even,1"):
            assert abs(trace.estimates[1] - final) <= 1e-3, "DtN even by iteration 2"
        if method is Method.NTD:
            reached = [i for i, k in enumerate(trace.estimates, start=1)
                       if abs(k - final) <= 5e-4]
            assert reached and reached[0] <= 4, (method, label, "NtD by iteration 3-4")
        assert trace.estimates == pytest.approx(reference, abs=5e-4)
        assert elapsed < 60.0
    print("ACCEPTANCE 1 (Table 1 iteration traces): PASS")


def test_criterion_2_table2_convergence(domain, quad, converged):
    for size, row in TABLE2.items():
        for label, (k_dtn_ref, k_ntd_ref) in row.items():
            est_d, _ = converged(Method.DTN, label, size=size[0])
            est_n, _ = converged(Method.NTD, label, size=size[0])
            assert abs(est_d.k_estimate - k_dtn_ref) <= 1e-3, (size, label, "dtn")
            assert abs(est_n.k_estimate - k_ntd_ref) <= 1e-3, (size, label, "ntd")
            if size[0] >= 15:
                assert abs(est_d.k_estimate - est_n.k_estimate) < 1e-4, (size, label)
    print("ACCEPTANCE 2 (Table 2 basis sweep): PASS")


def test_criterion_3_volume_norm_identity(domain):
    from numpy.polynomial.legendre import leggauss

    xg, wx = leggauss(96)
    yg, wy = leggauss(96)
    ys = 0.75 * yg - 0.75
    wy = 0.75 * wy
    checked = 0
    for kappa in (1.0, 2.0116, 2.0611, 3.5):
        try:
            _, dbn = steklov_table(kappa, 20, domain)
        except NearDirichletResonance:
            continue
        for n in range(1, 21):
            # the unit-trace mode as sample_field composes it
            field = (steklov_trace(n, domain, xg)[:, None]
                     * steklov_profile(kappa, n, domain, ys)[None, :])
            ident = dbn[n - 1] / (2.0 * kappa)
            quad_val = float(wx @ (field * field) @ wy)
            assert abs(quad_val - ident) <= 1e-10 * abs(ident), (kappa, n)
            checked += 1
    assert checked >= 70
    print(f"ACCEPTANCE 3 (volume-norm derivative identity, {checked} pairs): PASS")


def test_criterion_4_operator_properties(domain, quad, rng):
    # trace Gram orthonormality
    rule = interface_rule(domain, 128)
    n = np.arange(1, 61)
    psi = steklov_trace(n[:, None], domain, rule.nodes[None, :])
    gram = (psi * rule.weights) @ psi.T
    assert np.max(np.abs(gram - np.eye(60))) < 1e-11

    # DtN o NtD identity on coefficients
    bn, _ = steklov_table(2.0116, 200, domain)
    assert np.max(np.abs(bn * (1.0 / bn) - 1.0)) < 1e-13

    # spectral reality and monotonicity at random parameters
    checked = 0
    while checked < 100:
        kappa = float(rng.uniform(0.1, 6.0))
        mode = int(rng.integers(1, 40))
        try:
            bn, dbn = steklov_table(kappa, mode, domain)
        except NearDirichletResonance:
            continue
        assert np.all(np.isreal(bn)) and np.all(np.isfinite(bn))
        assert np.all(dbn >= 0.0)
        checked += 1

    # symmetry and metric positivity across every Table 2 configuration
    seeds = mode_seeds(domain)
    for size in (3, 5, 15, 25, 30):
        for parity, labels in ((Parity.EVEN, ("even,1", "even,2")),
                               (Parity.ODD, ("odd,1", "odd,2"))):
            spec = BasisSpec(parity=parity, n_max=size, m_max=size)
            ctx = build_context(spec, domain, quad)
            assert ctx.symmetry_defect < 1e-10, (size, parity)
            for method in (Method.DTN, Method.NTD):
                for label in labels:
                    pair = assemble(method, seeds[label], ctx)
                    assert np.array_equal(pair.lam, pair.lam.T), (size, parity, method, label)
                    assert np.array_equal(pair.delta, pair.delta.T), (size, parity, method, label)
                    sigma = np.linalg.eigvalsh(pair.delta)
                    assert sigma[-1] > 0.0
                    assert sigma[0] > -1e-13 * sigma[-1], (size, parity, method, label)
    print("ACCEPTANCE 4 (operator property suite): PASS")


@pytest.fixture(scope="module")
def tight_solutions(domain, converged):
    combos = [(Method.DTN, "even,1"), (Method.DTN, "odd,2"),
              (Method.NTD, "even,2"), (Method.NTD, "odd,1")]
    return {key: converged(*key, tol=1e-9) for key in combos}


def _natural_mixing(method):
    return 0.0 if method is Method.DTN else 1.0


def test_criterion_5_functional_suite(domain, quad, context_for, zero_trace_coords, tight_solutions, rng):
    ctx = context_for(Parity.EVEN, 15)

    # reality for 20 random complex mixings
    trial = TrialPair(a=rng.normal(size=ctx.trial_dim),
                      gamma2=rng.normal(size=60), kappa=2.0116)
    for _ in range(20):
        mixing = complex(rng.normal(), rng.normal())
        assert abs(evaluate_discontinuous_functional(trial, mixing, ctx).imag) < 1e-12

    # mixing independence for an exactly matched (zero interface trace) trial
    matched = TrialPair(a=zero_trace_coords(ctx, rng), gamma2=np.zeros(10), kappa=2.0116)
    base = evaluate_discontinuous_functional(matched, 0.0, ctx).real
    for _ in range(20):
        mixing = complex(rng.normal(), rng.normal())
        assert abs(evaluate_discontinuous_functional(matched, mixing, ctx) - base) < 1e-10

    for (method, label), (estimate, _trace) in tight_solutions.items():
        sol_ctx = estimate.context
        mixing = _natural_mixing(method)
        a0 = estimate.a
        trial0 = TrialPair(a=a0, gamma2=estimate.gamma2, kappa=estimate.kappa)
        f0 = evaluate_discontinuous_functional(trial0, mixing, sol_ctx).real
        f_tilde = estimate.k_estimate**2

        # converged functional value equals the tracked eigenvalue
        assert abs(f0 - f_tilde) < 1e-6, (method, label)

        # quadratic stationarity in a joint random direction
        eps = np.array([1e-2, 1e-3, 1e-4])
        orders = []
        for _ in range(3):
            d1 = rng.normal(size=a0.size)
            d2 = rng.normal(size=estimate.gamma2.size)
            d1 *= np.linalg.norm(a0) / np.linalg.norm(d1)
            d2 *= np.linalg.norm(estimate.gamma2) / np.linalg.norm(d2)
            deltas = []
            for e in eps:
                trial_e = TrialPair(a=a0 + e * d1,
                                gamma2=estimate.gamma2 + e * d2,
                                kappa=estimate.kappa)
                fe = evaluate_discontinuous_functional(trial_e, mixing, sol_ctx).real
                deltas.append(abs(fe - f0))
            slope = np.polyfit(np.log(eps), np.log(deltas), 1)[0]
            orders.append(slope)
        assert min(orders) >= 1.9, (method, label, orders)
    print("ACCEPTANCE 5 (discontinuous functional suite): PASS")


def test_criterion_6_oracle_cross_validation(domain, converged):
    t0 = time.perf_counter()
    rect_modes, _ = richardson_eigen(Rectangle(2.0, 2.5), 1.0 / 64.0, 2)
    for (k, _parity), want in zip(rect_modes, RECT_SEEDS):
        assert abs(k - want) < 2e-3

    comp_modes, _ = richardson_eigen(domain, 1.0 / 64.0, 2)
    by_parity = {"even": [], "odd": []}
    for k, parity in comp_modes:
        by_parity[parity].append(k)
    for label in ("even,1", "even,2", "odd,1", "odd,2"):
        parity, rank = label.split(",")
        est, _ = converged(Method.DTN, label)
        k_fdm = by_parity[parity][int(rank) - 1]
        assert abs(est.k_estimate - k_fdm) < 1e-3, (label, est.k_estimate, k_fdm)
        est30, _ = converged(Method.DTN, label, size=30)
        assert abs(est30.k_estimate - k_fdm) < 5e-5, (label, est30.k_estimate, k_fdm)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 6 (finite-difference cross-validation, {elapsed:.0f}s): PASS")


def test_criterion_7_field_artifacts(domain, converged, tmp_path, read_grid_csv):
    for label in ("even,1", "even,2", "odd,1", "odd,2"):
        est_d, _ = converged(Method.DTN, label, size=25)
        est_n, _ = converged(Method.NTD, label, size=25)
        grid_d = sample_field(est_d)
        grid_n = sample_field(est_n)

        # parity symmetry of the density
        for grid in (grid_d, grid_n):
            assert np.max(np.abs(grid.values - grid.values[::-1, :])) < 1e-10, label
        if label.startswith("odd"):
            mid = grid_d.nx // 2
            assert np.max(np.abs(grid_d.values[mid, :])) < 1e-10

        # cross-method agreement of normalized densities
        assert np.max(np.abs(grid_d.values - grid_n.values)) < 1e-3, label

        # export round trip stays valid
        csv_path = tmp_path / f"{label.replace(',', '_')}.csv"
        pgm_path = tmp_path / f"{label.replace(',', '_')}.pgm"
        export_grid(grid_d, "csv", csv_path)
        export_grid(grid_d, "pgm", pgm_path)
        back = read_grid_csv(csv_path)
        scale = np.max(grid_d.values)
        assert np.max(np.abs(back.values - grid_d.values)) < 1e-9 * scale
        header = pgm_path.read_text().split("\n", 3)
        assert header[0] == "P2" and header[2] == "65535"
    print("ACCEPTANCE 7 (field artifacts): PASS")
