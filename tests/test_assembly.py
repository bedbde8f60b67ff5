import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from helmbound import (
    BasisSpec,
    Method,
    Parity,
    QuadratureConfig,
    TrialPair,
    assemble_dtn,
    assemble_ntd,
    build_context,
    evaluate_discontinuous_functional,
    mode_seeds,
    steklov_table,
)
from helmbound.assembly import functional_with_matched_derivatives, functional_with_matched_values
from helmbound.errors import NearDirichletResonance, ZeroTrial

KAPPA = 2.0116
SIZES = [(3, 3), (5, 5), (15, 15)]


def _pairs(domain, quad, size):
    out = []
    seeds = mode_seeds(domain)
    for parity, seed in ((Parity.EVEN, seeds["even,1"]), (Parity.ODD, seeds["odd,1"])):
        ctx = build_context(BasisSpec(parity=parity, n_max=size[0], m_max=size[1]), domain, quad)
        out.append(assemble_dtn(seed, ctx))
        out.append(assemble_ntd(seed, ctx))
    return out


@pytest.mark.parametrize("size", SIZES)
def test_symmetry_defects(domain, quad, size):
    for pair in _pairs(domain, quad, size):
        assert pair.lambda_defect < 1e-10
        assert pair.delta_defect < 1e-10
        assert np.array_equal(pair.lam, pair.lam.T)
        assert np.array_equal(pair.delta, pair.delta.T)


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
        assemble_dtn(5.0 * np.pi / 6.0, build_context(spec, domain, quad))


def test_delta11_volume_part(domain, context_for):
    # <r-a | r-a> over the semicircle = pi * int_0^1 (r-1)^2 r dr = pi/12
    ctx = context_for(Parity.EVEN, 15)
    assert ctx.gram[0, 0] == pytest.approx(np.pi / 12.0, abs=1e-13)


def test_delta11_full_entry_against_independent_quadrature(domain, quad):
    # adaptive-quadrature oracle for Delta_11 = pi/12 + (1/2k) sum b_n' (psi_n||x|-a)^2
    spec = BasisSpec(parity=Parity.EVEN, n_max=3, m_max=3)
    pair = assemble_dtn(KAPPA, build_context(spec, domain, quad))
    n_modes = 200
    _, dbn = steklov_table(KAPPA, n_modes, domain)
    surface = 0.0
    for n in range(1, n_modes + 1):
        integrand = lambda x: np.sin(n * np.pi * (x + 1.0) / 2.0) * (abs(x) - 1.0)
        proj, _ = scipy_quad(integrand, -1.0, 1.0, points=[0.0], limit=200)
        surface += dbn[n - 1] * proj * proj
    expected = np.pi / 12.0 + surface / (2.0 * KAPPA)
    assert pair.delta[0, 0] == pytest.approx(expected, rel=1e-8)


def test_truncation_stability(domain):
    # Delta entries are stable at 1e-10 under N doubling; Lambda's DtN tail
    # decays only like N^-2 (kinked basis traces), measured ~5e-6 at N=200
    quad = QuadratureConfig(n_r=64, n_phi=64, n_s=256)
    spec = BasisSpec(parity=Parity.EVEN, n_max=15, m_max=15)
    ctx200 = build_context(spec, domain, quad, n_modes=200)
    ctx400 = build_context(spec, domain, quad, n_modes=400)
    for fn in (assemble_dtn, assemble_ntd):
        p200 = fn(KAPPA, ctx200)
        p400 = fn(KAPPA, ctx400)
        assert np.max(np.abs(p200.delta - p400.delta)) < 1e-10
        assert np.max(np.abs(p200.lam - p400.lam)) < 2e-5


def test_quadrature_stability(domain):
    # entry drift under 50% richer quadrature, relative to the matrix scale
    spec = BasisSpec(parity=Parity.EVEN, n_max=15, m_max=15)
    ctx1 = build_context(spec, domain, QuadratureConfig(64, 64, 128))
    ctx2 = build_context(spec, domain, QuadratureConfig(96, 96, 192))
    for fn in (assemble_dtn, assemble_ntd):
        p1 = fn(KAPPA, ctx1)
        p2 = fn(KAPPA, ctx2)
        assert np.max(np.abs(p1.lam - p2.lam)) < 1e-10 * max(1.0, np.max(np.abs(p1.lam)))
        assert np.max(np.abs(p1.delta - p2.delta)) < 1e-10 * max(1.0, np.max(np.abs(p1.delta)))


def _zero_trace_trial(ctx, rng):
    """Even members with odd m have identically zero interface traces."""
    g1 = np.zeros(ctx.spec.size)
    for mu in range(2, ctx.spec.size + 1):
        n, m = ctx.spec.mu_to_nm(mu)
        if m % 2 == 1:
            g1[mu - 1] = rng.normal()
    return TrialPair(gamma1=g1, gamma2=np.zeros(8), kappa=KAPPA)


def test_functional_reality(domain, context_for, rng):
    ctx = context_for(Parity.EVEN, 5)
    g1 = rng.normal(size=ctx.spec.size)
    g2 = rng.normal(size=40)
    trial = TrialPair(gamma1=g1, gamma2=g2, kappa=KAPPA)
    for _ in range(20):
        mixing = complex(rng.normal(), rng.normal())
        value = evaluate_discontinuous_functional(trial, mixing, ctx)
        assert abs(value.imag) < 1e-12


def test_functional_mixing_independence_for_matched_trial(domain, context_for, rng):
    ctx = context_for(Parity.EVEN, 5)
    trial = _zero_trace_trial(ctx, rng)
    base = evaluate_discontinuous_functional(trial, 0.0, ctx).real
    for _ in range(10):
        mixing = complex(rng.normal(), rng.normal())
        value = evaluate_discontinuous_functional(trial, mixing, ctx)
        assert abs(value - base) < 1e-10


def test_functional_zero_trial(domain, context_for):
    ctx = context_for(Parity.EVEN, 5)
    trial = TrialPair(gamma1=np.zeros(ctx.spec.size), gamma2=np.zeros(10), kappa=KAPPA)
    with pytest.raises(ZeroTrial):
        evaluate_discontinuous_functional(trial, 0.3, ctx)


def test_functional_rejects_gamma2_beyond_context(domain, context_for, rng):
    ctx = context_for(Parity.EVEN, 5)
    n2 = ctx.n_modes + 1
    trial = TrialPair(gamma1=rng.normal(size=ctx.spec.size), gamma2=rng.normal(size=n2), kappa=KAPPA)
    with pytest.raises(ValueError, match=f"{n2} coefficients .* {ctx.n_modes} Steklov modes"):
        evaluate_discontinuous_functional(trial, 0.3, ctx)


@pytest.fixture(scope="module")
def fn_ctx(domain):
    # trace-product integrands reach Steklov frequency 2N; 256 nodes per
    # panel resolves them (the default 128 only resolves single traces)
    spec = BasisSpec(parity=Parity.EVEN, n_max=5, m_max=5)
    return build_context(spec, domain, QuadratureConfig(48, 48, 256))


def _matched_trial(method, ctx, domain, rng):
    from helmbound import gamma2_coefficients

    g1 = rng.normal(size=ctx.spec.size)
    g2 = gamma2_coefficients(method, g1, KAPPA, ctx)
    return TrialPair(gamma1=g1, gamma2=g2, kappa=KAPPA)


def test_reduction_to_value_matched_form(domain, fn_ctx, rng):
    # with gamma2 the projection of the gamma1 trace, the general functional
    # at mixing 0 collapses to the value-matched reduced form
    trial = _matched_trial(Method.DTN, fn_ctx, domain, rng)
    general = evaluate_discontinuous_functional(trial, 0.0, fn_ctx).real
    reduced = functional_with_matched_values(trial, fn_ctx)
    assert abs(general - reduced) < 1e-10


def test_reduction_to_derivative_matched_form(domain, fn_ctx, rng):
    # with gamma2 the NtD image of the gamma1 normal derivative, mixing 1
    # collapses to the derivative-matched reduced form
    trial = _matched_trial(Method.NTD, fn_ctx, domain, rng)
    general = evaluate_discontinuous_functional(trial, 1.0, fn_ctx).real
    reduced = functional_with_matched_derivatives(trial, fn_ctx)
    assert abs(general - reduced) < 1e-10


def test_functional_matches_rayleigh_quotient(domain, fn_ctx, rng):
    # for a value-matched trial at mixing 0 the functional equals the
    # assembled DtN Rayleigh quotient of gamma1
    trial = _matched_trial(Method.DTN, fn_ctx, domain, rng)
    pair = assemble_dtn(KAPPA, fn_ctx)
    g1 = trial.gamma1
    rq = float(g1 @ pair.lam @ g1) / float(g1 @ pair.delta @ g1)
    general = evaluate_discontinuous_functional(trial, 0.0, fn_ctx).real
    assert general == pytest.approx(rq, rel=1e-10)


def test_functional_matches_ntd_rayleigh_quotient(domain, fn_ctx, rng):
    trial = _matched_trial(Method.NTD, fn_ctx, domain, rng)
    pair = assemble_ntd(KAPPA, fn_ctx)
    g1 = trial.gamma1
    rq = float(g1 @ pair.lam @ g1) / float(g1 @ pair.delta @ g1)
    general = evaluate_discontinuous_functional(trial, 1.0, fn_ctx).real
    assert general == pytest.approx(rq, rel=1e-10)
