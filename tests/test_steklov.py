import numpy as np
import pytest

from helmbound import (
    BasisSpec,
    Method,
    Parity,
    QuadratureConfig,
    assemble,
    build_context,
    gamma2_coefficients,
    make_domain,
    steklov_eigenvalue,
    steklov_eigenvalue_derivative,
    steklov_mode_field,
    steklov_table,
    steklov_trace,
)
from helmbound.errors import NearDirichletResonance, NearNeumannResonance

KAPPA = 2.0116

# frozen from an independent 40-digit evaluation of the closed forms
B1_REF = 0.408303022604
B2_REF = -2.41657054634
DB1_REF = 3.85607339049


def _b_closed_form(kappa, n, a=1.0, b=1.5):
    """Independent textbook-style implementation used as the FD oracle."""
    lam = n * n * np.pi**2 / (4 * a * a)
    if kappa**2 >= lam:
        mu = np.sqrt(kappa**2 - lam)
        return -mu / np.tan(mu * b)
    s = np.sqrt(lam - kappa**2)
    return -s / np.tanh(s * b)


def test_eigenvalue_oscillatory(domain):
    assert steklov_eigenvalue(KAPPA, 1, domain) == pytest.approx(B1_REF, abs=1e-9)


def test_eigenvalue_matches_tangent_form(domain):
    # at kappa^2 = 0.41 pi^2 exactly, mu = 0.4 pi and b_1 = 0.4 pi tan(0.1 pi)
    kap = np.pi * np.sqrt(0.41)
    expected = 0.4 * np.pi * np.tan(0.1 * np.pi)
    assert steklov_eigenvalue(kap, 1, domain) == pytest.approx(expected, rel=1e-13)


def test_eigenvalue_evanescent(domain):
    assert steklov_eigenvalue(KAPPA, 2, domain) == pytest.approx(B2_REF, abs=1e-9)


def test_eigenvalue_regime_switch_limit(domain):
    kap = np.pi / 2.0  # kappa^2 = lambda_1 exactly
    assert steklov_eigenvalue(kap, 1, domain) == pytest.approx(-1.0 / 1.5, rel=1e-12)


def test_eigenvalue_continuous_across_switch(domain):
    lam = np.pi**2 / 4.0
    lo = steklov_eigenvalue(np.sqrt(lam - 1e-10), 1, domain)
    hi = steklov_eigenvalue(np.sqrt(lam + 1e-10), 1, domain)
    assert abs(hi - lo) < 1e-8


def test_derivative_against_finite_difference(domain):
    h = 1e-6
    fd = (_b_closed_form(KAPPA + h, 1) - _b_closed_form(KAPPA - h, 1)) / (2 * h)
    an = steklov_eigenvalue_derivative(KAPPA, 1, domain)
    assert an == pytest.approx(fd, rel=1e-7)
    assert an == pytest.approx(DB1_REF, abs=1e-9)


def test_derivative_evanescent_against_finite_difference(domain):
    h = 1e-6
    for n in (2, 5, 11):
        fd = (_b_closed_form(KAPPA + h, n) - _b_closed_form(KAPPA - h, n)) / (2 * h)
        assert steklov_eigenvalue_derivative(KAPPA, n, domain) == pytest.approx(fd, rel=1e-6)


def test_derivative_continuous_across_switch(domain):
    lam = np.pi**2 / 4.0
    lo = steklov_eigenvalue_derivative(np.sqrt(lam - 1e-10), 1, domain)
    hi = steklov_eigenvalue_derivative(np.sqrt(lam + 1e-10), 1, domain)
    assert abs(hi - lo) < 1e-8
    # at the exact switch the derivative limit is 2 kappa b / 3
    kap = np.pi / 2.0
    assert steklov_eigenvalue_derivative(kap, 1, domain) == pytest.approx(
        2.0 * kap * 1.5 / 3.0, rel=1e-9
    )


def test_dirichlet_resonance_guard(domain):
    # mu b = pi at kappa = 5 pi / 6 for n = 1: a genuine pole of b_1
    with pytest.raises(NearDirichletResonance) as info:
        steklov_eigenvalue(5.0 * np.pi / 6.0, 1, domain)
    assert info.value.n == 1
    # the guard checks only the requested mode
    assert np.isfinite(steklov_eigenvalue(5.0 * np.pi / 6.0, 2, domain))


def test_mode_field_dirichlet_walls(domain):
    xs = np.linspace(-1.0, 1.0, 7)
    for n in (1, 2, 3):
        assert np.max(np.abs(steklov_mode_field(KAPPA, n, domain, xs, -1.5))) < 1e-12
    ys = np.linspace(-1.5, 0.0, 7)
    for n in (1, 2, 3):
        assert np.max(np.abs(steklov_mode_field(KAPPA, n, domain, 1.0, ys))) < 1e-12
        assert np.max(np.abs(steklov_mode_field(KAPPA, n, domain, -1.0, ys))) < 1e-12


def test_mode_field_trace_both_regimes(domain):
    xs = np.linspace(-0.9, 0.9, 11)
    for n in (1, 2, 6):  # n=1 oscillatory, others evanescent at this kappa
        got = steklov_mode_field(KAPPA, n, domain, xs, 0.0)
        want = steklov_trace(n, domain, xs)
        assert got == pytest.approx(want, abs=1e-12)


def test_mode_field_finite_at_regime_switch(domain):
    # the normalization constant diverges at kappa^2 = lambda_n but the
    # field itself stays finite and continuous in kappa
    kap = np.pi / 2.0
    ys = np.linspace(-1.5, 0.0, 9)
    at_switch = steklov_mode_field(kap, 1, domain, 0.3, ys)
    nearby = steklov_mode_field(kap + 1e-7, 1, domain, 0.3, ys)
    assert np.all(np.isfinite(at_switch))
    assert at_switch == pytest.approx(nearby, abs=1e-6)
    assert steklov_mode_field(kap, 1, domain, 0.3, 0.0) == pytest.approx(
        steklov_trace(1, domain, 0.3), abs=1e-13
    )


def test_operator_derivative_signs_and_fd(domain):
    # NtD assembly weights R' = d(1/b_n)/dkappa by the steklov_table factor -b_n'/b_n^2
    n = 25
    bn, dbn = steklov_table(KAPPA, n, domain)
    inv = lambda kap: 1.0 / steklov_table(kap, n, domain)[0]
    h = 1e-6
    fd = (inv(KAPPA + h) - inv(KAPPA - h)) / (2 * h)
    assert -dbn / bn**2 == pytest.approx(fd, rel=1e-6)
    assert np.all(-dbn / bn**2 <= 0.0)


def test_neumann_resonance_guard():
    # mu b = pi/2 -> cot(mu b) = 0 -> b_1 = 0: a pole of the NtD map 1/b_1
    dom = make_domain(1.0, 1.5)
    lam = np.pi**2 / 4.0
    mu = 0.5 * np.pi / 1.5
    kap = np.sqrt(lam + mu * mu)
    spec = BasisSpec(parity=Parity.EVEN, n_max=3, m_max=3)
    ctx = build_context(spec, dom, QuadratureConfig(n_r=16, n_phi=16, n_s=16), n_modes=8)
    with pytest.raises(NearNeumannResonance) as info:
        assemble(Method.NTD, kap, ctx)
    assert info.value.n == 1
    with pytest.raises(NearNeumannResonance) as info:
        gamma2_coefficients(Method.NTD, np.ones(spec.size), kap, ctx)
    assert info.value.n == 1
