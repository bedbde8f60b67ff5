import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from helmbound import (
    apply_dtn,
    apply_dtn_derivative,
    apply_ntd,
    apply_ntd_derivative,
    interface_rule,
    make_domain,
    project_surface,
    rectangle_volume_norm,
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


def test_derivative_nonnegative_random(domain, rng):
    checked = 0
    while checked < 100:
        kap = rng.uniform(0.1, 6.0)
        n = int(rng.integers(1, 40))
        try:
            b = steklov_eigenvalue(kap, n, domain)
            db = steklov_eigenvalue_derivative(kap, n, domain)
        except NearDirichletResonance:
            continue
        assert np.isfinite(b) and np.isreal(b)
        assert db >= 0.0
        checked += 1


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


def test_trace_orthonormal_gram(domain):
    rule = interface_rule(domain, 128)
    n = np.arange(1, 61)
    psi = steklov_trace(n[:, None], domain, rule.nodes[None, :])
    gram = (psi * rule.weights) @ psi.T
    assert np.max(np.abs(gram - np.eye(60))) < 1e-11


def test_project_surface_recovers_unit_vector(domain):
    rule = interface_rule(domain, 128)
    f = steklov_trace(1, domain, rule.nodes)
    c = project_surface(f, KAPPA, 10, domain, rule)
    expected = np.zeros(10)
    expected[0] = 1.0
    assert c == pytest.approx(expected, abs=1e-12)


def test_project_surface_constant(domain):
    rule = interface_rule(domain, 128)
    c = project_surface(np.ones(rule.nodes.size), KAPPA, 12, domain, rule)
    n = np.arange(1, 13)
    expected = np.where(n % 2 == 1, 4.0 / (n * np.pi), 0.0)
    assert c == pytest.approx(expected, abs=1e-10)


def test_project_surface_parity(domain):
    rule = interface_rule(domain, 128)
    c = project_surface(rule.nodes.copy(), KAPPA, 12, domain, rule)
    assert np.max(np.abs(c[::2])) < 1e-14  # odd n rows vanish for an odd f


def test_dtn_action(domain):
    c = np.zeros(8)
    c[0] = 1.0
    out = apply_dtn(c, KAPPA, domain)
    assert out[0] == pytest.approx(B1_REF, abs=1e-9)
    assert np.max(np.abs(out[1:])) == 0.0
    assert np.all(apply_dtn(np.zeros(8), KAPPA, domain) == 0.0)


def test_ntd_action_and_reciprocity(domain, rng):
    c = rng.normal(size=30)
    assert apply_ntd(apply_dtn(c, KAPPA, domain), KAPPA, domain) == pytest.approx(c, abs=1e-13)
    assert apply_dtn(apply_ntd(c, KAPPA, domain), KAPPA, domain) == pytest.approx(c, abs=1e-13)
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert apply_ntd(e1, KAPPA, domain)[0] == pytest.approx(1.0 / B1_REF, abs=1e-9)
    assert apply_ntd(2.0 * c, KAPPA, domain) == pytest.approx(
        2.0 * apply_ntd(c, KAPPA, domain), rel=1e-14
    )


def test_operator_derivative_signs_and_fd(domain, rng):
    c = rng.normal(size=25)
    e = np.eye(25)
    d_dtn = apply_dtn_derivative(e[0], KAPPA, domain)
    d_ntd = apply_ntd_derivative(e[0], KAPPA, domain)
    assert d_dtn[0] >= 0.0 and d_ntd[0] <= 0.0
    h = 1e-6
    fd_dtn = (apply_dtn(c, KAPPA + h, domain) - apply_dtn(c, KAPPA - h, domain)) / (2 * h)
    fd_ntd = (apply_ntd(c, KAPPA + h, domain) - apply_ntd(c, KAPPA - h, domain)) / (2 * h)
    assert apply_dtn_derivative(c, KAPPA, domain) == pytest.approx(fd_dtn, rel=1e-6)
    assert apply_ntd_derivative(c, KAPPA, domain) == pytest.approx(fd_ntd, rel=1e-6)
    assert np.all(apply_dtn_derivative(np.zeros(5), KAPPA, domain) == 0.0)


def test_neumann_resonance_guard():
    # b_1 crosses zero near kappa where mu tan(mu b) has cot zero: find one numerically
    dom = make_domain(1.0, 1.5)
    lam = np.pi**2 / 4.0
    mu = 0.5 * np.pi / 1.5  # mu b = pi/2 -> cot = 0 -> b_1 = 0
    kap = np.sqrt(lam + mu * mu)
    with pytest.raises(NearNeumannResonance):
        apply_ntd(np.ones(3), kap, dom)


def test_volume_norm_identity_quadrature(domain):
    xg, wx = leggauss(96)
    yg, wy = leggauss(96)
    ys = 0.75 * yg - 0.75
    wy = 0.75 * wy
    for kap in (1.0, 2.0116, 3.5):
        for n in (1, 2, 3, 7, 15, 20):
            ident = rectangle_volume_norm(kap, n, domain)
            field = steklov_mode_field(kap, n, domain, xg[:, None], ys[None, :])
            quad = float(wx @ (field * field) @ wy)
            assert quad == pytest.approx(ident, rel=1e-10)


def test_volume_norm_identity_ntd_form(domain):
    # Neumann-datum version: <psi|psi> = -(1/2k) b_n^2 d(1/b_n)/dkappa,
    # the b_n-scaled reduction of the same scalar identity
    for n in (1, 2, 5, 12):
        bn, _ = steklov_table(KAPPA, n, domain)
        b = bn[-1]
        dinv = apply_ntd_derivative(np.eye(n)[-1], KAPPA, domain)[-1]
        lhs = rectangle_volume_norm(KAPPA, n, domain)
        rhs = -0.5 / KAPPA * b * b * dinv
        assert lhs == pytest.approx(rhs, rel=1e-10)
