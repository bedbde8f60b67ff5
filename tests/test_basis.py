import numpy as np
import pytest

from helmbound import (
    BasisSpec,
    Parity,
    cartesian_to_polar,
    interface_rule,
    semicircle_rule,
)
from helmbound.basis import _multiples, family_factors, laplacian_factors

EVEN = BasisSpec(parity=Parity.EVEN, n_max=3, m_max=3)
ODD = BasisSpec(parity=Parity.ODD, n_max=3, m_max=3)

# frozen 40-digit value of sqrt(.5) sin(sqrt(.5)-1) sin(pi/4)
ODD11_AT_HALF = -0.144361716817


@pytest.fixture(scope="module")
def volume(member_index):
    """(V, L) of the whole family at Cartesian points, one column per point,
    composed from the 1-D factors as the volume matrices are."""

    def get(spec, domain, x, y):
        r, phi = cartesian_to_polar(domain, x, y)
        r, phi = np.atleast_1d(r), np.atleast_1d(phi)
        R, A = family_factors(spec, domain, r, phi)
        P, Q, nu = laplacian_factors(spec, domain, r)
        V = R[:, None] * A[None]
        L = (P[:, None] - (nu * nu)[None, :, None] * Q[:, None]) * A[None]
        members = member_index(spec)
        return V.reshape(-1, r.size)[members], L.reshape(-1, r.size)[members]

    return get


def _nm(spec, mu):
    """(n, m) of member mu by the module docstring's bijection; None for the linear member."""
    if spec.parity is Parity.EVEN:
        if mu == 1:
            return None
        mu -= 1
    n, m = divmod(mu - 1, spec.m_max)
    return n + 1, m + 1


def test_multiples_match_direct_calls(domain):
    # the radial phases alpha (r - a), r in [0, a], and the angular beta phi,
    # |phi| <= pi/2, at alpha = beta = 1: the recurrence against one
    # cos/sin call per k, k <= 30 (measured 4.0e-15 and 5.0e-15)
    k = np.arange(1, 31)[:, None]
    for theta in (np.linspace(0.0, domain.a, 4001) - domain.a, np.linspace(-np.pi / 2, np.pi / 2, 4001)):
        cos, sin = _multiples(theta, 30)
        assert cos.shape == sin.shape == (30, theta.size)
        assert np.max(np.abs(cos - np.cos(k * theta))) < 1e-14
        assert np.max(np.abs(sin - np.sin(k * theta))) < 1e-14


def test_multiples_parity_is_exact(rng):
    # every factor row is exactly even (cos) or odd (sin) in its phase:
    # bitwise-equal cosines and bitwise-negated sines at -theta
    theta = rng.uniform(-np.pi / 2, np.pi / 2, 1000)
    cos, sin = _multiples(theta, 30)
    cos_m, sin_m = _multiples(-theta, 30)
    assert np.array_equal(cos, cos_m)
    assert np.array_equal(sin, -sin_m)


def test_sizes_and_bijection(domain, member_index):
    assert EVEN.size == 10 and ODD.size == 9
    # member_index puts the docstring's (n, m) examples on the factor
    # products R_n A_m: even mu = 2, 5, 10 and odd mu = 1, 4, 9 are the
    # members (1, 1), (2, 1), (3, 3)
    r, phi = np.array([0.3, 0.7]), np.array([0.2, -0.4])
    for spec, ang, first in ((EVEN, np.cos, 2), (ODD, np.sin, 1)):
        R, A = family_factors(spec, domain, r, phi)
        lead = R.shape[0] - spec.n_max  # the even linear member's row
        assert A.shape[0] - spec.m_max == lead
        members = member_index(spec)
        assert members.shape == (spec.size,)
        for mu, nm in ((first, (1, 1)), (first + 3, (2, 1)), (spec.size, (3, 3))):
            assert _nm(spec, mu) == nm
            i, j = divmod(members[mu - 1], A.shape[0])
            assert (i, j) == (nm[0] - 1 + lead, nm[1] - 1 + lead)
            want = r * np.sin(nm[0] * (r - domain.a)) * ang(nm[1] * phi)
            assert R[i] * A[j] == pytest.approx(want, abs=1e-15)
    assert _nm(EVEN, 1) is None
    assert member_index(EVEN)[0] == 0


def test_eval_linear_member(domain, volume):
    R, A = family_factors(EVEN, domain, [0.0, 0.5, 1.0], [0.3, -1.2, 0.0])
    assert R[0] == pytest.approx([-1.0, -0.5, 0.0], abs=1e-15)
    assert np.all(A[0] == 1.0)
    assert volume(EVEN, domain, 0.0, 0.5)[0][0] == pytest.approx([-0.5], abs=1e-15)
    # a scalar x broadcasts against an array y
    values = volume(EVEN, domain, 0.0, np.array([0.1, 0.2]))[0][0]
    np.testing.assert_allclose(values, [-0.9, -0.8], atol=1e-15)


def test_eval_odd_member(domain):
    R, A = family_factors(ODD, domain, [np.sqrt(0.5)], [np.pi / 4])
    assert R[0] * A[0] == pytest.approx([ODD11_AT_HALF], abs=1e-10)


def test_all_members_vanish_on_arc(domain, volume):
    theta = np.linspace(-np.pi / 2, np.pi / 2, 1000)
    for spec in (BasisSpec(parity=Parity.EVEN), BasisSpec(parity=Parity.ODD)):
        V, _ = volume(spec, domain, -np.sin(theta), np.cos(theta))
        assert V.shape == (spec.size, theta.size)
        assert np.max(np.abs(V)) <= 1e-13


def test_even_members_at_origin(domain):
    R, _ = family_factors(EVEN, domain, [0.0, 1e-9], [0.0, 0.0])
    assert R[0] == pytest.approx([-1.0, -1.0 + 1e-9])
    assert np.all(R[1:, 0] == 0.0)
    assert np.max(np.abs(R[1:, 1])) < 1e-8


def test_laplacian_of_linear_member(domain, volume):
    assert volume(EVEN, domain, 0.0, 0.5)[1][0] == pytest.approx([2.0], rel=1e-14)


def _fd_laplacian(volume, spec, mu, domain, x, y, h=1e-4):
    f = lambda px, py: volume(spec, domain, px, py)[0][mu - 1]
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4.0 * f(x, y)) / h**2


@pytest.mark.parametrize("spec,mu", [(EVEN, 1), (EVEN, 2), (EVEN, 7), (ODD, 1), (ODD, 6)])
def test_laplacian_against_finite_difference(domain, volume, spec, mu):
    x, y = np.array([-0.3, 0.2, 0.1]), np.array([0.4, 0.3, 0.6])
    fd = _fd_laplacian(volume, spec, mu, domain, x, y)
    assert volume(spec, domain, x, y)[1][mu - 1] == pytest.approx(fd, rel=1e-6)


def test_laplacian_against_symbolic(domain, volume):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    r = sympy.sqrt(x**2 + y**2)
    phi = sympy.atan2(-x, y)
    expr = r * sympy.sin(r - 1) * sympy.sin(phi)
    lap = sympy.diff(expr, x, 2) + sympy.diff(expr, y, 2)
    want = float(lap.subs({x: -0.5, y: 0.5}).evalf(30))
    got = volume(ODD, domain, -0.5, 0.5)[1][0]
    assert got == pytest.approx([want], abs=1e-10)


def test_trace_linear_member(domain, interface_tables):
    xs = np.linspace(-0.9, 0.9, 9)
    assert interface_tables(EVEN, domain, xs)[0][0] == pytest.approx(np.abs(xs) - 1.0)


def test_trace_even_odd_m_vanishes(domain, interface_tables):
    # beta = 1 and odd m: cos(m pi / 2) = 0 kills the whole trace
    xs = np.linspace(-0.9, 0.9, 9)
    T, _ = interface_tables(EVEN, domain, xs)
    for mu in range(2, EVEN.size + 1):
        _n, m = _nm(EVEN, mu)
        if m % 2 == 1:
            assert np.max(np.abs(T[mu - 1])) < 1e-15


def test_trace_odd_member_value(domain, interface_tables):
    assert interface_tables(ODD, domain, [0.5])[0][0] == pytest.approx([0.239712769302], abs=1e-10)


def test_normal_trace_linear_member(domain, interface_tables):
    xs = np.linspace(-0.9, 0.9, 9)
    assert np.all(interface_tables(EVEN, domain, xs)[1][0] == 0.0)


@pytest.mark.parametrize("spec,mu", [(EVEN, 3), (EVEN, 8), (ODD, 1), (ODD, 5)])
def test_normal_trace_against_finite_difference(domain, volume, spec, mu, interface_tables):
    # one-sided into the semicircle with Richardson: O(h^2) estimate of -d/dy
    h = 1e-4
    x = np.array([-0.62, 0.15, 0.4])
    f = lambda hh: volume(spec, domain, x, hh)[0][mu - 1]
    f0 = f(0.0)
    d = lambda hh: -(f(hh) - f0) / hh
    fd = 2.0 * d(h / 2) - d(h)
    assert interface_tables(spec, domain, x)[1][mu - 1] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_normal_trace_parity(domain, interface_tables):
    xs = np.linspace(0.05, 0.95, 7)
    for spec, sign in ((EVEN, 1.0), (ODD, -1.0)):
        _, left = interface_tables(spec, domain, -xs)
        _, right = interface_tables(spec, domain, xs)
        # the even linear row is 0 on both sides
        assert left == pytest.approx(sign * right, abs=1e-15)


def test_normal_trace_origin_limit(domain, interface_tables):
    # analytic finite limit; the odd family takes the symmetric value 0
    assert np.isfinite(interface_tables(EVEN, domain, [0.0])[1][1, 0])
    assert interface_tables(ODD, domain, [0.0])[1][0, 0] == 0.0


def test_green_identity(context_for, family_tables):
    # <u|Lap v> - <Lap u|v> = (u|grad_perp v) - (grad_perp u|v): grad_perp is
    # the outward normal derivative of the semicircle on the interface, and
    # the arc contributions vanish
    for parity in Parity:
        _, S, T, D, _, ws = family_tables(context_for(parity, 5))
        C = (T * ws) @ D.T  # (phi_mu | grad_perp phi_nu)
        assert np.max(np.abs((S - S.T) - (C - C.T))) < 1e-8


def _closed_forms(spec, domain, r, phi, xs):
    """V, L, T, D member by member, written out from the closed forms."""
    a = domain.a
    even = spec.parity is Parity.EVEN
    ang = np.cos if even else np.sin
    rows = []
    for mu in range(1, spec.size + 1):
        nm = _nm(spec, mu)
        if nm is None:
            rows.append((r - a, 1.0 / r, np.abs(xs) - a, np.zeros_like(xs)))
            continue
        w, mb = nm[0] * spec.alpha, nm[1] * spec.beta
        s, c = np.sin(w * (r - a)), np.cos(w * (r - a))
        s_tr = np.sin(w * (np.abs(xs) - a))
        if even:
            trace = np.abs(xs) * s_tr * np.cos(mb * np.pi / 2)
            dtrace = -mb * np.sin(mb * np.pi / 2) * s_tr
        else:
            trace = -xs * s_tr * np.sin(mb * np.pi / 2)
            dtrace = -mb * np.cos(mb * np.pi / 2) * np.sign(xs) * s_tr
        lap = 3 * w * c - w * w * r * s + (1 - mb * mb) * s / r
        rows.append((r * s * ang(mb * phi), lap * ang(mb * phi), trace, dtrace))
    return [np.array(table) for table in zip(*rows)]


def test_tables_match_pointwise_evaluation(domain, kron_tables):
    # the Kronecker products of basis_tables' 1-D tables against a
    # brute-force sum over the nodes of the 2-D tensor rule, of the closed
    # forms evaluated member by member
    radial, angular = semicircle_rule(domain, 8, 8)
    surf = interface_rule(domain, 8)
    r, phi = (grid.ravel() for grid in np.meshgrid(radial.nodes, angular.nodes, indexing="ij"))
    w = np.outer(radial.weights, angular.weights).ravel()
    specs = (EVEN, ODD,
             BasisSpec(parity=Parity.EVEN, alpha=0.9, beta=1.7, n_max=3, m_max=4),
             BasisSpec(parity=Parity.ODD, alpha=0.9, beta=1.7, n_max=4, m_max=2))
    for spec in specs:
        G, S, T, D = kron_tables(spec, domain, (radial, angular), surf)
        V, L, T_ref, D_ref = _closed_forms(spec, domain, r, phi, surf.nodes)
        G_ref, S_ref = (V * w) @ V.T, (V * w) @ L.T
        for got, ref in ((G, G_ref), (S, S_ref), (T, T_ref), (D, D_ref)):
            assert got.shape == ref.shape
        assert np.max(np.abs(G - G_ref)) < 1e-14 * np.max(np.abs(G_ref))
        assert np.max(np.abs(S - S_ref)) < 1e-14 * np.max(np.abs(S_ref))
        assert np.array_equal(G, G.T)
        assert T == pytest.approx(T_ref, abs=1e-14)
        assert D == pytest.approx(D_ref, abs=1e-14)
