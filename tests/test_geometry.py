import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from helmbound import (
    cartesian_to_polar,
    gauss_legendre,
    geometry,
    interface_rule,
    make_domain,
    semicircle_rule,
)
from helmbound.errors import InvalidInterval, NonPositiveGeometry, OutsideSubdomain


def test_make_domain_reference_geometry():
    dom = make_domain(1.0, 1.5)
    assert (dom.a, dom.b) == (1.0, 1.5)


def test_make_domain_square_case():
    assert make_domain(1.0, 1.0).a == 1.0


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.5)])
def test_make_domain_rejects_degenerate(a, b):
    with pytest.raises(NonPositiveGeometry):
        make_domain(a, b)


def test_gauss_legendre_midpoint_rule():
    rule = gauss_legendre(1, -1.0, 1.0)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0], abs=1e-15)


def test_gauss_legendre_quadratic_exact():
    rule = gauss_legendre(2, -1.0, 1.0)
    assert rule.weights @ rule.nodes**2 == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_gauss_legendre_quartic_exact():
    rule = gauss_legendre(3, -1.0, 1.0)
    assert rule.weights @ rule.nodes**4 == pytest.approx(2.0 / 5.0, abs=1e-14)


def test_gauss_legendre_bad_interval():
    with pytest.raises(InvalidInterval):
        gauss_legendre(4, 1.0, 1.0)


@pytest.mark.parametrize("order", [1, 64, 128])
@pytest.mark.parametrize("lo,hi", [(-1.0, 0.0), (-0.5 * np.pi, 0.5 * np.pi)])
def test_gauss_legendre_matches_leggauss_bitwise(order, lo, hi):
    x, w = leggauss(order)
    half = 0.5 * (hi - lo)
    for _ in range(2):  # the first call may fill the cache, the second reads it
        rule = gauss_legendre(order, lo, hi)
        np.testing.assert_array_equal(rule.nodes, half * x + 0.5 * (hi + lo))
        np.testing.assert_array_equal(rule.weights, half * w)


@pytest.mark.parametrize("order", [1, 64, 128])
def test_gauss_legendre_rules_do_not_share_arrays(order):
    first = gauss_legendre(order, -1.0, 1.0)
    first.nodes[:] = 7.0
    first.weights[:] = -1.0
    x, w = leggauss(order)
    second = gauss_legendre(order, -1.0, 1.0)
    np.testing.assert_array_equal(second.nodes, x)
    np.testing.assert_array_equal(second.weights, w)


def test_cached_legendre_arrays_are_read_only():
    gauss_legendre(64, 0.0, 1.0)
    x, w = geometry._leggauss(64)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


def _semicircle_integral(domain, n, f):
    """Integral of f(x, y) over the semicircle by the tensor product of the two factors."""
    radial, angular = semicircle_rule(domain, n, n)
    r, phi = np.meshgrid(radial.nodes, angular.nodes, indexing="ij")
    weights = np.outer(radial.weights, angular.weights)
    return float(np.sum(weights * f(-r * np.sin(phi), r * np.cos(phi))))


def test_semicircle_area(domain):
    radial, angular = semicircle_rule(domain, 16, 16)
    assert radial.weights.sum() * angular.weights.sum() == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert _semicircle_integral(domain, 16, lambda x, y: np.ones_like(x)) == pytest.approx(
        np.pi / 2.0, abs=1e-12)


def test_semicircle_odd_moment(domain):
    assert _semicircle_integral(domain, 16, lambda x, y: x) == pytest.approx(0.0, abs=1e-13)


def test_semicircle_y_moment(domain):
    # int y over the semicircle = int r^2 dr int cos(phi) dphi = (a^3/3) * 2
    assert _semicircle_integral(domain, 16, lambda x, y: y) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_semicircle_rule_convergence(domain):
    f = lambda x, y: np.exp(x + y)
    v1 = _semicircle_integral(domain, 32, f)
    v2 = _semicircle_integral(domain, 48, f)
    assert abs(v1 - v2) / abs(v2) < 1e-12


def test_interface_rule_constant(domain):
    rule = interface_rule(domain, 16)
    assert rule.weights.sum() == pytest.approx(2.0, abs=1e-14)


def test_interface_rule_sine_squared(domain):
    rule = interface_rule(domain, 32)
    vals = np.sin(np.pi * (rule.nodes + 1.0) / 2.0) ** 2
    assert rule.weights @ vals == pytest.approx(1.0, abs=1e-13)


def test_interface_rule_odd_moment(domain):
    rule = interface_rule(domain, 128)
    assert rule.weights @ rule.nodes == pytest.approx(0.0, abs=1e-14)


def test_interface_nodes_inside_and_increasing(domain):
    rule = interface_rule(domain, 32)
    assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
    assert np.all(np.diff(rule.nodes) > 0)


def test_quadrature_nodes_classify_semicircle(domain):
    radial, angular = semicircle_rule(domain, 64, 64)
    assert np.all((radial.nodes > 0) & (radial.nodes < domain.a))
    assert np.all(np.abs(angular.nodes) < np.pi / 2)
    r, phi = np.meshgrid(radial.nodes, angular.nodes, indexing="ij")
    x, y = -r * np.sin(phi), r * np.cos(phi)
    assert np.all(x * x + y * y < domain.a**2)
    assert np.all(y > 0)


def test_polar_convention(domain):
    r, phi = cartesian_to_polar(domain, 0.0, 1.0)
    assert r.shape == phi.shape == ()
    assert (r, phi) == pytest.approx((1.0, 0.0))
    r, phi = cartesian_to_polar(domain, -1.0, 0.0)
    assert (r, phi) == pytest.approx((1.0, np.pi / 2.0))
    r, phi = cartesian_to_polar(domain, 0.5, 0.5)
    assert (r, phi) == pytest.approx((np.sqrt(0.5), -np.pi / 4.0))
    r, phi = cartesian_to_polar(domain, 0.0, np.array([0.25, 0.5]))
    assert r.shape == phi.shape == (2,)
    np.testing.assert_array_equal(r, [0.25, 0.5])
    np.testing.assert_array_equal(phi, [0.0, 0.0])


def test_polar_roundtrip(domain, rng):
    r0 = rng.uniform(0, 1, 500)
    phi0 = rng.uniform(-np.pi / 2, np.pi / 2, 500)
    x, y = -r0 * np.sin(phi0), r0 * np.cos(phi0)
    r, phi = cartesian_to_polar(domain, x, y)
    assert np.max(np.abs(-r * np.sin(phi) - x)) < 1e-14
    assert np.max(np.abs(r * np.cos(phi) - y)) < 1e-14


def test_polar_rejects_outside(domain):
    with pytest.raises(OutsideSubdomain):
        cartesian_to_polar(domain, 0.0, -0.5)
    with pytest.raises(OutsideSubdomain):
        cartesian_to_polar(domain, 1.2, 0.1)
