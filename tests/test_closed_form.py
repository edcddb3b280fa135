import math

import numpy as np
import pytest

from geocount import closed_form
from geocount.closed_form import ClosedFormJacobi

CURVATURES = [4.0, 1.0, 0.0, -1.0, -4.0]


def _off_pole_grid(c, margin=0.1):
    """Real sigma in [-6, 6], at least ``margin`` from every pole of f and G."""
    sigma = np.linspace(-6.0, 6.0, 2401)
    keep = ((closed_form.f_pole_distance(c, sigma) > margin)
            & (closed_form.g_pole_distance(c, sigma) > margin))
    return sigma[keep]


@pytest.mark.parametrize("c", CURVATURES)
def test_f_and_g_are_the_ratios_of_the_scalars(c):
    sigma = _off_pole_grid(c)
    xi, _, eta, _ = closed_form.scalars(c, sigma)
    f = closed_form.f_profile(c, sigma.astype(complex))
    g = closed_form.g_profile(c, sigma.astype(complex))
    assert np.all(f.imag == 0.0) and np.all(g.imag == 0.0)
    np.testing.assert_allclose(f.real, eta / xi, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(g.real, -xi / eta, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c", CURVATURES)
def test_wronskian_is_one(c):
    sigma = np.linspace(-6.0, 6.0, 1201)
    xi, dxi, eta, deta = closed_form.scalars(c, sigma)
    a, b = xi * deta, dxi * eta
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    assert np.max(np.abs(a - b - 1.0) / scale) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("c", CURVATURES)
def test_math_and_numpy_scalars_agree(c):
    sigma = np.linspace(-6.0, 6.0, 97)
    grid = np.column_stack(closed_form.scalars(c, sigma))
    one = np.array([closed_form.scalars(c, float(s), math) for s in sigma])
    np.testing.assert_allclose(one, grid, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("c", [4.0, 1.0, 0.5])
def test_xi_and_eta_vanish_on_their_lattices(c):
    # for c > 0 both lattices lie on the real axis: xi vanishes at the poles
    # of f, odd multiples of half the period, and eta at those of G
    period = closed_form.pole_period(c)
    k = np.arange(-5, 6)
    f_poles, g_poles = (k + 0.5) * period, k * period
    assert np.max(closed_form.f_pole_distance(c, f_poles)) < 1e-14
    assert np.max(closed_form.g_pole_distance(c, g_poles)) < 1e-14
    xi = closed_form.scalars(c, f_poles)[0]
    eta = closed_form.scalars(c, g_poles)[2]
    # the argument s * sigma carries a rounding of about eps * |s sigma|
    bound = 4 * np.finfo(float).eps * (1.0 + np.abs(k) * math.pi)
    assert np.all(np.abs(xi) <= bound)
    assert np.all(np.abs(eta) <= bound / math.sqrt(c))


@pytest.mark.parametrize("c", [0.0, -1.0, -4.0])
def test_eta_vanishes_at_the_one_real_pole_of_g(c):
    # for c <= 0 the only real pole of G is 0, and f has none on the axis
    assert closed_form.scalars(c, 0.0, math)[2] == 0.0
    assert float(closed_form.g_pole_distance(c, 0.0)) == 0.0
    assert float(closed_form.f_pole_distance(c, 0.3)) > 0.3


def test_distance_to_singular_hand_values():
    assert ClosedFormJacobi(1.0, 3).distance_to_singular(1.0) == pytest.approx(
        math.pi / 2 - 1.0, rel=1e-15)
    for sigma in (0.0, 0.7, -2.5, 40.0):
        assert ClosedFormJacobi(-1.0, 3).distance_to_singular(sigma) == abs(sigma)
    assert ClosedFormJacobi(0.0, 3).distance_to_singular(-3.0) == 3.0


@pytest.mark.parametrize("c", [4.0, 1.0, 0.5, 0.0, -1.0, -2.0, -4.0])
def test_distance_to_singular_is_the_period_arithmetic(c):
    # the distance to the nearest zero of xi or eta, written out per
    # lattice, bit for bit
    cf = ClosedFormJacobi(c, 3)
    for sigma in np.linspace(-20.0, 20.0, 4001).tolist():
        if c > 0:
            period = math.pi / math.sqrt(c)
            d_h = abs(sigma - round(sigma / period) * period)
            shifted = sigma - period / 2
            expect = min(d_h, abs(shifted - round(shifted / period) * period))
        else:
            expect = abs(sigma)
        assert cf.distance_to_singular(sigma) == expect

