import dataclasses
import math

import numpy as np
import pytest

import geocount as gc
from geocount import manifolds as mf
from geocount.errors import (CatalogError, ConfigurationError, DomainError,
                             InputError)


class TestSphereQuadrature:
    def test_circle_weights_equal_and_sum(self):
        q = gc.unit_sphere_quadrature(2, "product_gauss", 64)
        assert q.size == 64
        assert np.allclose(q.weights, 2 * math.pi / 64)
        assert abs(q.weights.sum() - 2 * math.pi) <= 1e-10 * 2 * math.pi

    @pytest.mark.parametrize("n,order,expect", [
        (2, 64, 2 * math.pi),
        (3, 32, 4 * math.pi),
        (4, 8, 2 * math.pi**2),
    ])
    def test_weight_sums(self, n, order, expect):
        q = gc.unit_sphere_quadrature(n, "product_gauss", order)
        assert abs(q.weights.sum() - expect) <= 1e-10 * expect

    def test_monte_carlo_normalization_and_determinism(self):
        q1 = gc.unit_sphere_quadrature(4, "monte_carlo", 100000, seed=7)
        q2 = gc.unit_sphere_quadrature(4, "monte_carlo", 100000, seed=7)
        assert abs(q1.weights.sum() - 2 * math.pi**2) <= 1e-10
        assert np.array_equal(q1.nodes, q2.nodes)
        q3 = gc.unit_sphere_quadrature(4, "monte_carlo", 100000, seed=8)
        assert not np.array_equal(q1.nodes, q3.nodes)

    @pytest.mark.parametrize("n,scheme,order", [
        (2, "product_gauss", 64), (3, "product_gauss", 16),
        (4, "product_gauss", 8), (3, "monte_carlo", 5000),
    ])
    def test_unit_nodes(self, n, scheme, order):
        q = gc.unit_sphere_quadrature(n, scheme, order, seed=1)
        norms = np.linalg.norm(q.nodes, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n,order", [(2, 64), (3, 16), (4, 8)])
    def test_odd_coordinates_integrate_to_zero(self, n, order):
        q = gc.unit_sphere_quadrature(n, "product_gauss", order)
        for axis in range(n):
            val = float(np.sum(q.weights * q.nodes[:, axis]))
            assert abs(val) <= 1e-10

    def test_unsupported_configurations(self):
        with pytest.raises(ConfigurationError):
            gc.unit_sphere_quadrature(5, "product_gauss", 8)
        with pytest.raises(ConfigurationError):
            gc.unit_sphere_quadrature(3, "lebedev", 8)
        with pytest.raises(InputError):
            gc.unit_sphere_quadrature(1, "product_gauss", 8)
        with pytest.raises(InputError):
            gc.unit_sphere_quadrature(3, "product_gauss", 0)


class TestManifoldSpec:
    def test_sphere_volume_and_tube(self):
        spec = gc.constant_curvature(1.0, 2)
        assert spec.entire_tube
        assert abs(spec.volume - 4 * math.pi) < 1e-12
        assert not gc.constant_curvature(-1.0, 4).entire_tube
        assert gc.constant_curvature(0.0, 3).entire_tube

    def test_torus_volume_is_lattice_determinant(self):
        basis = np.array([[2.0, 0.0], [1.0, 3.0]])
        spec = gc.flat_torus(basis)
        assert spec.entire_tube
        assert abs(spec.volume - 6.0) < 1e-12

    @pytest.mark.parametrize("basis", [
        np.eye(3), np.array([[1.0, 0, 0], [0.5, 1, 0], [0, 0, 2]]),
        np.array([[1.3, 0.2], [0.7, 0.9]]),
    ])
    def test_torus_wrap_stack(self, basis):
        from geocount.manifolds import torus_wrap
        n = len(basis)
        rng = np.random.default_rng(5)
        points = rng.normal(scale=4.0, size=(7, 11, n))
        wrapped = torus_wrap(basis, points)
        assert wrapped.shape == points.shape
        for p, w in zip(points.reshape(-1, n), wrapped.reshape(-1, n)):
            # one point or a stack: the same up to round-off in the solve
            assert np.max(np.abs(torus_wrap(basis, p) - w)) <= 1e-14
            coeff = np.linalg.solve(basis.T, w)
            assert np.all((coeff >= 0) & (coeff < 1))
            shift = np.linalg.solve(basis.T, p - w)
            assert np.max(np.abs(shift - np.round(shift))) < 1e-12

    def test_invalid_specs(self):
        with pytest.raises(InputError):
            gc.constant_curvature(1.0, 1)
        with pytest.raises(InputError):
            gc.flat_torus(np.zeros((2, 2)))
        with pytest.raises(InputError):
            gc.flat_torus(np.eye(3)[:2])
        with pytest.raises(CatalogError):
            gc.warped_product("no_such_warp", 3)
        for c in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError):
                gc.constant_curvature(c, 3)
        with pytest.raises(InputError):
            gc.flat_torus(np.array([[1.0, 0.0], [0.0, math.nan]]))

    def test_sphere_of_huge_radius_has_infinite_volume(self):
        # radius 1/sqrt(c) = 1e147: radius^3 is beyond the float range
        assert gc.constant_curvature(1e-294, 3).volume == math.inf
        assert gc.constant_curvature(1e-294, 2).volume < math.inf

    def test_warp_catalog_is_numpy(self):
        names = [f.name for f in dataclasses.fields(gc.WarpFunction)]
        assert names == ["name", "value", "d2", "domain"]
        r = np.linspace(0.1, 3.0, 7).reshape(7, 1)
        for warp in mf.WARP_CATALOG.values():
            assert np.shape(warp.value(r)) == r.shape
            assert np.shape(-warp.d2(r) / warp.value(r)) == r.shape

    def test_check_domain_names_the_first_bad_radius(self):
        warp = gc.warp_by_name("sin")
        warp.check_domain(np.array([0.5, 1.0, 3.0]))
        with pytest.raises(DomainError, match="r=3.5 "):
            warp.check_domain(np.array([0.5, 3.5, -1.0]))
        with pytest.raises(DomainError, match="r=nan"):
            warp.check_domain(math.nan)

    def test_warp_domain_enforced(self):
        warp = gc.warp_by_name("identity")
        with pytest.raises(DomainError):
            warp.check_domain(-1.0)
        with pytest.raises(DomainError):
            gc.warped_product("sin", 3, base_radius=4.0)


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the node cap was checked")


class TestSphereSurfaceArea:
    def test_below_the_gamma_overflow_unchanged(self):
        for m in (1, 2, 3, 10, 100, 342):
            h = (m + 1) / 2.0
            assert gc.sphere_surface_area(m) == 2.0 * math.pi**h / math.gamma(h)

    def test_large_spheres_through_log_gamma(self):
        # math.gamma((m + 1) / 2) overflows from m = 343; the areas keep
        # falling, by the factor 2 pi / (m - 1) of the recurrence
        # |S^m| = 2 pi |S^(m-2)| / (m - 1)
        for m in (343, 344, 400):
            ratio = gc.sphere_surface_area(m) / gc.sphere_surface_area(m - 2)
            assert abs(ratio - 2.0 * math.pi / (m - 1)) <= 1e-11 * ratio
        assert gc.sphere_surface_area(2000) == 0.0


class TestQuadratureCap:
    @pytest.mark.parametrize("n,order", [(3, 10**8), (3, 708), (4, 80)])
    def test_product_gauss_refused_before_leggauss(self, monkeypatch, n, order):
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", _refuse)
        with pytest.raises(InputError, match="cap"):
            gc.unit_sphere_quadrature(n, "product_gauss", order)

    def test_circle_and_monte_carlo_refused_before_allocating(self, monkeypatch):
        monkeypatch.setattr(np, "arange", _refuse)
        monkeypatch.setattr(np.random, "default_rng", _refuse)
        for scheme in ("product_gauss", "monte_carlo"):
            with pytest.raises(InputError, match="cap"):
                gc.unit_sphere_quadrature(2, scheme, mf.MAX_QUAD_NODES + 1)

    def test_monte_carlo_coordinates_refused_before_drawing(self, monkeypatch):
        # 10^5 directions in R^400 are under the node cap but hold 4e7
        # coordinates
        monkeypatch.setattr(np.random, "default_rng", _refuse)
        with pytest.raises(InputError, match="node coordinates, more than the cap"):
            gc.unit_sphere_quadrature(400, "monte_carlo", 10**5)

    def test_orders_just_under_the_cap_reach_leggauss(self, monkeypatch):
        # 2 * 707^2 = 999698 and 2 * 79^3 = 986078 nodes
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", reached)
        for n, order in ((3, 707), (4, 79)):
            with pytest.raises(Reached):
                gc.unit_sphere_quadrature(n, "product_gauss", order)


class TestTangentFrames:
    @pytest.mark.parametrize("spec", [
        gc.constant_curvature(1.0, 3),
        gc.constant_curvature(-1.0, 3),
        gc.constant_curvature(0.0, 4),
        gc.flat_torus(np.array([[2.0, 1.0], [0.0, 1.0]])),
        gc.warped_product("one_plus_r2", 3),
    ], ids=lambda s: s.label)
    def test_orthonormal(self, spec):
        from geocount.manifolds import metric_dot
        x = gc.canonical_point(spec)
        frame = gc.tangent_frame(spec, x)
        assert frame.shape[0] == spec.n
        for i in range(spec.n):
            for j in range(i, spec.n):
                g = metric_dot(spec, x, frame[i], frame[j])
                assert abs(g - (1.0 if i == j else 0.0)) < 1e-12


class TestCurvatureAlong:
    def test_round_sphere_identity(self):
        spec = gc.constant_curvature(1.0, 3)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        K = gc.curvature_along(spec, (x, theta))
        for s in (0.0, 1.3, 7.7):
            assert np.allclose(K(s), np.eye(2))

    def test_flat_torus_zero(self):
        spec = gc.flat_torus(np.eye(2))
        K = gc.curvature_along(spec, (np.zeros(2), np.array([1.0, 0.0])))
        assert np.allclose(K(2.0), 0.0)

    def test_hyperbolic_scalar(self):
        spec = gc.constant_curvature(-1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        K = gc.curvature_along(spec, (x, theta))
        assert K(0.5).shape == (1, 1)
        assert abs(K(0.5)[0, 0] + 1.0) < 1e-15

    @pytest.mark.parametrize("spec", [
        gc.constant_curvature(1.0, 4),
        gc.warped_product("two_plus_cos", 3),
    ], ids=lambda s: s.label)
    def test_symmetry(self, spec):
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        K = gc.curvature_along(spec, (x, theta))
        for s in np.linspace(0.0, 3.0, 7):
            M = K(s)
            assert np.max(np.abs(M - M.T)) <= 1e-12

    @pytest.mark.parametrize("name", ["one_plus_r2", "two_plus_cos", "cosh"])
    def test_warped_profile_vs_finite_difference_oracle(self, name):
        # oracle: second derivative of the warp from values alone
        spec = gc.warped_product(name, 3)
        warp = spec.warp
        x = gc.canonical_point(spec)
        K = gc.curvature_along(spec, (x, np.array([1.0, 0.0, 0.0, 0.0])))
        h = 1e-4
        for s in np.linspace(0.0, 3.0, 13):
            r = x[0] + s
            w2_fd = (warp.value(r + h) - 2 * warp.value(r) + warp.value(r - h)) / h**2
            expected = -w2_fd / warp.value(r)
            assert abs(K(s)[0, 0] - expected) <= 1e-6

    def test_non_unit_direction_rejected(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = 2.0 * gc.tangent_frame(spec, x)[0]
        with pytest.raises(InputError):
            gc.curvature_along(spec, (x, theta))

    def test_warped_requires_radial(self):
        spec = gc.warped_product("one_plus_r2", 2)
        x = gc.canonical_point(spec)
        fiber_dir = gc.tangent_frame(spec, x)[1]
        with pytest.raises(ConfigurationError):
            gc.curvature_along(spec, (x, fiber_dir))

    def test_radial_ray_checks_direction_and_domain(self):
        spec = gc.warped_product("identity", 2)
        x = gc.canonical_point(spec)  # base radius 1
        with pytest.raises(ConfigurationError):
            mf.radial_ray(spec, x, np.array([0.0, 0.0, 1.0]))
        inward = mf.radial_ray(spec, x, np.array([-1.0, 0.0, 0.0]))
        assert np.array_equal(inward(np.array([0.0, 0.5])), [1.0, 0.5])
        with pytest.raises(DomainError, match="r=-0.5 "):
            inward(np.array([0.5, 1.5, 2.5]))

    def test_warped_domain_error_in_profile(self):
        spec = gc.warped_product("identity", 2)
        x = gc.canonical_point(spec)  # base radius 1
        K = gc.curvature_along(spec, (x, np.array([-1.0, 0.0, 0.0])))
        with pytest.raises(DomainError):
            K(1.5)  # r = 1 - 1.5 < 0
