import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

import geocount as gc
from geocount import manifolds as mf
from geocount.errors import (CatalogError, ConfigurationError, DomainError,
                             InputError)
from matrix_forms import gram_schmidt_frame, random_point, sphere_rule_by_rows


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

    @pytest.mark.parametrize("n,order", [(3, 1), (3, 2), (3, 16), (3, 64),
                                         (4, 1), (4, 2), (4, 8), (4, 16)])
    def test_product_rule_equals_row_by_row_reference_bit_for_bit(self, n, order):
        # tobytes compares every bit, the sign of zero included
        q = gc.unit_sphere_quadrature(n, "product_gauss", order)
        nodes, weights = sphere_rule_by_rows(n, order)
        assert q.nodes.tobytes() == nodes.tobytes()
        assert q.weights.tobytes() == weights.tobytes()

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
    def test_entire_tube(self):
        assert gc.constant_curvature(1.0, 2).entire_tube
        assert not gc.constant_curvature(-1.0, 4).entire_tube
        assert gc.constant_curvature(0.0, 3).entire_tube
        assert gc.flat_torus(np.array([[2.0, 0.0], [1.0, 3.0]])).entire_tube
        assert not gc.warped_product("sin", 3).entire_tube

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

    @pytest.mark.parametrize("c", [2.2250738585e-313, -5e-324, 1 / sys.float_info.max])
    def test_curvature_whose_squared_radius_overflows_is_refused(self, c):
        with pytest.raises(InputError, match=r"radius 1/\|c\| overflows a float"):
            gc.constant_curvature(c, 3)

    @pytest.mark.parametrize("c", [5.6e-309, -5.6e-309])
    def test_smallest_curvatures_build_frames(self, c):
        # 1/|c| is finite: the frame at the canonical point forms that square
        # without overflow (a RuntimeWarning fails the test)
        spec = gc.constant_curvature(c, 3)
        frame = gc.orthonormal_frame(spec, gc.canonical_point(spec))
        assert np.array_equal(frame, np.eye(4)[1:])

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
        # a user-built warp whose domain excludes the canonical radius 1
        far = gc.WarpFunction("far", np.sin, lambda r: -np.sin(r), (2.0, 3.0))
        with pytest.raises(DomainError, match="r=1.0 "):
            gc.warped_product(far, 3)


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the node cap was checked")


class TestGaussLegendre:
    @pytest.mark.parametrize("m", [16, 20, 64])
    def test_equals_leggauss_bit_for_bit_and_is_read_only(self, m):
        nodes, weights = mf.gauss_legendre(m)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(m)
        assert nodes.tobytes() == want_nodes.tobytes()
        assert weights.tobytes() == want_weights.tobytes()
        assert mf.gauss_legendre(m) is mf.gauss_legendre(m)  # built once
        for arr in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


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


def _frame_case(spec, x=None, where=None, theta=None):
    """A spec, a point on it and a unit direction there for the normal
    frame; None stands for the canonical point and for a direction mixing
    the tangent frame's first and last vectors."""
    label = spec.label if where is None else f"{spec.label}@{where}"
    return pytest.param(spec, x, theta, id=label)


def _near_axis(s):
    """On S^2 at e0, a unit direction at angle s from the axis e1."""
    return _frame_case(gc.constant_curvature(1.0, 2), [1.0, 0.0, 0.0],
                       f"theta-near-axis-{s:g}", [0.0, math.cos(s), math.sin(s)])


_CH, _SH = math.cosh(0.7), math.sinh(0.7)


class TestTangentFrames:
    @pytest.mark.parametrize("spec,x,theta", [
        _frame_case(gc.constant_curvature(1.0, 3)),
        _frame_case(gc.constant_curvature(-1.0, 3)),
        _frame_case(gc.constant_curvature(0.0, 4)),
        _frame_case(gc.flat_torus(np.array([[2.0, 1.0], [0.0, 1.0]]))),
        _frame_case(gc.warped_product("one_plus_r2", 3)),
        # points off the canonical ones, coordinate axes included
        _frame_case(gc.constant_curvature(1.0, 3), [0.0, 0.0, 1.0, 0.0], "axis"),
        _frame_case(gc.constant_curvature(4.0, 3), [0.0, 0.0, 0.0, -0.5], "axis"),
        _frame_case(gc.constant_curvature(1.0, 3), [0.48, -0.6, 0.64, 0.0], "generic"),
        _frame_case(gc.constant_curvature(2.0, 4),
                    np.array([0.5, 0.5, -0.5, 0.5, 0.0]) / math.sqrt(2.0), "generic"),
        _frame_case(gc.constant_curvature(-1.0, 3), [_CH, _SH, 0.0, 0.0], "axis-plane"),
        _frame_case(gc.constant_curvature(-1.0, 3),
                    [_CH, 0.6 * _SH, 0.0, -0.8 * _SH], "generic"),
        _frame_case(gc.constant_curvature(-4.0, 2),
                    [0.5 * _CH, -0.5 * _SH, 0.0], "axis-plane"),
        _frame_case(gc.warped_product("one_plus_r2", 3), [2.5, 0.6, 0.0, 0.8], "r=2.5"),
        _frame_case(gc.warped_product("cosh", 3), [0.3, 0.0, 0.0, 1.0], "r=0.3"),
        _frame_case(gc.warped_product("two_plus_cos", 4),
                    [-1.0, 0.5, -0.5, 0.5, 0.5], "r=-1"),
        _frame_case(gc.warped_product("sin", 2), [2.0, 0.8, -0.6], "r=2"),
        # a warp of size ~1e-7: the skip test is relative to the metric
        _frame_case(gc.warped_product("sin", 3), [1e-7, 1.0, 0.0, 0.0]),
        _frame_case(gc.warped_product("sin", 3), [1e-7, 0.6, 0.0, -0.8], "fibre"),
        # normal frames of directions close to a coordinate axis
        *(_near_axis(s) for s in (1.3e-2, 1.7e-3, 2.3e-4, 1.9e-5, 2.9e-6)),
    ])
    def test_orthonormal(self, spec, x, theta):
        from geocount.manifolds import metric_dot
        x = gc.canonical_point(spec) if x is None else np.asarray(x, dtype=float)
        if spec.kind == mf.WARPED_PRODUCT:
            normal = np.concatenate(([0.0], x[1:]))
        elif spec.kind == mf.CONSTANT_CURVATURE and spec.c != 0:
            normal = x
        else:
            normal = None

        def check(frame, normals):
            for i in range(len(frame)):
                for j in range(i, len(frame)):
                    g = metric_dot(spec, x, frame[i], frame[j])
                    assert abs(g - (1.0 if i == j else 0.0)) < 1e-12
                for v in normals:
                    assert abs(metric_dot(spec, x, frame[i], v)) < 1e-12
                if normal is not None:  # tangent: orthogonal to the normal
                    assert abs(metric_dot(spec, x, frame[i], normal)) < 1e-12

        frame = gc.orthonormal_frame(spec, x)
        assert frame.shape == (spec.n, len(x))
        check(frame, [])
        if theta is None:
            theta = (frame[0] + 2.0 * frame[-1]) / math.sqrt(5.0)
        theta = np.asarray(theta, dtype=float)
        normal_frame = mf.orthonormal_frame(spec, x, [theta])
        assert normal_frame.shape == (spec.n - 1, len(x))
        check(normal_frame, [theta])


def _canonical_frame_specs():
    """Space forms of six curvatures, the five warps and the torus, each in
    dimensions 2, 3, 5, 40 and 400."""
    for n in (2, 3, 5, 40, 400):
        yield from (gc.constant_curvature(c, n) for c in (1.0, 4.0, -1.0, -2.0, 0.0, 0.3))
        yield from (gc.warped_product(name, n) for name in sorted(mf.WARP_CATALOG))
        yield gc.flat_torus(np.eye(n))


class TestReflectionFrame:
    @pytest.mark.parametrize("spec", list(_canonical_frame_specs()),
                             ids=lambda s: s.label)
    def test_canonical_frames_equal_gram_schmidt(self, spec):
        # every axis that no mirror touches stays the same axis, bit for bit
        x = gc.canonical_point(spec)
        want = gram_schmidt_frame(spec, x)
        theta = want[0]
        for got, ref in ((gc.orthonormal_frame(spec, x), want),
                         (gc.orthonormal_frame(spec, x, [theta]),
                          gram_schmidt_frame(spec, x, [theta]))):
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("c,normals", [
        (1.0, [np.zeros(4)]),
        (1.0, [np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, -2.0, 0.0, 0.0])]),
        (1.0, [np.array([0.0, 1.0, 1.0, 0.0]), np.array([0.0, 2.0, 2.0, 1e-12])]),
        (-1.0, [np.array([2.0, 0.0, 0.0, 0.0])]),
    ], ids=["zero", "parallel", "parallel-to-rounding", "hyperboloid-x-again"])
    def test_null_or_dependent_normal_is_refused(self, c, normals):
        spec = gc.constant_curvature(c, 3)
        with pytest.raises(InputError, match="null or in the span"):
            gc.orthonormal_frame(spec, gc.canonical_point(spec), normals)


class TestPointOnModel:
    @pytest.mark.parametrize("spec", [
        *_canonical_frame_specs(),
        *(gc.constant_curvature(c, 3) for c in (5.6e-309, -5.6e-309, 1e6, -1e6)),
    ], ids=lambda s: s.label)
    def test_points_of_the_model_are_accepted(self, spec):
        # the canonical point, and random points out to hyperboloid radius 3
        # sqrt(n), pass with no warning (a RuntimeWarning fails the test)
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mf.require_point_on_model(spec, gc.canonical_point(spec))
            for _ in range(20):
                mf.require_point_on_model(spec, random_point(spec, rng)[0])

    @pytest.mark.parametrize("spec,x", [
        (gc.constant_curvature(1.0, 3), [1.0, 0.0, 0.0, 0.0]),
        (gc.constant_curvature(4.0, 2), [0.3, 0.4, 0.0]),
        (gc.constant_curvature(-1.0, 3), [math.sqrt(10.0), 3.0, 0.0, 0.0]),
        (gc.warped_product("cosh", 3), [0.5, 0.6, 0.8, 0.0]),
    ], ids=["sphere", "sphere-c4", "hyperboloid", "warped"])
    def test_tolerance_is_relative_1e_8(self, spec, x):
        # the quadric (or the fiber sphere) scaled by 1 + 1e-10 passes; by
        # 1 + 1e-6 it is refused
        x = np.array(x)
        curved = spec.kind == mf.CONSTANT_CURVATURE
        for s, ok in ((1.0 + 1e-10, True), (1.0 + 1e-6, False)):
            y = s * x if curved else np.concatenate(([x[0]], s * x[1:]))
            if ok:
                mf.require_point_on_model(spec, y)
            else:
                with pytest.raises(InputError, match="off the model"):
                    mf.require_point_on_model(spec, y)

    @pytest.mark.parametrize("spec,x,match", [
        (gc.flat_torus(np.eye(2)), [0.0, 0.0, 0.0], r"shape \(3,\), expected \(2,\)"),
        (gc.constant_curvature(0.0, 2), [0.0, math.inf], "non-finite"),
        (gc.warped_product("sin", 2), [1.0, 0.0], r"shape \(2,\), expected \(3,\)"),
        (gc.warped_product("identity", 2), [1.0, 2.0, 0.0], "unit vector"),
        (gc.constant_curvature(-4.0, 2), [-0.5, 0.0, 0.0], "with x_0 > 0"),
    ], ids=["torus-long", "flat-inf", "warped-short", "warped-long-fiber",
            "hyperboloid-lower-vertex"])
    def test_points_off_the_model_are_refused(self, spec, x, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=match):
                mf.require_point_on_model(spec, np.array(x))


class TestCurvatureAlong:
    def test_round_sphere_identity(self):
        spec = gc.constant_curvature(1.0, 3)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        K = gc.curvature_along(spec, (x, theta))
        assert np.array_equal(K.profile([0.0, 1.3, 7.7]), [1.0, 1.0, 1.0])

    def test_flat_torus_zero(self):
        spec = gc.flat_torus(np.eye(2))
        K = gc.curvature_along(spec, (np.zeros(2), np.array([1.0, 0.0])))
        assert K.profile(2.0) == 0.0

    def test_hyperbolic_scalar(self):
        spec = gc.constant_curvature(-1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        K = gc.curvature_along(spec, (x, theta))
        assert abs(K.profile(0.5) + 1.0) < 1e-15

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
            assert abs(K.profile(s) - expected) <= 1e-6

    def test_non_unit_direction_rejected(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = 2.0 * gc.orthonormal_frame(spec, x)[0]
        with pytest.raises(InputError):
            gc.curvature_along(spec, (x, theta))

    def test_warped_requires_radial(self):
        spec = gc.warped_product("one_plus_r2", 2)
        x = gc.canonical_point(spec)
        fiber_dir = gc.orthonormal_frame(spec, x)[1]
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
            K.profile(1.5)  # r = 1 - 1.5 < 0
