import dataclasses
import math
import warnings

import numpy as np
import pytest

import geocount as gc
from geocount.errors import (ConfigurationError, DomainError, InputError,
                             IntegrationFailureError)
from geocount import flow
from geocount import manifolds as mf
from geocount.flow import SIGMA_REFINE_TOL
from matrix_forms import (closed_form_matrices, jacobi_matrices, jacobi_stacks,
                          random_point, sampled_geodesic)


def _traj_and_system(spec, T=3.0, step=1e-3, direction=0):
    x = gc.canonical_point(spec)
    theta = gc.orthonormal_frame(spec, x)[direction]
    traj = gc.integrate_geodesic(spec, x, theta, T, step)
    return traj, gc.propagate_jacobi(traj)


def _matrix_reference(spec, traj):
    """(Xi, Xi', H, H') from RK4 on the k x 2k block [Xi | H], as a reference.

    The general matrix form of Y'' = -kappa Y with three scalar profile calls
    per step; deliberately slow and literal.
    """
    k = spec.n - 1
    kprofile = gc.curvature_along(spec, (traj.x0, traj.theta0)).profile
    sigma = traj.sigma
    Y = np.concatenate([np.eye(k), np.zeros((k, k))], axis=1)
    DY = np.concatenate([np.zeros((k, k)), np.eye(k)], axis=1)
    out_y = np.empty((len(sigma),) + Y.shape)
    out_dy = np.empty_like(out_y)
    out_y[0], out_dy[0] = Y, DY
    for j in range(len(sigma) - 1):
        h = sigma[j + 1] - sigma[j]
        ka = float(kprofile(sigma[j]))
        km = float(kprofile(sigma[j] + 0.5 * h))
        kb = float(kprofile(sigma[j] + h))
        k1y, k1d = DY, -ka * Y
        y2, d2 = Y + 0.5 * h * k1y, DY + 0.5 * h * k1d
        k2y, k2d = d2, -km * y2
        y3, d3 = Y + 0.5 * h * k2y, DY + 0.5 * h * k2d
        k3y, k3d = d3, -km * y3
        y4, d4 = Y + h * k3y, DY + h * k3d
        k4y, k4d = d4, -kb * y4
        Y = Y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        DY = DY + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d)
        out_y[j + 1], out_dy[j + 1] = Y, DY
    return out_y[:, :, :k], out_dy[:, :, :k], out_y[:, :, k:], out_dy[:, :, k:]


# the warp catalog as it was written with math, one radius at a time: (w, w'')
_MATH_WARPS = {
    "identity": (lambda r: r, lambda r: 0.0),
    "one_plus_r2": (lambda r: 1.0 + r * r, lambda r: 2.0),
    "two_plus_cos": (lambda r: 2.0 + math.cos(r), lambda r: -math.cos(r)),
    "cosh": (lambda r: math.cosh(r), lambda r: math.cosh(r)),
    "sin": (lambda r: math.sin(r), lambda r: -math.sin(r)),
}


def _math_profile(name, r0):
    """kappa(sigma) = -w''/w(r0 + sigma) from the math catalog, per element."""
    w, d2 = _MATH_WARPS[name]

    def profile(s):
        s = np.asarray(s, dtype=float)
        return np.array([-d2(r) / w(r) for r in (r0 + s).ravel()]).reshape(s.shape)
    return profile


def _matrix_wronskian(xi, dxi, h, dh):
    """Max deviation of Xi'^T H - Xi^T H' from -Id, relative to term size,
    on (m+1, k, k) arrays."""
    a = np.einsum("sji,sjk->sik", dxi, h)
    b = np.einsum("sji,sjk->sik", xi, dh)
    eye = np.eye(xi.shape[1])
    defect = np.max(np.abs(a - b + eye), axis=(1, 2))
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(a), axis=(1, 2)),
                                       np.max(np.abs(b), axis=(1, 2))))
    return float(np.max(defect / scale))


def _matrix_residual(sigma, kap, xi, h):
    """Max normalized ||Y'' + kappa Y|| over Xi and H, on (m+1, k, k) arrays."""
    if len(sigma) < 5:
        return 0.0
    hg = sigma[1] - sigma[0]
    worst = 0.0
    for Y in (xi, h):
        d2 = (-Y[:-4] + 16 * Y[1:-3] - 30 * Y[2:-2] + 16 * Y[3:-1] - Y[4:]) / (12 * hg**2)
        resid = d2 + kap[2:-2, None, None] * Y[2:-2]
        scale = np.maximum(1.0, np.max(np.abs(Y[2:-2]), axis=(1, 2)))
        worst = max(worst, float(np.max(np.max(np.abs(resid), axis=(1, 2)) / scale)))
    return worst


def _matrix_hermite(t, hcell, y0, dy0, y1, dy1):
    h00 = 2 * t**3 - 3 * t**2 + 1
    h10 = t**3 - 2 * t**2 + t
    h01 = -2 * t**3 + 3 * t**2
    h11 = t**3 - t**2
    return h00 * y0 + h10 * hcell * dy0 + h01 * y1 + h11 * hcell * dy1


def _matrix_eval_at(js, mats, sigma):
    """Cubic Hermite dense output of the (m+1, k, k) arrays ``mats``."""
    j = js._bracket(sigma)
    hcell = js.sigma[j + 1] - js.sigma[j]
    t = (sigma - js.sigma[j]) / hcell
    kap0, kap1 = js.kappa[j], js.kappa[j + 1]
    out = []
    for Y, DY in ((mats[0], mats[1]), (mats[2], mats[3])):
        out.append(_matrix_hermite(t, hcell, Y[j], DY[j], Y[j + 1], DY[j + 1]))
        out.append(_matrix_hermite(t, hcell, DY[j], -kap0 * Y[j],
                                   DY[j + 1], -kap1 * Y[j + 1]))
    return out


_SCALAR_COLUMN_SYSTEMS = [
    gc.constant_curvature(1.0, 3),
    gc.constant_curvature(-2.0, 3),
    gc.warped_product("cosh", 3),
    gc.warped_product("two_plus_cos", 3),
    gc.flat_torus(np.eye(3)),
]

# (family, T, id): one member per manifold family, built for any dimension n
_ZERO_CATALOG = [
    *[((lambda n, c=c: gc.constant_curvature(c, n)), 2 * math.pi, f"c={c}")
      for c in (1.0, 4.0, -2.0, 0.0, 0.3)],
    ((lambda n: gc.flat_torus(np.eye(n))), 3.0, "torus"),
    ((lambda n: gc.flat_torus(np.diag(0.7 * np.arange(1.0, n + 1)))), 3.0, "torus-diag"),
    ((lambda n: gc.warped_product("sin", n)), 2.0, "sin"),
    ((lambda n: gc.warped_product("two_plus_cos", n)), 6.0, "two_plus_cos"),
    ((lambda n: gc.warped_product("one_plus_r2", n)), 4.0, "one_plus_r2"),
    ((lambda n: gc.warped_product("cosh", n)), 4.0, "cosh"),
]


class TestClosedForm:
    def test_initial_conditions_any_curvature(self):
        for c in (-2.0, -1.0, 0.0, 1.0, 3.5):
            xi, dxi, h, dh = closed_form_matrices(c, 0.0, 4)
            assert np.allclose(xi, np.eye(3))
            assert np.allclose(dxi, 0.0)
            assert np.allclose(h, 0.0)
            assert np.allclose(dh, np.eye(3))

    def test_round_sphere_quarter_period(self):
        xi, _, h, _ = closed_form_matrices(1.0, math.pi / 2, 3)
        assert np.max(np.abs(xi)) < 1e-15
        assert np.allclose(h, np.eye(2))

    def test_flat_solution_is_linear(self):
        xi, dxi, h, dh = closed_form_matrices(0.0, 3.0, 3)
        assert np.allclose(xi, np.eye(2))
        assert np.allclose(h, 3.0 * np.eye(2))

    def test_hyperbolic_oracle(self):
        # independent oracle: solve Y'' = Y with the stated initial data
        s = 1.7
        xi, dxi, h, dh = closed_form_matrices(-1.0, s, 2)
        assert abs(xi[0, 0] - math.cosh(s)) < 1e-15
        assert abs(h[0, 0] - math.sinh(s)) < 1e-15


class TestIntegrateGeodesic:
    def test_torus_wraps_straight_line(self):
        spec = gc.flat_torus(np.eye(2))
        traj = gc.integrate_geodesic(spec, np.zeros(2), np.array([1.0, 0.0]),
                                     2.5, 1e-2)
        assert np.allclose(traj.at([2.5])[0][0], [0.5, 0.0], atol=1e-12)

    def test_great_circle_antipodal(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, math.pi, 1e-3)
        positions, velocities = traj.at(traj.sigma[-1:])
        assert np.max(np.abs(positions[0] + x)) < 1e-8
        assert np.max(np.abs(velocities[0] + theta)) < 1e-8

    def test_flat_is_straight_line(self):
        spec = gc.constant_curvature(0.0, 3)
        x = np.array([0.5, -1.0, 2.0])
        theta = np.array([0.0, 1.0, 0.0])
        traj = gc.integrate_geodesic(spec, x, theta, 4.2, 1e-2)
        assert np.allclose(traj.at([4.2])[0][0], x + 4.2 * theta, atol=1e-10)

    def test_warped_radial_ray(self):
        spec = gc.warped_product("one_plus_r2", 3)
        x = gc.canonical_point(spec)
        theta = np.array([1.0, 0.0, 0.0, 0.0])
        traj = gc.integrate_geodesic(spec, x, theta, 2.0, 1e-2)
        assert abs(traj.at([2.0])[0][0, 0] - 3.0) < 1e-12

    def test_identity_warp_is_flat_ray(self):
        # w(r) = r is Euclidean space in polar form: the radial ray is the
        # straight line x + T * theta in the r coordinate, curvature 0
        spec = gc.warped_product("identity", 2)
        x = gc.canonical_point(spec)
        theta = np.array([1.0, 0.0, 0.0])
        traj = gc.integrate_geodesic(spec, x, theta, 3.7, 1e-2)
        assert abs(traj.at([3.7])[0][0, 0] - (1.0 + 3.7)) < 1e-12
        js = gc.propagate_jacobi(traj)
        exact = closed_form_matrices(0.0, 3.7, 2)
        assert abs(jacobi_stacks(js)[2][-1][0, 0] - exact[2][0, 0]) < 1e-10

    def test_unit_speed_conservation(self):
        from geocount.manifolds import metric_dot
        spec = gc.constant_curvature(-1.0, 3)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 5.0, 1e-3)
        positions, velocities = traj.at(traj.sigma)
        for j in (0, len(traj.sigma) // 2, -1):
            g = metric_dot(spec, positions[j], velocities[j], velocities[j])
            assert abs(g - 1.0) < 1e-8

    @pytest.mark.parametrize("c", [-4.0, -3.9, -25.0])
    def test_strongly_hyperbolic_closed_form(self, c):
        # ambient RK4 drifted off unit speed here; the closed form does not.
        # At c = -25 the terms of |gamma'|^2 reach cosh^2(25) = 1.3e21, so
        # the speed drift is taken relative to their size
        spec = gc.constant_curvature(c, 3)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 5.0, 1e-3)
        s = math.sqrt(-c)
        u = s * traj.sigma[:, None]
        pos = np.cosh(u) * x + np.sinh(u) / s * theta
        vel = s * np.sinh(u) * x + np.cosh(u) * theta
        for got, want in zip(traj.at(traj.sigma), (pos, vel)):
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12

    def test_input_validation(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        with pytest.raises(InputError):
            gc.integrate_geodesic(spec, x, theta, -1.0, 1e-2)
        with pytest.raises(InputError):
            gc.integrate_geodesic(spec, x, theta, 1.0, 0.0)
        with pytest.raises(InputError):
            gc.integrate_geodesic(spec, x, theta, 1.0, 2.0)
        with pytest.raises(InputError):
            gc.integrate_geodesic(spec, x, 0.5 * theta, 1.0, 1e-2)
        # a nan direction is refused as input on every kind, flat ones too
        for spec in (spec, gc.flat_torus(np.eye(2)), gc.constant_curvature(0.0, 2)):
            x = gc.canonical_point(spec)
            with pytest.raises(InputError, match="norm"):
                gc.integrate_geodesic(spec, x, np.full(len(x), math.nan), 1.0, 1e-2)

    @pytest.mark.parametrize("T", [5.0, 1e-7])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_direction_along_the_model_normal_is_refused(self, T, sign):
        # theta = +-sqrt(c) x on S^3 has unit norm; the speed check alone
        # lets it through for T <= 5e-7
        spec = gc.constant_curvature(4.0, 3)
        x = gc.canonical_point(spec)
        with pytest.raises(InputError, match="span of the model normal"):
            gc.integrate_geodesic(spec, x, sign * 2.0 * x, T, T / 2)

    @pytest.mark.parametrize("spec,x,theta,match", [
        # a zero fiber part: integrated without complaint before the check
        (gc.warped_product("cosh", 3), [1.0, 0.0, 0.0, 0.0],
         [1.0, 0.0, 0.0, 0.0], r"fiber part x\[1:\] must be a unit vector"),
        # the origin of R^4: refused before only after a 0/0 RuntimeWarning
        (gc.constant_curvature(1.0, 3), [0.0, 0.0, 0.0, 0.0],
         [0.0, 1.0, 0.0, 0.0], "<x, x>_g must be 1/c$"),
        (gc.constant_curvature(-1.0, 3), [-1.0, 0.0, 0.0, 0.0],
         [0.0, 1.0, 0.0, 0.0], "with x_0 > 0"),
        # squares past the float range, on both sheets' terms
        (gc.constant_curvature(-1.0, 3), [1e200, 1.0, 0.0, 0.0],
         [0.0, 1.0, 0.0, 0.0], "with x_0 > 0"),
        (gc.constant_curvature(4.0, 2), [1e200, 0.0, 0.0],
         [0.0, 1.0, 0.0], "1/c$"),
        (gc.constant_curvature(1.0, 3), [1.0, 0.0, 0.0],
         [0.0, 1.0, 0.0], r"shape \(3,\), expected \(4,\)"),
        (gc.flat_torus(np.eye(2)), [math.nan, 0.0], [0.0, 1.0], "non-finite"),
    ], ids=["warped-zero-fiber", "sphere-origin", "lower-sheet",
            "hyperboloid-overflow", "sphere-overflow", "short", "nan"])
    def test_point_off_the_model_is_refused_without_warnings(self, spec, x,
                                                              theta, match):
        x, theta = np.array(x), np.array(theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=match):
                gc.integrate_geodesic(spec, x, theta, 1.0, 1e-2)
            with pytest.raises(InputError, match=match):
                gc.curvature_along(spec, (x, theta))

    def test_warped_rejects_fiber_directions(self):
        spec = gc.warped_product("one_plus_r2", 2)
        x = gc.canonical_point(spec)
        with pytest.raises(ConfigurationError):
            gc.integrate_geodesic(spec, x, gc.orthonormal_frame(spec, x)[1], 1.0, 1e-2)

    def test_warped_domain_violation(self):
        spec = gc.warped_product("identity", 2)
        x = gc.canonical_point(spec)
        inward = -gc.orthonormal_frame(spec, x)[0]
        with pytest.raises(DomainError):
            gc.integrate_geodesic(spec, x, inward, 1.5, 1e-2)

    def test_warped_base_point_outside_domain(self):
        # w = 0 at r = 0: the ray's domain check speaks before the frame
        spec = gc.warped_product("sin", 2)
        x = np.array([0.0, 1.0, 0.0])
        with pytest.raises(DomainError, match="r=0"):
            gc.integrate_geodesic(spec, x, np.array([1.0, 0.0, 0.0]), 1.0, 1e-2)

    def test_warped_small_warp(self):
        # w(r) ~ 1e-7 near the end of the sin warp's domain
        spec = gc.warped_product("sin", 3)
        x = np.array([1e-7, 1.0, 0.0, 0.0])
        theta = gc.orthonormal_frame(spec, x)[0]
        assert np.array_equal(theta, [1.0, 0.0, 0.0, 0.0])
        traj = gc.integrate_geodesic(spec, x, theta, 1.0, 1e-2)
        assert traj.sigma[-1] == 1.0


_EVERY_KIND = [
    *(gc.constant_curvature(c, 3) for c in (1.0, 4.0, -1.0, -2.0, 0.0)),
    gc.flat_torus(np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]])),
    *(gc.warped_product(name, 3) for name in sorted(mf.WARP_CATALOG)),
]


class TestClosedFormTrajectory:
    @pytest.mark.parametrize("seed", [0, 1, 101])
    @pytest.mark.parametrize("spec", _EVERY_KIND, ids=lambda s: s.label)
    def test_at_equals_the_sampled_arrays(self, spec, seed):
        # a random point and direction; radial rays stay inside the warp's
        # domain for 0.15 of arc length
        x, theta = random_point(spec, np.random.default_rng(seed), radial=True)
        T = 0.15 if spec.kind == mf.WARPED_PRODUCT else 3.0
        traj = gc.integrate_geodesic(spec, x, theta, T, 1e-3)
        want = sampled_geodesic(spec, x, theta, traj.sigma)
        for g, w in zip(traj.at(traj.sigma), want):
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))

    def test_trajectory_keeps_no_sample_arrays(self):
        fields = [f.name for f in dataclasses.fields(gc.GeodesicTrajectory)]
        assert fields == ["spec", "x0", "theta0", "sigma", "step"]
        fields = [f.name for f in dataclasses.fields(gc.JacobiSystem)]
        assert "kop" not in fields


class TestPropagateJacobi:
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_matches_closed_form(self, c):
        spec = gc.constant_curvature(c, 3)
        _, js = _traj_and_system(spec, T=3.0)
        worst = 0.0
        stacks = jacobi_stacks(js)
        for j in range(0, len(js.sigma), 77):
            exact = closed_form_matrices(c, js.sigma[j], 3)
            approx = tuple(Y[j] for Y in stacks)
            worst = max(worst, max(float(np.max(np.abs(a - e)))
                                   for a, e in zip(approx, exact)))
        assert worst <= 1e-6

    @pytest.mark.parametrize("spec", [
        gc.constant_curvature(1.0, 3),
        gc.constant_curvature(-1.0, 2),
        gc.flat_torus(np.eye(2)),
        gc.warped_product("two_plus_cos", 3),
    ], ids=lambda s: s.label)
    def test_conservation_everywhere(self, spec):
        _, js = _traj_and_system(spec, T=4.0)
        assert gc.wronskian_drift(js) <= 1e-8
        assert gc.jacobi_residual(js) <= 1e-4 * js.step

    @pytest.mark.parametrize("spec", [
        gc.constant_curvature(1.0, 2),
        gc.constant_curvature(-1.0, 3),
        gc.flat_torus(np.eye(3)),
        gc.warped_product("one_plus_r2", 3),
    ], ids=lambda s: s.label)
    def test_det_h_positive_near_zero(self, spec):
        _, js = _traj_and_system(spec, T=1.0)
        for s in (0.002, 0.005, 0.01):
            _, _, h, _ = jacobi_matrices(js.eval_at(s), js.dim)
            assert np.linalg.det(h) > 0

    @pytest.mark.parametrize("spec", [
        gc.constant_curvature(1.0, 3),
        gc.constant_curvature(-2.0, 4),
        gc.flat_torus(np.eye(3)),
        gc.warped_product("one_plus_r2", 3),
        gc.warped_product("cosh", 3),
        gc.warped_product("two_plus_cos", 2),
    ], ids=lambda s: s.label)
    @pytest.mark.parametrize("step", [1e-2, 1e-2 / 3], ids=["grid=0.01", "grid=0.01/3"])
    def test_scalar_kernel_against_matrix_reference(self, spec, step):
        # the matrix reference has the bits of the literal scalar loop, and
        # the kernel's prefix products stay within KERNEL_REL of both
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 3.0, step)
        js = gc.propagate_jacobi(traj)
        kprofile = gc.curvature_along(spec, (traj.x0, traj.theta0)).profile
        loop = _literal_pair(_inputs(kprofile, traj.sigma))
        for got, want in zip(jacobi_matrices(loop.T, js.dim), _matrix_reference(spec, traj)):
            assert np.array_equal(got, want)
        assert _relative_gap(js.cols, loop) <= KERNEL_REL
        assert np.array_equal(js.kappa, kprofile(js.sigma))

    def test_fundamental_solutions_keep_one_row_per_grid_cell(self):
        # two grid cells on a varying profile: one row per grid point; the
        # matrix reference has the literal loop's bits, and the kernel's
        # first step is one literal step
        spec = gc.warped_product("two_plus_cos", 3)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), 0.2, 0.1)
        kprofile = gc.curvature_along(spec, (traj.x0, traj.theta0)).profile
        kappa, cols = flow._fundamental_solutions(kprofile, traj.sigma)
        assert cols.shape == (3, 4) and cols.flags.c_contiguous
        assert np.array_equal(kappa, kprofile(traj.sigma))
        loop = _literal_pair(_inputs(kprofile, traj.sigma))
        ref = np.stack([Y[:, 0, 0] for Y in _matrix_reference(spec, traj)], axis=1)
        assert ref.tobytes() == loop.tobytes()
        assert cols[:2].tobytes() == loop[:2].tobytes()
        assert _relative_gap(cols, loop) <= KERNEL_REL

    def test_round_sphere_end_value(self):
        # eta(2) = sin 2 on S^2 (measured: 8.5e-15 off on grid 1e-3)
        spec = gc.constant_curvature(1.0, 2)
        _, js = _traj_and_system(spec, T=2.0)
        exact = closed_form_matrices(1.0, 2.0, 2)
        assert abs(jacobi_stacks(js)[2][-1][0, 0] - exact[2][0, 0]) < 1e-12

    # det H, the integrand of the counting function, read through the dense
    # output: 1 at pi/2 on S^2, sigma^2 on R^3 and 0 at sigma = 0
    def test_det_h_round_sphere_unit_value(self):
        _, js = _traj_and_system(gc.constant_curvature(1.0, 2), T=2.0)
        _, _, h, _ = jacobi_matrices(js.eval_at(math.pi / 2), js.dim)
        assert abs(np.linalg.det(h) - 1.0) < 1e-12

    def test_det_h_flat_power_value(self):
        _, js = _traj_and_system(gc.constant_curvature(0.0, 3), T=3.0)
        _, _, h, _ = jacobi_matrices(js.eval_at(2.0), js.dim)
        assert abs(np.linalg.det(h) - 4.0) < 1e-12

    def test_det_h_vanishes_at_zero(self):
        spec = gc.warped_product("two_plus_cos", 3)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), 1.0, 1e-3)
        js = gc.propagate_jacobi(traj)
        assert js.det_h[0] == 0.0
        _, _, h, _ = jacobi_matrices(js.eval_at(0.0), js.dim)
        assert np.linalg.det(h) == 0.0

    def test_dense_output_matches_grid(self):
        spec = gc.constant_curvature(1.0, 3)
        _, js = _traj_and_system(spec, T=2.0)
        j = 500
        xi, dxi, h, dh = jacobi_matrices(js.eval_at(float(js.sigma[j])), js.dim)
        stacks = jacobi_stacks(js)
        assert np.allclose(xi, stacks[0][j], atol=1e-12)
        assert np.allclose(dh, stacks[3][j], atol=1e-12)
        # between nodes the dense output stays at the closed form
        s = float(js.sigma[j]) + 0.4 * js.step
        exact = closed_form_matrices(1.0, s, 3)
        approx = jacobi_matrices(js.eval_at(s), js.dim)
        assert max(float(np.max(np.abs(a - e)))
                   for a, e in zip(approx, exact)) < 1e-10


class TestScalarColumns:
    def test_system_stores_only_the_scalar_columns(self):
        names = {f.name for f in dataclasses.fields(gc.JacobiSystem)}
        assert "cols" in names
        assert not names & {"xi", "dxi", "h", "dh", "det_xi", "det_h"}
        _, js = _traj_and_system(gc.constant_curvature(1.0, 4), T=1.0, step=1e-2)
        assert js.cols.shape == (len(js.sigma), 4)
        assert not any(hasattr(js, name) for name in ("xi", "dxi", "h", "dh"))
        assert all(isinstance(v, float) for v in js.eval_at(0.5))

    @pytest.mark.parametrize("spec", _SCALAR_COLUMN_SYSTEMS, ids=lambda s: s.label)
    def test_gates_and_dense_output_equal_matrix_formulas(self, spec):
        _, js = _traj_and_system(spec, T=3.0)
        mats = jacobi_stacks(js)
        assert gc.wronskian_drift(js) == _matrix_wronskian(*mats)
        assert gc.jacobi_residual(js) == _matrix_residual(js.sigma, js.kappa,
                                                          mats[0], mats[2])
        rng = np.random.default_rng(5)
        for s in np.concatenate([js.sigma[::250], rng.uniform(0.0, js.T, 40)]):
            for got, want in zip(jacobi_matrices(js.eval_at(float(s)), js.dim),
                                 _matrix_eval_at(js, mats, float(s))):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", _SCALAR_COLUMN_SYSTEMS, ids=lambda s: s.label)
    def test_dense_output_on_arrays_equals_scalar_calls(self, spec):
        # one search and one Hermite evaluation per column for the whole
        # array, the bits of the calls one sigma at a time; real sigma
        # give floats, complex sigma complex numbers, and the shape is kept.
        # f = eta / xi too on the real axis; off it, numpy's complex
        # division may differ from Python's in the last bit
        _, js = _traj_and_system(spec, T=3.0)
        rng = np.random.default_rng(9)
        real = np.concatenate([[0.0, js.T, js.T + 5e-13, -5e-13], js.sigma[::250],
                               rng.uniform(0.0, js.T, 40)])
        for sigma in (real, real + 1j * rng.uniform(-1e-3, 1e-3, len(real))):
            got = js.eval_at(sigma)
            for i, s in enumerate(sigma.tolist()):
                assert [v[i] for v in got] == list(js.eval_at(s))
        assert js.f(real).tolist() == [js.f(s) for s in real.tolist()]
        grid = real[:42].reshape(6, 7)
        got = js.eval_at(grid)
        assert all(v.shape == (6, 7) for v in got)
        assert np.array_equal(np.stack(got), np.stack(js.eval_at(grid.ravel())).reshape(4, 6, 7))
        assert all(v.shape == (0,) for v in js.eval_at(np.empty(0)))

    def test_out_of_grid_sigma_anywhere_in_an_array_raises(self):
        _, js = _traj_and_system(gc.constant_curvature(1.0, 3), T=3.0)
        inside = np.linspace(0.1, 2.9, 9)
        for bad in (-1e-9, 3.0 + 1e-9, 7.0):
            for where in (0, 4, 8):
                sigma = inside.copy()
                sigma[where] = bad
                with pytest.raises(InputError, match=f"sigma={bad!r} outside grid"):
                    js.eval_at(sigma)
                with pytest.raises(InputError, match="outside grid"):
                    js.f(sigma + 1e-20j)
                with pytest.raises(InputError, match="outside grid"):
                    gc.check_key1(js, sigma)

    def test_distance_to_singular_on_arrays_equals_scalar_calls(self):
        for spec, T in ((gc.constant_curvature(1.0, 3), 7.0),
                        (gc.flat_torus(np.eye(2)), 3.0)):
            _, js = _traj_and_system(spec, T=T)
            sigma = np.random.default_rng(4).uniform(-1.0, T + 1.0, 50)
            got = js.distance_to_singular(sigma)
            assert got.tolist() == [js.distance_to_singular(s) for s in sigma.tolist()]
            assert isinstance(js.distance_to_singular(1.0), float)
        js = dataclasses.replace(js, singular_set=np.empty(0))
        assert js.distance_to_singular(1.0) == math.inf
        assert np.all(js.distance_to_singular(sigma) == math.inf)

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("family", [
        lambda n: gc.constant_curvature(1.0, n),
        lambda n: gc.constant_curvature(-2.0, n),
        lambda n: gc.warped_product("two_plus_cos", n),
    ], ids=["c=1", "c=-2", "two_plus_cos"])
    def test_determinants_are_powers_within_lu_roundoff(self, family, n):
        _, js = _traj_and_system(family(n), T=3.0, step=1e-2)
        eps = np.finfo(float).eps
        xi, _, h, _ = jacobi_stacks(js)
        for got, Y in ((js.det_xi, xi), (js.det_h, h)):
            want = np.linalg.det(Y)
            assert np.all(np.abs(got - want) <= 64 * eps * np.abs(want))

    @pytest.mark.parametrize("name", sorted(_MATH_WARPS))
    def test_warped_data_match_math_catalog(self, name):
        T = 2.0 if name == "sin" else 4.0
        spec = gc.warped_product(name, 3)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), T, 1e-3)
        js = gc.propagate_jacobi(traj)
        eps = np.finfo(float).eps
        ref_profile = _math_profile(name, x[0])
        kap = ref_profile(js.sigma)
        assert np.all(np.abs(js.kappa - kap) <= 4 * eps * np.abs(kap))
        _, ref = flow._fundamental_solutions(ref_profile, traj.sigma)
        assert np.all(np.abs(js.cols - ref) <= 4e-16 * np.maximum(1.0, np.abs(ref)))


def _literal_rk4(inputs, y, dy):
    """Classical RK4 for one solution of y'' = -kappa y, one step per cell,
    as the per-step loop over floats that ``flow._rk4`` replaced: the bit
    reference of its flat branch and of one step."""
    ys, dys = [y], [dy]
    for h, na, nm, nb in zip(*(np.asarray(v, dtype=float).tolist() for v in inputs)):
        hh = 0.5 * h
        k1 = na * y
        y2 = y + hh * dy
        d2 = dy + hh * k1
        k2 = nm * y2
        y3 = y + hh * d2
        d3 = dy + hh * k2
        k3 = nm * y3
        y4 = y + h * d3
        d4 = dy + h * k3
        h6 = h / 6.0
        y, dy = (y + h6 * (dy + 2.0 * d2 + 2.0 * d3 + d4),
                 dy + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + nb * y4))
        ys.append(y)
        dys.append(dy)
    return ys, dys


def _literal_pair(inputs):
    """The literal loop from (1, 0) and from (0, 1), as rows (xi, xi', eta, eta')."""
    return np.column_stack(_literal_rk4(inputs, 1.0, 0.0) + _literal_rk4(inputs, 0.0, 1.0))


# the kernel's distance from the literal loop, relative past 1
KERNEL_REL = 1e-12


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want, dtype=float)
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _inputs(profile, grid):
    return flow._rk4_inputs(profile, grid)[1]


_RNG_KAPPA = np.random.default_rng(11).uniform(-3.0, 5.0, 3 * 400)

# name: (kappa profile, grid); the random case draws kappa at every stage node
_KERNEL_CASES = {
    "constant c=1": (lambda s: np.full_like(s, 1.0), flow._grid(3.0, 1e-2)),
    "constant c=-4": (lambda s: np.full_like(s, -4.0), flow._grid(3.0, 1e-2 / 3)),
    "two_plus_cos": (lambda s: np.cos(1.0 + s) / (2.0 + np.cos(1.0 + s)),
                     flow._grid(4.0, 1e-2)),
    "random": (None, np.concatenate(
        ([0.0], np.cumsum(np.random.default_rng(12).uniform(1e-3, 5e-2, 400))))),
}


def _kernel_inputs(name):
    profile, grid = _KERNEL_CASES[name]
    if profile is None:
        negk = -_RNG_KAPPA.reshape(-1, 3).T
        return (np.diff(grid), *negk)
    return _inputs(profile, grid)


class TestKernel:
    @pytest.mark.parametrize("name", list(_KERNEL_CASES))
    def test_one_cell_is_one_literal_step(self, name):
        # Id + E_j from one cell alone is one literal step from (1, 0) and
        # from (0, 1), bit for bit, signs of zero included
        inputs = _kernel_inputs(name)
        for j in range(len(inputs[0])):
            cell = tuple(v[j:j + 1] for v in inputs)
            assert _same_bits(flow._rk4(cell), _literal_pair(cell))

    @pytest.mark.parametrize("name", list(_KERNEL_CASES))
    def test_prefix_products_stay_near_the_loop(self, name):
        inputs = _kernel_inputs(name)
        assert _relative_gap(flow._rk4(inputs), _literal_pair(inputs)) <= KERNEL_REL

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 9, 1000, 500_000])
    def test_every_cell_count_up_to_half_a_million(self, m):
        # cell counts at and off the powers of two of the doubling passes, on
        # the slowly varying profile 1 + sin(sigma / 10) / 4 (a profile in
        # parametric resonance, 1 + sin(sigma) / 2, grows the solutions and
        # any two roundings apart: 1.5e-10 at 5e5 cells)
        grid = np.linspace(0.0, 1e-3 * m, m + 1)
        inputs = _inputs(lambda s: 1.0 + 0.25 * np.sin(0.1 * s), grid)
        assert _relative_gap(flow._rk4(inputs), _literal_pair(inputs)) <= KERNEL_REL

    @pytest.mark.parametrize("step", [1e-3, 1e-2])
    @pytest.mark.parametrize("c", [1.0, -1.0, -4.0, 4.0])
    def test_closed_form_error_is_the_loops(self, c, step):
        # relative past 1, at most 1.1 times the literal loop's error + 1e-14
        grid = flow._grid(5.0, step)
        inputs = _inputs(lambda s: np.full_like(s, c), grid)
        exact = np.column_stack(gc.closed_form.scalars(c, grid))
        kernel = _relative_gap(flow._rk4(inputs), exact)
        loop = _relative_gap(_literal_pair(inputs), exact)
        assert kernel <= 1.1 * loop + 1e-14

    def test_overflowing_propagation_is_refused_silently(self):
        # cosh(5 sqrt(1e5)) is past the float range: the products give inf
        # and nan, which the gate refuses before any zero search or warning
        spec = gc.constant_curvature(-1e5, 3)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        sigma = flow._grid(5.0, 1e-3)
        traj = flow.GeodesicTrajectory(spec, x, theta, sigma, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationFailureError, match="float range"):
                gc.propagate_jacobi(traj)


_FLAT_GRIDS = {
    "T=2.345,step=1e-3": flow._grid(2.345, 1e-3),
    "T=2.345,step=1e-2": flow._grid(2.345, 1e-2),
    "non-uniform": np.concatenate(
        ([0.0], np.cumsum(np.random.default_rng(3).uniform(1e-4, 2e-2, 400)))),
}


class TestFlatKernel:
    @pytest.mark.parametrize("grid", list(_FLAT_GRIDS.values()), ids=list(_FLAT_GRIDS))
    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    def test_flat_branch_equals_the_loop(self, grid, zero):
        # kappa = 0 as either signed zero: xi, xi' and eta' keep the loop's
        # bits and signs of zero, eta the bits of its running sum
        negk = np.full(len(grid) - 1, zero)
        inputs = (np.diff(grid), negk, negk, negk)
        assert _same_bits(flow._rk4(inputs), _literal_pair(inputs))

    @pytest.mark.parametrize("at", [0, 17, -1], ids=["first", "inner", "last"])
    @pytest.mark.parametrize("stage", [1, 2, 3], ids=["start", "mid", "end"])
    def test_one_nonzero_node_takes_the_products(self, at, stage):
        grid = _FLAT_GRIDS["T=2.345,step=1e-2"]
        m = len(grid) - 1
        inputs = [np.diff(grid), np.zeros(m), np.zeros(m), np.zeros(m)]
        flat = flow._rk4(tuple(inputs))
        inputs[stage][at] = -0.5
        got = flow._rk4(tuple(inputs))
        assert _relative_gap(got, _literal_pair(inputs)) <= KERNEL_REL
        assert not np.array_equal(got[:, 1], flat[:, 1])

    @pytest.mark.parametrize("h", [1e308, math.inf])
    def test_non_finite_flat_solutions_take_the_products(self, h):
        # silently (a RuntimeWarning fails): rows the loop keeps finite have
        # its bits, and every row where it leaves the float range is not
        # finite either
        negk = np.zeros(3)
        inputs = (np.full(3, h), negk, negk, negk)
        got, want = flow._rk4(inputs), _literal_pair(inputs)
        finite = np.isfinite(want).all(axis=1)
        assert _same_bits(got[finite], want[finite])
        assert not np.isfinite(got[~finite]).all(axis=1).any()

    @pytest.mark.parametrize("spec", [gc.flat_torus(np.eye(3)), gc.constant_curvature(0.0, 3)],
                             ids=lambda s: s.label)
    def test_flat_systems_equal_the_loop(self, spec):
        # both flat kinds reach the branch through propagate_jacobi, and c = 0
        # through the counting integral's eta
        traj, js = _traj_and_system(spec, T=2.345)
        kprofile = gc.curvature_along(spec, (traj.x0, traj.theta0)).profile
        assert _same_bits(js.cols, _literal_pair(_inputs(kprofile, js.sigma)))
        grid = flow._grid(2.345, 1e-3)
        negk = np.full(len(grid) - 1, -0.0)
        want = _literal_rk4((np.diff(grid), negk, negk, negk), 0.0, 1.0)
        got = gc.counting._constant_eta(0.0, grid)
        assert all(_same_bits(g, w) for g, w in zip(got, want))


class TestSingularSet:
    def test_sign_change_zeros_round_sphere(self):
        # n=2: det H = sin(sigma) changes sign at pi, 2pi
        spec = gc.constant_curvature(1.0, 2)
        _, js = _traj_and_system(spec, T=7.0)
        expected_h = np.array([0.0, math.pi, 2 * math.pi])
        assert len(js.h_zeros) == 3
        assert np.max(np.abs(js.h_zeros - expected_h)) < 1e-9
        expected_xi = np.array([math.pi / 2, 3 * math.pi / 2])
        assert len(js.xi_zeros) == 2
        assert np.max(np.abs(js.xi_zeros - expected_xi)) < 1e-9

    def test_even_multiplicity_zeros(self):
        # n=3: det H = sin^2 has a double zero at pi; it is found as the sign
        # change of the scalar eta = sin
        spec = gc.constant_curvature(1.0, 3)
        _, js = _traj_and_system(spec, T=4.0)
        assert len(js.h_zeros) == 2
        assert abs(js.h_zeros[1] - math.pi) < 1e-5
        assert abs(js.xi_zeros[0] - math.pi / 2) < 1e-5

    def test_no_spurious_zeros_hyperbolic(self):
        spec = gc.constant_curvature(-1.0, 3)
        _, js = _traj_and_system(spec, T=10.0)
        assert np.allclose(js.h_zeros, [0.0])
        assert len(js.xi_zeros) == 0

    def test_warped_ode_zero_detection(self):
        # sin warp has curvature profile exactly 1; det Xi = cos^2 vanishes
        # at pi/2 on the propagated system
        spec = gc.warped_product("sin", 3)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), 2.0, 1e-3)
        js = gc.propagate_jacobi(traj)
        assert len(js.xi_zeros) == 1
        assert abs(js.xi_zeros[0] - math.pi / 2) < 1e-5
        xi, _, _, _ = jacobi_matrices(js.eval_at(float(js.xi_zeros[0])), js.dim)
        assert abs(np.linalg.det(xi)) < 1e-10

    def test_singular_set_merges_families(self):
        spec = gc.constant_curvature(1.0, 2)
        _, js = _traj_and_system(spec, T=7.0)
        assert len(js.singular_set) == len(js.h_zeros) + len(js.xi_zeros)
        assert np.all(np.diff(js.singular_set) > 0)

    @pytest.mark.parametrize("spec", [gc.constant_curvature(1.0, 2),
                                      gc.constant_curvature(-1.0, 3),
                                      gc.flat_torus(np.eye(2)),
                                      gc.warped_product("sin", 3)],
                             ids=lambda s: s.label)
    def test_singular_set_is_the_bits_of_np_unique(self, spec):
        # a sorted set of the two lists, not np.unique, whose numpy.ma import
        # would land inside the first call
        _, js = _traj_and_system(spec, T=2.0 if spec.kind == mf.WARPED_PRODUCT else 7.0)
        want = np.unique(np.concatenate([js.xi_zeros, js.h_zeros]))
        assert js.singular_set.dtype == want.dtype
        assert js.singular_set.tobytes() == want.tobytes()


class TestScalarZeroFinder:
    @pytest.mark.parametrize("step", [1e-3, 1e-2])
    @pytest.mark.parametrize("family,T,label", _ZERO_CATALOG,
                             ids=[e[2] for e in _ZERO_CATALOG])
    def test_zeros_independent_of_dimension(self, family, T, label, step):
        # det Xi = xi^k and det H = eta^k vanish where xi and eta do, for
        # every k = n - 1
        _, base = _traj_and_system(family(2), T=T, step=step)
        for n in (3, 5):
            _, js = _traj_and_system(family(n), T=T, step=step)
            assert np.array_equal(js.xi_zeros, base.xi_zeros)
            assert np.array_equal(js.h_zeros, base.h_zeros)

    def test_round_three_sphere_coarse_grid(self):
        # the threshold detector lost the conjugate point at pi on this grid
        _, js = _traj_and_system(gc.constant_curvature(1.0, 3), T=2 * math.pi,
                                 step=1e-2)
        assert len(js.h_zeros) == 3
        assert np.max(np.abs(js.h_zeros - [0.0, math.pi, 2 * math.pi])) < 1e-8

    @pytest.mark.parametrize("c", [0.25, 1.0, 4.0, 9.0])
    def test_grid_holding_two_zeros_per_cell_is_refused(self, c):
        # a cell of width pi / sqrt(c) can hold two zeros with no sign change
        # between its ends; the Wronskian or residual gate refuses the grid
        spec = gc.constant_curvature(c, 2)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        h = math.pi / math.sqrt(c)
        traj = gc.integrate_geodesic(spec, x, theta, 8 * h, h)
        with pytest.raises(IntegrationFailureError):
            gc.propagate_jacobi(traj)

    @pytest.mark.parametrize("grid,c", [(3.5, 1.0), (2.0, 4.0), (math.pi, 1.0)])
    def test_short_grid_holding_two_zeros_per_cell_is_refused(self, grid, c):
        # two or three cells are too few for the residual stencil, so only the
        # Sturm guard (grid step * sqrt(max kappa) >= pi) sees the lost zeros
        spec = gc.constant_curvature(c, 2)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 2 * grid, grid)
        with pytest.raises(IntegrationFailureError, match="Sturm"):
            gc.propagate_jacobi(traj)

    def test_short_grid_below_the_sturm_bound_keeps_every_zero(self):
        # exact samples of eta = sin and xi = cos (S^2): one RK4 step per cell
        # this wide would fail the Wronskian gate
        grid = 0.99 * math.pi
        sigma = flow._grid(2 * grid, grid)
        h_zeros = flow._scalar_zeros(sigma, np.sin(sigma), np.cos(sigma))
        xi_zeros = flow._scalar_zeros(sigma, np.cos(sigma), -np.sin(sigma))
        # no zero is lost; the cubic Hermite interpolant of a cell this wide
        # places each one only to about 1e-2 (measured: 3e-4 to 8e-3)
        assert np.max(np.abs(h_zeros - [0.0, math.pi])) < 1e-2
        assert np.max(np.abs(xi_zeros - [math.pi / 2, 1.5 * math.pi])) < 1e-2

    @pytest.mark.parametrize("grid, exact, measured", [
        (0.2, True, 9.5e-8), (0.1, True, 2.2e-9), (0.01, False, 5.2e-10),
        (1e-3, False, 1.6e-11)])
    def test_zero_error_follows_the_grid(self, grid, exact, measured):
        # SIGMA_REFINE_TOL bounds Brent's method on the Hermite interpolant
        # only: the conjugate points of S^2 are off by the interpolant's
        # O(grid^4) error on exact samples of eta = sin (grids too coarse
        # for RK4 to pass the gates), and by the RK4 error on propagated
        # ones; the bound is twice the error measured
        if exact:
            sigma = flow._grid(7.0, grid)
            h_zeros = flow._scalar_zeros(sigma, np.sin(sigma), np.cos(sigma))
        else:
            spec = gc.constant_curvature(1.0, 2)
            x = gc.canonical_point(spec)
            theta = gc.orthonormal_frame(spec, x)[0]
            traj = gc.integrate_geodesic(spec, x, theta, 7.0, grid)
            h_zeros = gc.propagate_jacobi(traj).h_zeros
        assert h_zeros[0] == 0.0 and len(h_zeros) == 3
        err = np.max(np.abs(h_zeros[1:] - [math.pi, 2 * math.pi]))
        assert err <= 2 * measured

    @pytest.mark.parametrize("grid, drift", [
        (0.25, 1.1e-4), (0.1, 1.1e-6), (0.05, 3.5e-8)])
    def test_coarse_grid_fails_the_wronskian_gate(self, grid, drift):
        # one RK4 step per cell: on S^2 to T = 8 the Wronskian drift (the
        # value measured) passes WRONSKIAN_TOL only below grid 0.05
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 8.0, grid)
        with pytest.raises(IntegrationFailureError, match="Wronskian") as info:
            gc.propagate_jacobi(traj)
        got = float(str(info.value).split("drift ")[1].split()[0])
        assert drift / 2 <= got <= 2 * drift

    @pytest.mark.parametrize("delta", [1e-6, -1e-6])
    def test_perturbed_kappa_fails_the_residual_gate(self, monkeypatch, delta):
        # a curvature off by 1e-6 either way leaves a residual of about
        # 1e-6 * |eta|, above 1e-4 times the grid step 1e-3
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 2.0, 1e-3)

        def perturbed(kprofile, sigma, inner=flow._fundamental_solutions):
            kappa, cols = inner(kprofile, sigma)
            return kappa + delta, cols
        monkeypatch.setattr(flow, "_fundamental_solutions", perturbed)
        with pytest.raises(IntegrationFailureError, match="residual"):
            gc.propagate_jacobi(traj)


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the step cap was checked")


class TestStepBudget:
    def test_grid_refuses_non_finite_values(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.orthonormal_frame(spec, x)[0]
        for T, step in ((math.inf, 1e-2), (math.nan, 1e-2), (1.0, math.nan),
                        (1.0, math.inf)):
            with pytest.raises(InputError):
                gc.integrate_geodesic(spec, x, theta, T, step)

    @pytest.mark.parametrize("T,step", [(1e6, 1e-3), (1.0, 1e-300), (1e300, 1e-300)])
    def test_grid_refuses_too_many_steps_before_allocating(self, monkeypatch, T, step):
        monkeypatch.setattr(np, "linspace", _refuse)
        with pytest.raises(InputError, match="cap"):
            flow._grid(T, step)

    def test_grid_at_the_cap_is_accepted(self, monkeypatch):
        monkeypatch.setattr(np, "linspace", lambda a, b, num: num)
        assert flow._grid(float(flow.MAX_RK4_STEPS), 1.0) == flow.MAX_RK4_STEPS + 1
