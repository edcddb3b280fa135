import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d
from scipy.optimize import brentq

import geocount as gc
from geocount.errors import (ConfigurationError, DomainError, InputError,
                             IntegrationFailureError)
from geocount import flow
from geocount.flow import DET_ZERO_REL, SIGMA_REFINE_TOL
from matrix_forms import (closed_form_matrices, golden_min_one_point,
                          jacobi_matrices, jacobi_stacks, times_id)


def _traj_and_system(spec, T=3.0, step=1e-3, direction=0):
    x = gc.canonical_point(spec)
    theta = gc.tangent_frame(spec, x)[direction]
    traj = gc.integrate_geodesic(spec, x, theta, T, step)
    return traj, gc.propagate_jacobi(spec, traj)


def _matrix_reference(spec, traj, nsub=1):
    """(Xi, Xi', H, H') from RK4 on the k x 2k block [Xi | H], as a reference.

    The general matrix form of Y'' = -kappa Y with three scalar profile calls
    per substep; deliberately slow and literal.
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
        h = (sigma[j + 1] - sigma[j]) / nsub
        for q in range(nsub):
            s0 = sigma[j] + q * h
            ka = float(kprofile(s0))
            km = float(kprofile(s0 + 0.5 * h))
            kb = float(kprofile(s0 + h))
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


golden_min = functools.partial(golden_min_one_point, tol=SIGMA_REFINE_TOL)


def _detect_det_zeros(js_sigma, dets, norms, det_interp, k, h):
    """Zeros of a determinant sample sequence, refined to SIGMA_REFINE_TOL.

    Sign changes bracket simple zeros (Brent); near-zero local minima catch
    even-order zeros.  The accept threshold scales with the k-th power of the
    matrix norm over a half-unit window, per the detector contract.
    """
    window = 2 * max(1, int(round(0.5 / h))) + 1
    local = maximum_filter1d(np.maximum(norms, 1e-3), size=window, mode="nearest")
    thr = DET_ZERO_REL * local**k
    zeros = []
    absd = np.abs(dets)
    m = len(dets) - 1
    if absd[0] <= thr[0]:
        zeros.append(js_sigma[0])
    if absd[m] <= thr[m]:
        zeros.append(js_sigma[m])
    for j in range(m):
        if dets[j] == 0.0 and js_sigma[j] not in zeros:
            zeros.append(js_sigma[j])
        elif dets[j] * dets[j + 1] < 0.0:
            zeros.append(brentq(det_interp, js_sigma[j], js_sigma[j + 1],
                                xtol=SIGMA_REFINE_TOL))
    for j in range(1, m):
        if absd[j] < absd[j - 1] and absd[j] <= absd[j + 1]:
            if dets[j - 1] * dets[j] < 0 or dets[j] * dets[j + 1] < 0:
                continue  # already handled as a sign change
            if absd[j] > 1e-4 * local[j]**k:
                continue
            s = golden_min(lambda t: abs(det_interp(t)),
                           js_sigma[j - 1], js_sigma[j + 1])
            if abs(det_interp(s)) <= thr[j]:
                zeros.append(s)
    zeros = sorted(zeros)
    merged = []
    for z in zeros:
        if not merged or z - merged[-1] > 10 * SIGMA_REFINE_TOL:
            merged.append(z)
    return np.array(merged)


def _reference_zeros(js):
    """(xi zeros, eta zeros) by the general determinant-threshold detector."""
    out = []
    xi, _, h, _ = jacobi_stacks(js)
    for Y, dets, i in ((xi, js.det_xi, 0), (h, js.det_h, 2)):
        out.append(_detect_det_zeros(
            js.sigma, dets, np.max(np.abs(Y), axis=(1, 2)),
            lambda s, i=i: float(np.linalg.det(times_id(js.eval_at(s)[i], js.dim))),
            js.dim, js.trajectory.step))
    return out


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
        assert np.allclose(traj.positions[-1], [0.5, 0.0], atol=1e-12)

    def test_great_circle_antipodal(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, math.pi, 1e-3)
        assert np.max(np.abs(traj.positions[-1] + x)) < 1e-8
        assert np.max(np.abs(traj.velocities[-1] + theta)) < 1e-8

    def test_flat_is_straight_line(self):
        spec = gc.constant_curvature(0.0, 3)
        x = np.array([0.5, -1.0, 2.0])
        theta = np.array([0.0, 1.0, 0.0])
        traj = gc.integrate_geodesic(spec, x, theta, 4.2, 1e-2)
        assert np.allclose(traj.positions[-1], x + 4.2 * theta, atol=1e-10)

    def test_warped_radial_ray(self):
        spec = gc.warped_product("one_plus_r2", 3)
        x = gc.canonical_point(spec)
        theta = np.array([1.0, 0.0, 0.0, 0.0])
        traj = gc.integrate_geodesic(spec, x, theta, 2.0, 1e-2)
        assert abs(traj.positions[-1][0] - 3.0) < 1e-12

    def test_identity_warp_is_flat_ray(self):
        # w(r) = r is Euclidean space in polar form: the radial ray is the
        # straight line x + T * theta in the r coordinate, curvature 0
        spec = gc.warped_product("identity", 2)
        x = gc.canonical_point(spec)
        theta = np.array([1.0, 0.0, 0.0])
        traj = gc.integrate_geodesic(spec, x, theta, 3.7, 1e-2)
        assert abs(traj.positions[-1][0] - (1.0 + 3.7)) < 1e-12
        js = gc.propagate_jacobi(spec, traj)
        exact = closed_form_matrices(0.0, 3.7, 2)
        assert abs(jacobi_stacks(js)[2][-1][0, 0] - exact[2][0, 0]) < 1e-10

    def test_unit_speed_conservation(self):
        from geocount.manifolds import metric_dot
        spec = gc.constant_curvature(-1.0, 3)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 5.0, 1e-3)
        for j in (0, len(traj.sigma) // 2, -1):
            g = metric_dot(spec, traj.positions[j], traj.velocities[j],
                           traj.velocities[j])
            assert abs(g - 1.0) < 1e-8

    @pytest.mark.parametrize("c", [-4.0, -3.9])
    def test_strongly_hyperbolic_closed_form(self, c):
        # ambient RK4 drifted off unit speed here; the closed form does not
        spec = gc.constant_curvature(c, 3)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 5.0, 1e-3)
        s = math.sqrt(-c)
        u = s * traj.sigma[:, None]
        pos = np.cosh(u) * x + np.sinh(u) / s * theta
        vel = s * np.sinh(u) * x + np.cosh(u) * theta
        for got, want in ((traj.positions, pos), (traj.velocities, vel)):
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12
        assert traj.frame.shape == (2, 4)
        assert np.array_equal(traj.scale, np.ones(len(traj.sigma)))

    def test_input_validation(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        with pytest.raises(InputError):
            gc.integrate_geodesic(spec, x, theta, -1.0, 1e-2)
        with pytest.raises(InputError):
            gc.integrate_geodesic(spec, x, theta, 1.0, 0.0)
        with pytest.raises(InputError):
            gc.integrate_geodesic(spec, x, theta, 1.0, 2.0)
        with pytest.raises(InputError):
            gc.integrate_geodesic(spec, x, 0.5 * theta, 1.0, 1e-2)

    def test_warped_rejects_fiber_directions(self):
        spec = gc.warped_product("one_plus_r2", 2)
        x = gc.canonical_point(spec)
        with pytest.raises(ConfigurationError):
            gc.integrate_geodesic(spec, x, gc.tangent_frame(spec, x)[1], 1.0, 1e-2)

    def test_warped_domain_violation(self):
        spec = gc.warped_product("identity", 2)
        x = gc.canonical_point(spec)
        inward = -gc.tangent_frame(spec, x)[0]
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
        spec = gc.warped_product("sin", 3, base_radius=1e-7)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, gc.tangent_frame(spec, x)[0], 1.0, 1e-2)
        assert traj.frame.shape == (2, 4)


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

    @pytest.mark.parametrize("nsub", [1, 3])
    @pytest.mark.parametrize("spec", [
        gc.constant_curvature(1.0, 3),
        gc.constant_curvature(-2.0, 4),
        gc.flat_torus(np.eye(3)),
        gc.warped_product("one_plus_r2", 3),
        gc.warped_product("cosh", 3),
        gc.warped_product("two_plus_cos", 2),
    ], ids=lambda s: s.label)
    def test_scalar_kernel_equals_matrix_reference(self, spec, nsub):
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 3.0, 1e-2)
        js = gc.propagate_jacobi(spec, traj, step=traj.step / nsub)
        ref = _matrix_reference(spec, traj, nsub)
        for got, want in zip(jacobi_stacks(js), ref):
            assert np.array_equal(got, want)
        assert np.array_equal(js.kappa, js.kop.profile(js.sigma))

    @pytest.mark.parametrize("nsub", [2, 7])
    @pytest.mark.parametrize("spec", [
        gc.constant_curvature(1.0, 3),
        gc.constant_curvature(-2.0, 4),
        gc.warped_product("two_plus_cos", 2),
    ], ids=lambda s: s.label)
    def test_substeps_equal_matrix_reference_on_a_short_grid(self, spec, nsub):
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 0.5, 1e-2)
        js = gc.propagate_jacobi(spec, traj, step=traj.step / nsub)
        ref = _matrix_reference(spec, traj, nsub)
        for got, want in zip(jacobi_stacks(js), ref):
            assert np.array_equal(got, want)

    def test_many_substeps_keep_one_row_per_grid_cell(self):
        # two grid cells of 200 substeps each, on a varying profile
        spec = gc.warped_product("two_plus_cos", 3)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), 0.2, 0.1)
        kprofile = gc.curvature_along(spec, (traj.x0, traj.theta0)).profile
        kappa, cols = flow._fundamental_solutions(kprofile, traj.sigma, nsub=200)
        assert cols.shape == (3, 4) and cols.flags.c_contiguous
        assert np.array_equal(kappa, kprofile(traj.sigma))
        ref = np.stack([Y[:, 0, 0] for Y in _matrix_reference(spec, traj, 200)], axis=1)
        assert cols.tobytes() == ref.tobytes()

    def test_substep_integration(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 2.0, 1e-2)
        js = gc.propagate_jacobi(spec, traj, step=1e-3)
        exact = closed_form_matrices(1.0, 2.0, 2)
        assert abs(jacobi_stacks(js)[2][-1][0, 0] - exact[2][0, 0]) < 1e-9

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
        js = gc.propagate_jacobi(spec, traj)
        eps = np.finfo(float).eps
        ref_profile = _math_profile(name, x[0])
        kap = ref_profile(js.sigma)
        assert np.all(np.abs(js.kappa - kap) <= 4 * eps * np.abs(kap))
        _, ref = flow._fundamental_solutions(ref_profile, traj.sigma)
        assert np.all(np.abs(js.cols - ref) <= 4e-16 * np.maximum(1.0, np.abs(ref)))
        w = np.array([_MATH_WARPS[name][0](r) for r in traj.positions[:, 0]])
        g = np.sum((traj.scale[:, None] * traj.frame[0, 1:]) ** 2, axis=1) * w * w
        assert np.all(np.abs(g - 1.0) <= 1e-14)


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
        js = gc.propagate_jacobi(spec, traj)
        assert len(js.xi_zeros) == 1
        assert abs(js.xi_zeros[0] - math.pi / 2) < 1e-5
        xi, _, _, _ = jacobi_matrices(js.eval_at(float(js.xi_zeros[0])), js.dim)
        assert abs(np.linalg.det(xi)) < 1e-10

    def test_singular_set_merges_families(self):
        spec = gc.constant_curvature(1.0, 2)
        _, js = _traj_and_system(spec, T=7.0)
        assert len(js.singular_set) == len(js.h_zeros) + len(js.xi_zeros)
        assert np.all(np.diff(js.singular_set) > 0)


class TestScalarZeroFinder:
    @pytest.mark.parametrize("step", [1e-3, 2e-3, 1e-2])
    @pytest.mark.parametrize("family,T,label", _ZERO_CATALOG,
                             ids=[e[2] for e in _ZERO_CATALOG])
    def test_matches_reference_detector_k1(self, family, T, label, step):
        _, js = _traj_and_system(family(2), T=T, step=step)
        for got, want in zip((js.xi_zeros, js.h_zeros), _reference_zeros(js)):
            assert len(got) == len(want)
            assert np.all(np.abs(got - want) <= 2 * SIGMA_REFINE_TOL)

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

    @pytest.mark.parametrize("nsub", [1, 1000])
    @pytest.mark.parametrize("c", [1.0, 4.0])
    def test_grid_holding_two_zeros_per_cell_is_refused(self, c, nsub):
        # a cell of width pi / sqrt(c) can hold two zeros with no sign change
        # between its ends; the Wronskian or residual gate refuses the grid
        spec = gc.constant_curvature(c, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        h = math.pi / math.sqrt(c)
        traj = gc.integrate_geodesic(spec, x, theta, 8 * h, h)
        with pytest.raises(IntegrationFailureError):
            gc.propagate_jacobi(spec, traj, step=h / nsub)

    @pytest.mark.parametrize("grid,c", [(3.5, 1.0), (2.0, 4.0), (math.pi, 1.0)])
    def test_short_grid_holding_two_zeros_per_cell_is_refused(self, grid, c):
        # two or three cells are too few for the residual stencil, so only the
        # Sturm guard (grid step * sqrt(max kappa) >= pi) sees the lost zeros
        spec = gc.constant_curvature(c, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 2 * grid, grid)
        with pytest.raises(IntegrationFailureError, match="Sturm"):
            gc.propagate_jacobi(spec, traj, step=1e-3)

    def test_short_grid_below_the_sturm_bound_keeps_every_zero(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        grid = 0.99 * math.pi
        traj = gc.integrate_geodesic(spec, x, theta, 2 * grid, grid)
        js = gc.propagate_jacobi(spec, traj, step=1e-3)
        # no zero is lost; the cubic Hermite interpolant of a cell this wide
        # places each one only to about 1e-2 (measured: 3e-4 to 8e-3)
        assert np.max(np.abs(js.h_zeros - [0.0, math.pi])) < 1e-2
        assert np.max(np.abs(js.xi_zeros - [math.pi / 2, 1.5 * math.pi])) < 1e-2

    @pytest.mark.parametrize("grid, substep, measured", [
        (0.2, 1e-3, 9.5e-8), (0.1, 1e-3, 2.2e-9), (0.01, None, 5.2e-10),
        (1e-3, None, 1.6e-11)])
    def test_zero_error_follows_the_grid(self, grid, substep, measured):
        # SIGMA_REFINE_TOL bounds Brent's method on the Hermite interpolant
        # only: the conjugate points of S^2 are off by the interpolant's
        # O(grid^4) error, or by the RK4 error where no substep refines the
        # grid, and the bound is twice the error measured
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 7.0, grid)
        js = gc.propagate_jacobi(spec, traj, step=substep)
        assert js.h_zeros[0] == 0.0 and len(js.h_zeros) == 3
        err = np.max(np.abs(js.h_zeros[1:] - [math.pi, 2 * math.pi]))
        assert err <= 2 * measured

    def test_coarse_grid_with_fine_substeps_is_refused(self):
        # the stencil is taken on the grid, so on S^2 its truncation error
        # (about h^4 / 90) passes the bound 1e-4 * h only below h = 0.21,
        # however fine the substeps: residual 4.3e-5 > 2.5e-5 here, while
        # grid 0.2 (1.8e-5) passes
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 8.0, 0.25)
        with pytest.raises(IntegrationFailureError, match="residual"):
            gc.propagate_jacobi(spec, traj, step=1e-3)

    def test_fine_substeps_pass_the_residual_gate(self):
        # substep 1e-6 on a grid of 0.01: the stencil's residual, 2.2e-10,
        # is its truncation error on the grid and exceeds 1e-4 times the
        # substep (1e-10), so the bound must follow the grid step
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 0.5, 0.01)
        js = gc.propagate_jacobi(spec, traj, step=1e-6)
        assert 1e-10 < gc.jacobi_residual(js) <= 1e-4 * traj.step

    @pytest.mark.parametrize("nsub", [1, 200])
    def test_perturbed_kappa_fails_the_residual_gate(self, monkeypatch, nsub):
        # a curvature off by 1e-6 leaves a residual of about 1e-6 * |eta|,
        # above 1e-4 times the grid step 1e-3 with or without substeps
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 2.0, 1e-3)

        def perturbed(kprofile, sigma, nsub=1, inner=flow._fundamental_solutions):
            kappa, cols = inner(kprofile, sigma, nsub)
            return kappa + 1e-6, cols
        monkeypatch.setattr(flow, "_fundamental_solutions", perturbed)
        with pytest.raises(IntegrationFailureError, match="residual"):
            gc.propagate_jacobi(spec, traj, step=1e-3 / nsub)


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the step cap was checked")


class TestStepBudget:
    def test_grid_refuses_non_finite_values(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
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

    def test_substeps_count_against_the_cap(self, monkeypatch):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 1.0, 1e-2)
        for step in (math.nan, math.inf, -1e-3):
            with pytest.raises(InputError):
                gc.propagate_jacobi(spec, traj, step=step)
        monkeypatch.setattr(flow, "_fundamental_solutions", _refuse)
        for step in (1e-9, 1e-320):
            with pytest.raises(InputError, match="cap"):
                gc.propagate_jacobi(spec, traj, step=step)
