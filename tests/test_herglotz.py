import cmath
import math
import re

import numpy as np
import pytest

import geocount as gc
from geocount.closed_form import ClosedFormJacobi, g_pole_distance
from geocount.errors import ConditioningError, InputError, PoleError
from matrix_forms import times_id


def _warped_system(T=4.0):
    spec = gc.warped_product("one_plus_r2", 3)
    x = gc.canonical_point(spec)
    traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), T, 1e-3)
    return gc.propagate_jacobi(spec, traj)


def _f(c, n, zeta):
    """The closed-form matrix f = phi * Id of curvature c at zeta."""
    return gc.HerglotzMatrix.from_constant_curvature(c, n)(zeta)


class TestClosedFormF:
    def test_tan_at_i(self):
        # oracle: tan(i) = i*tanh(1)
        F = _f(1.0, 3, 1j)
        expect = cmath.tan(1j)
        assert abs(expect - 1j * math.tanh(1.0)) < 1e-15
        assert np.allclose(F, expect * np.eye(2))

    def test_flat_is_identity_times_argument(self):
        for s in (0.3, -2.0, 5.5):
            F = _f(0.0, 4, s)
            assert np.allclose(F, s * np.eye(3))
            assert np.max(np.abs(F.imag)) == 0.0

    def test_normalization_at_zero(self):
        h = 1e-6
        for c in (-1.0, 0.0, 1.0, 2.5):
            F0 = _f(c, 3, 0.0)
            assert np.max(np.abs(F0)) < 1e-15
            fp = (_f(c, 3, h)
                  - _f(c, 3, -h)) / (2 * h)
            assert np.max(np.abs(fp - np.eye(2))) < 1e-9

    def test_pole_proximity(self):
        with pytest.raises(PoleError):
            _f(1.0, 2, math.pi / 2)
        with pytest.raises(PoleError):
            _f(4.0, 2, math.pi / 4 + 1e-10)

    def test_curvature_rescaling(self):
        # f for curvature c is tan(sqrt(c) z)/sqrt(c)
        c, z = 2.0, 0.4 + 0.3j
        F = _f(c, 2, z)
        s = math.sqrt(c)
        assert abs(F[0, 0] - cmath.tan(s * z) / s) < 1e-14


class TestRealAxisNumeric:
    def test_round_sphere_tan(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, gc.tangent_frame(spec, x)[0],
                                     2.0, 1e-3)
        js = gc.propagate_jacobi(spec, traj)
        f = gc.f_real_axis_numeric(js, math.pi / 4)
        assert isinstance(f, float)
        assert abs(f - 1.0) < 1e-8  # tan(pi/4)

    def test_flat_linear(self):
        spec = gc.constant_curvature(0.0, 3)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, gc.tangent_frame(spec, x)[0],
                                     3.0, 1e-3)
        js = gc.propagate_jacobi(spec, traj)
        assert abs(gc.f_real_axis_numeric(js, 2.0) - 2.0) <= 1e-9

    def test_warped_small_sigma_expansion(self):
        js = _warped_system(T=1.0)
        for s in (0.005, 0.01, 0.02):
            f = gc.f_real_axis_numeric(js, s)
            assert abs(f - s) < 5.0 * s**3

    def test_pole_margin_enforced(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, gc.tangent_frame(spec, x)[0],
                                     2.0, 1e-3)
        js = gc.propagate_jacobi(spec, traj)
        with pytest.raises((InputError, ConditioningError)):
            gc.f_real_axis_numeric(js, float(js.xi_zeros[0]))

    def test_singular_xi_raises_conditioning_error(self):
        # the only case in which cond(xi * Id) exceeds any limit: xi = 0 or
        # not finite; the distance to the detected zeros travels with it
        class Source:
            def __init__(self, xi, xi_zeros=None):
                self.xi = xi
                if xi_zeros is not None:
                    self.xi_zeros = xi_zeros

            def eval_at(self, sigma):
                return self.xi, 0.0, 1.0, 1.0

        for xi in (0.0, math.inf, math.nan):
            with pytest.raises(ConditioningError) as bare:
                gc.f_real_axis_numeric(Source(xi), 1.0)
            assert bare.value.distance is None
            with pytest.raises(ConditioningError, match="distance 2.500e-01") as err:
                gc.f_real_axis_numeric(Source(xi, [0.75, 3.0]), 1.0)
            assert err.value.distance == 0.25
        assert gc.f_real_axis_numeric(Source(-2.0), 1.0) == -0.5


class TestNegInverse:
    def test_tan_becomes_minus_cot(self):
        z = 0.7 + 0.2j
        Gh = gc.HerglotzMatrix.from_constant_curvature(1.0, 2).neg_inverse_function()
        assert abs(Gh(z)[0, 0] - (-cmath.cos(z) / cmath.sin(z))) < 1e-12

    def test_linear_becomes_minus_reciprocal(self):
        z = 1.5 + 0.4j
        Gh = gc.HerglotzMatrix.from_constant_curvature(0.0, 3).neg_inverse_function()
        assert np.allclose(Gh(z), (-1.0 / z) * np.eye(2))


class TestTheoremNice:
    def test_round_sphere_report(self):
        Fh = gc.HerglotzMatrix.from_constant_curvature(1.0, 3)
        report = gc.check_theorem_nice(Fh, [1j, 0.5 + 0.2j, -2.0 + 1.5j])
        assert report["f_zero_norm"] <= 1e-12
        assert report["fprime_zero_defect"] <= 1e-6
        assert report["min_im_eigenvalue"] > 0
        # min over the samples includes f(i) with Im = tanh(1)
        assert report["min_im_eigenvalue"] <= math.tanh(1.0) + 1e-12

    def test_flat_imaginary_part_is_tau(self):
        Fh = gc.HerglotzMatrix.from_constant_curvature(0.0, 2)
        for tau in (0.3, 1.7):
            F = Fh(complex(0.4, tau))
            assert abs(F[0, 0].imag - tau) < 1e-15

    def test_real_axis_samples_have_zero_im(self):
        Fh = gc.HerglotzMatrix.from_constant_curvature(0.0, 3)
        report = gc.check_theorem_nice(Fh, [0.5, -1.2, 3.0])
        assert report["max_real_axis_im"] == 0.0
        assert report["min_im_eigenvalue"] is None

    @pytest.mark.parametrize("c", [-1.0, 0.0, 0.5, 1.0, 4.0])
    def test_report_equals_the_matrix_formulas(self, c):
        # the values the k x k form gave: max-entry norms of f(0) and of
        # f'(0) - Id, and the eigenvalues of Im F over the samples
        Fh = gc.HerglotzMatrix.from_constant_curvature(c, 4)
        samples = [0.3 + 0.2j, -1.1 + 0.05j, 0.4, -2.0, 2.5 + 3.0j]
        report = gc.check_theorem_nice(Fh, samples)
        h = gc.herglotz.FD_STEP
        F = np.stack([Fh(z) for z in samples])
        upper = np.array([z.imag > 0 for z in map(complex, samples)])
        assert report["f_zero_norm"] == np.max(np.abs(Fh(0.0)))
        assert report["fprime_zero_defect"] == np.max(np.abs(
            (Fh(h) - Fh(-h)) / (2 * h) - np.eye(3)))
        assert report["min_im_eigenvalue"] == np.min(np.linalg.eigvalsh(F[upper].imag))
        assert report["max_real_axis_im"] == np.max(np.abs(F[~upper].imag))


class TestHerglotzPositivity:
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_im_f_and_im_g_positive_definite(self, c):
        rng = np.random.default_rng(42)
        Fh = gc.HerglotzMatrix.from_constant_curvature(c, 3)
        Gh = Fh.neg_inverse_function()
        worst_f, worst_g = math.inf, math.inf
        for _ in range(100):
            z = complex(rng.uniform(-8, 8), 10.0 ** rng.uniform(-3, 1))
            worst_f = min(worst_f, np.min(np.linalg.eigvalsh(Fh(z).imag)))
            worst_g = min(worst_g, np.min(np.linalg.eigvalsh(Gh(z).imag)))
        assert worst_f > 0
        assert worst_g > 0


def _f_cmath(c, zeta):
    """The former scalar closed form of f, kept as the reference."""
    if c == 0:
        return zeta
    s = math.sqrt(abs(c))
    u = s * zeta
    if c > 0:
        if abs(u.imag) > 30.0:
            return 1j * math.copysign(1.0, u.imag) / s
        return cmath.tan(u) / s
    if abs(u.real) > 30.0:
        return math.copysign(1.0, u.real) / s
    return cmath.tanh(u) / s


def _g_cmath(c, zeta):
    """The former scalar closed form of -1/f, kept as the reference."""
    if c == 0:
        return -1.0 / zeta
    s = math.sqrt(abs(c))
    u = s * zeta
    if c > 0:
        if abs(u.imag) > 30.0:
            return s * 1j * math.copysign(1.0, u.imag)
        return -s * cmath.cos(u) / cmath.sin(u)
    if abs(u.real) > 30.0:
        return -s * math.copysign(1.0, u.real)
    return -s * cmath.cosh(u) / cmath.sinh(u)


# real and imaginary parts on both sides of |Re u|, |Im u| = 30 for every
# curvature below, none of them on a pole
_RE = (-55.0, -31.3, -7.7, -1.1, 0.37, 2.9, 33.3, 60.0)
_IM = (-80.0, -0.7, 1e-4, 0.3, 2.1, 35.0, 80.0)
_ZETAS = np.array([complex(x, y) for x in _RE for y in _IM])
_EPS = np.finfo(float).eps


class TestArrayEvaluator:
    @pytest.mark.parametrize("c", [4.0, 1.0, 0.5, 0.0, -1.0])
    def test_matches_stacked_scalar_calls(self, c):
        Fh = gc.HerglotzMatrix.from_constant_curvature(c, 3)
        for H, ref in ((Fh, _f_cmath), (Fh.neg_inverse_function(), _g_cmath)):
            with np.errstate(all="raise"):  # masked saturation: no overflow
                phi = H.phi(_ZETAS)
            stacked = np.stack([H(z) for z in _ZETAS])
            assert phi.shape == (len(_ZETAS),)
            assert np.array_equal(times_id(phi, 2), stacked)
            want = np.array([ref(c, complex(z)) for z in _ZETAS])
            assert np.all(np.abs(phi - want) <= 8 * _EPS * np.abs(want))
            assert np.all(stacked[:, 0, 1] == 0)

    @pytest.mark.parametrize("c", [4.0, 1.0, 0.5, -1.0])
    def test_samples_reach_both_branches(self, c):
        u = math.sqrt(abs(c)) * _ZETAS
        edge = np.abs(u.imag if c > 0 else u.real)
        assert np.any(edge > 30.0) and np.any(edge <= 30.0)

    def test_pole_error_names_first_offending_zeta(self):
        Gh = gc.HerglotzMatrix.from_constant_curvature(1.0, 2).neg_inverse_function()
        bad = complex(math.pi, 1e-9)
        with pytest.raises(PoleError, match=re.escape(f"zeta={bad} within")):
            Gh.phi([0.5 + 0.1j, bad, 2 * math.pi + 1e-9j])
        with pytest.raises(PoleError, match=re.escape(f"zeta={bad} within")):
            Gh(bad)
        Fh = gc.HerglotzMatrix.from_constant_curvature(0.0, 2).neg_inverse_function()
        with pytest.raises(PoleError):
            Fh.phi(np.array([1.0 + 1j, 0.0]))

    def test_empty_array(self):
        Fh = gc.HerglotzMatrix.from_constant_curvature(1.0, 4)
        assert Fh.phi([]).shape == (0,)


class TestIdentityChain:
    def test_closed_form_residuals(self):
        for c, sigma in ((1.0, math.pi / 4), (0.0, 2.0), (-1.0, 1.3)):
            cf = ClosedFormJacobi(c, 3)
            assert gc.check_key1(cf, sigma) <= 1e-8
            assert gc.check_xi_identity(cf, sigma) <= 1e-8

    def test_flat_identity_is_exact(self):
        cf = ClosedFormJacobi(0.0, 4)
        assert gc.check_xi_identity(cf, 1.7) <= 1e-10

    def test_warped_ode_residuals(self):
        js = _warped_system()
        for sigma in (0.7, 1.3, 2.5):
            r1 = gc.check_key1(js, sigma)
            r2 = gc.check_xi_identity(js, sigma)
            assert r1 <= 1e-5
            assert r2 <= 1e-5

    def test_identity_pair_consistency(self):
        # the two identities are equivalent given symmetry: they must agree
        # (both small) on every kind, else the frame is inconsistent
        sources = [ClosedFormJacobi(1.0, 3), ClosedFormJacobi(-1.0, 2),
                   _warped_system(T=2.0)]
        for src in sources:
            r1 = gc.check_key1(src, 1.1)
            r2 = gc.check_xi_identity(src, 1.1)
            assert (r1 <= 1e-6) == (r2 <= 1e-6)


class TestMinkowski:
    def test_identity_pair(self):
        margin = gc.minkowski_det_lower_bound(np.eye(2), np.eye(2))
        assert abs(margin - 2.0) < 1e-14  # det(2I) - 1 - 1

    def test_zero_summand_is_equality(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert gc.minkowski_det_lower_bound(A, np.zeros((2, 2))) == 0.0

    def test_seeded_pairs_with_eigenvalue_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            m1, m2 = rng.standard_normal((2, k, k))
            a1, a2 = m1 @ m1.T, m2 @ m2.T
            margin = gc.minkowski_det_lower_bound(a1, a2)
            # independent determinant oracle: product of eigenvalues
            oracle = (np.prod(np.linalg.eigvalsh(a1 + a2))
                      - np.prod(np.linalg.eigvalsh(a1))
                      - np.prod(np.linalg.eigvalsh(a2)))
            scale = max(1.0, abs(np.linalg.det(a1 + a2)))
            assert margin >= -1e-12 * scale
            assert abs(margin - oracle) <= 1e-8 * scale

    def test_rejects_non_psd(self):
        with pytest.raises(InputError):
            gc.minkowski_det_lower_bound(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(InputError):
            gc.minkowski_det_lower_bound(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                         np.eye(2))


    def test_stacks_equal_single_pairs(self):
        rng = np.random.default_rng(11)
        for k in (1, 2, 3, 6):
            m = rng.standard_normal((2, 40, k, k))
            a1, a2 = m @ np.swapaxes(m, -1, -2)
            margins = gc.minkowski_det_lower_bound(a1, a2)
            assert margins.shape == (40,)
            single = [gc.minkowski_det_lower_bound(p, q) for p, q in zip(a1, a2)]
            assert all(isinstance(v, float) for v in single)
            assert np.array_equal(margins, single)

    def test_stack_validation_names_the_failing_side(self):
        good = np.stack([np.eye(2), 2.0 * np.eye(2)])
        non_psd = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        asym = np.stack([np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)])
        with pytest.raises(InputError, match="A2 not PSD"):
            gc.minkowski_det_lower_bound(good, non_psd)
        with pytest.raises(InputError, match="A1 not symmetric"):
            gc.minkowski_det_lower_bound(asym, good)
        with pytest.raises(InputError):
            gc.minkowski_det_lower_bound(good, good[:1])
        with pytest.raises(InputError):
            gc.minkowski_det_lower_bound(np.ones((2, 3)), np.ones((2, 3)))


class TestDetGrowthBound:
    def test_round_sphere_example(self):
        lhs, rhs, ok = gc.det_growth_bound(1.0, 2, 2.0)
        assert abs(lhs - math.sin(2.0) ** 2) < 1e-14
        assert rhs == 4.0
        assert ok

    def test_flat_saturates(self):
        lhs, rhs, ok = gc.det_growth_bound(0.0, 3, 5.0)
        assert lhs == rhs == 625.0
        assert ok

    def test_small_sigma_both_sides_vanish(self):
        lhs, rhs, ok = gc.det_growth_bound(1.0, 2, 1e-4)
        assert ok and lhs <= rhs and rhs < 1e-7

    def test_hyperbolic_eventually_violates(self):
        assert not gc.det_growth_bound(-1.0, 2, 5.0).ok

    def test_validation(self):
        with pytest.raises(InputError):
            gc.det_growth_bound(1.0, 2, -1.0)
        with pytest.raises(PoleError):
            gc.det_growth_bound(1.0, 2, math.pi)

    @pytest.mark.parametrize("c,n,sigma", [(1.0, 400, 9.0), (0.0, 156, 10.0),
                                           (-1.0, 400, 3.0), (-1.0, 200, 3.0),
                                           (-1.0, 2, 800.0)])
    def test_overflow_is_an_input_error(self, c, n, sigma):
        # sigma^(2n-2) (the first three) or the left side ((sinh^2 3)^199,
        # then sinh 800 itself) overflows a float; it raised a bare
        # OverflowError
        with pytest.raises(InputError, match=f"n={n}, sigma={sigma}"):
            gc.det_growth_bound(c, n, sigma)


class TestBDecomposition:
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_remainder_psd_on_samples(self, c):
        rng = np.random.default_rng(9)
        count = 0
        while count < 50:
            s = float(rng.uniform(0.05, 10.0))
            if c > 0 and g_pole_distance(c, complex(s)) < 0.05:
                continue
            assert gc.check_b_decomposition(c, 3, s) >= -1e-10
            count += 1


def _matrix_structure(W):
    """The complex structure from the k x k formula on W = f(i)."""
    X, Y = W.real, W.imag
    E = np.linalg.inv(Y)
    return np.block([[-X @ E, -(Y + X @ E @ X)], [E, E @ X]])


class TestAdaptedStructure:
    @pytest.mark.parametrize("c", [0.0, 0.3, 1.0, 4.0])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_equals_the_matrix_formula(self, c, n):
        Fh = gc.HerglotzMatrix.from_constant_curvature(c, n)
        J = gc.adapted_complex_structure_at(Fh)
        assert np.array_equal(J, _matrix_structure(Fh(1j)))

    def test_flat_swaps_frames(self):
        Fh = gc.HerglotzMatrix.from_constant_curvature(0.0, 3)
        J = gc.adapted_complex_structure_at(Fh)
        k = 2
        assert np.allclose(J[:k, k:], -np.eye(k), atol=1e-12)
        assert np.allclose(J[k:, :k], np.eye(k), atol=1e-12)
        assert np.allclose(J[:k, :k], 0.0, atol=1e-12)

    def test_round_sphere_scaling(self):
        Fh = gc.HerglotzMatrix.from_constant_curvature(1.0, 3)
        J = gc.adapted_complex_structure_at(Fh)
        k = 2
        assert np.allclose(J[k:, :k], (1.0 / math.tanh(1.0)) * np.eye(k))
        assert np.allclose(J[:k, k:], -math.tanh(1.0) * np.eye(k))

    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
    def test_squares_to_minus_identity(self, c):
        Fh = gc.HerglotzMatrix.from_constant_curvature(c, 4)
        J = gc.adapted_complex_structure_at(Fh)
        assert np.max(np.abs(J @ J + np.eye(6))) <= 1e-8

    def test_zero_real_part_forces_eta_image(self):
        # with Re f(i) = 0, J^2 = -Id forces J eta = -(Im f(i)) xi
        Fh = gc.HerglotzMatrix.from_constant_curvature(1.0, 3)
        W = Fh(1j)
        J = gc.adapted_complex_structure_at(Fh)
        k = 2
        assert np.allclose(J[:k, k:], -np.imag(W), atol=1e-12)
