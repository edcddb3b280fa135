import cmath
import math
import re

import numpy as np
import pytest

import geocount as gc
from geocount.errors import (ConditioningError, DegeneracyError, InputError,
                             PoleError)
from geocount.flow import ClosedFormJacobi


def _warped_system(T=4.0):
    spec = gc.warped_product("one_plus_r2", 3)
    x = gc.canonical_point(spec)
    traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), T, 1e-3)
    return gc.propagate_jacobi(spec, traj)


class TestClosedFormF:
    def test_tan_at_i(self):
        # oracle: tan(i) = i*tanh(1)
        F = gc.f_constant_curvature(1.0, 3, 1j)
        expect = cmath.tan(1j)
        assert abs(expect - 1j * math.tanh(1.0)) < 1e-15
        assert np.allclose(F, expect * np.eye(2))

    def test_flat_is_identity_times_argument(self):
        for s in (0.3, -2.0, 5.5):
            F = gc.f_constant_curvature(0.0, 4, s)
            assert np.allclose(F, s * np.eye(3))
            assert np.max(np.abs(F.imag)) == 0.0

    def test_normalization_at_zero(self):
        h = 1e-6
        for c in (-1.0, 0.0, 1.0, 2.5):
            F0 = gc.f_constant_curvature(c, 3, 0.0)
            assert np.max(np.abs(F0)) < 1e-15
            fp = (gc.f_constant_curvature(c, 3, h)
                  - gc.f_constant_curvature(c, 3, -h)) / (2 * h)
            assert np.max(np.abs(fp - np.eye(2))) < 1e-9

    def test_pole_proximity(self):
        with pytest.raises(PoleError):
            gc.f_constant_curvature(1.0, 2, math.pi / 2)
        with pytest.raises(PoleError):
            gc.f_constant_curvature(4.0, 2, math.pi / 4 + 1e-10)

    def test_curvature_rescaling(self):
        # f for curvature c is tan(sqrt(c) z)/sqrt(c)
        c, z = 2.0, 0.4 + 0.3j
        F = gc.f_constant_curvature(c, 2, z)
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
        assert abs(f[0, 0] - 1.0) < 1e-8  # tan(pi/4)

    def test_flat_linear(self):
        spec = gc.constant_curvature(0.0, 3)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, gc.tangent_frame(spec, x)[0],
                                     3.0, 1e-3)
        js = gc.propagate_jacobi(spec, traj)
        assert np.allclose(gc.f_real_axis_numeric(js, 2.0), 2.0 * np.eye(2),
                           atol=1e-9)

    def test_warped_small_sigma_expansion(self):
        js = _warped_system(T=1.0)
        for s in (0.005, 0.01, 0.02):
            f = gc.f_real_axis_numeric(js, s)
            assert np.max(np.abs(f - s * np.eye(2))) < 5.0 * s**3

    def test_symmetry_everywhere(self):
        js = _warped_system(T=3.0)
        for s in np.linspace(0.1, 2.9, 15):
            assert gc.symmetry_defect(gc.f_real_axis_numeric(js, s)) <= 1e-8

    def test_pole_margin_enforced(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, gc.tangent_frame(spec, x)[0],
                                     2.0, 1e-3)
        js = gc.propagate_jacobi(spec, traj)
        with pytest.raises((InputError, ConditioningError)):
            gc.f_real_axis_numeric(js, float(js.xi_zeros[0]))


class TestNegInverse:
    def test_imaginary_unit_self_inverse(self):
        F = 1j * np.eye(3)
        assert np.allclose(gc.neg_inverse(F), 1j * np.eye(3))

    def test_tan_becomes_minus_cot(self):
        z = 0.7 + 0.2j
        F = gc.f_constant_curvature(1.0, 2, z)
        G = gc.neg_inverse(F)
        assert abs(G[0, 0] - (-cmath.cos(z) / cmath.sin(z))) < 1e-12

    def test_linear_becomes_minus_reciprocal(self):
        z = 1.5 + 0.4j
        G = gc.neg_inverse(z * np.eye(2))
        assert np.allclose(G, (-1.0 / z) * np.eye(2))

    def test_singular_input(self):
        with pytest.raises(DegeneracyError):
            gc.neg_inverse(np.zeros((2, 2), dtype=complex))

    def test_positivity_propagates(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            m = rng.standard_normal((k, k))
            y = m @ m.T + 0.1 * np.eye(k)
            x = rng.standard_normal((k, k))
            x = 0.5 * (x + x.T)
            G = gc.neg_inverse(x + 1j * y)
            assert gc.herglotz.min_im_eigenvalue(G) > 0


class TestTheoremNice:
    def test_round_sphere_report(self):
        Fh = gc.HerglotzMatrix.from_constant_curvature(1.0, 3)
        report = gc.check_theorem_nice(Fh, [1j, 0.5 + 0.2j, -2.0 + 1.5j])
        assert report["symmetry_defect"] <= 1e-10
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

    def test_numeric_source_normalization(self):
        # one-sided derivative path: real-axis sources know f only for
        # sigma >= 0, but f(0)=0 and f'(0)=Id still have to come out
        js = _warped_system(T=1.0)
        Fh = gc.HerglotzMatrix.from_jacobi(js)
        report = gc.check_theorem_nice(Fh, [0.3, 0.7])
        assert report["f_zero_norm"] <= 1e-12
        assert report["fprime_zero_defect"] <= 1e-6
        assert report["symmetry_defect"] <= 1e-8


class TestHerglotzPositivity:
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_im_f_and_im_g_positive_definite(self, c):
        rng = np.random.default_rng(42)
        Fh = gc.HerglotzMatrix.from_constant_curvature(c, 3)
        Gh = Fh.neg_inverse_function()
        worst_f, worst_g = math.inf, math.inf
        for _ in range(100):
            z = complex(rng.uniform(-8, 8), 10.0 ** rng.uniform(-3, 1))
            worst_f = min(worst_f, gc.herglotz.min_im_eigenvalue(Fh(z)))
            worst_g = min(worst_g, gc.herglotz.min_im_eigenvalue(Gh(z)))
        assert worst_f > 0
        assert worst_g > 0

    def test_real_axis_numeric_rejects_complex(self):
        js = _warped_system(T=1.0)
        Fh = gc.HerglotzMatrix.from_jacobi(js)
        assert np.allclose(Fh(0.5), gc.f_real_axis_numeric(js, 0.5))
        with pytest.raises(InputError):
            Fh(0.5 + 0.1j)


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
                many = H.many(_ZETAS)
            stacked = np.stack([H(z) for z in _ZETAS])
            assert many.shape == (len(_ZETAS), 2, 2)
            scale = np.max(np.abs(stacked), axis=(1, 2))[:, None, None]
            assert np.all(np.abs(many - stacked) <= 4 * _EPS * scale)
            want = np.array([ref(c, complex(z)) for z in _ZETAS])
            assert np.all(np.abs(many[:, 0, 0] - want) <= 8 * _EPS * np.abs(want))
            assert np.all(many[:, 0, 1] == 0)

    @pytest.mark.parametrize("c", [4.0, 1.0, 0.5, -1.0])
    def test_samples_reach_both_branches(self, c):
        u = math.sqrt(abs(c)) * _ZETAS
        edge = np.abs(u.imag if c > 0 else u.real)
        assert np.any(edge > 30.0) and np.any(edge <= 30.0)

    def test_pole_error_names_first_offending_zeta(self):
        Gh = gc.HerglotzMatrix.from_constant_curvature(1.0, 2).neg_inverse_function()
        bad = complex(math.pi, 1e-9)
        with pytest.raises(PoleError, match=re.escape(f"zeta={bad} within")):
            Gh.many([0.5 + 0.1j, bad, 2 * math.pi + 1e-9j])
        with pytest.raises(PoleError, match=re.escape(f"zeta={bad} within")):
            Gh(bad)
        Fh = gc.HerglotzMatrix.from_constant_curvature(0.0, 2).neg_inverse_function()
        with pytest.raises(PoleError):
            Fh.many(np.array([1.0 + 1j, 0.0]))

    def test_real_axis_source_refuses_off_axis(self):
        js = _warped_system(T=1.0)
        Fh = gc.HerglotzMatrix.from_jacobi(js)
        stacked = np.stack([Fh(s) for s in (0.3, 0.5)])
        assert np.array_equal(Fh.many([0.3, 0.5]), stacked)
        with pytest.raises(InputError, match="off the real axis"):
            Fh.many([0.3, 0.5 + 0.1j])

    def test_stack_capped_before_allocating(self, monkeypatch):
        # herglotz --n 400 asked numpy for a (16568, 399, 399) complex stack
        Fh = gc.HerglotzMatrix.from_constant_curvature(1.0, 72)
        Js = gc.HerglotzMatrix.from_jacobi(_warped_system(T=1.0))
        zetas = np.full(2_000, 0.5 + 0.5j)

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the stack cap was checked")
        monkeypatch.setattr(np, "eye", refuse)
        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(InputError, match=re.escape("(2000, 71, 71)")):
            Fh.many(zetas)
        monkeypatch.setattr(gc.manifolds, "MAX_STACK_ENTRIES", 39)
        with pytest.raises(InputError, match=re.escape("(10, 2, 2)")):
            Js.many(zetas.real[:10])

    def test_empty_array(self):
        Fh = gc.HerglotzMatrix.from_constant_curvature(1.0, 4)
        assert Fh.many([]).shape == (0, 3, 3)
        assert gc.HerglotzMatrix.from_jacobi(_warped_system(T=1.0)).many(
            np.array([])).shape == (0, 2, 2)


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


class TestBDecomposition:
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_remainder_psd_on_samples(self, c):
        rng = np.random.default_rng(9)
        count = 0
        while count < 50:
            s = float(rng.uniform(0.05, 10.0))
            if c > 0 and gc.herglotz.g_pole_distance(c, complex(s)) < 0.05:
                continue
            assert gc.check_b_decomposition(c, 3, s) >= -1e-10
            count += 1


class TestAdaptedStructure:
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
