import cmath
import math
import re

import numpy as np
import pytest

import geocount as gc
from geocount import verify
from geocount.closed_form import ClosedFormJacobi, g_pole_distance
from geocount.errors import InputError, PoleError
from matrix_forms import times_id


def _warped_system(T=4.0):
    spec = gc.warped_product("one_plus_r2", 3)
    x = gc.canonical_point(spec)
    traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), T, 1e-3)
    return gc.propagate_jacobi(traj)


def _system(spec, T=5.0):
    """The propagated system along the first frame axis at the canonical point."""
    x = gc.canonical_point(spec)
    return gc.propagate_jacobi(gc.integrate_geodesic(
        spec, x, gc.orthonormal_frame(spec, x)[0], T, 1e-3))


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


class TestRealAxisF:
    # f = eta / xi on the real axis, from the propagated Jacobi data
    def test_round_sphere_tan(self):
        spec = gc.constant_curvature(1.0, 2)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, gc.orthonormal_frame(spec, x)[0],
                                     2.0, 1e-3)
        js = gc.propagate_jacobi(traj)
        assert abs(js.f(math.pi / 4) - 1.0) < 1e-8  # tan(pi/4)

    def test_flat_linear(self):
        spec = gc.constant_curvature(0.0, 3)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, gc.orthonormal_frame(spec, x)[0],
                                     3.0, 1e-3)
        js = gc.propagate_jacobi(traj)
        assert abs(js.f(2.0) - 2.0) <= 1e-9

    def test_warped_small_sigma_expansion(self):
        js = _warped_system(T=1.0)
        for s in (0.005, 0.01, 0.02):
            assert abs(js.f(s) - s) < 5.0 * s**3


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
        # the values the k x k form gives: max-entry norms of f(0) and of
        # the complex step Im F(ih)/h - Id, and the eigenvalues of Im F over
        # the samples
        Fh = gc.HerglotzMatrix.from_constant_curvature(c, 4)
        samples = [0.3 + 0.2j, -1.1 + 0.05j, 0.4, -2.0, 2.5 + 3.0j]
        report = gc.check_theorem_nice(Fh, samples)
        h = gc.herglotz.COMPLEX_STEP
        F = np.stack([Fh(z) for z in samples])
        upper = np.array([z.imag > 0 for z in map(complex, samples)])
        assert report["f_zero_norm"] == np.max(np.abs(Fh(0.0)))
        assert report["fprime_zero_defect"] == np.max(np.abs(
            Fh(1j * h).imag / h - np.eye(3)))
        assert report["fprime_zero_defect"] <= 1e-15
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

    @pytest.mark.parametrize("c", [4.0, 1.0, 0.0, -1.0, -2.0, -4.0])
    @pytest.mark.parametrize("k", [2, 43, 199])
    def test_closed_form_residuals_every_sign_and_large_k(self, c, k):
        # the complex step has no difference to cancel for c < 0, and the
        # k-th power of its base stays within 2e-13 up to k = 199; the
        # centred differences reached 8.4e-7 at c = -2 and 1.0e-8 at k = 43
        cf = ClosedFormJacobi(c, k + 1)
        rng = np.random.default_rng(k)
        sigmas = [s for s in rng.uniform(0.2, 4.8, 60)
                  if cf.distance_to_singular(s) >= 0.05]
        worst = max(max(gc.check_key1(cf, s), gc.check_xi_identity(cf, s))
                    for s in sigmas)
        assert worst <= 1e-12

    @pytest.mark.parametrize("c", [-40.0, -100.0, -1000.0])
    def test_past_the_saturation_edge(self, c):
        # sqrt|c| sigma > 30: tanh's first-order term carries the complex
        # step (a real limit there gave f' = 0 and both residuals 1.0)
        cf = ClosedFormJacobi(c, 3)
        assert gc.check_key1(cf, 4.8) <= 1e-8
        assert gc.check_xi_identity(cf, 4.8) <= 1e-8

    @pytest.mark.parametrize("c", [4.0, 1.0, 0.0, -1.0, -4.0])
    def test_sigma_near_zero(self, c):
        # sigma = 1e-3 was refused as too close to 0 by the centred step
        for source in (ClosedFormJacobi(c, 44), _warped_system(T=1.0)):
            assert gc.check_key1(source, 1e-3) <= 1e-12
            assert gc.check_xi_identity(source, 1e-3) <= 1e-12

    # worst residual of the two identity records over seeds 0, 1 and 101
    # (measured: 1.1e-12, 3.3e-10, 2.3e-11, 1.8e-13, 3.2e-11), times 10
    @pytest.mark.parametrize("warp,bound", [
        ("identity", 1.1e-11), ("cosh", 3.3e-9), ("one_plus_r2", 2.3e-10),
        ("sin", 1.8e-12), ("two_plus_cos", 3.2e-10)])
    def test_warped_battery_residuals(self, warp, bound):
        names = ("gram-det identity det(H^T H) det((-1/f)') = 1",
                 "frame identity (Xi^T Xi) f' = Id")
        spec = gc.warped_product(warp, 3)
        for seed in (0, 1, 101):
            records = {r["name"]: r for r in verify.lemma_battery(spec, seed)}
            for name in names:
                assert records[name]["residual"] <= bound, (seed, name)
                assert records[name]["tolerance"] == 1e-5

    # measured worst over seeds 0, 1 and 101: 2.6e-12 and 1.3e-12, times 10
    @pytest.mark.parametrize("basis,bound", [
        ([[1.0, 0, 0], [0.5, 1.0, 0], [0, 0, 2.0]], 2.6e-11),
        ([[1.0, 0], [0, 1.0]], 1.3e-11)])
    def test_torus_residuals(self, basis, bound):
        # the torus battery's system and sigma window, without its oracles
        spec = gc.flat_torus(basis)
        theta = np.zeros(spec.n)
        theta[0] = 1.0
        traj = gc.integrate_geodesic(spec, gc.canonical_point(spec), theta, 5.0, 1e-3)
        js = gc.propagate_jacobi(traj)
        for seed in (0, 1, 101):
            sigmas = np.random.default_rng(seed).uniform(0.2, 4.8, 10)
            assert max(gc.check_key1(js, s) for s in sigmas) <= bound

    # worst |array - scalar| over 4 000 samples per source (seeds 0..19):
    # 2 k eps on the closed forms and 4 k eps on propagated systems (check_key1;
    # check_xi_identity at most 2 eps), from numpy's complex division in -1/f
    @pytest.mark.parametrize("source", [
        ClosedFormJacobi(1.0, 3), ClosedFormJacobi(-2.0, 3), ClosedFormJacobi(0.0, 44),
        ClosedFormJacobi(4.0, 44), _warped_system(), _system(gc.constant_curvature(1.0, 3)),
        _system(gc.flat_torus([[1.0, 0, 0], [0.5, 1.0, 0], [0, 0, 2.0]]))],
        ids=["cf c=1", "cf c=-2", "cf c=0 k=43", "cf c=4 k=43", "warped", "sphere",
             "torus"])
    def test_identities_on_arrays_match_scalar_calls(self, source):
        bound = 8 * source.dim * np.finfo(float).eps
        lo, hi = (0.2, min(4.8, 0.95 * source.T)) if hasattr(source, "T") else (0.2, 4.8)
        for seed in (0, 1, 101):
            rng = np.random.default_rng(seed)
            sigmas = verify._sample_sigmas(rng, 50, lo, hi, source.distance_to_singular)
            for check in (gc.check_key1, gc.check_xi_identity):
                got = check(source, sigmas)
                want = [check(source, s) for s in sigmas.tolist()]
                assert got.shape == (50,)
                assert all(isinstance(v, float) for v in want)
                assert np.max(np.abs(got - want)) <= bound, (seed, check.__name__)
        assert isinstance(gc.check_key1(source, np.float64(1.1)), float)

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


def _battery_pole_distances():
    """(name, pole_distance, lo, hi, margin) for every pole distance that
    lemma_battery passes to _sample_sigmas, each with its sigma window."""
    js = _system(gc.constant_curvature(4.0, 3))
    return [
        ("closed form", ClosedFormJacobi(4.0, 3).distance_to_singular, 0.2, 4.8, 0.05),
        ("propagated system", js.distance_to_singular, 0.25, 4.75, 0.1),
        ("g_pole_distance", lambda s: g_pole_distance(1.0, s), 0.05, 10.0, 0.05),
        ("no poles", lambda s: np.full(np.shape(s), math.inf), 0.2, 4.8, 0.05),
    ]


@pytest.mark.parametrize("case", _battery_pole_distances(), ids=lambda c: c[0])
def test_batched_sigma_samples_equal_the_one_at_a_time_loop(case):
    # each round draws only the values still needed, so the kept values,
    # their order and the rng state afterwards are those of the loop
    _, pole_distance, lo, hi, margin = case
    drawn = 0
    for seed in range(20):
        for count in (1, 12, 50):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = verify._sample_sigmas(rng, count, lo, hi, pole_distance, margin)
            want = []
            while len(want) < count:
                s = float(ref_rng.uniform(lo, hi))
                drawn += 1
                if pole_distance(s) >= margin:
                    want.append(s)
            assert got.tolist() == want
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            drawn -= count
    # every case with poles in its window rejects some draws
    assert (drawn > 0) == (case[0] != "no poles")


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
            # one det call over the stacked (A1 + A2, A1, A2), bit for bit
            assert np.array_equal(margins, np.linalg.det(a1 + a2) - np.linalg.det(a1)
                                  - np.linalg.det(a2))

    @pytest.mark.parametrize("seed", [0, 1, 101])
    def test_battery_pairs_are_drawn_by_size(self, seed):
        # the battery's stream: all sizes in one integers call, then each
        # size's (m, 2, k, k) factors in one standard_normal call, in
        # increasing k; the products equal the pair-by-pair M M^T bit for
        # bit, and the rng is left in the same state
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = verify._psd_pairs(rng, 1000)
        sizes = ref_rng.integers(1, 7, size=1000)
        assert list(got) == sorted(set(sizes.tolist())) == np.unique(sizes).tolist()
        for k in sorted(set(sizes.tolist())):
            factors = ref_rng.standard_normal((int(np.sum(sizes == k)), 2, k, k))
            a1, a2 = got[k]
            assert a1.tobytes() == np.array([m1 @ m1.T for m1, _ in factors]).tobytes()
            assert a2.tobytes() == np.array([m2 @ m2.T for _, m2 in factors]).tobytes()
        assert sum(len(a1) for a1, _ in got.values()) == 1000
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_psd_tolerance_is_1e_10_of_the_scale(self, scale):
        # lambda_min = -0.5e-10 * scale passes, -2e-10 * scale is not PSD;
        # the rotated rank-2 part keeps max |A| = scale within round-off
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        base = q @ np.diag([scale, 0.5 * scale, 0.0]) @ q.T
        base *= scale / np.max(np.abs(base))
        null = np.outer(q[:, 2], q[:, 2])
        inside, outside = base - 0.5e-10 * scale * null, base - 2e-10 * scale * null
        for shape in ((), (50,)):  # one pair and a stack
            good = np.broadcast_to(np.eye(3), shape + (3, 3))
            ins = np.broadcast_to(inside, shape + (3, 3))
            out = np.broadcast_to(outside, shape + (3, 3))
            gc.minkowski_det_lower_bound(ins, good)
            gc.minkowski_det_lower_bound(good, ins)
            with pytest.raises(InputError, match="A1 not PSD"):
                gc.minkowski_det_lower_bound(out, good)
            with pytest.raises(InputError, match="A2 not PSD"):
                gc.minkowski_det_lower_bound(good, out)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_not_psd(self, value):
        # a NaN once passed both tests and gave a nan margin; Cholesky
        # alone lets a NaN through
        good = np.eye(2)
        for where in ((0, 0), (0, 1)):
            bad = np.eye(2)
            bad[where] = bad[where[::-1]] = value
            with pytest.raises(InputError, match="A1 not PSD"):
                gc.minkowski_det_lower_bound(bad, good)
            with pytest.raises(InputError, match="A2 not PSD"):
                gc.minkowski_det_lower_bound(good, bad)
            with pytest.raises(InputError, match="A1 not PSD"):
                gc.minkowski_det_lower_bound(bad, bad)
            stack = np.stack([good] * 20)
            bad_stack = stack.copy()
            bad_stack[7] = bad
            with pytest.raises(InputError, match="A2 not PSD"):
                gc.minkowski_det_lower_bound(stack, bad_stack)

    def test_battery_superadditivity_residual_is_pinned(self):
        records = {r["name"]: r for r in verify.lemma_battery(gc.constant_curvature(1.0, 3), 0)}
        record = records["determinant superadditivity on PSD pairs"]
        assert record["residual"] == 2.4273077677451146e-16

    def test_stack_validation_names_the_failing_side(self):
        good = np.stack([np.eye(2), 2.0 * np.eye(2)])
        non_psd = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        asym = np.stack([np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)])
        with pytest.raises(InputError, match="A2 not PSD"):
            gc.minkowski_det_lower_bound(good, non_psd)
        with pytest.raises(InputError, match="A1 not symmetric"):
            gc.minkowski_det_lower_bound(asym, good)
        # the sides are checked in the order A1 symmetric, A1 PSD, A2
        # symmetric, A2 PSD, whatever else fails
        with pytest.raises(InputError, match="A1 not PSD"):
            gc.minkowski_det_lower_bound(non_psd, asym)
        with pytest.raises(InputError, match="A1 not symmetric"):
            gc.minkowski_det_lower_bound(asym, non_psd)
        with pytest.raises(InputError, match="A2 not symmetric"):
            gc.minkowski_det_lower_bound(good, asym)
        # one bad matrix among hundreds of good ones names its side
        rng = np.random.default_rng(5)
        m = rng.standard_normal((2, 300, 3, 3))
        a1, a2 = m @ np.swapaxes(m, -1, -2)
        bad = np.diag([1.0, 1.0, -1.0])
        for side, name in ((0, "A1"), (1, "A2")):
            pair = [a1.copy(), a2.copy()]
            pair[side][173] = bad
            with pytest.raises(InputError, match=f"{name} not PSD"):
                gc.minkowski_det_lower_bound(*pair)
            pair[side][173] = np.triu(np.ones((3, 3)))
            with pytest.raises(InputError, match=f"{name} not symmetric"):
                gc.minkowski_det_lower_bound(*pair)
        both = [a1.copy(), a2.copy()]
        both[0][299], both[1][0] = bad, np.triu(np.ones((3, 3)))
        with pytest.raises(InputError, match="A1 not PSD"):
            gc.minkowski_det_lower_bound(*both)
        # a side that fails both tests is named not symmetric
        both[0][299] = np.triu(np.ones((3, 3))) - 2.0 * np.eye(3)
        with pytest.raises(InputError, match="A1 not symmetric"):
            gc.minkowski_det_lower_bound(*both)
        with pytest.raises(InputError):
            gc.minkowski_det_lower_bound(good, good[:1])
        with pytest.raises(InputError):
            gc.minkowski_det_lower_bound(np.ones((2, 3)), np.ones((2, 3)))


class TestNoEigensolve:
    def test_warm_batteries_run_no_eigensolve(self, monkeypatch):
        # PSD validation is a Cholesky factorization and each Gauss-Legendre
        # rule (an eigensolve in leggauss) is built once per process, so a
        # second battery of each kind needs no eigensolver at all
        specs = [gc.constant_curvature(1.0, 3), gc.constant_curvature(-2.0, 3),
                 gc.flat_torus([[1.0, 0, 0], [0.5, 1.0, 0], [0, 0, 2.0]]),
                 gc.warped_product("cosh", 3), gc.warped_product("sin", 3)]
        warm = [verify.lemma_battery(spec, 0) for spec in specs]

        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve in a warm battery")
        for name in ("eigvalsh", "eigh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert [verify.lemma_battery(spec, 0) for spec in specs] == warm


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

    @pytest.mark.parametrize("c,n,sigma,log_eta,ok", [
        (1.0, 400, 9.0, math.log(abs(math.sin(9.0))), True),
        (0.0, 156, 10.0, math.log(10.0), True),
        (-1.0, 400, 3.0, math.log(math.sinh(3.0)), False),
        (-1.0, 200, 3.0, math.log(math.sinh(3.0)), False),
        (-1.0, 2, 800.0, 800.0 - math.log(2.0), False),
        (-4.0, 2, 400.0, 800.0 - math.log(4.0), False)])
    def test_overflow_compares_logs(self, c, n, sigma, log_eta, ok):
        # sigma^(2n-2) (the first three) or the left side ((sinh^2 3)^199,
        # then sinh 800 itself) overflows a float; the sides are then
        # (n - 1) log eta^2 and (n - 1) log sigma^2, compared exactly
        bound = gc.det_growth_bound(c, n, sigma)
        assert bound.lhs == pytest.approx(2 * (n - 1) * log_eta, rel=1e-15)
        assert bound.rhs == pytest.approx(2 * (n - 1) * math.log(sigma), rel=1e-15)
        assert bound.ok is ok
        if c == 0:
            assert bound.lhs == bound.rhs

    @pytest.mark.parametrize("c,ok", [(1.0, True), (0.0, True), (-0.01, False)])
    def test_verdict_unchanged_where_the_powers_overflow(self, c, ok):
        # at sigma = 10 the power sigma^(2n-2) overflows from n = 156 on; the
        # verdict on either side of that n is the same, since eta^2 against
        # sigma^2 (sinh(1)^2 / 0.01 = 138 > 100 for c = -0.01) decides it
        for n in range(150, 162):
            assert gc.det_growth_bound(c, n, 10.0).ok is ok


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
