import cmath
import dataclasses
import math

import numpy as np
import pytest

import geocount as gc
from geocount import herglotz, verify
from geocount.errors import InputError, NumericalError, PoleError
from geocount.herglotz import HerglotzMatrix
from matrix_forms import golden_min_one_point, stacked_trace_im


def _constant_function(p, k):
    """The user-built F = i p * Id: no poles, no curvature, no primitive."""
    return HerglotzMatrix(
        profile=lambda z: np.full(z.shape, 1j * p), dim=k,
        pole_distance=lambda z: np.full(z.shape, np.inf))


class TestMeasureRecovery:
    def test_round_sphere_three_atoms(self):
        Gh = HerglotzMatrix.from_constant_curvature(1.0, 3).neg_inverse_function()
        fd = gc.stieltjes_invert(Gh, (-1.0, 7.0))
        expected = [0.0, math.pi, 2 * math.pi]
        assert len(fd.atoms) == 3
        for (t, mass), e in zip(fd.atoms, expected):
            assert abs(t - e) <= 1e-4
            assert np.max(np.abs(mass - math.pi * np.eye(2))) <= 0.02 * math.pi
        assert np.max(np.abs(fd.A)) <= 1e-3
        assert not fd.has_continuous_part

    def test_flat_single_atom(self):
        Gh = HerglotzMatrix.from_constant_curvature(0.0, 2).neg_inverse_function()
        fd = gc.stieltjes_invert(Gh, (-1.0, 1.0))
        assert len(fd.atoms) == 1
        t, mass = fd.atoms[0]
        assert abs(t) <= 1e-4
        assert np.max(np.abs(mass - math.pi * np.eye(1))) <= 0.02 * math.pi
        assert np.max(np.abs(fd.A)) <= 1e-3

    def test_rescaled_curvature_atom_spacing(self):
        # curvature 4 halves the period: atoms at multiples of pi/2
        Gh = HerglotzMatrix.from_constant_curvature(4.0, 2).neg_inverse_function()
        fd = gc.stieltjes_invert(Gh, (-0.7, 0.7 + math.pi / 2))
        locs = fd.locations
        assert len(locs) == 2
        assert abs(locs[0]) <= 1e-4 and abs(locs[1] - math.pi / 2) <= 1e-4

    def test_constant_function_flags_continuous_part(self):
        Fh = _constant_function(1.5, 2)
        fd = gc.stieltjes_invert(Fh, (-1.0, 1.0))
        assert fd.atoms == ()
        assert np.max(np.abs(fd.A)) <= 1e-10
        assert fd.has_continuous_part
        assert fd.continuous_mass > 0.1

    def test_preconditions(self):
        Gh = HerglotzMatrix.from_constant_curvature(1.0, 2).neg_inverse_function()
        with pytest.raises(InputError):
            gc.stieltjes_invert(Gh, (-1.0, math.pi + 0.01))  # endpoint on a pole
        with pytest.raises(InputError):
            gc.stieltjes_invert(Gh, (-1.0, 1.0), tau_schedule=(1e-1, 1e-2))
        with pytest.raises(InputError):
            gc.stieltjes_invert(Gh, (-1.0, 1.0),
                                tau_schedule=(1e-1, 1e-1, 1e-3))
        with pytest.raises(InputError):
            gc.stieltjes_invert(Gh, (1.0, -1.0))
        for last in (0.0, -1e-3, math.nan):  # the primitive needs tau > 0
            with pytest.raises(InputError):
                gc.stieltjes_invert(Gh, (-1.0, 1.0), tau_schedule=(1e-1, 1e-2, last))

    def test_endpoint_guard_reaches_every_pole(self):
        # G = -cot has a pole at 4 pi, as far out as any other; an endpoint
        # 1e-4 from it is refused
        Gh = HerglotzMatrix.from_constant_curvature(1.0, 2).neg_inverse_function()
        a = 4 * math.pi + 1e-4
        with pytest.raises(InputError, match=f"endpoint {a} within"):
            gc.stieltjes_invert(Gh, (a, 4 * math.pi + 2.0))


class TestUserProfile:
    def test_call_is_phi_times_identity(self):
        Fh = _constant_function(1.5, 2)
        zs = [0.3 + 0.1j, -1.0 + 2.0j, 0.7]
        assert np.array_equal(Fh.phi(zs), np.full(3, 1.5j))
        assert np.array_equal(np.stack([Fh(z) for z in zs]),
                              np.broadcast_to(1.5j * np.eye(2), (3, 2, 2)))

    def test_only_closed_forms_invert(self):
        with pytest.raises(InputError, match="constant-curvature closed forms"):
            _constant_function(1.5, 2).neg_inverse_function()


def _bitwise_equal(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


class TestScalarPathAndCoarsePass:
    @pytest.mark.parametrize("k", range(1, 15))
    def test_trace_equals_the_stacked_path(self, k):
        # Im phi broadcast over k columns must give the trace of the stack
        # phi * Id bit for bit, signs of zeros included
        for c in (1.0, 0.0):
            Gh = HerglotzMatrix.from_constant_curvature(c, k + 1).neg_inverse_function()
            sigmas = np.linspace(-1.0, 7.0, 41)
            for tau in (1e-4, 1e-3, 1e-2):
                assert _bitwise_equal(herglotz._trace_im(Gh, sigmas, tau),
                                      stacked_trace_im(Gh, sigmas, tau))

    def test_scan_skips_most_of_the_sphere_grid(self, monkeypatch):
        # work counter in place of a wall-time bound: the certified coarse
        # pass leaves the tau = 1e-4 scan of the sphere (165 665 grid points)
        # at most a twentieth of them to evaluate, coarse pass included
        Gh = HerglotzMatrix.from_constant_curvature(1.0, 3).neg_inverse_function()
        scan = {"on": False, "grid": 0, "evals": 0}

        def counting(zetas, inner=Gh.profile):
            if scan["on"]:
                scan["evals"] += len(zetas)
            return inner(zetas)

        def counted_scan(Fh, grid, tau, threshold, inner=herglotz._scan_peaks):
            scan.update(on=True, grid=len(grid))
            try:
                return inner(Fh, grid, tau, threshold)
            finally:
                scan["on"] = False

        monkeypatch.setattr(herglotz, "_scan_peaks", counted_scan)
        fd = gc.stieltjes_invert(dataclasses.replace(Gh, profile=counting),
                                 (-1.0, 2 * math.pi + 1.0),
                                 (1e-1, 1e-2, 1e-3, 1e-4))
        assert scan["grid"] == 165_665
        assert 0 < scan["evals"] <= scan["grid"] / 20
        ref = gc.stieltjes_invert(Gh, (-1.0, 2 * math.pi + 1.0),
                                  (1e-1, 1e-2, 1e-3, 1e-4))
        assert fd.to_dict() == ref.to_dict()
        assert [round(t, 4) for t in fd.locations] == [0.0, 3.1416, 6.2832]

    def test_scan_below_pole_margin_meets_every_pole_guard(self):
        # -eps/z is Herglotz with an atom of mass pi*eps at 0, too light for
        # its block to be kept; below POLE_MARGIN the scan still evaluates
        # every grid point, so the guard raises where the full scan did
        eps = 1e-3
        Fh = HerglotzMatrix(profile=lambda z: -eps / z, dim=1,
                            pole_distance=np.abs)
        grid = np.linspace(-1e-6, 1e-6, 801)
        with pytest.raises(PoleError):
            herglotz._scan_peaks(Fh, grid, 5e-9, 0.1)
        assert len(herglotz._scan_peaks(Fh, grid, 1e-7, 0.1)) == 0


class TestBatchedGoldenSearch:
    # the (c, n, tau schedule) of the CLI's herglotz runs that recover atoms
    # (c = -1 runs the checks alone)
    @pytest.mark.parametrize("c, n, taus", [
        (1.0, 3, (1e-1, 1e-2, 1e-3, 1e-4)),
        (4.0, 3, (1e-1, 1e-2, 1e-3)),
        (0.5, 4, (1e-1, 1e-2, 1e-3)),
        (0.0, 3, (1e-1, 1e-2, 1e-3)),
    ])
    def test_atoms_equal_the_one_point_search(self, monkeypatch, c, n, taus):
        searches = []
        batched = herglotz._golden_min

        def spy(f, a, b, tol):
            t = batched(f, a, b, tol)
            searches.append((t, golden_min_one_point(
                lambda s: float(f(np.array([s]))[0]), a, b, tol)))
            return t

        monkeypatch.setattr(herglotz, "_golden_min", spy)
        verify.herglotz_battery(c, n, 0, taus)
        assert searches
        assert all(got == want for got, want in searches)

    def test_search_ends_where_doubles_are_coarser_than_tol(self):
        # near 1e8 * pi doubles are 6e-8 apart, above the refinement's tol
        # of 1e-8, so b - a never reaches tol; the search used to loop
        # forever here and now stops when the bracket stops shrinking
        Gh = HerglotzMatrix.from_constant_curvature(1.0, 2).neg_inverse_function()
        t = 1e8 * math.pi
        fd = gc.stieltjes_invert(Gh, (t - 1.0, t + 1.0))
        assert len(fd.atoms) == 1
        assert abs(fd.locations[0] - t) <= 2 * math.ulp(t)
        assert herglotz._golden_min(lambda s: np.abs(s - t), t - 1e-6, t + 1e-6,
                                    1e-12) == pytest.approx(t, abs=2 * math.ulp(t))

    def test_random_unimodal_cells_equal_the_one_point_search(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = float(rng.uniform(-10.0, 10.0))
            b = a + float(10.0 ** rng.uniform(-4.0, 1.0))
            m = float(rng.uniform(a - 0.2 * (b - a), b + 0.2 * (b - a)))
            p = float(rng.uniform(0.5, 4.0))
            # far above the spacing of doubles near a and b, so the search ends
            tol = float(10.0 ** rng.uniform(-8.0, -3.0)) * (b - a)
            for f in (lambda s: np.abs(s - m) ** p,
                      lambda s: -1.0 / ((s - m) ** 2 + (b - a) ** 2),
                      lambda s: np.zeros_like(s)):  # ties: always keep [c, b]
                batched, path = set(), []

                def many(s, f=f):
                    batched.update(s.tolist())
                    return f(s)

                def one(s, f=f):
                    path.append(s)
                    return float(f(np.array([s]))[0])

                assert herglotz._golden_min(many, a, b, tol) == \
                    golden_min_one_point(one, a, b, tol)
                # every iterate of the one-point search, bit for bit
                assert set(path) <= batched


def _window_oracle(c, t, delta, tau):
    """Integral of Im G(sigma + i tau), G = -1/f, over (t-delta, t+delta) in
    real arithmetic: the integrand is tau / (sigma^2 + tau^2) for c = 0 and
    s sinh(2 s tau) / (cosh(2 s tau) - cos(2 s sigma)) for c = s^2 > 0, whose
    primitive atan(coth(s tau) tan(s sigma)) gains pi at each pole of tan."""
    if c == 0:
        return math.atan((t + delta) / tau) - math.atan((t - delta) / tau)
    s = math.sqrt(c)

    def primitive(x):
        branch = math.floor(s * x / math.pi + 0.5)
        return math.atan(math.tan(s * x) / math.tanh(s * tau)) + branch * math.pi

    return primitive(t + delta) - primitive(t - delta)


TAUS = (1e-1, 1e-2, 1e-3, 1e-4)


class TestExactWindowMass:
    @pytest.mark.parametrize("c", [1.0, 4.0, 0.5, 0.0])
    def test_matches_the_real_arithmetic_oracle(self, c):
        Gh = HerglotzMatrix.from_constant_curvature(c, 3).neg_inverse_function()
        period = math.pi / math.sqrt(c) if c > 0 else 1.0
        # windows on the atoms at 0, one and two periods, and one between
        for t in (0.0, period, 2 * period, 0.5 * period):
            for delta in (0.5, 0.3, 0.05):
                for tau in TAUS:
                    mass = herglotz._window_mass(Gh, t, delta, tau)
                    want = _window_oracle(c, t, delta, tau)
                    assert np.max(np.abs(mass - want * np.eye(2))) <= 1e-12

    def test_pole_guard_below_pole_margin(self):
        # the guard reads the segment, not the profile: without one it still
        # raises where the segment passes within POLE_MARGIN of a pole
        Gh = HerglotzMatrix.from_constant_curvature(1.0, 3).neg_inverse_function()
        bare = dataclasses.replace(Gh, profile=None)
        margin = herglotz.POLE_MARGIN
        for Fh in (Gh, bare):
            with pytest.raises(PoleError):
                herglotz._window_mass(Fh, math.pi, 0.5, 0.1 * margin)
            # the pole at 0 sits 0.5 margin beyond the window's left end
            with pytest.raises(PoleError):
                herglotz._window_mass(Fh, 1.0, 1.0 - 0.5 * margin, 0.1 * margin)
            for t, delta, tau in ((1.0, 1.0 - 2 * margin, 0.1 * margin),
                                  (math.pi, 0.5, 2 * margin)):
                assert herglotz._window_mass(Fh, t, delta, tau)[0, 0] \
                    == pytest.approx(_window_oracle(1.0, t, delta, tau), abs=1e-6)

    def test_two_primitive_evaluations_per_window(self, monkeypatch):
        # work counter in place of a wall-time bound: each window mass of the
        # sphere's inversion evaluates the primitive twice and the profile
        # never
        Gh = HerglotzMatrix.from_constant_curvature(1.0, 3).neg_inverse_function()
        work = {"on": False, "windows": 0, "primitive": 0, "profile": 0}

        def counting(name, inner):
            def wrapped(z):
                work[name] += work["on"] * (np.size(z) if name == "profile" else 1)
                return inner(z)
            return wrapped

        def counted_window(Fh, t, delta, tau, inner=herglotz._window_mass):
            work.update(on=True, windows=work["windows"] + 1)
            try:
                return inner(Fh, t, delta, tau)
            finally:
                work["on"] = False

        monkeypatch.setattr(herglotz, "_window_mass", counted_window)
        counted = dataclasses.replace(Gh, profile=counting("profile", Gh.profile),
                                      primitive=counting("primitive", Gh.primitive))
        fd = gc.stieltjes_invert(counted, (-1.0, 2 * math.pi + 1.0), TAUS)
        assert len(fd.atoms) == 3
        assert work["windows"] == 3 * 4
        assert work["primitive"] == 2 * work["windows"]
        assert work["profile"] == 0

    @pytest.mark.parametrize("c", [1.0, 4.0, 0.0])
    def test_trapezoid_fallback_within_its_measured_error(self, c):
        # with the primitive removed the trapezoid of Im phi (spacing tau/6,
        # at most 40 001 points) integrates the window; its error against
        # the exact mass on a half-width 0.5 window at an atom
        Gh = HerglotzMatrix.from_constant_curvature(c, 3).neg_inverse_function()
        trapezoid = dataclasses.replace(Gh, primitive=None)
        t = math.pi / math.sqrt(c) if c > 0 else 0.0
        bounds = {1e-1: 6.9e-5, 1e-2: 7.5e-8, 1e-3: 7.5e-11, 1e-4: 1.3e-8}
        for tau, bound in bounds.items():
            exact = herglotz._window_mass(Gh, t, 0.5, tau)
            approx = herglotz._window_mass(trapezoid, t, 0.5, tau)
            assert np.max(np.abs(approx - exact)) <= bound
        assert np.max(np.abs(approx - exact)) > 0.0  # the fallback really ran

    def test_negative_curvature_keeps_the_trapezoid(self):
        Gh = HerglotzMatrix.from_constant_curvature(-1.0, 3).neg_inverse_function()
        assert Gh.primitive is None


class TestFatouData:
    def test_psd_validation(self):
        with pytest.raises(NumericalError):
            gc.FatouData(A=-np.eye(2), atoms=(), tau_schedule=(1e-1, 1e-2, 1e-3),
                         interval=(-1.0, 1.0))
        with pytest.raises(NumericalError):
            gc.FatouData(A=np.zeros((2, 2)),
                         atoms=((0.0, -np.eye(2)),),
                         tau_schedule=(1e-1, 1e-2, 1e-3), interval=(-1.0, 1.0))

    def test_serialization_roundtrip(self):
        fd = gc.FatouData(A=np.zeros((2, 2)),
                          atoms=((0.0, math.pi * np.eye(2)),),
                          tau_schedule=(1e-1, 1e-2, 1e-3), interval=(-1.0, 1.0))
        d = fd.to_dict()
        assert d["atoms"][0]["t"] == 0.0
        assert np.allclose(d["atoms"][0]["mass_matrix"], math.pi * np.eye(2))
        assert d["interval"] == [-1.0, 1.0]
        assert not d["has_continuous_part"]


class TestReconstruction:
    def test_flat_derivative_at_i(self):
        # single atom pi*Id at 0, A=0: reconstruction at i gives
        # (1/pi)*pi/(i^2) = -1, matching d/dz(-1/z) = 1/z^2 at z=i
        fd = gc.FatouData(A=np.zeros((1, 1)),
                          atoms=((0.0, math.pi * np.eye(1)),),
                          tau_schedule=(1e-1, 1e-2, 1e-3), interval=(-1.0, 1.0))
        val = gc.fatou_reconstruct(fd, 1j)
        assert abs(val[0, 0] - (-1.0)) < 1e-14
        direct = 1.0 / (1j) ** 2
        assert abs(val[0, 0] - direct) < 1e-14

    def test_round_sphere_truncated_tail_bound(self):
        Gh = HerglotzMatrix.from_constant_curvature(1.0, 2).neg_inverse_function()
        fd = gc.stieltjes_invert(Gh, (-1.0, 7.0))
        z = 3.0 + 1.0j
        recon = gc.fatou_reconstruct(fd, z)[0, 0]
        direct = 1.0 / cmath.sin(z) ** 2  # derivative of -cot
        # truncation bound: the derivative representation over all integer
        # multiples of pi converges; missing atoms contribute at most
        tail = sum(1.0 / abs(z - k * math.pi) ** 2
                   for k in range(-200, 201) if k not in (0, 1, 2))
        assert abs(recon - direct) <= tail * 1.05 + 1e-6

    def test_full_atom_sum_converges_to_derivative(self):
        # oracle: 1/sin^2 z = sum over all k of 1/(z - k*pi)^2
        z = 1.2 + 0.7j
        direct = 1.0 / cmath.sin(z) ** 2
        atoms = tuple((k * math.pi, math.pi * np.eye(1)) for k in range(-400, 401))
        fd = gc.FatouData(A=np.zeros((1, 1)), atoms=atoms,
                          tau_schedule=(1e-1, 1e-2, 1e-3), interval=(-5.0, 5.0))
        recon = gc.fatou_reconstruct(fd, z)[0, 0]
        assert abs(recon - direct) < 1e-2

    def test_pure_constant_part(self):
        P = np.diag([0.5, 2.0])
        fd = gc.FatouData(A=P, atoms=(), tau_schedule=(1e-1, 1e-2, 1e-3),
                          interval=(-1.0, 1.0))
        assert np.allclose(gc.fatou_reconstruct(fd, 0.3 + 2.0j), P)

    def test_requires_upper_half_plane(self):
        fd = gc.FatouData(A=np.zeros((1, 1)), atoms=(),
                          tau_schedule=(1e-1, 1e-2, 1e-3), interval=(-1.0, 1.0))
        with pytest.raises(InputError):
            gc.fatou_reconstruct(fd, 0.5)
