import cmath
import dataclasses
import math

import numpy as np
import pytest

import geocount as gc
from geocount import herglotz
from geocount.errors import InputError, NumericalError, PoleError
from geocount.herglotz import HerglotzMatrix


def _constant_function(P):
    P = np.asarray(P, dtype=float)
    return HerglotzMatrix(
        evaluator=lambda z: 1j * P.astype(complex),
        dim=P.shape[0], source="closed_form", pole_set=np.array([]),
        pole_distance=lambda z: math.inf)


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
        Fh = _constant_function(np.diag([1.0, 2.0]))
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


class TestArrayFallback:
    def test_user_evaluator_stacks_scalar_calls(self):
        P = np.diag([1.0, 2.0])
        Fh = _constant_function(P)
        zs = [0.3 + 0.1j, -1.0 + 2.0j, 0.7]
        assert np.array_equal(Fh.many(zs), np.stack([Fh(z) for z in zs]))
        assert np.array_equal(Fh.many(zs), np.broadcast_to(1j * P, (3, 2, 2)))

    def test_generic_neg_inverse_stacks_scalar_calls(self):
        Gh = _constant_function(np.diag([1.0, 2.0])).neg_inverse_function()
        assert Gh.profile is None
        zs = [0.3 + 0.1j, -1.0 + 2.0j]
        assert np.array_equal(Gh.many(zs), np.stack([Gh(z) for z in zs]))
        assert np.allclose(Gh.many(zs)[0], np.diag([1j, 0.5j]))

    def test_closed_form_and_fallback_recover_the_same_measure(self):
        # the same closed form with its profile removed runs every scan
        # through stacked scalar calls
        Gh = HerglotzMatrix.from_constant_curvature(4.0, 2).neg_inverse_function()
        interval = (-0.7, 0.7 + math.pi / 2)
        fast = gc.stieltjes_invert(Gh, interval)
        slow = gc.stieltjes_invert(dataclasses.replace(Gh, profile=None), interval)
        assert [t for t, _ in fast.atoms] == [t for t, _ in slow.atoms]
        for (_, m1), (_, m2) in zip(fast.atoms, slow.atoms):
            assert np.max(np.abs(m1 - m2)) <= 1e-13 * np.max(np.abs(m2))
        assert np.array_equal(fast.A, slow.A)
        assert abs(fast.continuous_mass - slow.continuous_mass) \
            <= 1e-13 * abs(slow.continuous_mass)


def _bitwise_equal(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


class TestScalarPathAndCoarsePass:
    @pytest.mark.parametrize("k", range(1, 15))
    def test_trace_and_window_mass_equal_the_stacked_path(self, k):
        # Im phi broadcast over k columns must give the stacked (m, k, k)
        # path's trace and window mass bit for bit, signs of zeros included
        for c in (1.0, 0.0):
            Gh = HerglotzMatrix.from_constant_curvature(c, k + 1).neg_inverse_function()
            stacked = dataclasses.replace(Gh, profile=None)
            sigmas = np.linspace(-1.0, 7.0, 41)
            for tau in (1e-4, 1e-3, 1e-2):
                assert _bitwise_equal(herglotz._trace_im(Gh, sigmas, tau),
                                      herglotz._trace_im(stacked, sigmas, tau))
                for t in (0.0, 0.7):
                    # 20 tau keeps the window at 241 points
                    assert _bitwise_equal(
                        herglotz._window_mass(Gh, t, 20 * tau, tau),
                        herglotz._window_mass(stacked, t, 20 * tau, tau))

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
        Fh = HerglotzMatrix(evaluator=lambda z: np.array([[-eps / z]]), dim=1,
                            source="closed_form", pole_set=np.array([0.0]),
                            pole_distance=abs)
        grid = np.linspace(-1e-6, 1e-6, 801)
        with pytest.raises(PoleError):
            herglotz._scan_peaks(Fh, grid, 5e-9, 0.1)
        assert len(herglotz._scan_peaks(Fh, grid, 1e-7, 0.1)) == 0


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
