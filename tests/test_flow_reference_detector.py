"""flow's scalar zero finder against the general determinant-threshold
detector, a reference built on scipy (Brent's method and a running maximum),
and flow's port of Brent's method against scipy's ``brentq``; the module is
skipped where scipy is not installed."""

import functools
import math

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.ndimage import maximum_filter1d  # noqa: E402
from scipy.optimize import brentq  # noqa: E402

from geocount.flow import (DET_ZERO_REL, SIGMA_REFINE_TOL, _brent,  # noqa: E402
                           _hermite)
from matrix_forms import golden_min_one_point, jacobi_stacks, times_id  # noqa: E402
from test_flow import _ZERO_CATALOG, _traj_and_system  # noqa: E402


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


class TestReferenceDetector:
    @pytest.mark.parametrize("step", [1e-3, 2e-3, 1e-2])
    @pytest.mark.parametrize("family,T,label", _ZERO_CATALOG,
                             ids=[e[2] for e in _ZERO_CATALOG])
    def test_matches_reference_detector_k1(self, family, T, label, step):
        _, js = _traj_and_system(family(2), T=T, step=step)
        for got, want in zip((js.xi_zeros, js.h_zeros), _reference_zeros(js)):
            assert len(got) == len(want)
            assert np.all(np.abs(got - want) <= 2 * SIGMA_REFINE_TOL)


def _outcome(solver, f, a, b, xtol):
    """The root, or the type of the exception raised."""
    try:
        return solver(f, a, b, xtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _brentq(f, a, b, xtol):
    return brentq(f, a, b, xtol=xtol)


class TestBrentPort:
    def test_equals_brentq_on_random_hermite_cells(self):
        # the cells of _scalar_zeros: a cubic Hermite interpolant with a sign
        # change; widths, starts, values and slopes span 1e-8 to 10 in size
        rng = np.random.default_rng(2024)
        count = 20_000
        width, start = 10.0 ** rng.uniform(-8, 1, (2, count))
        start *= rng.choice([-1.0, 1.0], count)
        data = 10.0 ** rng.uniform(-8, 1, (count, 4)) * rng.choice([-1.0, 1.0], (count, 4))
        data[:, 2] = -np.copysign(data[:, 2], data[:, 0])
        for s0, w, cell in zip(start.tolist(), width.tolist(), data):
            s1 = s0 + w
            hcell = s1 - s0

            def f(s):
                return _hermite((s - s0) / hcell, hcell, *cell)

            got = _brent(f, s0, s1, SIGMA_REFINE_TOL)
            want = brentq(f, s0, s1, xtol=SIGMA_REFINE_TOL)
            assert type(got) is float and got == want, (s0, s1, cell)

    @pytest.mark.parametrize("f,a,b", [
        (lambda s: s - 1.0, 1.0, 3.0),                 # f(a) == 0: a
        (lambda s: s - 3.0, 1.0, 3.0),                 # f(b) == 0: b
        (lambda s: -0.0 if s == 1.0 else 1.0 - s, 1.0, 3.0),  # f(a) == -0.0
        (lambda s: s * s + 1.0, -1.0, 1.0),            # one sign: ValueError
        (lambda s: s - 0.5 if s < 1.0 else math.nan, 0.0, 1.0),  # nan: ValueError
        (lambda s: 1.0 if s > 0 else -1.0, -1.0, 1.0),  # no zero: bisects to 0
    ], ids=["fa_zero", "fb_zero", "fa_negative_zero", "same_sign", "nan", "jump"])
    @pytest.mark.parametrize("xtol", [SIGMA_REFINE_TOL, 1e-300])
    def test_ends_refusals_and_exhaustion_match_brentq(self, f, a, b, xtol):
        # with xtol = 1e-300 the jump bisects past the 100-iteration cap:
        # RuntimeError from both
        got, want = _outcome(_brent, f, a, b, xtol), _outcome(_brentq, f, a, b, xtol)
        assert got == want and type(got) is type(want)
