"""flow's scalar zero finder against the general determinant-threshold
detector, a reference built on scipy (Brent's method and a running maximum);
the module is skipped where scipy is not installed."""

import functools

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.ndimage import maximum_filter1d  # noqa: E402
from scipy.optimize import brentq  # noqa: E402

from geocount.flow import DET_ZERO_REL, SIGMA_REFINE_TOL  # noqa: E402
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
