"""Unit-speed geodesics and Jacobi fields along them.

Everything is sampled on a uniform arc-length grid.  On every model manifold
the curvature operator along a geodesic is kappa(sigma) * Id in a parallel
orthonormal frame, so the matrix Jacobi equation Y'' + kappa Y = 0 reduces to
one scalar equation.  Its two fundamental solutions, xi with data (1, 0) and
eta with data (0, 1), are propagated one at a time by one classical
fixed-step RK4 loop over plain float lists (kappa sampled once for both, in
one profile call); the counting integral runs the same loop for eta alone.
The matrix solutions are Xi = xi * Id and H = eta * Id.  Geodesics are closed
forms: great circles and their hyperbolic and flat analogues, straight lines
on tori, radial rays in warped products.  Cubic Hermite dense output (exact
to the integrator's order) supports evaluation between samples.  Since
det Xi = xi^k and det H = eta^k, the zeros of both determinants (for H, the
conjugate points) are the zeros of the scalars xi and eta, found as sign
changes on the grid and refined on the same Hermite interpolant.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import closed_form
from . import manifolds as mf
from .errors import ConfigurationError, InputError, IntegrationFailureError

WRONSKIAN_TOL = 1e-8
SPEED_DRIFT_TOL = 1e-6
DET_ZERO_REL = 1e-8      # |y| at the last sample, relative to the local max |y|
# Brent's xtol on a cell's Hermite interpolant: it bounds the root finding
# only.  A zero's error follows the grid (see _scalar_zeros).
SIGMA_REFINE_TOL = 1e-10
# RK4 steps of one propagation, grid cells times substeps; the largest default
# use, gromov's search to T = 500 at step 0.01, takes 5e4
MAX_RK4_STEPS = 2_000_000


def _require_step_budget(steps: float, caller: str) -> None:
    """Refuse a propagation of more than MAX_RK4_STEPS steps before allocating."""
    if not steps <= MAX_RK4_STEPS:
        raise InputError(
            f"flow.{caller}: {steps:.6g} RK4 steps, more than the cap of "
            f"{MAX_RK4_STEPS}; use a shorter T or a larger step")


def _grid(T: float, step: float) -> np.ndarray:
    if not (math.isfinite(T) and math.isfinite(step)):
        raise InputError(f"flow: parameters T={T}, step={step} must be finite")
    if T <= 0 or step <= 0:
        raise InputError(f"flow: parameters T={T}, step={step} must be positive")
    if step > T:
        raise InputError(f"flow: parameter step={step} exceeds T={T}")
    _require_step_budget(T / step, "grid")
    m = max(1, int(math.ceil(T / step - 1e-12)))
    return np.linspace(0.0, T, m + 1)


# ---------------------------------------------------------------------------
# geodesic trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicTrajectory:
    """Sampled unit-speed geodesic with a parallel orthonormal normal frame.

    The frame at sigma[j] is scale[j] * frame: every branch transports one
    constant (n-1, d) frame, scaled by 1 on space forms and tori and by
    w(r0)/w(r) on a warped product's radial ray.
    """

    spec: mf.ManifoldSpec
    x0: np.ndarray
    theta0: np.ndarray
    sigma: np.ndarray      # (m+1,)
    positions: np.ndarray  # (m+1, d); torus positions are wrapped
    velocities: np.ndarray
    frame: np.ndarray      # (n-1, d)
    scale: np.ndarray      # (m+1,)
    step: float

    @property
    def T(self) -> float:
        return float(self.sigma[-1])


def _check_trajectory(sigma, g, velocities, frame, scale):
    """Unit speed and an orthonormal normal frame scale * frame; ``g`` is
    the diagonal of the metric at every sample."""
    drift = np.abs(np.sum(g * velocities * velocities, axis=1) - 1.0)
    bad = np.nonzero(drift > SPEED_DRIFT_TOL)[0]
    if len(bad):
        j = bad[0]
        raise IntegrationFailureError(
            f"flow.integrate_geodesic: unit-speed drift {drift[j]:.3e} at "
            f"sigma={sigma[j]:.6f}", sigma=float(sigma[j]))
    # frame orthonormality and normality to the velocity, spot-checked on a
    # subsample (parallel transport is exact for every closed-form branch);
    # one Gram matrix per distinct metric diagonal scale^2 * g, so space
    # forms and tori build one
    idx = np.unique(np.linspace(0, len(sigma) - 1, min(len(sigma), 64)).astype(int))
    rows, which = np.unique(g[idx] * (scale[idx, None] ** 2), axis=0,
                            return_inverse=True)
    eye = np.eye(len(frame))
    gram = np.array([np.max(np.abs((frame * q) @ frame.T - eye)) for q in rows])
    normal = scale[idx, None] * ((g[idx] * velocities[idx]) @ frame.T)
    defect = np.maximum(gram[which.reshape(-1)], np.max(np.abs(normal), axis=1))
    bad = np.nonzero(defect > 1e-8)[0]
    if len(bad):
        j = idx[bad[0]]
        raise IntegrationFailureError(
            f"flow.integrate_geodesic: frame orthonormality defect "
            f"{defect[bad[0]]:.3e} at sigma={sigma[j]:.6f}", sigma=float(sigma[j]))


def integrate_geodesic(spec, x, theta, T, step):
    """Sample the unit-speed geodesic with gamma(0)=x, gamma'(0)=theta.

    Every branch is a closed form with a parallel normal frame.  Space forms
    follow gamma = xi(sigma) x + eta(sigma) theta on the ambient quadric, with
    xi, eta the scalar solutions of y'' = -c y from ``closed_form.scalars``;
    normal vectors orthogonal to span(x, theta) are parallel, so the frame is
    constant.  Flat tori are straight lines in the universal cover wrapped
    back to the fundamental domain; warped products support radial rays.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    mf.require_unit_direction(spec, x, theta)
    sigma = _grid(T, step)
    m = len(sigma) - 1
    h = sigma[1] - sigma[0]
    scale = np.ones(m + 1)

    if spec.kind == mf.FLAT_TORUS:
        positions = mf.torus_wrap(spec.basis, x + sigma[:, None] * theta)
        velocities = np.tile(theta, (m + 1, 1))
    elif spec.kind == mf.WARPED_PRODUCT:
        r = mf.radial_ray(spec, x, theta)(sigma)
        positions = np.tile(x, (m + 1, 1))
        positions[:, 0] = r
        velocities = np.tile(theta, (m + 1, 1))
        scale = spec.warp.value(x[0]) / spec.warp.value(r)
    elif spec.kind == mf.CONSTANT_CURVATURE:
        xi, dxi, eta, deta = closed_form.scalars(spec.c, sigma)
        positions = xi[:, None] * x + eta[:, None] * theta
        velocities = dxi[:, None] * x + deta[:, None] * theta
    else:
        raise ConfigurationError(f"flow.integrate_geodesic: unknown kind {spec.kind}")

    frame = mf.orthonormal_frame(spec, x, [theta])
    g = mf.metric_diagonal(spec, positions)
    _check_trajectory(sigma, g, velocities, frame, scale)
    return GeodesicTrajectory(spec, x, theta, sigma, positions, velocities,
                              frame, scale, h)


# ---------------------------------------------------------------------------
# Jacobi systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiSystem:
    """The two fundamental Jacobi solutions on a trajectory's grid.

    The curvature operator is kappa(sigma) * Id, so the matrix solution Xi
    with (Id, 0) data is xi * Id and H with (0, Id) data is eta * Id: the
    system stores ``cols``, one row (xi, xi', eta, eta') per grid point, and
    ``kappa``, the curvature profile at the grid points; ``eval_at`` reads
    the four scalars between grid points.  ``det_xi`` and ``det_h`` are
    xi^k and eta^k.  ``xi_zeros`` and ``h_zeros`` are the zeros of xi and
    eta, hence of det Xi and det H for every k; ``h_zeros`` are the
    conjugate points of sigma = 0, and ``singular_set`` is the union of both
    lists.
    """

    spec: mf.ManifoldSpec
    trajectory: GeodesicTrajectory
    kop: mf.CurvatureFrameOperator
    sigma: np.ndarray
    kappa: np.ndarray  # (m+1,)
    cols: np.ndarray   # (m+1, 4): xi, xi', eta, eta'
    xi_zeros: np.ndarray
    h_zeros: np.ndarray
    singular_set: np.ndarray
    step: float

    @property
    def dim(self) -> int:
        return self.spec.n - 1

    det_xi = property(lambda self: self.cols[:, 0] ** self.dim)
    det_h = property(lambda self: self.cols[:, 2] ** self.dim)

    @property
    def T(self) -> float:
        return float(self.sigma[-1])

    def _bracket(self, sigma: float) -> int:
        if sigma < self.sigma[0] - 1e-12 or sigma > self.sigma[-1] + 1e-12:
            raise InputError(
                f"flow.JacobiSystem: sigma={sigma} outside grid "
                f"[{self.sigma[0]}, {self.sigma[-1]}]")
        j = int(np.searchsorted(self.sigma, sigma, side="right")) - 1
        return min(max(j, 0), len(self.sigma) - 2)

    def eval_at(self, sigma: float):
        """Dense output (xi, xi', eta, eta') at sigma, as floats: cubic
        Hermite in each cell, O(step^4) accurate, with y'' = -kappa y for the
        derivatives."""
        j = self._bracket(sigma)
        hcell = self.sigma[j + 1] - self.sigma[j]
        t = (sigma - self.sigma[j]) / hcell
        y0, dy0 = self.cols[j, 0::2], self.cols[j, 1::2]  # (xi, eta), (xi', eta')
        y1, dy1 = self.cols[j + 1, 0::2], self.cols[j + 1, 1::2]
        y = _hermite(t, hcell, y0, dy0, y1, dy1)
        dy = _hermite(t, hcell, dy0, -self.kappa[j] * y0, dy1, -self.kappa[j + 1] * y1)
        (xi, eta), (dxi, deta) = y.tolist(), dy.tolist()
        return xi, dxi, eta, deta

    def distance_to_singular(self, sigma: float) -> float:
        if len(self.singular_set) == 0:
            return math.inf
        return float(np.min(np.abs(self.singular_set - sigma)))


def _rk4_inputs(kprofile, sigma, nsub):
    """kappa at the grid points and the inputs of ``_rk4``: plain float lists
    of the substep widths and of -kappa at every substep's start, midpoint
    and end, from one ``kprofile`` call on those points and the last grid
    point."""
    hsub = np.diff(sigma) / nsub
    starts = sigma[:-1, None] + np.arange(nsub) * hsub[:, None]
    nodes = np.stack([starts, starts + 0.5 * hsub[:, None],
                      starts + hsub[:, None]], axis=-1)
    kap = np.asarray(kprofile(np.append(nodes.ravel(), sigma[-1])), dtype=float)
    kappa = np.append(kap[:-1:3 * nsub], kap[-1])
    hs = hsub.tolist()
    steps = hs if nsub == 1 else [h for h in hs for _ in range(nsub)]
    negk = -kap[:-1]
    return kappa, (steps, negk[0::3].tolist(), negk[1::3].tolist(),
                   negk[2::3].tolist())


def _rk4(inputs, nsub, y, dy):
    """Classical RK4 for one solution of y'' = -kappa y with data (y, dy);
    returns lists of y and y' at the grid points (after every nsub-th step).
    The stages are inlined; hoisting 0.5*h and h/6 and writing 2.0 for 2
    keep every rounding of the textbook expressions."""
    ys, dys = [y], [dy]
    left = nsub
    for h, na, nm, nb in zip(*inputs):
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
        left -= 1
        if not left:
            ys.append(y)
            dys.append(dy)
            left = nsub
    return ys, dys


def _fundamental_solutions(kprofile, sigma, nsub=1):
    """RK4 for the scalar Jacobi equation y'' = -kappa(sigma) y on a grid.

    Each grid cell is split into ``nsub`` equal substeps; kappa is sampled
    once for all of them by ``_rk4_inputs``, and ``_rk4`` propagates xi
    (data (1, 0)) and then eta (data (0, 1)).  Returns kappa at the grid
    points and an (m+1, 4) array of rows (xi, xi', eta, eta').
    """
    kappa, inputs = _rk4_inputs(kprofile, sigma, nsub)
    return kappa, np.column_stack(_rk4(inputs, nsub, 1.0, 0.0)
                                  + _rk4(inputs, nsub, 0.0, 1.0))


def _hermite(t, hcell, y0, dy0, y1, dy1):
    """Cubic Hermite interpolant of a cell of width hcell at t in [0, 1]."""
    h00 = 2 * t**3 - 3 * t**2 + 1
    h10 = t**3 - 2 * t**2 + t
    h01 = -2 * t**3 + 3 * t**2
    h11 = t**3 - t**2
    return h00 * y0 + h10 * hcell * dy0 + h01 * y1 + h11 * hcell * dy1


def _scalar_zeros(sigma, y, dy):
    """Zeros of a sampled nontrivial solution of y'' = -kappa y.

    Such a solution has simple zeros only (y = y' = 0 at one point forces
    y = 0), so away from the ends a zero is either a grid point with y == 0
    or a sign change y_j * y_{j+1} < 0, refined by Brent's method on the
    cell's Hermite interpolant of (y, y').  A cell holding two zeros would
    show no sign change, but by Sturm comparison that needs
    step * sqrt(kappa_max) >= pi, and ``propagate_jacobi`` refuses such a
    grid before calling this.
    The last sample counts as a zero when |y| there is at most DET_ZERO_REL
    times max(1e-3, max |y| over the trailing half unit of arc length) and
    the last cell holds no sign change.

    SIGMA_REFINE_TOL bounds only Brent's method on the interpolant.  The
    interpolant itself is off by O(h^4) in the grid step h, and the samples
    by the RK4 error of the substep, so that is the accuracy of a zero: on
    S^2 to T = 7 the conjugate points pi and 2 pi come out 9.5e-8 off on
    grid 0.2 and 2.2e-9 on grid 0.1 (both with substep 1e-3), 5.2e-10 on
    grid 0.01 and 1.6e-11 on grid 1e-3 (no substeps).
    """
    zeros = list(sigma[:-1][y[:-1] == 0.0])
    for j in np.flatnonzero(y[:-1] * y[1:] < 0.0).tolist():
        s0, hcell = sigma[j], sigma[j + 1] - sigma[j]
        cell = (y[j], dy[j], y[j + 1], dy[j + 1])
        zeros.append(brentq(lambda s: _hermite((s - s0) / hcell, hcell, *cell),
                            s0, sigma[j + 1], xtol=SIGMA_REFINE_TOL))
    tail = np.abs(y[-1 - max(1, round(0.5 / (sigma[1] - sigma[0]))):])
    if tail[-1] <= DET_ZERO_REL * max(1e-3, float(np.max(tail))) \
            and y[-2] * y[-1] >= 0.0:
        zeros.append(sigma[-1])
    return np.sort(zeros)


def propagate_jacobi(spec, traj: GeodesicTrajectory, step: float | None = None):
    """Propagate both fundamental Jacobi solutions on the trajectory's grid.

    ``step`` (default: the trajectory step) may subdivide each grid cell.
    Raises InputError for a non-finite step or more than MAX_RK4_STEPS
    steps, and IntegrationFailureError when a grid cell may hold two zeros
    (grid step * sqrt(max kappa over the grid) >= pi) or when the Wronskian
    or the finite-difference second-order residual exceeds its tolerance
    (1e-4 times the grid step, on which the residual's stencil is taken).
    Substeps make the samples more accurate but the zeros are refined on
    the grid's Hermite interpolant, so their error is O(grid step^4)
    whatever the substep (see ``_scalar_zeros``).
    """
    kop = mf.curvature_along(spec, (traj.x0, traj.theta0))
    hgrid = traj.step
    if step is None:
        step = hgrid
    if not (math.isfinite(step) and step > 0):
        raise InputError(
            f"flow.propagate_jacobi: parameter step={step} must be positive and finite")
    nsub = max(1.0, round(float(hgrid) / step, 0))  # a float: inf for tiny steps
    _require_step_budget((len(traj.sigma) - 1) * nsub, "propagate_jacobi")
    nsub = int(nsub)

    kappa, cols = _fundamental_solutions(kop.profile, traj.sigma, nsub=nsub)
    reach = hgrid * math.sqrt(max(0.0, float(np.max(kappa))))
    if reach >= math.pi:
        raise IntegrationFailureError(
            f"flow.propagate_jacobi: grid step times sqrt(max kappa) is "
            f"{reach:.4g} >= pi, so a cell may hold two zeros (Sturm)")
    xz = _scalar_zeros(traj.sigma, cols[:, 0], cols[:, 1])
    hz = _scalar_zeros(traj.sigma, cols[:, 2], cols[:, 3])
    js = JacobiSystem(
        spec=spec, trajectory=traj, kop=kop, sigma=traj.sigma, kappa=kappa,
        cols=cols, xi_zeros=xz, h_zeros=hz,
        singular_set=np.unique(np.concatenate([xz, hz])), step=hgrid / nsub,
    )

    drift = wronskian_drift(js)
    if drift > WRONSKIAN_TOL:
        raise IntegrationFailureError(
            f"flow.propagate_jacobi: Wronskian drift {drift:.3e} exceeds "
            f"{WRONSKIAN_TOL}")
    resid = jacobi_residual(js)
    if resid > 1e-4 * hgrid:
        raise IntegrationFailureError(
            f"flow.propagate_jacobi: Jacobi residual {resid:.3e} exceeds "
            f"{1e-4 * hgrid:.3e}")
    return js


def wronskian_drift(js: JacobiSystem) -> float:
    """Max deviation of Xi'^T H - Xi^T H' = (xi' eta - xi eta') Id from -Id,
    relative to term size.

    The normalization guards against cancellation: for hyperbolic curvature
    the two terms reach ~1e8 while their difference stays -1, so an absolute
    measure would only see round-off.
    """
    xi, dxi, eta, deta = js.cols.T
    a, b = dxi * eta, xi * deta
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b + 1.0) / scale))


def jacobi_residual(js: JacobiSystem) -> float:
    """Max normalized |y'' + kappa y| over xi and eta via a 4th-order
    second-difference stencil; 0 on grids of fewer than five samples."""
    if len(js.sigma) < 5:
        return 0.0
    hg = js.sigma[1] - js.sigma[0]
    Y = js.cols[:, 0::2]  # xi, eta
    d2 = (-Y[:-4] + 16 * Y[1:-3] - 30 * Y[2:-2] + 16 * Y[3:-1] - Y[4:]) / (12 * hg**2)
    resid = d2 + js.kappa[2:-2, None] * Y[2:-2]
    return float(np.max(np.abs(resid) / np.maximum(1.0, np.abs(Y[2:-2]))))
