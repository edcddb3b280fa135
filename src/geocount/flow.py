"""Unit-speed geodesics and Jacobi fields along them.

Geodesics are kept as one closed form, xi x0 + eta theta0 with the
space-form scalars of ``closed_form`` at the curvature c (0 on tori and on
warped products' radial rays), evaluated where asked.  Jacobi fields are
sampled on a uniform arc-length grid.  On every model manifold the
curvature operator along a geodesic is kappa(sigma) * Id in a parallel
orthonormal frame, so the matrix Jacobi equation Y'' + kappa Y = 0 reduces
to one scalar equation.  Its two fundamental solutions, xi with data (1, 0)
and eta with data (0, 1), are propagated together by one classical RK4
kernel, one step per grid cell: every cell's step is a 2x2 transfer matrix,
and the samples are the prefix products of those matrices (kappa sampled
once, in one profile call; where kappa is 0 the kernel is one running sum);
the counting integral keeps the kernel's eta.  The matrix solutions are
Xi = xi * Id and H = eta * Id.  Cubic Hermite dense output
(exact to the integrator's order) supports evaluation between samples.
Since det Xi = xi^k and det H = eta^k, the zeros of both determinants (for
H, the conjugate points) are the zeros of the scalars xi and eta, found as
sign changes on the grid and refined on the same Hermite interpolant.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import closed_form
from . import manifolds as mf
from .errors import InputError, IntegrationFailureError

WRONSKIAN_TOL = 1e-8
SPEED_DRIFT_TOL = 1e-6
DET_ZERO_REL = 1e-8      # |y| at the last sample, relative to the local max |y|
# _brent's xtol on a cell's Hermite interpolant: it bounds the root finding
# only.  A zero's error follows the grid (see _scalar_zeros).
SIGMA_REFINE_TOL = 1e-10
# RK4 steps of one propagation, one per grid cell; the largest default use,
# gromov's search to T = 500 at step 0.01, takes 5e4.  At the cap the kernel
# peaks near 0.26 GB (about 130 bytes per cell) on top of its inputs
MAX_RK4_STEPS = 2_000_000


def _grid(T: float, step: float) -> np.ndarray:
    if not (math.isfinite(T) and math.isfinite(step)):
        raise InputError(f"flow: parameters T={T}, step={step} must be finite")
    if T <= 0 or step <= 0:
        raise InputError(f"flow: parameters T={T}, step={step} must be positive")
    if step > T:
        raise InputError(f"flow: parameter step={step} exceeds T={T}")
    if not T / step <= MAX_RK4_STEPS:
        raise InputError(
            f"flow.grid: {T / step:.6g} RK4 steps, more than the cap of "
            f"{MAX_RK4_STEPS}; use a shorter T or a larger step")
    m = max(1, int(math.ceil(T / step - 1e-12)))
    return np.linspace(0.0, T, m + 1)


# ---------------------------------------------------------------------------
# geodesic trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicTrajectory:
    """Unit-speed geodesic on the arc-length grid ``sigma``, kept as its
    closed form (``at``)."""

    spec: mf.ManifoldSpec
    x0: np.ndarray
    theta0: np.ndarray
    sigma: np.ndarray      # (m+1,)
    step: float

    def at(self, sigma):
        """(positions, velocities), (len(sigma), d) each, at the arc lengths
        sigma: xi x0 + eta theta0 and xi' x0 + eta' theta0; torus positions
        are wrapped."""
        xi, dxi, eta, deta = _scalars(self.spec, np.asarray(sigma, dtype=float))
        x, theta = self.x0, self.theta0
        positions = xi[:, None] * x + eta[:, None] * theta
        if self.spec.kind == mf.FLAT_TORUS:
            positions = mf.torus_wrap(self.spec.basis, positions)
        elif self.spec.kind == mf.WARPED_PRODUCT:
            self.spec.warp.check_domain(positions[:, 0])
        return positions, dxi[:, None] * x + deta[:, None] * theta


def _scalars(spec, sigma):
    """``closed_form.scalars`` at the curvature c of the geodesic's closed
    form: spec.c on space forms, 0 on tori and on warped products, whose
    radial rays are straight lines in the coordinates (r, y)."""
    return closed_form.scalars(spec.c if spec.kind == mf.CONSTANT_CURVATURE else 0.0,
                               sigma)


def _check_trajectory(traj):
    """Unit speed at every sample.  The velocity a x0 + b theta0, (a, b) =
    (xi', eta'), has |gamma'|^2 = a^2 <x0, x0> + 2ab <x0, theta0> +
    b^2 <theta0, theta0>, taken at x0 (on a warped product a = 0 and the
    fiber part of the radial theta0 is at most 1e-10, so the warp factor
    drops out); its drift from 1 is relative to the terms' sizes.  A sample
    whose terms leave the float range is refused as such."""
    spec, x, theta = traj.spec, traj.x0, traj.theta0
    with np.errstate(over="ignore", invalid="ignore"):
        _, a, _, b = _scalars(spec, traj.sigma)
        terms = (a * a * mf.metric_dot(spec, x, x, x),
                 2.0 * a * b * mf.metric_dot(spec, x, x, theta),
                 b * b * mf.metric_dot(spec, x, theta, theta))
        size = sum(map(np.abs, terms))
        drift = np.abs(sum(terms) - 1.0) / np.maximum(1.0, size)
    bad = np.flatnonzero(~(drift <= SPEED_DRIFT_TOL))
    if not len(bad):
        return
    i = bad[0]
    what = (f"unit-speed drift {drift[i]:.3e}" if np.isfinite(size[i])
            else "the closed form leaves the float range")
    s = float(traj.sigma[i])
    raise IntegrationFailureError(f"flow.integrate_geodesic: {what} at sigma={s:.6f}",
                                  sigma=s)


def integrate_geodesic(spec, x, theta, T, step):
    """The unit-speed geodesic with gamma(0)=x, gamma'(0)=theta to T, kept
    as its closed form xi(sigma) x + eta(sigma) theta (``GeodesicTrajectory.at``).
    An x off the model is refused; a warped product refuses a direction
    that is not radial and a ray that leaves the warp's domain, and a
    curved space form a theta along x.
    Unit speed is checked at every grid point.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    mf.require_point_on_model(spec, x)
    mf.require_unit_direction(spec, x, theta)
    sigma = _grid(T, step)
    if spec.kind == mf.WARPED_PRODUCT:
        mf.radial_ray(spec, x, theta)(sigma)
    if spec.kind == mf.CONSTANT_CURVATURE and spec.c != 0:
        # theta's part p orthogonal to the model normal x must not vanish (a
        # residue of 1e-10 is rounding): unit speed alone lets theta =
        # +-sqrt(c) x on a sphere through for T <= 5e-7
        g = mf.metric_diagonal(spec, x)
        p = theta - (np.sum(g * x * theta) / np.sum(g * x * x)) * x
        if not np.sum(g * p * p) > 1e-20 * np.sum(np.abs(g) * theta * theta):
            raise InputError(f"flow.integrate_geodesic: theta={theta} lies in "
                             f"the span of the model normal x={x}")
    traj = GeodesicTrajectory(spec, x, theta, sigma, sigma[1] - sigma[0])
    _check_trajectory(traj)
    return traj


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
    the four scalars between grid points, and ``f`` = eta / xi off them.
    ``det_xi`` and ``det_h`` are xi^k and eta^k.  ``xi_zeros`` and
    ``h_zeros`` are the zeros of xi and eta, hence of det Xi and det H for
    every k; ``h_zeros`` are the conjugate points of sigma = 0, and
    ``singular_set`` is the union of both lists.
    """

    spec: mf.ManifoldSpec
    trajectory: GeodesicTrajectory
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

    def _bracket(self, sigma: np.ndarray) -> np.ndarray:
        """The cell index of every real sigma of a 1-d array; the first
        sigma outside the grid raises InputError."""
        lo, hi = self.sigma[0], self.sigma[-1]
        outside = (sigma < lo - 1e-12) | (sigma > hi + 1e-12)
        if outside.any():
            raise InputError(
                f"flow.JacobiSystem: sigma={float(sigma[np.argmax(outside)])} "
                f"outside grid [{lo}, {hi}]")
        j = np.searchsorted(self.sigma, sigma, side="right") - 1
        return np.clip(j, 0, len(self.sigma) - 2)

    def eval_at(self, sigma):
        """Dense output (xi, xi', eta, eta') at sigma, a number or an array:
        cubic Hermite in each cell, O(step^4) accurate, with y'' = -kappa y
        for the derivatives.  Each is a polynomial on the cell, so a complex
        sigma, bracketed by its real part, gives its continuation.  An array
        gives four arrays of its shape, from one search of the grid and one
        Hermite evaluation per column; a number gives four Python numbers,
        the same bits as the array's entries."""
        sigma = np.asarray(sigma)
        flat = sigma.reshape(-1)
        j = self._bracket(flat.real)
        hcell = (self.sigma[j + 1] - self.sigma[j])[:, None]
        t = (flat - self.sigma[j])[:, None] / hcell
        y0, dy0 = self.cols[j, 0::2], self.cols[j, 1::2]  # (xi, eta), (xi', eta')
        y1, dy1 = self.cols[j + 1, 0::2], self.cols[j + 1, 1::2]
        y = _hermite(t, hcell, y0, dy0, y1, dy1)
        dy = _hermite(t, hcell, dy0, -self.kappa[j, None] * y0,
                      dy1, -self.kappa[j + 1, None] * y1)
        out = (y[:, 0], dy[:, 0], y[:, 1], dy[:, 1])
        if sigma.ndim == 0:
            return tuple(v.item() for v in out)
        return tuple(v.reshape(sigma.shape) for v in out)

    def f(self, zeta):
        """f = eta / xi at zeta, a number or an array (see ``eval_at``)."""
        xi, _, eta, _ = self.eval_at(zeta)
        return eta / xi

    def distance_to_singular(self, sigma):
        """Distance from sigma (a number or an array) to the nearest zero
        of xi or eta; inf without zeros."""
        sigma = np.asarray(sigma, dtype=float)
        out = np.min(np.abs(self.singular_set - sigma[..., None]), axis=-1,
                     initial=math.inf)
        return float(out) if sigma.ndim == 0 else out


def _rk4_inputs(kprofile, sigma):
    """kappa at the grid points and the inputs of ``_rk4``: arrays of the
    cell widths and of -kappa at every cell's start, midpoint and end, from
    one ``kprofile`` call on those points and the last grid point.  The end
    node is start + width, which may differ from the next grid point in the
    last bit."""
    h = np.diff(sigma)
    starts = sigma[:-1]
    nodes = np.stack([starts, starts + 0.5 * h, starts + h], axis=-1)
    kap = np.asarray(kprofile(np.append(nodes.ravel(), sigma[-1])), dtype=float)
    na, nm, nb = -kap[:-1].reshape(-1, 3).T
    return np.append(kap[:-1:3], kap[-1]), (h, na, nm, nb)


def _rk4_increments(h, na, nm, nb):
    """E_j = M_j - Id for every cell, as e[k, i, j]: row i (y, y') of one
    textbook RK4 step's increment from the k-th datum, (1, 0) or (0, 1),
    with every rounding of the stage expressions."""
    hh, h6 = 0.5 * h, h / 6.0
    e = np.empty((2, 2, len(h)))
    for k, (y, dy) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        k1 = na * y
        y2 = y + hh * dy
        d2 = dy + hh * k1
        k2 = nm * y2
        y3 = y + hh * d2
        d3 = dy + hh * k2
        k3 = nm * y3
        y4 = y + h * d3
        d4 = dy + h * k3
        e[k, 0] = h6 * (dy + 2.0 * d2 + 2.0 * d3 + d4)
        e[k, 1] = h6 * (k1 + 2.0 * k2 + 2.0 * k3 + nb * y4)
    return e


def _rk4(inputs):
    """Classical RK4 for y'' = -kappa y, one step per cell, from both data
    (1, 0) and (0, 1): an (m+1, 4) array of rows (xi, xi', eta, eta') at the
    grid points.

    RK4 on a linear equation is a linear map per cell, its transfer matrix
    M_j = Id + E_j (``_rk4_increments``).  The rows are the prefix products
    M_{j-1} ... M_0, in ceil(log2 m) doubling passes (Hillis-Steele) between
    two buffers.  Each pass carries E = P - Id through (Id + A)(Id + B) =
    Id + (AB + (A + B)), which keeps the small increments of short products
    instead of rounding them against 1.  Entries past the float range come
    out inf or nan, silently.

    Flat branch: when every -kappa is zero, xi = 1, xi' = 0, eta' = 1 and
    eta is one sequential cumsum of the steps' increments (h/6) * 6, the bits
    of the step-by-step loop; a sum that is not finite takes the products.
    """
    h, na, nm, nb = inputs
    m = len(h)
    ident = (1.0, 0.0, 0.0, 1.0)
    if not (na.any() or nm.any() or nb.any()):
        with np.errstate(over="ignore", invalid="ignore"):
            eta = np.cumsum(np.append(0.0, np.divide(h, 6.0) * 6.0))
        if np.isfinite(eta).all():
            cols = np.tile(ident, (m + 1, 1))
            cols[:, 2] = eta
            return cols
    with np.errstate(over="ignore", invalid="ignore"):
        e = _rk4_increments(h, na, nm, nb)
        spare, tmp = np.empty_like(e), np.empty_like(e)
        d = 1
        while d < m:
            # cells ..j after cells ..j-d: (AB)[k, i] = A[0, i] B[k, 0]
            # + A[1, i] B[k, 1]
            a, b, out, t = e[..., d:], e[..., :-d], spare[..., d:], tmp[..., :m - d]
            np.multiply(a[None, 0], b[:, 0, None], out=out)
            np.multiply(a[None, 1], b[:, 1, None], out=t)
            out += t
            out += np.add(a, b, out=t)
            spare[..., :d] = e[..., :d]
            e, spare = spare, e
            d *= 2
    del spare, tmp  # freed before the output is allocated: the peak at the cap
    cols = np.empty((m + 1, 4))
    cols[0] = ident
    np.add(e.reshape(4, m).T, ident, out=cols[1:])
    return cols


def _fundamental_solutions(kprofile, sigma):
    """RK4 for the scalar Jacobi equation y'' = -kappa(sigma) y on a grid.

    kappa is sampled once for every cell by ``_rk4_inputs``, and ``_rk4``
    propagates xi (data (1, 0)) and eta (data (0, 1)) together.  Returns
    kappa at the grid points and an (m+1, 4) array of rows (xi, xi', eta,
    eta').
    """
    kappa, inputs = _rk4_inputs(kprofile, sigma)
    return kappa, _rk4(inputs)


def _hermite(t, hcell, y0, dy0, y1, dy1):
    """Cubic Hermite interpolant of a cell of width hcell at t in [0, 1]."""
    h00 = 2 * t**3 - 3 * t**2 + 1
    h10 = t**3 - 2 * t**2 + t
    h01 = -2 * t**3 + 3 * t**2
    h11 = t**3 - t**2
    return h00 * y0 + h10 * hcell * dy0 + h01 * y1 + h11 * hcell * dy1


def _brent(f, a, b, xtol):
    """A zero of f in [a, b] by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), in the operation order
    of scipy's ``brentq`` with rtol = 4 eps and at most 100 iterations, so
    both return the same float.  Signs are compared by sign bit; f(a) == 0 or
    f(b) == 0 returns that end.  A nan value or ends of one sign raise
    ValueError, and no convergence RuntimeError."""
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"flow._brent: f is nan at {x}")
        return fx

    def signbit(v):
        return math.copysign(1.0, v) < 0

    rtol = 4 * math.ulp(1.0)
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if signbit(fpre) == signbit(fcur):
        raise ValueError(f"flow._brent: f({a}) and f({b}) have one sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and signbit(fpre) != signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate (secant)
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)  # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"flow._brent: no convergence in 100 iterations, at {xcur}")


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
    by the RK4 error, so that is the accuracy of a zero: on S^2 to T = 7
    the conjugate points pi and 2 pi come out 5.2e-10 off on grid 0.01 and
    1.6e-11 on grid 1e-3.
    """
    zeros = list(sigma[:-1][y[:-1] == 0.0])
    for j in np.flatnonzero(y[:-1] * y[1:] < 0.0).tolist():
        s0, hcell = sigma[j], sigma[j + 1] - sigma[j]
        cell = (y[j], dy[j], y[j + 1], dy[j + 1])
        zeros.append(_brent(lambda s: _hermite((s - s0) / hcell, hcell, *cell),
                            s0, sigma[j + 1], SIGMA_REFINE_TOL))
    tail = np.abs(y[-1 - max(1, round(0.5 / (sigma[1] - sigma[0]))):])
    if tail[-1] <= DET_ZERO_REL * max(1e-3, float(np.max(tail))) \
            and y[-2] * y[-1] >= 0.0:
        zeros.append(sigma[-1])
    return np.sort(zeros)


def propagate_jacobi(traj: GeodesicTrajectory):
    """Propagate both fundamental Jacobi solutions on the trajectory's grid,
    one RK4 step per grid cell.

    Raises IntegrationFailureError when a grid cell may hold two zeros
    (grid step * sqrt(max kappa over the grid) >= pi), when a solution
    leaves the float range, or when the Wronskian or the finite-difference
    second-order residual exceeds its tolerance (1e-4 times the grid step).
    Each gate is written ``not value <= tol``, so a nan fails it.
    """
    kop = mf.curvature_along(traj.spec, (traj.x0, traj.theta0))
    hgrid = traj.step
    kappa, cols = _fundamental_solutions(kop.profile, traj.sigma)
    reach = hgrid * float(np.sqrt(np.maximum(0.0, np.max(kappa))))
    if not reach < math.pi:
        raise IntegrationFailureError(
            f"flow.propagate_jacobi: grid step times sqrt(max kappa) is "
            f"{reach:.4g} >= pi, so a cell may hold two zeros (Sturm)")
    finite = np.isfinite(cols).all(axis=1)
    if not finite.all():
        s = float(traj.sigma[np.argmin(finite)])
        raise IntegrationFailureError(
            f"flow.propagate_jacobi: the Jacobi solutions leave the float "
            f"range at sigma={s:.6g}", sigma=s)
    xz = _scalar_zeros(traj.sigma, cols[:, 0], cols[:, 1])
    hz = _scalar_zeros(traj.sigma, cols[:, 2], cols[:, 3])
    js = JacobiSystem(
        spec=traj.spec, trajectory=traj, sigma=traj.sigma,
        kappa=kappa, cols=cols, xi_zeros=xz, h_zeros=hz,
        singular_set=np.array(sorted({*xz.tolist(), *hz.tolist()}), dtype=float),
        step=hgrid,
    )

    drift = wronskian_drift(js)
    if not drift <= WRONSKIAN_TOL:
        raise IntegrationFailureError(
            f"flow.propagate_jacobi: Wronskian drift {drift:.3e} exceeds "
            f"{WRONSKIAN_TOL}")
    resid = jacobi_residual(js)
    if not resid <= 1e-4 * hgrid:
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
