"""Herglotz functions F = phi * Id attached to Jacobi data, and their
boundary measures.

On every model manifold the curvature operator is kappa * Id, so the Jacobi
solutions are Xi = xi * Id and H = eta * Id, and f = Xi^{-1} H is the scalar
phi = eta / xi times Id; every determinant below is a k-th power of a scalar.
G = -f^{-1} has positive imaginary part on the upper half plane, and its
boundary behaviour encodes a purely atomic measure that is recovered here by
Poisson-kernel integration with extrapolation in the regularization
parameter.  Closed forms exist for constant curvature; for general metrics
only real-axis identities are checked, since the complex extension is
exactly the entire-tube hypothesis.  Matrices are built only where a result
is one: F(zeta), the constant part A, the atom masses and the complex
structure J.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import manifolds as mf
from .errors import (ConditioningError, ConvergenceError, DegeneracyError,
                     InputError, NumericalError, PoleError)

POLE_MARGIN = 1e-8
SAMPLING_POLE_MARGIN = 0.05
FD_STEP = 1e-5


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + np.swapaxes(M, -1, -2))


# ---------------------------------------------------------------------------
# closed-form profiles for constant curvature
# ---------------------------------------------------------------------------

def _saturating(u: np.ndarray, edge: np.ndarray, fn, limit) -> np.ndarray:
    """fn(u) where |edge| <= 30, limit * sign(edge) beyond.

    tan and cot saturate off the real axis, tanh and coth along it; past 30
    their limits stand in, so fn never sees an argument whose sin/cos
    (sinh/cosh) would overflow.
    """
    far = np.abs(edge) > 30.0
    if not far.any():
        return fn(u)
    out = np.empty_like(u)
    out[far] = limit * np.copysign(1.0, edge[far])
    out[~far] = fn(u[~far])
    return out


def _f_profile(c: float, zeta: np.ndarray) -> np.ndarray:
    """The scalar phi with f = phi * Id, at an array of zeta: zeta for flat,
    tan-type for positive curvature, tanh-type (for contrast experiments;
    not Herglotz) for negative curvature."""
    if c == 0:
        return zeta.copy()
    s = math.sqrt(abs(c))
    u = s * zeta
    if c > 0:
        return _saturating(u, u.imag, np.tan, 1j) / s
    return _saturating(u, u.real, np.tanh, 1.0) / s


def _g_profile(c: float, zeta: np.ndarray) -> np.ndarray:
    """The scalar phi with -1/f = phi * Id, regular at the poles of f."""
    if c == 0:
        return -1.0 / zeta
    s = math.sqrt(abs(c))
    u = s * zeta
    if c > 0:
        return _saturating(u, u.imag, lambda v: -s * np.cos(v) / np.sin(v), 1j * s)
    return _saturating(u, u.real, lambda v: -s * np.cosh(v) / np.sinh(v), -s)


def _g_primitive(c: float, zeta: complex) -> complex:
    """A primitive Phi of the scalar -1/f (Phi' = phi), continuous along
    every line Im zeta = tau > 0; c >= 0 only.

    For c > 0 it is -log sin(s zeta) up to a constant, written as
    i s zeta - log(1 - e^{2 i s zeta}): |e^{2 i s zeta}| < 1 above the real
    axis, so the principal log never meets its cut.  For c = 0 it is -log zeta.
    """
    if c == 0:
        return -cmath.log(zeta)
    s = math.sqrt(c)
    return 1j * s * zeta - cmath.log(1.0 - cmath.exp(2j * s * zeta))


def _g_prime_scalar(c: float, sigma: float) -> float:
    """d/dsigma of -1/f on the real axis, in closed form."""
    if c == 0:
        return 1.0 / (sigma * sigma)
    s = math.sqrt(abs(c))
    if c > 0:
        return c / math.sin(s * sigma) ** 2
    return -c / math.sinh(s * sigma) ** 2


def _lattice_distance(along, across, offset: float, period: float):
    """Distance to the nearest point offset + k*period of a line of poles,
    given the coordinates along and across that line."""
    shifted = along - offset
    return np.hypot(np.abs(shifted - np.round(shifted / period) * period), across)


def f_pole_distance(c: float, zeta):
    """Distance from zeta (a number or an array) to the nearest pole of the
    closed-form f."""
    zeta = np.asarray(zeta, dtype=complex)
    if c == 0:
        return np.full(zeta.shape, math.inf)
    period = math.pi / math.sqrt(abs(c))
    if c > 0:  # poles at odd multiples of pi/(2s) on the real axis
        return _lattice_distance(zeta.real, zeta.imag, period / 2, period)
    # poles at odd multiples of i*pi/(2s)
    return _lattice_distance(zeta.imag, zeta.real, period / 2, period)


def g_pole_distance(c: float, zeta):
    """Distance from zeta (a number or an array) to the nearest pole of the
    closed-form -1/f."""
    zeta = np.asarray(zeta, dtype=complex)
    if c == 0:
        return np.abs(zeta)
    period = math.pi / math.sqrt(abs(c))
    if c > 0:  # poles at multiples of pi/s on the real axis
        return _lattice_distance(zeta.real, zeta.imag, 0.0, period)
    return _lattice_distance(zeta.imag, zeta.real, 0.0, period)


# ---------------------------------------------------------------------------
# evaluator objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HerglotzMatrix:
    """F = phi * Id, k = ``dim``, on the closed upper half plane.

    ``profile`` maps a 1-d complex array of zeta to phi there, and
    ``pole_distance`` maps it to the distance to the nearest pole, the guard
    met before every evaluation and by ``stieltjes_invert``'s endpoint
    check.  ``curvature`` is set on the closed forms of constant curvature.
    A closed form whose poles all lie on the real axis may also carry
    ``primitive``, a scalar Phi with Phi' = phi, continuous along every
    line Im zeta = tau > 0; window masses then take two evaluations of it.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    dim: int
    pole_distance: Callable[[np.ndarray], np.ndarray]
    curvature: float | None = None
    primitive: Callable[[complex], complex] | None = None

    def __call__(self, zeta) -> np.ndarray:
        """The matrix F(zeta) = phi(zeta) * Id."""
        return self.phi(np.array([complex(zeta)]))[0] * np.eye(self.dim, dtype=complex)

    def phi(self, zetas) -> np.ndarray:
        """phi at every zeta of a 1-d array; the first zeta within
        POLE_MARGIN of a pole raises PoleError."""
        zetas = np.asarray(zetas, dtype=complex).reshape(-1)
        bad = self.pole_distance(zetas) < POLE_MARGIN
        if np.any(bad):
            raise PoleError(
                f"herglotz.HerglotzMatrix: zeta={complex(zetas[np.argmax(bad)])} "
                f"within {POLE_MARGIN} of a pole")
        return self.profile(zetas)

    @classmethod
    def from_constant_curvature(cls, c: float, n: int):
        return cls(functools.partial(_f_profile, c), n - 1,
                   functools.partial(f_pole_distance, c), float(c))

    def neg_inverse_function(self) -> "HerglotzMatrix":
        """The closed form of G = -f^{-1}, with its own pole bookkeeping.

        For c >= 0 it also carries its primitive; c < 0, not Herglotz and
        never inverted, has poles off the real axis and no primitive.  Only
        the closed forms of constant curvature have one (InputError else).
        """
        c = self.curvature
        if c is None:
            raise InputError("herglotz.HerglotzMatrix.neg_inverse_function: "
                             "only the constant-curvature closed forms invert")
        return HerglotzMatrix(
            functools.partial(_g_profile, c), self.dim,
            functools.partial(g_pole_distance, c), c,
            functools.partial(_g_primitive, c) if c >= 0 else None)


def f_real_axis_numeric(source, sigma: float) -> float:
    """f(sigma) = eta(sigma) / xi(sigma), the scalar with F = f * Id, from
    Jacobi data on the real axis.

    ``source`` is any Jacobi data provider: a propagated system or a closed
    form.  For propagated data (which carries the detected ``xi_zeros``) the
    poles of f sit where xi vanishes, so the proximity margin is measured
    against those zeros (zeros of eta are zeros of f, harmless here).  A xi
    that is 0 or not finite raises ConditioningError.
    """
    zeros = getattr(source, "xi_zeros", None)
    dist = None
    if zeros is not None:
        zeros = np.asarray(zeros, dtype=float)
        dist = math.inf if len(zeros) == 0 else float(np.min(np.abs(zeros - sigma)))
        if dist < 10 * 1e-10:
            raise InputError(
                f"herglotz.f_real_axis_numeric: sigma={sigma} within 10x detection "
                "tolerance of a pole of f")
    xi, _, eta, _ = source.eval_at(sigma)
    if xi == 0.0 or not math.isfinite(xi):
        where = ("" if dist is None
                 else f", distance {dist:.3e} to the nearest singular point")
        raise ConditioningError(
            f"herglotz.f_real_axis_numeric: Xi({sigma}) = {xi:.3e} * Id is "
            f"singular{where}", distance=dist)
    return eta / xi


# ---------------------------------------------------------------------------
# identity and positivity checks
# ---------------------------------------------------------------------------

def check_theorem_nice(Fh: HerglotzMatrix, sample_zeta) -> dict:
    """Report normalization at 0 and imaginary-part positivity.

    f(0) must vanish, f'(0) must be the identity (centered differences), and
    Im f must be positive definite at every upper-half-plane sample; for
    F = phi * Id that is Im phi > 0.
    """
    samples = np.array([complex(z) for z in sample_zeta], dtype=complex)
    phi = Fh.phi(samples)
    upper = samples.imag > 0
    h = FD_STEP
    f0, f_plus, f_minus = Fh.phi(np.array([0.0, h, -h]))
    return {
        "f_zero_norm": float(abs(f0)),
        "fprime_zero_defect": float(abs((f_plus - f_minus) / (2 * h) - 1.0)),
        "min_im_eigenvalue": float(np.min(phi[upper].imag)) if upper.any() else None,
        "max_real_axis_im": float(np.max(np.abs(phi[~upper].imag), initial=0.0)),
        "samples": len(samples),
    }


def _fd_step(source, sigma: float) -> float:
    """Centered-difference step, shrunk near singular points.

    Both f and -1/f blow up like 1/d at distance d from their poles; a step
    proportional to d keeps the relative truncation error flat instead of
    letting it grow like 1/d^2.
    """
    scale = max(1.0, abs(sigma))
    dist = source.distance_to_singular(sigma)
    if math.isfinite(dist):
        scale = min(scale, max(0.5 * dist, 1e-3))
    return FD_STEP * scale


def check_key1(source, sigma: float) -> float:
    """Residual of det(H^T H) * det((-f^{-1})'(sigma)) = 1.

    With H = eta * Id and -f^{-1} = g * Id the product is (eta^2 g')^k,
    taken as one power so that it cannot overflow where the identity holds.
    g' uses centered differences with a locally scaled step; ``source`` is
    any Jacobi data provider (propagated system or closed form).
    """
    h = _fd_step(source, sigma)
    if sigma - h <= 0:
        raise InputError(f"herglotz.check_key1: sigma={sigma} too close to 0")
    g_plus = -(1.0 / f_real_axis_numeric(source, sigma + h))
    g_minus = -(1.0 / f_real_axis_numeric(source, sigma - h))
    _, _, eta, _ = source.eval_at(sigma)
    val = (eta * eta * ((g_plus - g_minus) / (2 * h))) ** source.dim
    return abs(val - 1.0)


def check_xi_identity(source, sigma: float) -> float:
    """Residual of (Xi^T Xi) f'(sigma) = Id, that is |xi^2 f' - 1|, with a
    finite-difference f'."""
    h = _fd_step(source, sigma)
    if sigma - h <= 0:
        raise InputError(f"herglotz.check_xi_identity: sigma={sigma} too close to 0")
    fprime = (f_real_axis_numeric(source, sigma + h)
              - f_real_axis_numeric(source, sigma - h)) / (2 * h)
    xi, _, _, _ = source.eval_at(sigma)
    return abs(xi * xi * fprime - 1.0)


def minkowski_det_lower_bound(A1, A2):
    """det(A1+A2) - det A1 - det A2 for positive semidefinite inputs.

    Superadditivity of the determinant on the PSD cone makes the margin
    nonnegative up to round-off.  A1 and A2 may be (..., k, k) stacks of
    pairs; a stack gives an array of margins, a single pair a float.
    """
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    if A1.shape != A2.shape or A1.ndim < 2 or A1.shape[-1] != A1.shape[-2]:
        raise InputError("herglotz.minkowski_det_lower_bound: need two square "
                         "matrices (or stacks of them) of equal shape")
    for name, A in (("A1", A1), ("A2", A2)):
        scale = np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1)))
        if np.any(np.max(np.abs(A - np.swapaxes(A, -1, -2)), axis=(-2, -1)) > 1e-8 * scale):
            raise InputError(f"herglotz.minkowski_det_lower_bound: {name} not symmetric")
        if np.any(np.min(np.linalg.eigvalsh(_sym(A)), axis=-1) < -1e-10 * scale):
            raise InputError(f"herglotz.minkowski_det_lower_bound: {name} not PSD")
    margin = np.linalg.det(A1 + A2) - np.linalg.det(A1) - np.linalg.det(A2)
    return float(margin) if A1.ndim == 2 else margin


class DetBound(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def det_growth_bound(c: float, n: int, sigma: float) -> DetBound:
    """Compare 1/det((-f^{-1})') with sigma^(2n-2) at real sigma > 0.

    Flat curvature saturates the bound exactly; positive curvature stays
    strictly below it.  Negative curvature (contrast case) violates it for
    large sigma, as it must.  Either side overflowing a float raises
    InputError (sigma = 10 overflows from n = 156 on).
    """
    if sigma <= 0:
        raise InputError(f"herglotz.det_growth_bound: sigma={sigma} must be positive")
    if c != 0 and g_pole_distance(c, complex(sigma)) < POLE_MARGIN:
        raise PoleError(f"herglotz.det_growth_bound: sigma={sigma} too close to a pole")
    s = math.sqrt(abs(c))
    try:
        rhs = sigma ** (2 * n - 2)
        if c == 0:
            return DetBound(rhs, rhs, True)  # analytic simplification; exact equality
        if c > 0:
            lhs = (math.sin(s * sigma) ** 2 / c) ** (n - 1)
        else:
            lhs = (math.sinh(s * sigma) ** 2 / -c) ** (n - 1)
    except OverflowError:
        raise InputError(
            f"herglotz.det_growth_bound: a side of the bound overflows a float "
            f"at n={n}, sigma={sigma}") from None
    return DetBound(lhs, rhs, bool(lhs <= rhs + 1e-10))


def check_b_decomposition(c: float, n: int, sigma: float) -> float:
    """Min eigenvalue of (-f^{-1})'(sigma) - Id/sigma^2 (must be >= 0).

    Removing the atom at the origin from the derivative representation leaves
    a positive semidefinite remainder.
    """
    if sigma == 0:
        raise InputError("herglotz.check_b_decomposition: sigma must be nonzero")
    gp = _g_prime_scalar(c, sigma)
    return gp - 1.0 / (sigma * sigma)


def adapted_complex_structure_at(Fh: HerglotzMatrix) -> np.ndarray:
    """Matrix of the complex structure on the span of the two parallel frames.

    With W = f(i) = X + iY, the structure maps the first frame block by
    columns of [-X Y^{-1}; Y^{-1}]; the second block is forced by J^2 = -Id.
    For F = phi * Id every block is a scalar times Id, so J is the Kronecker
    product of the scalar 2x2 structure with Id.
    """
    w = complex(Fh.phi(np.array([1j]))[0])
    x, y = w.real, w.imag
    if abs(y) < 1e-12 * max(1.0, abs(y)):
        raise DegeneracyError(
            "herglotz.adapted_complex_structure_at: Im f(i) numerically singular")
    e = 1.0 / y
    block = np.array([[-x * e, -(y + x * e * x)], [e, e * x]])
    defect = float(np.max(np.abs(block @ block + np.eye(2))))
    if defect > 1e-8:
        raise NumericalError(
            f"herglotz.adapted_complex_structure_at: J^2 defect {defect:.3e}")
    return np.kron(block, np.eye(Fh.dim))


# ---------------------------------------------------------------------------
# boundary-measure recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FatouData:
    """Derivative representation data: constant part A and point masses.

    F'(zeta) = A + (1/pi) * sum_j mass_j / (zeta - t_j)^2 for the recovered
    atoms (t_j, mass_j); ``continuous_mass`` is the residual boundary mass
    found away from all atoms (flagged when non-negligible, since the model
    is purely atomic).
    """

    A: np.ndarray
    atoms: tuple  # ((t, mass matrix), ...)
    tau_schedule: tuple
    interval: tuple
    continuous_mass: float = 0.0
    has_continuous_part: bool = False

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if float(np.min(np.linalg.eigvalsh(_sym(A)))) < -1e-10:
            raise NumericalError(
                "herglotz.FatouData: constant part A not PSD within tolerance")
        for t, m in self.atoms:
            if float(np.min(np.linalg.eigvalsh(_sym(np.asarray(m))))) < -1e-10:
                raise NumericalError(
                    f"herglotz.FatouData: atom mass at t={t} not PSD within tolerance")
        object.__setattr__(self, "A", A)

    @property
    def locations(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms])

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "atoms": [{"t": float(t), "mass_matrix": np.asarray(m).tolist()}
                      for t, m in self.atoms],
            "tau_schedule": list(self.tau_schedule),
            "interval": list(self.interval),
            "continuous_mass": self.continuous_mass,
            "has_continuous_part": self.has_continuous_part,
        }


def _golden_min(f, a, b, tol):
    """Golden-section search for a minimizer of a unimodal f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _trace_im(Fh, sigmas, tau) -> np.ndarray:
    """trace Im F(sigma + i tau) at every sigma.

    Sums k copies of Im phi along a broadcast axis, which numpy adds in the
    same order as the diagonal of the (m, k, k) stack phi * Id: the result
    is bit for bit that stack's trace.
    """
    im = np.imag(Fh.phi(sigmas + 1j * tau))
    return np.broadcast_to(im[:, None], (len(im), Fh.dim)).sum(axis=1)


def _window_mass(Fh, t, delta, tau):
    """Matrix integral of Im F(sigma + i tau) over (t-delta, t+delta).

    With a primitive Phi the integral is exact, Im[Phi(t+delta+i tau) -
    Phi(t-delta+i tau)] * Id, once the segment is found to pass no closer
    than POLE_MARGIN to a pole (those of an evaluator with a primitive lie
    on the real axis).  Evaluators without one integrate Im phi by the
    trapezoid rule, spacing tau/6, 61 to 40 001 points, times Id.
    """
    if Fh.primitive is None:
        npts = int(max(61, min(40001, 2 * delta / (tau / 6.0) + 1)))
        grid = np.linspace(t - delta, t + delta, npts)
        return np.trapezoid(np.imag(Fh.phi(grid + 1j * tau)), grid) * np.eye(Fh.dim)
    gap = max(0.0, float(Fh.pole_distance(complex(t))) - delta)
    if math.hypot(gap, tau) < POLE_MARGIN:
        raise PoleError(
            f"herglotz._window_mass: the segment ({t - delta}, {t + delta}) + "
            f"{tau}i passes within {POLE_MARGIN} of a pole")
    primitive = Fh.primitive
    return (primitive(complex(t + delta, tau))
            - primitive(complex(t - delta, tau))).imag * np.eye(Fh.dim)


SCAN_BLOCK = 48


def _scan_peaks(Fh, grid, tau, threshold) -> np.ndarray:
    """Interior indices of an equispaced grid where trace Im F(sigma + i tau)
    is >= both neighbours and above threshold / tau.

    Blocks of SCAN_BLOCK points that the coarse pass certifies to lie below
    threshold / (2 tau) are not evaluated (see ``stieltjes_invert``); their
    points stand at -inf, below every point above the threshold, as their
    values are, so the local-maximum test is that of the full grid.  Below
    POLE_MARGIN no block is skipped, so every grid point meets the pole
    guard, even beside an atom too light to keep its block.
    """
    npts = len(grid)
    h = (grid[-1] - grid[0]) / (npts - 1)
    w = 0.5 * SCAN_BLOCK * h
    tau_c = max(w, tau)
    nblocks = -(-npts // SCAN_BLOCK)
    centres = grid[0] + (SCAN_BLOCK * np.arange(nblocks) + 0.5 * (SCAN_BLOCK - 1)) * h
    skip = ((6.0 * tau_c * _trace_im(Fh, centres, tau_c) < threshold)
            & (tau >= POLE_MARGIN))
    kept = ~np.repeat(skip, SCAN_BLOCK)[:npts]
    trace = np.full(npts, -np.inf)
    trace[kept] = _trace_im(Fh, grid[kept], tau)
    mid = trace[1:-1]
    return np.flatnonzero((mid > threshold / tau)
                          & (mid >= trace[:-2]) & (mid >= trace[2:])) + 1


def stieltjes_invert(Fh: HerglotzMatrix, interval, tau_schedule=(1e-1, 1e-2, 1e-3),
                     atom_threshold: float = 0.1) -> FatouData:
    """Recover the boundary measure of a Herglotz matrix function.

    The constant part A comes from the large-argument limit of
    Im F(i tau)/tau, extrapolated quadratically in 1/tau.  Atoms are the
    local maxima of trace Im F(sigma + i tau) above atom_threshold/tau at the
    smallest tau, refined by golden-section search.  Each mass is the
    window integral of Im F at every usable tau, extrapolated linearly in
    tau: the window holds the Poisson-smoothed measure, whose deficit at an
    isolated atom (the mass smoothed past the window's edges) is O(tau), and
    the extrapolation removes it.  A closed form with a primitive gives each
    window integral exactly, from two evaluations (``_window_mass``); an
    evaluator without one integrates by the trapezoid rule.  Disagreement above 5%
    between successive extrapolants raises ConvergenceError.

    F must be Herglotz: the atom scan skips most of its grid on that
    ground.  Then u(sigma, tau) = trace Im F(sigma + i tau) is a tau plus
    the Poisson integral of a positive measure, and the ratio of Poisson
    kernels gives u(sigma, tau) <= (3 tau'/tau) u(c, tau') whenever
    |sigma - c| <= w <= tau' and tau <= tau'.  The scan grid is cut into
    blocks of SCAN_BLOCK = 48 points of half-width w; one evaluation at each
    centre c, at tau' = max(w, tau), skips every block with
    6 tau' u(c, tau') < atom_threshold (twice the bound, for rounding), which
    holds no point above atom_threshold / tau.  The atoms are those of the
    full-grid scan for every block size: the size only trades npts/48
    coarse evaluations against the fine ones in the kept blocks, which grow
    with it, and the scans of the CLI's ``herglotz`` task cost the same from
    24 to 64 points, so it is a constant, not an option.  The scan reads
    phi alone and holds one value per grid point; a grid of more than
    MAX_STACK_ENTRIES points is refused before it is built.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise InputError(f"herglotz.stieltjes_invert: empty interval ({a}, {b})")
    taus = tuple(float(t) for t in tau_schedule)
    if any(t2 >= t1 for t1, t2 in zip(taus, taus[1:])) or not 0 < taus[-1] <= 1e-3:
        raise InputError(
            "herglotz.stieltjes_invert: tau_schedule must decrease strictly "
            "to a tau in (0, 1e-3]")
    if len(taus) < 3:
        raise InputError("herglotz.stieltjes_invert: need >= 3 tau values")
    for endpoint in (a, b):
        if Fh.pole_distance(np.array([complex(endpoint)]))[0] < SAMPLING_POLE_MARGIN:
            raise InputError(
                f"herglotz.stieltjes_invert: interval endpoint {endpoint} within "
                f"{SAMPLING_POLE_MARGIN} of a pole")
    k = Fh.dim

    # constant part from the large-tau limit
    taus_A = (1e2, 1e3, 1e4)
    xs = np.array([1.0 / t for t in taus_A])
    V = np.stack([np.imag(Fh(complex(0.0, t))) / t for t in taus_A])
    coef = np.polynomial.polynomial.polyfit(xs, V.reshape(3, -1), 2)
    A_quad = _sym(coef[0].reshape(k, k))
    A_lin = _sym((V[2] * xs[1] - V[1] * xs[2]) / (xs[1] - xs[2]))
    drift = float(np.max(np.abs(A_quad - A_lin)))
    if drift > max(0.05 * float(np.max(np.abs(A_quad))), 1e-4):
        raise ConvergenceError(
            f"herglotz.stieltjes_invert: A extrapolants differ by {drift:.3e}")

    # atom scan at the smallest tau
    tau_min = taus[-1]
    h_scan = min(tau_min / 2.0, (b - a) / 2000.0)
    npts = int(math.ceil((b - a) / h_scan)) + 1
    mf.require_stack_size((npts,), "herglotz.stieltjes_invert",
                          f"use a smallest tau above {tau_min:g}")
    grid = np.linspace(a, b, npts)
    locations = []
    for j in _scan_peaks(Fh, grid, tau_min, atom_threshold):
        t = _golden_min(
            lambda s: -float(_trace_im(Fh, np.array([s]), tau_min)[0]),
            grid[j - 1], grid[j + 1], tol=1e-8)
        if not locations or t - locations[-1] > 50 * h_scan:
            locations.append(t)

    # masses by windowed Poisson integrals, extrapolated linearly in tau
    atoms = []
    boundaries = [a] + locations + [b]
    for idx, t in enumerate(locations):
        gap = min(t - boundaries[idx], boundaries[idx + 2] - t)
        delta = min(0.5, 0.4 * gap)
        usable = [tau for tau in taus if tau <= delta / 3.0]
        if len(usable) < 2:
            raise ConvergenceError(
                f"herglotz.stieltjes_invert: atom at t={t:.6f} too close to its "
                "neighbours for the tau schedule")
        masses = [_window_mass(Fh, t, delta, tau) for tau in usable]

        def extrap(m1, m2, t1, t2):
            return (m2 * t1 - m1 * t2) / (t1 - t2)

        fine = extrap(masses[-2], masses[-1], usable[-2], usable[-1])
        if len(usable) >= 3:
            coarse = extrap(masses[-3], masses[-2], usable[-3], usable[-2])
            diff = float(np.max(np.abs(fine - coarse)))
            if diff > 0.05 * max(float(np.max(np.abs(fine))), 1e-3):
                raise ConvergenceError(
                    f"herglotz.stieltjes_invert: mass extrapolants at t={t:.6f} "
                    f"differ by {diff:.3e}")
        atoms.append((float(t), _sym(fine)))

    # residual boundary mass away from every atom window
    step = (b - a) / 4000.0
    sweep = a + np.arange(4001) * step
    if locations:
        near = np.abs(sweep[:, None] - np.array(locations)[None, :])
        sweep = sweep[~(np.min(near, axis=1) < 0.4)]
    cont = 0.0
    for v in (step * _trace_im(Fh, sweep, tau_min)).tolist():
        cont += v  # sequential: the sum does not depend on numpy's pairwise order
    flagged = cont > 0.05 * (b - a)

    return FatouData(A=A_quad, atoms=tuple(atoms), tau_schedule=taus,
                     interval=(a, b), continuous_mass=cont,
                     has_continuous_part=bool(flagged))


def fatou_reconstruct(fd: FatouData, zeta: complex) -> np.ndarray:
    """Evaluate the derivative representation A + (1/pi) sum mass/(zeta-t)^2."""
    zeta = complex(zeta)
    if zeta.imag <= 0:
        raise InputError(
            f"herglotz.fatou_reconstruct: zeta={zeta} must lie in the upper half plane")
    out = fd.A.astype(complex).copy()
    for t, m in fd.atoms:
        out = out + np.asarray(m) / (math.pi * (zeta - t) ** 2)
    return out
