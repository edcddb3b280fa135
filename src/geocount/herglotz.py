"""Herglotz functions F = phi * Id attached to Jacobi data, and their
boundary measures.

On every model manifold the curvature operator is kappa * Id, so the Jacobi
solutions are Xi = xi * Id and H = eta * Id, and f = Xi^{-1} H is the scalar
phi = eta / xi times Id; every determinant below is a k-th power of a scalar.
G = -f^{-1} has positive imaginary part on the upper half plane, and its
boundary measure is the purely atomic measure of its scalar times Id, which
is recovered here from that scalar alone by Poisson-kernel integration with
extrapolation in the regularization parameter.  Closed forms exist for
constant curvature (``closed_form``); on the real axis f = eta / xi is the
sources' own ``f``.  The identities take f' by one complex step,
Im f(sigma + ih)/h, through f's continuation off the axis (the entire-tube
hypothesis): tan or tanh for closed forms, the polynomial dense output for
propagated data.  It assumes f real on the real axis, as every Jacobi f is.
Matrices are built only where a result is one: F(zeta), the complex
structure J, and the constant part and atom masses that
``FatouData.to_dict`` writes.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import numpy.polynomial  # noqa: F401  load now: numpy would load it on first use

from . import closed_form
from .errors import (ConvergenceError, DegeneracyError, InputError,
                     NumericalError, PoleError)

POLE_MARGIN = 1e-8
SAMPLING_POLE_MARGIN = 0.05
COMPLEX_STEP = 1e-20
# points of one Stieltjes scan grid: 80 MB of floats, 160 MB of complex
# values.  The default tau schedule scans 16 568 points; a smallest tau of
# 1e-6 would scan 16 566 372
MAX_STACK_ENTRIES = 10_000_000


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
        return cls(functools.partial(closed_form.f_profile, c), n - 1,
                   functools.partial(closed_form.f_pole_distance, c), float(c))

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
            functools.partial(closed_form.g_profile, c), self.dim,
            functools.partial(closed_form.g_pole_distance, c), c,
            functools.partial(closed_form.g_primitive, c) if c >= 0 else None)


# ---------------------------------------------------------------------------
# identity and positivity checks
# ---------------------------------------------------------------------------

def check_theorem_nice(Fh: HerglotzMatrix, sample_zeta) -> dict:
    """Report normalization at 0 and imaginary-part positivity.

    f(0) must vanish, f'(0) must be the identity (one complex step), and
    Im f must be positive definite at every upper-half-plane sample; for
    F = phi * Id that is Im phi > 0.
    """
    samples = np.array([complex(z) for z in sample_zeta], dtype=complex)
    phi = Fh.phi(samples)
    upper = samples.imag > 0
    f0 = Fh.phi([0.0])[0]
    fprime0 = _fprime(lambda z: Fh.phi([z])[0], 0.0)
    return {
        "f_zero_norm": float(abs(f0)),
        "fprime_zero_defect": float(abs(fprime0 - 1.0)),
        "min_im_eigenvalue": float(np.min(phi[upper].imag)) if upper.any() else None,
        "max_real_axis_im": float(np.max(np.abs(phi[~upper].imag), initial=0.0)),
        "samples": len(samples),
    }


def _fprime(f, sigma):
    """f'(sigma) = Im f(sigma + ih) / h with h = COMPLEX_STEP, the complex
    step (Squire and Trapp, SIAM Rev. 40, 1998), for an f that is real on
    the real axis and continues holomorphically off it; sigma is a number
    or an array, as f takes it."""
    return f(np.asarray(sigma) + 1j * COMPLEX_STEP).imag / COMPLEX_STEP


def check_key1(source, sigma):
    """Residual of det(H^T H) * det((-f^{-1})'(sigma)) = 1.

    With H = eta * Id and -f^{-1} = g * Id the product is (eta^2 g')^k,
    taken as one power so that it cannot overflow where the identity holds.
    g' = f'/f^2 is the complex step of g = -1/f through ``source.f``;
    ``source`` is any Jacobi data provider (propagated system or closed form)
    whose ``eval_at`` and ``f`` take a number or an array.  sigma is a
    number (a float residual) or an array (an array of residuals, one
    evaluation of each term for all of them).
    """
    gprime = _fprime(lambda z: -1.0 / source.f(z), sigma)
    _, _, eta, _ = source.eval_at(sigma)
    return abs((eta * eta * gprime) ** source.dim - 1.0)


def check_xi_identity(source, sigma):
    """Residual of (Xi^T Xi) f'(sigma) = Id, that is |xi^2 f' - 1|, with f'
    the complex step through ``source.f``; sigma a number or an array, as
    in ``check_key1``."""
    xi, _, _, _ = source.eval_at(sigma)
    return abs(xi * xi * _fprime(source.f, sigma) - 1.0)


def _is_psd(A, scale):
    """True when every matrix of the stack A is finite and the symmetric
    part of each, shifted by 1e-10 * scale * Id, has a Cholesky factor
    (``np.linalg.cholesky`` lets a NaN through, so finiteness comes first)."""
    if not np.all(np.isfinite(A)):
        return False
    shift = 1e-10 * scale[..., None, None] * np.eye(A.shape[-1])
    try:
        np.linalg.cholesky(0.5 * (A + np.swapaxes(A, -1, -2)) + shift)
    except np.linalg.LinAlgError:
        return False
    return True


def _minkowski_dets(A1, A2):
    """(det(A1+A2) - det A1 - det A2, det(A1+A2)) of ``minkowski_det_lower_bound``,
    as arrays of the stack's shape (0-d for one pair), the three
    determinants from one ``np.linalg.det`` call; the inputs are validated
    as that function states."""
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    if A1.shape != A2.shape or A1.ndim < 2 or A1.shape[-1] != A1.shape[-2]:
        raise InputError("herglotz.minkowski_det_lower_bound: need two square "
                         "matrices (or stacks of them) of equal shape")
    for name, A in (("A1", A1), ("A2", A2)):
        with np.errstate(invalid="ignore"):  # inf - inf in a non-finite A
            scale = np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1)))
            if np.any(np.max(np.abs(A - np.swapaxes(A, -1, -2)), axis=(-2, -1)) > 1e-8 * scale):
                raise InputError(f"herglotz.minkowski_det_lower_bound: {name} not symmetric")
        if not _is_psd(A, scale):
            raise InputError(f"herglotz.minkowski_det_lower_bound: {name} not PSD")
    total, d1, d2 = np.linalg.det(np.stack((A1 + A2, A1, A2)))
    return total - d1 - d2, total


def minkowski_det_lower_bound(A1, A2):
    """det(A1+A2) - det A1 - det A2 for positive semidefinite inputs.

    Superadditivity of the determinant on the PSD cone makes the margin
    nonnegative up to round-off.  A1 and A2 may be (..., k, k) stacks of
    pairs; a stack gives an array of margins, a single pair a float.  The
    inputs are checked in the order A1 symmetric, A1 PSD, A2 symmetric, A2
    PSD, and the first failure raises InputError.  Each matrix is taken
    with scale = max(1, max |A|).  Symmetric means max |A - A^T| <= 1e-8 *
    scale.  PSD means finite, with a Cholesky factor of the symmetric part
    plus 1e-10 * scale * Id, so no eigensolve runs.  That factor exists
    exactly when lambda_min > -1e-10 * scale, up to Cholesky's backward
    error of about k eps_mach |A| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 10), some 1e-5 of the shift for k <= 6;
    only inside that rounding band can the verdict differ from the
    eigenvalue rule lambda_min >= -1e-10 * scale.  A NaN or inf entry is
    not PSD.
    """
    margin, _ = _minkowski_dets(A1, A2)
    return float(margin) if margin.ndim == 0 else margin


class DetBound(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def det_growth_bound(c: float, n: int, sigma: float) -> DetBound:
    """Compare 1/det((-f^{-1})') = eta^(2n-2) with sigma^(2n-2), sigma > 0.

    Flat curvature saturates the bound exactly; positive curvature stays
    strictly below it.  Negative curvature (contrast case) violates it for
    large sigma, as it must.  Where either side overflows a float (sigma =
    10 does from n = 156 on), lhs and rhs are (n - 1) times the logs of the
    bases eta^2 and sigma^2, compared with no tolerance: the power is
    monotone, so the verdict is that of the powers.
    """
    if sigma <= 0:
        raise InputError(f"herglotz.det_growth_bound: sigma={sigma} must be positive")
    if c != 0 and closed_form.g_pole_distance(c, complex(sigma)) < POLE_MARGIN:
        raise PoleError(f"herglotz.det_growth_bound: sigma={sigma} too close to a pole")
    try:
        rhs = sigma ** (2 * n - 2)
        if c == 0:
            return DetBound(rhs, rhs, True)  # analytic simplification; exact equality
        lhs = (closed_form.scalars(c, sigma, math)[2] ** 2) ** (n - 1)
    except OverflowError:
        s = math.sqrt(abs(c))  # log sinh x = x + log((1 - e^-2x) / 2) for c < 0
        log_eta = (s * sigma + math.log(-math.expm1(-2.0 * s * sigma) / (2.0 * s))
                   if c < 0 else math.log(abs(closed_form.scalars(c, sigma, math)[2])))
        lhs, rhs = 2 * (n - 1) * log_eta, 2 * (n - 1) * math.log(sigma)
        return DetBound(lhs, rhs, lhs <= rhs)
    return DetBound(lhs, rhs, bool(lhs <= rhs + 1e-10))


def check_b_decomposition(c: float, n: int, sigma):
    """Min eigenvalue of (-f^{-1})'(sigma) - Id/sigma^2 (must be >= 0), at
    sigma a number or an array (a float or an array of values).

    Removing the atom at the origin from the derivative representation leaves
    a positive semidefinite remainder.
    """
    if np.any(np.asarray(sigma) == 0):
        raise InputError("herglotz.check_b_decomposition: sigma must be nonzero")
    return closed_form.g_prime(c, sigma) - 1.0 / (sigma * sigma)


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
    """Derivative representation data of F = phi * Id, k = ``dim``: the
    constant part A and the point masses of phi, each times Id in F.

    phi'(zeta) = A + (1/pi) * sum_j mass_j / (zeta - t_j)^2 for the recovered
    atoms (t_j, mass_j); ``continuous_mass`` is the residual boundary mass of
    phi found away from all atoms (flagged when non-negligible, since the
    model is purely atomic).  ``to_dict`` writes A and every mass as its
    k x k matrix.
    """

    A: float
    atoms: tuple  # ((t, mass), ...)
    tau_schedule: tuple
    interval: tuple
    dim: int
    continuous_mass: float = 0.0
    has_continuous_part: bool = False

    def __post_init__(self):
        if self.A < -1e-10:
            raise NumericalError(
                "herglotz.FatouData: constant part A not PSD within tolerance")
        for t, m in self.atoms:
            if m < -1e-10:
                raise NumericalError(
                    f"herglotz.FatouData: atom mass at t={t} not PSD within tolerance")

    @property
    def locations(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms])

    def to_dict(self) -> dict:
        def times_id(value):  # +0.0 off the diagonal, whatever value's sign
            return np.diag(np.full(self.dim, value)).tolist()

        return {
            "A": times_id(self.A),
            "atoms": [{"t": float(t), "mass_matrix": times_id(m)}
                      for t, m in self.atoms],
            "tau_schedule": list(self.tau_schedule),
            "interval": list(self.interval),
            "continuous_mass": self.continuous_mass,
            "has_continuous_part": self.has_continuous_part,
        }


# golden-section steps whose candidate points one batch evaluates
GOLDEN_LOOKAHEAD = 4


def _golden_min(f, brackets, tol) -> list:
    """Golden-section searches for a minimizer of a unimodal f on each
    bracket (a, b); the midpoints of the final brackets, in order.

    ``f`` maps an array of points to their values.  Each step keeps
    [a, d] or [c, b] and adds one point, so the next GOLDEN_LOOKAHEAD steps
    can need 2 + 4 + ... + 2^GOLDEN_LOOKAHEAD points (30).  One call of f
    evaluates them for every bracket still searching, and each bracket's
    comparisons then walk its own path; the first call evaluates every
    bracket's c and d.  The iterates and the results are those of one
    search per bracket that evaluates one point per step.  A search also
    stops once a < c < d < b fails: its bracket then no longer shrinks, as
    where tol is below the spacing of doubles.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    if not brackets:
        return []
    # one state [a, b, c, d, f(c), f(d)] per bracket
    states = [[a, b, b - invphi * (b - a), a + invphi * (b - a)] for a, b in brackets]
    values = f(np.array([x for s in states for x in s[2:]])).tolist()
    for j, s in enumerate(states):
        s += values[2 * j:2 * j + 2]

    def searching(s):
        a, b, c, d = s[:4]
        return b - a > tol and a < c < d < b

    active = [s for s in states if searching(s)]
    while active:
        # each bracket's next steps as a heap of brackets (a, b, c, d): node
        # k has children 2k + 1 (f(c) < f(d): keep [a, d], new c) and
        # 2k + 2 (keep [c, b], new d), and node k > 0 the new point
        # points[k - 1] of its tree
        trees, points = [], []
        for s in active:
            tree = [tuple(s[:4])]
            for k in range(2 ** GOLDEN_LOOKAHEAD - 1):
                a, b, c, d = tree[k]
                new_c, new_d = d - invphi * (d - a), c + invphi * (b - c)
                tree += [(a, d, new_c, c), (c, b, d, new_d)]
                points += [new_c, new_d]
            trees.append(tree)
        values = f(np.array(points)).tolist()
        for j, (s, tree) in enumerate(zip(active, trees)):
            k = 0
            for _ in range(GOLDEN_LOOKAHEAD):
                if not searching(s):
                    break
                fc, fd = s[4:]
                left = fc < fd
                k = 2 * k + (1 if left else 2)
                new = values[j * (len(tree) - 1) + k - 1]
                s[:] = [*tree[k], *((new, fc) if left else (fd, new))]
        active = [s for s in active if searching(s)]
    return [0.5 * (s[0] + s[1]) for s in states]


def _im_phi(Fh, sigmas, tau) -> np.ndarray:
    """Im phi(sigma + i tau) at every sigma."""
    return np.imag(Fh.phi(sigmas + 1j * tau))


def _window_mass(Fh, t, delta, tau) -> float:
    """Integral of Im phi(sigma + i tau) over (t-delta, t+delta).

    With a primitive Phi the integral is exact, Im[Phi(t+delta+i tau) -
    Phi(t-delta+i tau)], once the segment is found to pass no closer than
    POLE_MARGIN to a pole (those of an evaluator with a primitive lie on the
    real axis).  Evaluators without one integrate Im phi by the trapezoid
    rule, spacing tau/6, 61 to 40 001 points.
    """
    if Fh.primitive is None:
        npts = int(max(61, min(40001, 2 * delta / (tau / 6.0) + 1)))
        grid = np.linspace(t - delta, t + delta, npts)
        return float(np.trapezoid(_im_phi(Fh, grid, tau), grid))
    gap = max(0.0, float(Fh.pole_distance(complex(t))) - delta)
    if math.hypot(gap, tau) < POLE_MARGIN:
        raise PoleError(
            f"herglotz._window_mass: the segment ({t - delta}, {t + delta}) + "
            f"{tau}i passes within {POLE_MARGIN} of a pole")
    primitive = Fh.primitive
    return (primitive(complex(t + delta, tau))
            - primitive(complex(t - delta, tau))).imag


SCAN_BLOCK = 48
ATOM_THRESHOLD = 0.1  # atoms: peaks of Im phi above ATOM_THRESHOLD / tau


def _scan_peaks(Fh, a, b, npts, tau, threshold) -> np.ndarray:
    """Interior indices of the grid np.linspace(a, b, npts) where
    Im phi(sigma + i tau) is >= both neighbours and above threshold / tau.

    Blocks of SCAN_BLOCK points that the coarse pass certifies to lie below
    threshold / (2 tau) are not evaluated (see ``stieltjes_invert``), and
    only the points of the kept blocks are formed (``_linspace_at``).  A
    neighbour in a skipped block stands at -inf, below every
    point above the threshold, as its value is, so the local-maximum test is
    that of the full grid.  Below POLE_MARGIN no block is skipped, so every
    grid point meets the pole guard, even beside an atom too light to keep
    its block.
    """
    h = (b - a) / (npts - 1)
    w = 0.5 * SCAN_BLOCK * h
    tau_c = max(w, tau)
    nblocks = -(-npts // SCAN_BLOCK)
    centres = a + (SCAN_BLOCK * np.arange(nblocks) + 0.5 * (SCAN_BLOCK - 1)) * h
    skip = ((6.0 * tau_c * _im_phi(Fh, centres, tau_c) < threshold)
            & (tau >= POLE_MARGIN))
    idx = (SCAN_BLOCK * np.flatnonzero(~skip)[:, None] + np.arange(SCAN_BLOCK)).ravel()
    idx = idx[idx < npts]
    im = _im_phi(Fh, _linspace_at(a, b, npts, idx), tau)
    # neighbours within the kept points, -inf across a skipped block
    next_kept = idx[1:] == idx[:-1] + 1
    left = np.full_like(im, -np.inf)
    right = np.full_like(im, -np.inf)
    left[1:][next_kept] = im[:-1][next_kept]
    right[:-1][next_kept] = im[1:][next_kept]
    return idx[(im > threshold / tau) & (im >= left) & (im >= right)
               & (idx > 0) & (idx < npts - 1)]


def _linspace_at(a, b, npts, idx) -> np.ndarray:
    """np.linspace(a, b, npts)[idx] bit for bit, without the grid: point i
    is i * h + a with h = (b - a) / (npts - 1), and the last is b."""
    points = idx * ((b - a) / (npts - 1)) + a
    points[idx == npts - 1] = b
    return points


def _scan_grid(a, b, tau) -> tuple:
    """(spacing, points) of the atom scan's grid on (a, b) at smallest tau."""
    h = min(tau / 2.0, (b - a) / 2000.0)
    return h, int(math.ceil((b - a) / h)) + 1


def _scan_remedy(a, b) -> str:
    """The end of the refusal of a scan grid past MAX_STACK_ENTRIES: the
    smallest double tau <= 1e-3 whose grid on (a, b) fits, or that none does."""
    def fits(tau):
        return _scan_grid(a, b, tau)[1] <= MAX_STACK_ENTRIES

    tau = 2.0 * (b - a) / (MAX_STACK_ENTRIES - 1)  # the bound in exact arithmetic
    while fits(math.nextafter(tau, 0.0)):
        tau = math.nextafter(tau, 0.0)
    while not fits(tau):
        tau = math.nextafter(tau, math.inf)
    if tau > 1e-3:
        return (f"no tau_schedule fits: every smallest tau in (0, 1e-3] needs "
                f"more grid points on an interval of length {b - a:.6g}")
    return f"use a smallest tau of at least {tau!r}"


def stieltjes_invert(Fh: HerglotzMatrix, interval,
                     tau_schedule=(1e-1, 1e-2, 1e-3)) -> FatouData:
    """Recover the boundary measure of a Herglotz function F = phi * Id.

    That measure is mu_phi * Id (the Nevanlinna representation of matrix
    Herglotz functions: Gesztesy and Tsekanovskii, Math. Nachr. 218, 2000),
    so it is recovered once, from phi, and every value below is a scalar.
    The constant part A comes from the large-argument limit of
    Im phi(i tau)/tau, extrapolated quadratically in 1/tau.  Atoms are the
    local maxima of Im phi(sigma + i tau) above ATOM_THRESHOLD/tau at the
    smallest tau, refined by golden-section searches that share each
    evaluator call (``_golden_min``).  Each mass is the
    window integral of Im phi at every usable tau, extrapolated linearly in
    tau: the window holds the Poisson-smoothed measure, whose deficit at an
    isolated atom (the mass smoothed past the window's edges) is O(tau), and
    the extrapolation removes it.  A closed form with a primitive gives each
    window integral exactly, from two evaluations (``_window_mass``); an
    evaluator without one integrates by the trapezoid rule.  Disagreement
    above 5% between successive extrapolants raises ConvergenceError.

    phi must be Herglotz: the atom scan skips most of its grid on that
    ground.  Then u(sigma, tau) = Im phi(sigma + i tau) is a tau plus
    the Poisson integral of a positive measure, and the ratio of Poisson
    kernels gives u(sigma, tau) <= (3 tau'/tau) u(c, tau') whenever
    |sigma - c| <= w <= tau' and tau <= tau'.  The scan grid is cut into
    blocks of SCAN_BLOCK = 48 points of half-width w; one evaluation at each
    centre c, at tau' = max(w, tau), skips every block with
    6 tau' u(c, tau') < ATOM_THRESHOLD (twice the bound, for rounding), which
    holds no point above ATOM_THRESHOLD / tau.  The atoms are those of the
    full-grid scan for every block size: the size only trades npts/48
    coarse evaluations against the fine ones in the kept blocks, which grow
    with it, and the scans of the CLI's ``herglotz`` task cost the same from
    24 to 64 points, so it is a constant, not an option.  The scan reads
    phi alone, never builds its grid, and holds one value per point of a
    kept block; below POLE_MARGIN every block is kept, so a grid of more
    than MAX_STACK_ENTRIES points is refused, with the smallest tau whose
    grid fits, or the word that none does.
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

    # constant part from the large-tau limit; the [0, 0] entry of F is phi
    taus_A = (1e2, 1e3, 1e4)
    xs = np.array([1.0 / t for t in taus_A])
    v = np.array([Fh(complex(0.0, t))[0, 0].imag / t for t in taus_A])
    A_quad = float(np.polynomial.polynomial.polyfit(xs, v, 2)[0])
    A_lin = float((v[2] * xs[1] - v[1] * xs[2]) / (xs[1] - xs[2]))
    drift = abs(A_quad - A_lin)
    if drift > max(0.05 * abs(A_quad), 1e-4):
        raise ConvergenceError(
            f"herglotz.stieltjes_invert: A extrapolants differ by {drift:.3e}")

    # atom scan at the smallest tau
    tau_min = taus[-1]
    h_scan, npts = _scan_grid(a, b, tau_min)
    if npts > MAX_STACK_ENTRIES:
        raise InputError(
            f"herglotz.stieltjes_invert: a stack of shape {(npts,)} has {npts} "
            f"entries, more than the cap of {MAX_STACK_ENTRIES}; {_scan_remedy(a, b)}")
    peaks = _scan_peaks(Fh, a, b, npts, tau_min, ATOM_THRESHOLD)
    brackets = _linspace_at(a, b, npts, peaks[:, None] + [-1, 1]).tolist()
    locations = []
    for t in _golden_min(lambda s: -_im_phi(Fh, s, tau_min), brackets, tol=1e-8):
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
            diff = abs(fine - coarse)
            if diff > 0.05 * max(abs(fine), 1e-3):
                raise ConvergenceError(
                    f"herglotz.stieltjes_invert: mass extrapolants at t={t:.6f} "
                    f"differ by {diff:.3e}")
        atoms.append((float(t), fine))

    # residual boundary mass away from every atom window
    step = (b - a) / 4000.0
    sweep = a + np.arange(4001) * step
    if locations:
        near = np.abs(sweep[:, None] - np.array(locations)[None, :])
        sweep = sweep[~(np.min(near, axis=1) < 0.4)]
    # each partial sum of an accumulate is an output, so the terms are added
    # in order from 0.0, not in numpy's pairwise order
    cont = float(np.add.accumulate(np.append(0.0, step * _im_phi(Fh, sweep, tau_min)))[-1])
    flagged = cont > 0.05 * (b - a)

    return FatouData(A=A_quad, atoms=tuple(atoms), tau_schedule=taus,
                     interval=(a, b), dim=Fh.dim, continuous_mass=cont,
                     has_continuous_part=bool(flagged))


def fatou_reconstruct(fd: FatouData, zeta: complex) -> complex:
    """Evaluate the derivative representation phi'(zeta) = A + (1/pi) sum
    mass/(zeta-t)^2; F'(zeta) is that scalar times Id."""
    zeta = complex(zeta)
    if zeta.imag <= 0:
        raise InputError(
            f"herglotz.fatou_reconstruct: zeta={zeta} must lie in the upper half plane")
    out = complex(fd.A)
    for t, m in fd.atoms:
        out += m / (math.pi * (zeta - t) ** 2)
    return out
