"""Geodesic-counting integrals, combinatorial counting oracles, growth fits.

The total count of geodesic arcs out of a point, integrated over targets,
equals a double integral of the Jacobi-field Gram determinant: arc length
along each geodesic, directions over the unit tangent sphere.  This module
evaluates that double integral on the model manifolds, counts arcs on the
round sphere as an independent oracle, and classifies the growth of the
resulting curves in the length cutoff T.  On a flat torus the integral over
targets of the lattice arc counts unfolds to the volume of the ball of radius
T, for every lattice, so the torus needs no oracle of its own: ``verify``
compares its totals with that volume.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import flow
from . import manifolds as mf
from .errors import (CatalogError, ConfigurationError, InputError,
                     IntegrationFailureError)


# ---------------------------------------------------------------------------
# curves and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingCurve:
    """Sampled values of the total counting integral against the cutoff T."""

    T: np.ndarray
    values: np.ndarray
    manifold: str
    method: str  # "berger_bott" or "oracle"

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if T.shape != v.shape or T.ndim != 1:
            raise InputError("counting.CountingCurve: T and values must be 1-d and equal length")
        if np.any(np.diff(T) <= 0):
            raise InputError("counting.CountingCurve: parameter T must be strictly increasing")
        if np.any(v < 0):
            raise InputError("counting.CountingCurve: values must be nonnegative")
        if np.any(np.diff(v) < 0):
            raise InputError("counting.CountingCurve: values must be nondecreasing in T")
        if T[0] == 0.0 and v[0] != 0.0:
            raise InputError("counting.CountingCurve: value at T=0 must be 0")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "values", v)

    def to_csv(self, path, metadata: dict | None = None):
        """``# key=val`` lines, then the header ``T,value`` and a row per
        cutoff in ``.17g``, rows ended by ``\\r\\n``: the bytes of the csv
        module's default writer, whose quoting no such field needs."""
        text = "".join(f"# {key}={val}\n" for key, val in (metadata or {}).items())
        text += "T,value\r\n" + "".join(
            f"{t:.17g},{v:.17g}\r\n" for t, v in zip(self.T, self.values))
        with open(path, "w", newline="") as fh:
            fh.write(text)


@dataclass(frozen=True)
class GrowthReport:
    """Fitted growth class of a counting curve on its asymptotic window."""

    kind: str  # "polynomial" | "exponential"
    degree: int | None
    rate: float | None
    fit_residual: float
    window: tuple

    def to_dict(self) -> dict:
        return {
            "class": self.kind,
            "degree": self.degree,
            "rate": self.rate,
            "fit_residual": self.fit_residual,
            "window": list(self.window),
        }


# ---------------------------------------------------------------------------
# the counting integral
# ---------------------------------------------------------------------------

def _constant_eta(kap, grid):
    """eta and eta' of y'' = -kap y, data (0, 1), at the grid points: the
    last two columns of flow's RK4 kernel with the constant -kap at every
    stage node."""
    negk = np.full(len(grid) - 1, -kap)
    cols = flow._rk4((np.diff(grid), negk, negk, negk))
    return cols[:, 2], cols[:, 3]


def _counting_cumulative(spec, x, T, quad, step):
    """Cumulative counting integral on the arc-length grid.

    Both kinds with direction quadrature are homogeneous: the curvature
    profile is the constant kappa = spec.c along every geodesic, and
    H = eta * Id gives the integrand |det H| = |eta|^k in every direction.
    So the total reads only the quadrature's dimension and weights, never
    its nodes nor the base point x: eta is propagated once with flow's RK4
    kernel (``_constant_eta``), and the composite trapezoid of |eta|^k
    enters the total with the sum of the weights.  IntegrationFailureError
    refuses a step whose relative energy drift |eta'^2 + kappa eta^2 - 1|
    / max(1, eta'^2, |kappa| eta^2) exceeds flow.WRONSKIAN_TOL, a Jacobi
    solution and a total past the float range.
    """
    if quad.n != spec.n:
        raise ConfigurationError(
            f"counting.berger_bott_total: quadrature dimension {quad.n} does "
            f"not match manifold dimension {spec.n}")
    if spec.kind == mf.WARPED_PRODUCT:
        raise ConfigurationError(
            "counting.berger_bott_total: warped products expose radial "
            "geodesics only; direction quadrature is not available")
    grid = flow._grid(T, step)
    kap = float(spec.c)
    eta, deta = _constant_eta(kap, grid)
    # propagate_jacobi's Wronskian gate on the energy, over the samples with
    # finite squares: past RK4's stable step the drift grows before they
    # overflow, at an accurate step they overflow with the exact solution
    with np.errstate(over="ignore", invalid="ignore"):
        d2, k2 = deta * deta, kap * eta * eta
        finite = np.isfinite(d2) & np.isfinite(k2)
        drift = float(np.max(np.abs(d2 + k2 - 1.0)
                             / np.maximum(1.0, np.maximum(d2, np.abs(k2))),
                             where=finite, initial=0.0))
        if not drift <= flow.WRONSKIAN_TOL:
            raise IntegrationFailureError(
                f"counting.berger_bott_total: energy drift {drift:.3e} of the "
                f"Jacobi solution exceeds {flow.WRONSKIAN_TOL}")
        if not finite.all():
            raise IntegrationFailureError(
                "counting.berger_bott_total: the Jacobi solution leaves the "
                f"float range at sigma={grid[np.argmin(finite)]:.6g} "
                f"(kappa={kap:g}); use a smaller T")
        intg = np.abs(eta) ** spec.normal_dim
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * np.diff(grid) * (intg[:-1] + intg[1:]))))
    if not np.all(np.isfinite(cum)):
        raise IntegrationFailureError(
            "counting.berger_bott_total: the counting integral overflows")
    # np.sum adds pairwise in node order; a sequential sum of 4096 equal
    # Monte Carlo weights would be off by ~1e-13 relative
    return grid, np.sum(quad.weights) * cum


def berger_bott_total(spec, x, T, quad, step) -> float:
    """Total counting integral up to length T at the base point x."""
    if T == 0:
        return 0.0
    _, totals = _counting_cumulative(spec, x, T, quad, step)
    return float(totals[-1])


def berger_bott_curve(spec, x, T_values, quad, step) -> CountingCurve:
    """Counting totals at several cutoffs from a single propagation pass."""
    T_values = np.asarray(T_values, dtype=float)
    if np.any(np.diff(T_values) <= 0):
        raise InputError("counting.berger_bott_curve: parameter T_values must "
                         "be strictly increasing")
    if np.any(T_values < 0):
        raise InputError("counting.berger_bott_curve: parameter T_values must "
                         "be nonnegative")
    grid, totals = _counting_cumulative(spec, x, float(T_values[-1]), quad, step)
    vals = np.interp(T_values, grid, totals)
    return CountingCurve(T_values, vals, spec.label, "berger_bott")


# ---------------------------------------------------------------------------
# the arc-count oracle
# ---------------------------------------------------------------------------

def count_sphere_arcs(d: float, T: float) -> int:
    """Number of geodesic arcs of length <= T joining points at distance d
    on the unit round sphere (generic pair, 0 < d < pi).

    Arc lengths one way around are d + 2k*pi, the other way 2k*pi - d.
    """
    if not 0.0 < d < math.pi:
        raise InputError(f"counting.count_sphere_arcs: parameter d={d} must be in (0, pi)")
    if T <= 0:
        raise InputError(f"counting.count_sphere_arcs: parameter T={T} must be positive")
    two_pi = 2.0 * math.pi
    forward = int(math.floor((T - d) / two_pi)) + 1 if T >= d else 0
    backward = max(0, int(math.floor((T + d) / two_pi)))
    return forward + backward


# ---------------------------------------------------------------------------
# growth classification
# ---------------------------------------------------------------------------

HOLDOUT_FRACTION = 0.25  # share of the fit window that scores the two models


def classify_growth(curve: CountingCurve) -> GrowthReport:
    """Fit polynomial vs exponential growth on the upper half of the samples.

    log(value) is regressed against log(T) and against T on the window minus
    a held-out tail of at least 2 points; the model with the smaller held-out
    residual wins, ties going to polynomial.  The polynomial degree is the
    rounded log-log slope.
    """
    T, v = curve.T, curve.values
    if len(T) < 8:
        raise InputError(
            f"counting.classify_growth: need >= 8 samples, got {len(T)}")
    pos = T > 0
    if not np.any(pos) or np.max(T[pos]) / 10.0 < np.min(T[pos]):  # no overflow
        raise InputError(
            "counting.classify_growth: samples must span at least one decade in T")
    start = min(len(T) // 2, max(0, len(T) - 6))  # upper half, >= 6 points
    wT, wV = T[start:], v[start:]
    keep = wV > 0
    wT, wV = wT[keep], wV[keep]
    if len(wT) < 6:
        raise InputError(
            "counting.classify_growth: too few positive values in the fit window")
    nh = max(2, int(round(HOLDOUT_FRACTION * len(wT))))
    fit_T, fit_v = wT[:-nh], wV[:-nh]
    out_T, out_v = wT[-nh:], wV[-nh:]

    bp, ap = np.polyfit(np.log(fit_T), np.log(fit_v), 1)
    res_poly = float(np.sqrt(np.mean(
        (np.log(out_v) - (ap + bp * np.log(out_T))) ** 2)))
    be, ae = np.polyfit(fit_T, np.log(fit_v), 1)
    res_exp = float(np.sqrt(np.mean((np.log(out_v) - (ae + be * out_T)) ** 2)))

    window = (float(wT[0]), float(wT[-1]))
    if res_exp < res_poly and be > 0:
        return GrowthReport("exponential", None, float(be), res_exp, window)
    degree = max(0, int(round(bp)))
    return GrowthReport("polynomial", degree, None, res_poly, window)


# ---------------------------------------------------------------------------
# loop-space homology catalog and the growth inequality
# ---------------------------------------------------------------------------

def loop_space_betti_partial_sums(space: str, n: int, k: int) -> int:
    """Partial sum of the rational Betti numbers of the based loop space.

    Catalog: spheres only.  The loop space of the n-sphere has one rational
    class in every degree divisible by n-1, so the sum over degrees < k is
    floor((k-1)/(n-1)) + 1.
    """
    if space != "sphere":
        raise CatalogError(
            f"counting.loop_space_betti_partial_sums: space='{space}' not in "
            "catalog {'sphere'}")
    if n < 2:
        raise InputError(f"counting.loop_space_betti_partial_sums: n={n} must be >= 2")
    if k < 1:
        raise InputError(f"counting.loop_space_betti_partial_sums: k={k} must be >= 1")
    return (k - 1) // (n - 1) + 1


@dataclass(frozen=True)
class GromovCheck:
    """Outcome of comparing Betti partial sums with the counting integral."""

    n: int
    K: int
    C: float
    holds: bool
    first_failure_k: int | None
    lhs: np.ndarray
    rhs: np.ndarray

    def to_dict(self) -> dict:
        return {
            "n": self.n, "K": self.K, "C": self.C, "holds": self.holds,
            "first_failure_k": self.first_failure_k,
            "lhs": self.lhs.tolist(), "rhs": [float(r) for r in self.rhs],
        }


def _gromov_from_cumulative(grid, totals, volume, n, lhs, C):
    """The check at constant C of the Betti partial sums ``lhs`` at k = 1 .. K."""
    ks = np.arange(1, len(lhs) + 1)
    rhs = np.interp(C * ks, grid, totals) / volume
    ok = lhs <= rhs * (1 + 1e-9) + 1e-9
    first = None if bool(np.all(ok)) else int(ks[np.argmin(ok)])
    return GromovCheck(n, len(lhs), float(C), bool(np.all(ok)), first, lhs, rhs)


# cutoffs C k (k <= K, C in c_grid) that one Gromov search may check: each
# takes a Betti partial sum and a row of its arrays, checked before any is built
_GROMOV_CUTOFF_CAP = 100_000


def search_gromov_constant(spec: mf.ManifoldSpec, K: int, c_grid,
                           quad_order: int = 64, step: float = 1e-2,
                           seed: int = 0) -> dict:
    """Smallest constant C on a grid for which the Betti partial sums stay
    below the normalized counting integral at cutoff T = C*k for every
    k <= K.  ``spec`` must be the unit round sphere, and K * len(c_grid) at
    most _GROMOV_CUTOFF_CAP (InputError otherwise).

    A single propagation to the largest cutoff serves every grid value.
    """
    if spec.kind != mf.CONSTANT_CURVATURE or spec.c != 1.0:
        raise InputError(
            "counting.search_gromov_constant: gromov needs kind=constant_curvature "
            "with c=1 (the unit round sphere)")
    c_grid = sorted(float(c) for c in c_grid)
    if not c_grid or c_grid[0] <= 0:
        raise InputError("counting.search_gromov_constant: c_grid must be positive")
    if K * len(c_grid) > _GROMOV_CUTOFF_CAP:
        raise InputError(
            f"counting.search_gromov_constant: K={K} for each of {len(c_grid)} "
            f"c_grid values asks for {K * len(c_grid)} cutoffs, more than the cap of "
            f"{_GROMOV_CUTOFF_CAP}; lower K or shorten c_grid")
    n = spec.n
    x = mf.canonical_point(spec)
    scheme = "product_gauss" if n <= 4 else "monte_carlo"
    quad = mf.unit_sphere_quadrature(n, scheme, quad_order, seed)
    grid, totals = _counting_cumulative(spec, x, c_grid[-1] * K, quad, step)
    lhs = np.array([loop_space_betti_partial_sums("sphere", n, k)
                    for k in range(1, K + 1)])
    volume = mf.sphere_surface_area(n)  # of the unit round sphere
    checks = [_gromov_from_cumulative(grid, totals, volume, n, lhs, C)
              for C in c_grid]
    minimal = next((chk.C for chk in checks if chk.holds), None)
    return {"n": n, "K": K, "c_grid": c_grid, "minimal_passing_C": minimal,
            "checks": checks}
