"""Geodesic-counting integrals, combinatorial counting oracles, growth fits.

The total count of geodesic arcs out of a point, integrated over targets,
equals a double integral of the Jacobi-field Gram determinant: arc length
along each geodesic, directions over the unit tangent sphere.  This module
evaluates that double integral on the model manifolds, provides independent
counting oracles for the round sphere and flat tori, and classifies the
growth of the resulting curves in the length cutoff T.
"""

import csv
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
        with open(path, "w", newline="") as fh:
            for key, val in (metadata or {}).items():
                fh.write(f"# {key}={val}\n")
            writer = csv.writer(fh)
            writer.writerow(["T", "value"])
            for t, v in zip(self.T, self.values):
                writer.writerow([format(t, ".17g"), format(v, ".17g")])


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

def berger_bott_integrand(js: flow.JacobiSystem, sigma: float) -> float:
    """sqrt det of the Gram matrix of the (0, Id) Jacobi solution at sigma.

    In the parallel frame this is |det H(sigma)|.  Values between grid
    samples interpolate linearly.
    """
    return float(np.interp(sigma, js.sigma, np.abs(js.det_h)))


def _constant_eta(kap, grid):
    """eta and eta' of y'' = -kap y, data (0, 1), at the grid points: flow's
    RK4 kernel with the constant -kap at every stage node."""
    negk = [-kap] * (len(grid) - 1)
    return flow._rk4((np.diff(grid).tolist(), negk, negk, negk), 1, 0.0, 1.0)


def _counting_cumulative(spec, x, T, quad, step):
    """Cumulative counting integral on the arc-length grid.

    Both kinds with direction quadrature are homogeneous: the curvature
    profile is the constant kappa = spec.c along every geodesic, and
    H = eta * Id gives the integrand |det H| = |eta|^k.  The directions are
    checked to be unit vectors in one array expression; eta alone (xi is
    not needed) is propagated once with flow's scalar RK4 kernel, and the
    composite trapezoid of |eta|^k enters the total with the sum of the
    quadrature weights.  IntegrationFailureError refuses a step whose
    relative energy drift |eta'^2 + kappa eta^2 - 1| / max(1, eta'^2,
    |kappa| eta^2) exceeds flow.WRONSKIAN_TOL, a Jacobi solution and a total
    past the float range.
    """
    if quad.n != spec.n:
        raise ConfigurationError(
            f"counting.berger_bott_total: quadrature dimension {quad.n} does "
            f"not match manifold dimension {spec.n}")
    if spec.kind == mf.WARPED_PRODUCT:
        raise ConfigurationError(
            "counting.berger_bott_total: warped products expose radial "
            "geodesics only; direction quadrature is not available")
    x = np.asarray(x, dtype=float)
    frame = mf.tangent_frame(spec, x)
    dirs = quad.nodes @ frame
    # the metric norm of manifolds.require_unit_direction, for all rows at once
    norm2 = np.sum(mf.metric_diagonal(spec, x) * dirs * dirs, axis=1)
    bad = np.flatnonzero(np.abs(norm2 - 1.0) > 1e-8)
    if bad.size:
        i = int(bad[0])
        raise IntegrationFailureError(
            f"counting.berger_bott_total: direction {i}: manifolds: direction "
            f"has metric norm^2 = {float(norm2[i])!r}, expected 1")

    grid = flow._grid(T, step)
    kap = float(spec.c)
    eta, deta = (np.array(v) for v in _constant_eta(kap, grid))
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
# independent counting oracles
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


# lattice points in one coefficient box: its meshgrid temporaries take about
# 2n int64 copies of the box, some 100 MB at the cap in three dimensions
_LATTICE_BOX_CAP = 2_000_000


def _lattice_box(basis, reach, caller):
    """Lattice vectors of the coefficient box that covers the ball of radius
    reach about the origin.

    The box size prod(2 b_i + 1) is checked against _LATTICE_BOX_CAP before
    any array is built.
    """
    n = basis.shape[0]
    binv = np.linalg.inv(basis)
    # inf times a column norm that underflowed to 0 would be nan, and warn
    extents = ([reach * np.linalg.norm(binv[:, i]) for i in range(n)]
               if math.isfinite(reach) else [reach])
    if not all(math.isfinite(e) for e in extents):
        raise InputError(
            f"counting.{caller}: the coefficient box for reach {reach} is not finite")
    bounds = [int(math.ceil(e)) + 1 for e in extents]
    size = math.prod(2 * b + 1 for b in bounds)
    if size > _LATTICE_BOX_CAP:
        raise InputError(
            f"counting.{caller}: the coefficient box for reach {reach:g} has "
            f"{size} lattice points, more than the cap of {_LATTICE_BOX_CAP}; "
            "lower T or use a less elongated basis")
    axes = [np.arange(-b, b + 1) for b in bounds]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    return mesh @ basis


def count_torus_lattice(basis, x, y, T: float) -> int:
    """Number of lattice translates v with ||y - x + v|| <= T.

    Geodesic arcs on the torus from x to y correspond one-to-one to lattice
    vectors; enumeration runs over the bounded coefficient box that can reach
    the ball of radius T.
    """
    basis = np.asarray(basis, dtype=float)
    diff = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    vecs = _lattice_box(basis, T + float(np.linalg.norm(diff)),
                        "count_torus_lattice")
    dist = np.linalg.norm(diff[None, :] + vecs, axis=1)
    return int(np.count_nonzero(dist <= T))


# target x lattice-vector pairs per oracle chunk, at most: they bound the
# chunk's arrays (about 100 bytes a pair in three dimensions) whatever the
# lattice size
_ORACLE_PAIR_BUDGET = 2_000_000


def _oracle_cells_per_axis(basis):
    """Sub-cells along each axis of the unit coefficient cube, about 2^9 in all.

    Axis i gets m_i proportional to the row norm |b_i|, so that a sub-cell is
    about as long along every edge: m_i = 2^((9 + sum_j log2(|b_i| / |b_j|)) / k)
    over the k axes still free, rounded down.  An axis whose share falls
    below one sub-cell gets one, and the other axes share 2^9 again.  Equal
    row norms give the differences exactly 0, hence int(2^(9/n)) on every
    axis: 22, 8 and 4 in 2, 3 and 4 dimensions.
    """
    logs = np.log2(np.linalg.norm(basis, axis=1))
    free = np.ones(len(logs), dtype=bool)
    while True:
        spread = np.sum(logs[:, None] - logs[None, free], axis=1)
        expo = (9.0 + spread) / np.count_nonzero(free)
        low = free & (expo < 0.0)
        if not low.any():
            break
        free &= ~low
    return tuple(int(2.0 ** e) if f else 1 for e, f in zip(expo, free))


def _oracle_cells(basis, vecs, T, reach, m):
    """Classify the lattice vectors against each of the prod(m) sub-cells.

    Sub-cell (i_1, ..., i_n) holds the targets with floor(u_k m_k) = i_k.  It
    is a parallelepiped whose points lie within r (its largest
    centre-to-corner distance) of its centre c.  A vector v with
    |c + v| <= T - r is within T of every target in the sub-cell ("sure"),
    one with |c + v| > T + r of none; the rest form the sub-cell's shell.  A
    slack of 1e-9 reach on both radii covers the rounding of the targets and
    of the pairwise test.

    Each batch of sub-cells takes one matrix product: |c + v|^2 is computed
    as |c|^2 + 2 c.v + |v|^2.  Each of |c|^2, c.v and |v|^2 is a sum of n
    products and is off by at most about n u times the sum of their
    magnitudes (u = 2^-53, the unit roundoff), n u (|c| + |v|)^2 for the
    three together; the two additions add 2 u (|c| + |v|)^2 more.  Since
    |c| <= diam <= reach and |v| <= reach, (|c| + |v|)^2 <= 4 reach^2, so
    tol = 4 (n + 3) eps reach^2 (eps = 2 u) bounds the error twice over.  It
    is taken off the sure radius^2 and added to the impossible radius^2.

    Returns the sure count of every sub-cell (in C order of its index tuple)
    and the shells as indices into vecs: sub-cell i owns
    flat[starts[i]:starts[i] + lens[i]].
    """
    n = basis.shape[0]
    m = np.asarray(m)
    corners = (np.indices((2,) * n).reshape(n, -1).T - 0.5) / m
    r = float(np.max(np.linalg.norm(corners @ basis, axis=1)))
    centres = ((np.indices(tuple(m)).reshape(n, -1).T + 0.5) / m) @ basis
    tol = 4.0 * (n + 3) * np.finfo(float).eps * reach * reach
    inner = T - r - 1e-9 * reach
    inner2 = inner * inner - tol if inner > 0.0 else -math.inf
    outer2 = (T + r + 1e-9 * reach) ** 2 + tol
    cc = np.sum(centres * centres, axis=1)
    vv = np.sum(vecs * vecs, axis=1)
    twice = 2.0 * vecs.T
    sure, lens, flat = [], [], []
    batch = max(1, _ORACLE_PAIR_BUDGET // len(vecs))
    for lo in range(0, len(centres), batch):
        d2 = centres[lo:lo + batch] @ twice
        d2 += cc[lo:lo + batch, None]
        d2 += vv
        sure.append(np.count_nonzero(d2 <= inner2, axis=1))
        rows, cols = np.nonzero((d2 > inner2) & (d2 <= outer2))
        lens.append(np.bincount(rows, minlength=len(d2)))
        flat.append(cols)
    lens = np.concatenate(lens)
    return np.concatenate(sure), np.cumsum(lens) - lens, lens, np.concatenate(flat)


def torus_count_integral_oracle(basis, T: float, samples: int, seed: int = 0) -> float:
    """Monte Carlo estimate of the torus counting integral over targets.

    |det basis| times the mean arc count over uniform targets; deterministic
    for a fixed seed.  A target y = u @ basis falls in the sub-cell
    floor(u m) of the coefficient cube; it counts the sub-cell's sure
    vectors at once, and only its shell vectors pass the pairwise test
    |y + v|^2 <= T^2, so the count is the one that testing every pair gives.
    """
    if samples < 1:
        raise InputError(
            f"counting.torus_count_integral_oracle: parameter samples={samples} "
            "must be >= 1")
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    if T <= 0:
        return 0.0
    rng = np.random.default_rng(seed)
    # a row too long to square has length inf here, which _lattice_box refuses
    with np.errstate(over="ignore"):
        diam = float(np.sum(np.linalg.norm(basis, axis=1)))
    reach = T + diam
    vecs = _lattice_box(basis, reach, "torus_count_integral_oracle")
    vecs = vecs[np.linalg.norm(vecs, axis=1) <= reach]
    m = _oracle_cells_per_axis(basis)
    sure, starts, lens, flat = _oracle_cells(basis, vecs, T, reach, m)

    cols = np.ascontiguousarray(vecs.T)
    total = 0
    chunk = max(1, _ORACLE_PAIR_BUDGET // len(vecs))
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        u = rng.random((take, n))
        y = u @ basis
        # floor(u_k m_k) <= m_k - 1: for an integer m, the largest double
        # below 1 times m still rounds below m
        cell = np.ravel_multi_index((u * m).astype(np.intp).T, m)
        total += int(np.sum(sure[cell]))
        # one entry per (target, shell vector) pair, targets in order
        cnt = lens[cell]
        tgt = np.repeat(np.arange(take), cnt)
        first = np.cumsum(cnt) - cnt
        vec = flat[(starts[cell] - first)[tgt] + np.arange(len(tgt))]
        # sum_k (y_k + v_k)^2 in coordinate order, the order np.sum(..., axis=1)
        # adds a row of fewer than 8 entries; the box cap refuses n >= 8
        # (every axis of the box then has at least 7 points)
        d2 = (y.T[0][tgt] + cols[0][vec]) ** 2
        for k in range(1, n):
            d2 += (y.T[k][tgt] + cols[k][vec]) ** 2
        total += int(np.count_nonzero(d2 <= T * T))
        done += take
    vol = abs(float(np.linalg.det(basis)))
    return vol * total / samples


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


def _gromov_from_cumulative(grid, totals, volume, n, K, C):
    ks = np.arange(1, K + 1)
    lhs = np.array([loop_space_betti_partial_sums("sphere", n, int(k)) for k in ks])
    rhs = np.interp(C * ks, grid, totals) / volume
    ok = lhs <= rhs * (1 + 1e-9) + 1e-9
    first = None if bool(np.all(ok)) else int(ks[np.argmin(ok)])
    return GromovCheck(n, K, float(C), bool(np.all(ok)), first, lhs, rhs)


def search_gromov_constant(spec: mf.ManifoldSpec, K: int, c_grid,
                           quad_order: int = 64, step: float = 1e-2,
                           seed: int = 0) -> dict:
    """Smallest constant C on a grid for which the Betti partial sums stay
    below the normalized counting integral at cutoff T = C*k for every
    k <= K.  ``spec`` must be the unit round sphere (InputError otherwise).

    A single propagation to the largest cutoff serves every grid value.
    """
    if spec.kind != mf.CONSTANT_CURVATURE or spec.c != 1.0:
        raise InputError(
            "counting.search_gromov_constant: gromov needs kind=constant_curvature "
            "with c=1 (the unit round sphere)")
    c_grid = sorted(float(c) for c in c_grid)
    if not c_grid or c_grid[0] <= 0:
        raise InputError("counting.search_gromov_constant: c_grid must be positive")
    n = spec.n
    x = mf.canonical_point(spec)
    scheme = "product_gauss" if n <= 4 else "monte_carlo"
    quad = mf.unit_sphere_quadrature(n, scheme, quad_order, seed)
    grid, totals = _counting_cumulative(spec, x, c_grid[-1] * K, quad, step)
    checks = [_gromov_from_cumulative(grid, totals, spec.volume, n, K, C)
              for C in c_grid]
    minimal = next((chk.C for chk in checks if chk.holds), None)
    return {"n": n, "K": K, "c_grid": c_grid, "minimal_passing_C": minimal,
            "checks": checks}
