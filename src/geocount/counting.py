"""Geodesic-counting integrals, combinatorial counting oracles, growth fits.

The total count of geodesic arcs out of a point, integrated over targets,
equals a double integral of the Jacobi-field Gram determinant: arc length
along each geodesic, directions over the unit tangent sphere.  This module
evaluates that double integral on the model manifolds, provides independent
counting oracles (arc counts on the round sphere; on flat tori, a Monte Carlo
integral over targets of lattice counts, one lattice enumeration per call),
and classifies the growth of the resulting curves in the length cutoff T.
"""

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  load now: numpy would load it on first use

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


# lattice points that one enumeration may list or count: a ball of radius rho
# holds at most V_n (rho + diam/2)^n / |det| of them (the unit cells centred
# on them are disjoint and lie in the ball of radius rho + diam/2), and that
# bound is checked before any array is built
_LATTICE_BALL_CAP = 2_000_000

# cutoffs C k (k <= K, C in c_grid) that one Gromov search may check: each
# takes a Betti partial sum and a row of its arrays, checked before any is built
_GROMOV_CUTOFF_CAP = 100_000

# nodes per expansion of the enumeration: they bound its arrays (about
# 8 (n + 3) bytes a node) whatever the lattice size
_LINE_BUDGET = 8192


def _lattice_frame(basis, reach):
    """Fincke-Pohst frame of the lattice for the ball of radius reach.

    Refuses, before any array is built, a reach whose coefficient box is not
    finite and a ball that may hold more than _LATTICE_BALL_CAP lattice
    points.  Returns (order, R, tol): the basis rows sorted shortest first,
    the upper triangular R with positive diagonal of the QR factorisation of
    basis[order].T, so that |z @ basis| = |R z[order]|, and tol, a bound on
    the rounding of a squared distance below reach^2 computed through R.

    A point z within reach has |z_i| <= reach |binv[:, i]|, so
    sum_i |z_i| |b_i| <= kappa reach with kappa = sum_i |b_i| |binv[:, i]|.
    The QR factor's backward error (a few n eps |b_i| per column), the
    rounding of the nested sums and of the interval ends, and the float
    lattice vectors z @ basis each move a squared distance by a small
    multiple of n^2 eps kappa reach^2; tol = 4 (n + 3)^3 eps (kappa + 1)
    reach^2 bounds their sum with room to spare.  A larger tol would only
    move vectors into the listed rings, where they are tested directly.
    """
    n = basis.shape[0]
    binv = np.linalg.inv(basis)
    # inf times a column norm that underflowed to 0 would be nan, and warn
    extents = ([reach * np.linalg.norm(binv[:, i]) for i in range(n)]
               if math.isfinite(reach) else [reach])
    if not all(math.isfinite(e) for e in extents):
        raise InputError(
            "counting.torus_count_integral_oracle: the coefficient box for "
            f"reach {reach} is not finite")
    norms = np.linalg.norm(basis, axis=1)
    ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    with np.errstate(over="ignore", divide="ignore"):
        bound = float(ball * np.float64(reach + np.sum(norms) / 2) ** n
                      / abs(np.linalg.det(basis)))
    if not bound <= _LATTICE_BALL_CAP:
        raise InputError(
            "counting.torus_count_integral_oracle: the ball of radius "
            f"{reach:g} may hold {bound:.0f} lattice points, more than the cap of "
            f"{_LATTICE_BALL_CAP}; lower T or use a less elongated basis")
    order = np.argsort(norms, kind="stable")
    R = np.linalg.qr(basis[order].T, mode="r")
    R *= np.sign(np.diag(R))[:, None]
    kappa = float(np.sum(norms * np.linalg.norm(binv, axis=0)))
    tol = 4.0 * (n + 3) ** 3 * np.finfo(float).eps * (kappa + 1.0) * reach * reach
    return order, R, tol


def _runs(starts, lengths):
    """Entries of the integer runs starts[k], ..., starts[k] + lengths[k] - 1,
    run after run: the run of every entry and its value."""
    run = np.repeat(np.arange(len(lengths)), lengths)
    first = np.cumsum(lengths) - lengths
    return run, np.arange(len(run)) + np.repeat(starts - first, lengths)


def _interval(a, P, rad2, rii):
    """First integer and count of the integers j with rii^2 (j - a)^2 + P <=
    rad2, for each line."""
    room = rad2 - P
    h = np.sqrt(np.maximum(room, 0.0)) / rii
    lo = np.ceil(a - h)
    cnt = np.where(room >= 0.0, np.floor(a + h) - lo + 1.0, 0.0)
    return lo, np.maximum(cnt, 0.0).astype(np.intp)


def _line_split(a, P, inner2, outer2, rii):
    """Split the points j of each line within outer2 (the integers j with
    rii^2 (j - a)^2 + P <= outer2) into the run within inner2, counted, and
    the ring around it, listed.  Returns the run's count on every line and,
    for every ring point, its line and j, line after line."""
    lo, cnt = _interval(a, P, outer2, rii)
    ilo, icnt = _interval(a, P, inner2, rii)
    # an empty run sits at the line's end; a nonempty one lies inside the
    # line's interval, since a smaller radius gives a narrower interval
    ilo = np.where(icnt > 0, ilo, lo + cnt)
    lengths = np.stack((ilo - lo, lo + cnt - ilo - icnt), axis=1).ravel()
    line, j = _runs(np.stack((lo, ilo + icnt), axis=1).ravel(),
                    lengths.astype(np.intp))
    return icnt, line // 2, j


def _lattice_lines(R, w, rad2):
    """Innermost lines of the Fincke-Pohst enumeration of the integer vectors
    z with |R (w_k + z)|^2 <= rad2, for each centre w_k (a row of w, in R's
    coordinate order).

    Coordinates n - 1 down to 1 are fixed one at a time, each over the
    integer interval that the ones before leave; a batch is halved before an
    expansion past _LINE_BUDGET nodes.  Yields batches (owner, z, a, P), in
    the order of the centres: line k belongs to centre owner[k] and holds
    the points z[k] + j e_0 (z[k, 0] = 0), at squared distance
    R_00^2 (j - a[k])^2 + P[k].
    """
    n = len(R)
    stack = [(n - 1, np.arange(len(w)), np.zeros(w.shape), np.zeros(len(w)))]
    while stack:
        i, owner, z, P = stack.pop()
        # component i of R (w + z) is R_ii (z_i - a)
        a = -(w[owner, i]
              + (w[owner, i + 1:] + z[:, i + 1:]) @ R[i, i + 1:] / R[i, i])
        if i == 0:
            yield owner, z, a, P
            continue
        lo, cnt = _interval(a, P, rad2, R[i, i])
        if np.sum(cnt) > _LINE_BUDGET and len(owner) > 1:
            half = len(owner) // 2
            stack += [(i, owner[half:], z[half:], P[half:]),
                      (i, owner[:half], z[:half], P[:half])]
            continue
        rep, j = _runs(lo, cnt)
        z = z[rep]
        z[:, i] = j
        stack.append((i - 1, owner[rep], z,
                      P[rep] + (R[i, i] * (j - a[rep])) ** 2))


# targets per chunk of the oracle's first pass, and (target, slot) entries
# per buffer of its pairwise pass (unless a single shell is wider): they bound
# the per-chunk arrays whatever the lattice size or the number of samples
_ORACLE_ROWS = 4096
_ORACLE_ENTRIES = 2**16


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


def _oracle_cells(basis, frame, T, reach, m, cells):
    """Classify the lattice vectors near each of the given sub-cells.

    Sub-cell (i_1, ..., i_n), flat index in C order, holds the targets with
    floor(u_k m_k) = i_k.  It is a parallelepiped whose points lie within r
    (its largest centre-to-corner distance) of its centre c.  A vector v
    with |c + v| <= T - r is within T of every target in the sub-cell
    ("sure"), one with |c + v| > T + r of none; the rest form the sub-cell's
    shell.  A slack of 1e-9 reach on both radii covers the rounding of the
    targets and of the pairwise test, and the frame's tol on both squared
    radii the rounding of the enumeration.

    The enumeration visits only the lines of the ball of radius T + r about
    each centre: a line counts its sure vectors at once and lists its shell
    vectors, at most two runs at its ends.  Returns the sure count and the
    shell size of every sub-cell, the shells of the given sub-cells (in
    increasing order) as a table of coordinates (table[k, i, :lens[cells[i]]]
    holds coordinate k of the shell vectors of sub-cell cells[i], the other
    slots inf), and the work: lines visited plus shell vectors listed.
    """
    order, R, tol = frame
    n = basis.shape[0]
    m = np.asarray(m)
    corners = (np.indices((2,) * n).reshape(n, -1).T - 0.5) / m
    r = float(np.max(np.linalg.norm(corners @ basis, axis=1)))
    inner = T - r - 1e-9 * reach
    inner2 = inner * inner - tol if inner > 0.0 else -math.inf
    outer2 = (T + r + 1e-9 * reach) ** 2 + tol
    w = ((np.stack(np.unravel_index(cells, m), axis=1) + 0.5) / m)[:, order]
    size = math.prod(m)
    sure = np.zeros(size, np.int64)
    owners, shells, work = [np.zeros(0, np.intp)], [np.zeros((0, n))], 0
    for owner, z, a, P in _lattice_lines(R, w, outer2):
        inside, line, j = _line_split(a, P, inner2, outer2, R[0, 0])
        sure += np.bincount(cells[owner], inside, size).astype(np.int64)
        owners.append(cells[owner[line]])
        # the shell points' coefficients, back in the basis order, @ basis
        coef = np.empty((len(line), n))
        coef[:, order] = z[line]
        coef[:, order[0]] = j
        shells.append(coef @ basis)
        work += len(owner) + len(line)
    # lines come out in the order of their centres, so the shell vectors are
    # in sub-cell order already
    owners = np.concatenate(owners)
    lens = np.bincount(owners, minlength=size)
    width = int(np.max(lens))
    first = np.cumsum(lens) - lens
    slot = (np.searchsorted(cells, owners) * width
            + np.arange(len(owners)) - first[owners])
    table = np.full((n, len(cells) * width), np.inf)
    table[:, slot] = np.concatenate(shells).T
    return sure, lens, table.reshape(n, len(cells), width), work


def _oracle_targets(seed, samples, chunk, n):
    """The oracle's uniform coefficient rows, chunk rows at a time."""
    rng = np.random.default_rng(seed)
    for done in range(0, samples, chunk):
        yield rng.random((min(chunk, samples - done), n))


def _sub_cell(u, m):
    # floor(u_k m_k) <= m_k - 1: for an integer m, the largest double below 1
    # times m still rounds below m
    return np.ravel_multi_index((u * m).astype(np.intp).T, m)


def _oracle_points(u, basis):
    """The targets u @ basis, summed u_0 b_0 + u_1 b_1 + ... in coordinate
    order: a row's bits then do not depend on the rows mapped with it, as
    those of a matrix product can.  Built one coordinate at a time, for long
    inner loops, and returned as the transpose of that (n, targets) array."""
    y = basis[0][:, None] * u[:, 0]
    for k in range(1, len(basis)):
        y += basis[k][:, None] * u[:, k]
    return y.T


def _shell_hits(table, y, rows, T, d2, term):
    """Number of (target, shell vector) pairs with |y + v|^2 <= T^2, one
    entry per target and slot of its sub-cell's row of the table (an empty
    slot holds inf, which never passes), computed in the buffers d2 and
    term, (targets, slots) each.  The sum_k (y_k + v_k)^2 runs in coordinate
    order, the order np.sum(..., axis=1) adds a row of fewer than 8 entries;
    the ball cap refuses n >= 6.  The row indices are in range, so np.take's
    bounds check ("clip" never clips) is skipped."""
    np.take(table[0], rows, axis=0, out=d2, mode="clip")
    d2 += y[:, :1]
    d2 *= d2
    for k in range(1, len(table)):
        np.take(table[k], rows, axis=0, out=term, mode="clip")
        term += y[:, k:k + 1]
        term *= term
        d2 += term
    return int(np.count_nonzero(d2 <= T * T))


def torus_count_integral_oracle(basis, T: float, samples: int, seed: int = 0) -> float:
    """Monte Carlo estimate of the torus counting integral over targets.

    |det basis| times the mean arc count over uniform targets; deterministic
    for a fixed seed.  A target y = u @ basis falls in the sub-cell
    floor(u m) of the coefficient cube; it counts the sub-cell's sure
    vectors at once, and only its shell vectors pass the pairwise test
    |y + v|^2 <= T^2, so the count is the one that testing every pair gives.

    Cost: a first pass over the random stream marks the occupied sub-cells
    (at most samples of them).  The enumeration visits, for each, the lines
    of the ball of radius T + r about its centre (about that ball's
    (n-1)-volume over the covolume of the lattice projected along the
    shortest row) and lists its shell (about the shell's volume over
    |det|).  The pairwise pass makes samples x (largest shell) entries.
    Nothing scales with the lattice vectors within reach, which are only
    counted, line by line.  The first pass draws _ORACLE_ROWS targets at a
    time, the pairwise pass as many as fill buffers of _ORACLE_ENTRIES
    entries (one, where the largest shell is wider).  Each target is summed
    in coordinate order on its own, so no value depends on the chunk sizes.
    """
    if samples < 1:
        raise InputError(
            f"counting.torus_count_integral_oracle: parameter samples={samples} "
            "must be >= 1")
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    if T <= 0:
        return 0.0
    # a row too long to square has length inf here, which the frame refuses
    with np.errstate(over="ignore"):
        diam = float(np.sum(np.linalg.norm(basis, axis=1)))
    reach = T + diam
    frame = _lattice_frame(basis, reach)
    m = _oracle_cells_per_axis(basis)
    occupied = np.zeros(math.prod(m), dtype=bool)
    for u in _oracle_targets(seed, samples, _ORACLE_ROWS, n):
        occupied[_sub_cell(u, m)] = True
        if occupied.all():
            break
    cells = np.flatnonzero(occupied)
    sure, _, table, _ = _oracle_cells(basis, frame, T, reach, m, cells)
    row = np.zeros(len(occupied), np.intp)
    row[cells] = np.arange(len(cells))

    # one pair of buffers for all chunks: fresh arrays of this size would
    # each be mapped and faulted in anew
    chunk = max(1, _ORACLE_ENTRIES // max(1, table.shape[2]))
    d2, term = np.empty((2, min(chunk, samples), table.shape[2]))
    total = 0
    for u in _oracle_targets(seed, samples, chunk, n):
        cells = _sub_cell(u, m)
        total += int(np.sum(sure[cells])) + _shell_hits(
            table, _oracle_points(u, basis), row[cells], T, d2[:len(u)],
            term[:len(u)])
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


def _gromov_from_cumulative(grid, totals, volume, n, lhs, C):
    """The check at constant C of the Betti partial sums ``lhs`` at k = 1 .. K."""
    ks = np.arange(1, len(lhs) + 1)
    rhs = np.interp(C * ks, grid, totals) / volume
    ok = lhs <= rhs * (1 + 1e-9) + 1e-9
    first = None if bool(np.all(ok)) else int(ks[np.argmin(ok)])
    return GromovCheck(n, len(lhs), float(C), bool(np.all(ok)), first, lhs, rhs)


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
