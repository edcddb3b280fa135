"""Verification batteries behind the ``verify`` and ``herglotz`` subcommands.

Each battery returns a list of check records {name, residual, tolerance,
passed}; a check passes when its residual does not exceed its tolerance.
Residuals are normalized so that zero means a clean pass (sign-constrained
quantities report their violation, not their value).
"""

import functools
import math

import numpy as np

from . import closed_form, counting, flow, herglotz
from . import manifolds as mf


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def _sample_sigmas(rng, count, lo, hi, pole_distance, margin=herglotz.SAMPLING_POLE_MARGIN):
    """``count`` uniform draws on [lo, hi) at least ``margin`` from a pole,
    as an array.  ``pole_distance`` maps an array of sigma to distances.
    Each round draws only the values still needed, in one call, and keeps
    those far enough from a pole: the values, their order and the rng state
    afterwards are those of drawing one value at a time until ``count``
    are kept."""
    out = np.empty(0)
    while len(out) < count:
        s = rng.uniform(lo, hi, size=count - len(out))
        out = np.append(out, s[pole_distance(s) >= margin])
    return out


def _oracle_counting_total(spec, T, width=None):
    """Counting total from the closed-form integrand, no ODE involved.

    |eta|^k on [0, T] by composite 20-node Gauss-Legendre (Davis and
    Rabinowitz, 1984, sec. 2.7).  Panels are cut at the zeros j pi / sqrt(c)
    of eta (c > 0), where |eta|^k is not smooth, and to equal widths of at
    most ``width``, by default 4 / max(4, k sqrt|c|, k / T): k sqrt|c| is
    the growth rate of sinh^k, and k / T that of sigma^k near T, which the
    flat case (and small |c|) needs from k = 40 on.
    """
    c, k = spec.c, spec.normal_dim
    if width is None:
        width = 4.0 / max(4.0, k * math.sqrt(abs(c)), k / T)
    cuts = [0.0]
    while c > 0 and len(cuts) * closed_form.pole_period(c) < T:
        cuts.append(len(cuts) * closed_form.pole_period(c))
    cuts.append(T)
    edges = np.append(np.concatenate([
        np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1)[:-1]
        for lo, hi in zip(cuts, cuts[1:])]), T)
    nodes, weights = mf.gauss_legendre(20)
    half = 0.5 * np.diff(edges)[:, None]
    sig = edges[:-1, None] + half * (nodes + 1.0)
    vals = np.abs(closed_form.scalars(c, sig)[2]) ** k
    return mf.sphere_surface_area(spec.n - 1) * float(np.sum(half * weights * vals))


def herglotz_battery(c: float, n: int, seed: int = 0,
                     tau_schedule=(1e-1, 1e-2, 1e-3)) -> tuple[list, dict | None]:
    """Positivity, normalization, structure and measure checks for the
    closed-form function of curvature c.  Returns (checks, fatou dict)."""
    rng = np.random.default_rng(seed)
    Fh = herglotz.HerglotzMatrix.from_constant_curvature(c, n)
    Gh = Fh.neg_inverse_function()
    checks = []

    tails = 10.0 ** rng.uniform(-3, 1, size=100)
    heads = rng.uniform(-8.0, 8.0, size=100)
    samples = [complex(a, b) for a, b in zip(heads, tails)]
    nice = herglotz.check_theorem_nice(Fh, samples)
    checks.append(_check("f(0) = 0", nice["f_zero_norm"], 1e-12))
    checks.append(_check("f'(0) = Id", nice["fprime_zero_defect"], 1e-6))
    if c >= 0:
        checks.append(_check("Im f positive definite off the real axis",
                             max(0.0, -nice["min_im_eigenvalue"]), 0.0))
        g_min = float(np.min(Gh.phi(samples).imag))
        checks.append(_check("Im(-1/f) positive definite off the real axis",
                             max(0.0, -g_min), 0.0))

    fatou_dict = None
    if c >= 0:
        if c > 0:
            # below period 2 the ends sit halfway to the atoms at -period
            # and 3 * period, which stay outside
            period = closed_form.pole_period(c)
            margin = min(1.0, period / 2)
            interval = (-margin, 2 * period + margin)
            expected = [0.0, period, 2 * period]
        else:
            interval = (-1.0, 1.0)
            expected = [0.0]
        fd = herglotz.stieltjes_invert(Gh, interval, tau_schedule)
        fatou_dict = fd.to_dict()
        loc_err = (math.inf if len(fd.atoms) != len(expected) else
                   max(abs(t - e) for (t, _), e in zip(fd.atoms, expected)))
        checks.append(_check("boundary measure atoms at the zeros of f",
                             loc_err, 1e-4))
        mass_err = (math.inf if not fd.atoms else
                    max(abs(m - math.pi) / math.pi for _, m in fd.atoms))
        checks.append(_check("atom masses = pi * Id (relative)", mass_err, 2e-2))
        checks.append(_check("constant part A = 0", abs(fd.A), 1e-3))
        checks.append(_check("no continuous boundary mass",
                             0.0 if not fd.has_continuous_part else 1.0, 0.0))
    return checks, fatou_dict


def _psd_pairs(rng, count):
    """k -> (A1, A2), the stacks of ``count`` PSD pairs M M^T grouped by
    size, in increasing k.  One call draws all ``count`` sizes k in [1, 6];
    then, for each size in increasing order, one call draws the (m, 2, k, k)
    factors M of its m pairs, and one product forms them."""
    sizes = rng.integers(1, 7, size=count)
    pairs = {}
    for k in np.unique(sizes).tolist():
        m = rng.standard_normal((int(np.count_nonzero(sizes == k)), 2, k, k))
        pairs[k] = (m @ m.swapaxes(-1, -2)).swapaxes(0, 1)
    return pairs


def lemma_battery(spec: mf.ManifoldSpec, seed: int = 0) -> list:
    """Identity suite for one manifold: ODE accuracy, conservation laws,
    the determinant identity chain, positivity and determinant bounds."""
    rng = np.random.default_rng(seed)
    checks = []
    x = mf.canonical_point(spec)
    # the first tangent axis (e_0 off curved space forms); a warped
    # product's outward ray r = r0 + sigma goes three quarters of the way to
    # a finite domain end, where w vanishes (sin: the antipodal pole)
    theta = mf.orthonormal_frame(spec, x)[0]
    T = 5.0 if spec.kind != mf.WARPED_PRODUCT else min(
        4.0, 0.75 * (spec.warp.domain[1] - spec.base_radius))
    js = flow.propagate_jacobi(flow.integrate_geodesic(spec, x, theta, T=T, step=1e-3))
    # the direction rule of the counting checks (warped products count none);
    # it draws from its own default_rng(seed), so the battery's stream does
    # not move
    quad = None if spec.kind == mf.WARPED_PRODUCT else mf.unit_sphere_quadrature(
        spec.n, "product_gauss" if spec.n <= 4 else "monte_carlo",
        64 if spec.n == 2 else 16, seed)

    if spec.kind == mf.CONSTANT_CURVATURE:
        cf = closed_form.ClosedFormJacobi(spec.c, spec.n)
        # relative past 1: on c < 0 the scalars grow like e^{sqrt|c| sigma}
        exact = np.stack(cf.eval_at(js.sigma[::200]), axis=-1)
        err = np.max(np.abs(js.cols[::200] - exact) / np.maximum(1.0, np.abs(exact)))
        checks.append(_check("propagated Jacobi matches closed form", err, 1e-6))
        # propagate_jacobi has already raised on a drift above the same
        # WRONSKIAN_TOL = 1e-8, so this record cannot fail: it is the
        # report's copy of the measured drift
        checks.append(_check("Wronskian conservation",
                             flow.wronskian_drift(js), 1e-8))

        sigmas = _sample_sigmas(rng, 20, 0.2, 4.8, cf.distance_to_singular)
        checks.append(_check(
            "gram-det identity det(H^T H) det((-1/f)') = 1",
            np.max(herglotz.check_key1(cf, sigmas)), 1e-8))
        checks.append(_check(
            "frame identity (Xi^T Xi) f' = Id",
            np.max(herglotz.check_xi_identity(cf, sigmas)), 1e-8))

        # the paper's hypothesis: the adapted complex structure extends over
        # the whole tangent bundle (c >= 0), so f and -1/f are Herglotz
        if spec.entire_tube:
            Fh = herglotz.HerglotzMatrix.from_constant_curvature(spec.c, spec.n)
            Gh = Fh.neg_inverse_function()
            zs = [complex(a, t) for a, t in zip(
                rng.uniform(-8, 8, 100), 10.0 ** rng.uniform(-3, 1, 100))]
            f_min = float(np.min(Fh.phi(zs).imag))
            g_min = float(np.min(Gh.phi(zs).imag))
            checks.append(_check("Im f positive definite",
                                 max(0.0, -f_min), 0.0))
            checks.append(_check("Im(-1/f) positive definite",
                                 max(0.0, -g_min), 0.0))
            bs = _sample_sigmas(rng, 50, 0.05, 10.0,
                                functools.partial(closed_form.g_pole_distance, spec.c))
            b_min = np.min(herglotz.check_b_decomposition(spec.c, spec.n, bs))
            checks.append(_check("origin-atom remainder PSD",
                                 max(0.0, -b_min), 1e-10))
            viol = 0.0
            eq_gap = 0.0
            for s in bs.tolist():  # floats: a power past the float range raises
                bound = herglotz.det_growth_bound(spec.c, spec.n, s)
                # sides past a float are logs: a violation fails outright
                viol = max(viol, bound.lhs - bound.rhs if bound.ok else math.inf)
                if spec.c == 0:
                    eq_gap = max(eq_gap, abs(bound.lhs - bound.rhs))
            checks.append(_check("determinant growth bound lhs <= sigma^(2n-2)",
                                 max(0.0, viol), 1e-10))
            if spec.c == 0:
                checks.append(_check("flat case saturates the bound", eq_gap, 0.0))

        worst = 0.0
        for a1, a2 in _psd_pairs(rng, 1000).values():
            margin, total = herglotz._minkowski_dets(a1, a2)
            worst = max(worst, float(np.max(-margin / np.maximum(1.0, np.abs(total)))))
        checks.append(_check("determinant superadditivity on PSD pairs",
                             max(0.0, worst), 1e-12))

        # short of the first conjugate point pi / sqrt(c), and bounded as c -> 0+
        T = 2.0 / math.sqrt(max(1.0, spec.c))
        total = counting.berger_bott_total(spec, x, T, quad, step=1e-3)
        oracle = _oracle_counting_total(spec, T)
        checks.append(_check("counting total vs closed-form integrand oracle",
                             abs(total - oracle) / max(1.0, oracle), 1e-4))

    elif spec.kind == mf.FLAT_TORUS:
        # cannot fail: propagate_jacobi's gate is the same 1e-8 (see above)
        checks.append(_check("Wronskian conservation",
                             flow.wronskian_drift(js), 1e-8))
        rng_s = _sample_sigmas(rng, 10, 0.2, 4.8, lambda s: np.full(len(s), math.inf))
        checks.append(_check(
            "gram-det identity det(H^T H) det((-1/f)') = 1",
            np.max(herglotz.check_key1(js, rng_s)), 1e-8))
        area = mf.sphere_surface_area(spec.n - 1)
        # one propagation to T = 5; the grids to T = 1 and 2 are its prefixes
        totals = counting.berger_bott_curve(
            spec, x, [1.0, 2.0, 5.0], quad, step=1e-3).values
        worst = 0.0
        for T, total in zip((1.0, 2.0, 5.0), totals):
            exact = area * T**spec.n / spec.n
            worst = max(worst, abs(total - exact) / exact)
        checks.append(_check("counting total vs volume formula", worst, 1e-3))
        oracle = counting.torus_count_integral_oracle(spec.basis, 5.0, 20000, seed)
        checks.append(_check("counting total vs lattice Monte Carlo oracle",
                             abs(totals[-1] - oracle) / max(1.0, oracle), 2e-2))
        curve = counting.berger_bott_curve(
            spec, x, np.arange(1.0, 31.0), quad, step=1e-2)
        report = counting.classify_growth(curve)
        deg_err = 0.0 if (report.kind == "polynomial"
                          and report.degree == spec.n) else 1.0
        checks.append(_check(f"growth classified polynomial({spec.n})", deg_err, 0.0))

    elif spec.kind == mf.WARPED_PRODUCT:
        # cannot fail: propagate_jacobi's gate is the same 1e-8 (see above)
        checks.append(_check("Wronskian conservation",
                             flow.wronskian_drift(js), 1e-8))
        sigmas = _sample_sigmas(rng, 12, 0.05 * T, 0.95 * T,
                                js.distance_to_singular, margin=0.1)
        checks.append(_check(
            "gram-det identity det(H^T H) det((-1/f)') = 1",
            np.max(herglotz.check_key1(js, sigmas)), 1e-5))
        checks.append(_check(
            "frame identity (Xi^T Xi) f' = Id",
            np.max(herglotz.check_xi_identity(js, sigmas)), 1e-5))
    return checks
