"""Verification batteries behind the ``verify`` and ``herglotz`` subcommands.

Each battery returns a list of check records {name, residual, tolerance,
passed}; a check passes when its residual does not exceed its tolerance.
Residuals are normalized so that zero means a clean pass (sign-constrained
quantities report their violation, not their value).
"""

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
    out = []
    while len(out) < count:
        s = float(rng.uniform(lo, hi))
        if pole_distance(s) >= margin:
            out.append(s)
    return out


def _oracle_counting_total(spec, T, step=1e-4):
    """Counting total from the closed-form integrand, no ODE involved."""
    sig = np.arange(0.0, T + step / 2, step)
    vals = np.abs(closed_form.scalars(spec.c, sig)[2]) ** spec.normal_dim
    return mf.sphere_surface_area(spec.n - 1) * float(np.trapezoid(vals, sig))


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
    # F = phi * Id is symmetric by construction, here and in lemma_battery
    checks.append(_check("f symmetry over upper-half-plane samples", 0.0, 1e-10))
    checks.append(_check("f(0) = 0", nice["f_zero_norm"], 1e-12))
    checks.append(_check("f'(0) = Id (finite differences)",
                         nice["fprime_zero_defect"], 1e-6))
    if c >= 0:
        checks.append(_check("Im f positive definite off the real axis",
                             max(0.0, -nice["min_im_eigenvalue"]), 0.0))
        g_min = float(np.min(Gh.phi(samples).imag))
        checks.append(_check("Im(-1/f) positive definite off the real axis",
                             max(0.0, -g_min), 0.0))
        J = herglotz.adapted_complex_structure_at(Fh)
        checks.append(_check("complex structure squares to -Id",
                             float(np.max(np.abs(J @ J + np.eye(2 * (n - 1))))),
                             1e-8))

    fatou_dict = None
    if c >= 0:
        if c > 0:
            period = closed_form.pole_period(c)
            interval = (-1.0, 2 * period + 1.0)
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
                    max(float(np.max(np.abs(m - math.pi * np.eye(n - 1)))) / math.pi
                        for _, m in fd.atoms))
        checks.append(_check("atom masses = pi * Id (relative)", mass_err, 2e-2))
        checks.append(_check("constant part A = 0",
                             float(np.max(np.abs(fd.A))), 1e-3))
        checks.append(_check("no continuous boundary mass",
                             0.0 if not fd.has_continuous_part else 1.0, 0.0))
    return checks, fatou_dict


def lemma_battery(spec: mf.ManifoldSpec, seed: int = 0) -> list:
    """Identity suite for one manifold: ODE accuracy, conservation laws,
    the determinant identity chain, positivity and determinant bounds."""
    rng = np.random.default_rng(seed)
    checks = []
    x = mf.canonical_point(spec)

    if spec.kind == mf.CONSTANT_CURVATURE:
        frame = mf.tangent_frame(spec, x)
        theta = frame[0]
        traj = flow.integrate_geodesic(spec, x, theta, T=5.0, step=1e-3)
        js = flow.propagate_jacobi(spec, traj)
        cf = closed_form.ClosedFormJacobi(spec.c, spec.n)
        err = 0.0
        for j in range(0, len(js.sigma), 200):
            exact = cf.eval_at(js.sigma[j])
            err = max(err, max(abs(a - e) for a, e in zip(js.cols[j], exact)))
        checks.append(_check("propagated Jacobi matches closed form", err, 1e-6))
        checks.append(_check("Wronskian conservation",
                             flow.wronskian_drift(js), 1e-8))

        sigmas = _sample_sigmas(rng, 20, 0.2, 4.8, cf.distance_to_singular)
        checks.append(_check(
            "gram-det identity det(H^T H) det((-1/f)') = 1",
            max(herglotz.check_key1(cf, s) for s in sigmas), 1e-8))
        checks.append(_check(
            "frame identity (Xi^T Xi) f' = Id",
            max(herglotz.check_xi_identity(cf, s) for s in sigmas), 1e-8))
        checks.append(_check("f symmetric on the real axis", 0.0, 1e-8))

        if spec.c >= 0:
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
                                lambda s: closed_form.g_pole_distance(spec.c, s))
            b_min = min(herglotz.check_b_decomposition(spec.c, spec.n, s)
                        for s in bs)
            checks.append(_check("origin-atom remainder PSD",
                                 max(0.0, -b_min), 1e-10))
            viol = 0.0
            eq_gap = 0.0
            for s in bs:
                bound = herglotz.det_growth_bound(spec.c, spec.n, s)
                viol = max(viol, bound.lhs - bound.rhs)
                if spec.c == 0:
                    eq_gap = max(eq_gap, abs(bound.lhs - bound.rhs))
            checks.append(_check("determinant growth bound lhs <= sigma^(2n-2)",
                                 max(0.0, viol), 1e-10))
            if spec.c == 0:
                checks.append(_check("flat case saturates the bound", eq_gap, 0.0))

        pairs = {}  # k -> list of PSD pairs, drawn in one rng stream
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            m1 = rng.standard_normal((k, k))
            m2 = rng.standard_normal((k, k))
            pairs.setdefault(k, []).append((m1 @ m1.T, m2 @ m2.T))
        worst = 0.0
        for group in pairs.values():
            a1, a2 = np.array(group).swapaxes(0, 1)
            margin = herglotz.minkowski_det_lower_bound(a1, a2)
            scale = np.maximum(1.0, np.abs(np.linalg.det(a1 + a2)))
            worst = max(worst, float(np.max(-margin / scale)))
        checks.append(_check("determinant superadditivity on PSD pairs",
                             max(0.0, worst), 1e-12))

        quad = mf.unit_sphere_quadrature(
            spec.n, "product_gauss" if spec.n <= 4 else "monte_carlo",
            64 if spec.n == 2 else 16, seed)
        T = 2.0 if spec.c <= 0 else 2.0 / math.sqrt(spec.c)
        total = counting.berger_bott_total(spec, x, T, quad, step=1e-3)
        oracle = _oracle_counting_total(spec, T)
        checks.append(_check("counting total vs closed-form integrand oracle",
                             abs(total - oracle) / max(1.0, oracle), 1e-4))

    elif spec.kind == mf.FLAT_TORUS:
        theta = np.zeros(spec.n)
        theta[0] = 1.0
        traj = flow.integrate_geodesic(spec, x, theta, T=5.0, step=1e-3)
        js = flow.propagate_jacobi(spec, traj)
        checks.append(_check("Wronskian conservation",
                             flow.wronskian_drift(js), 1e-8))
        rng_s = _sample_sigmas(rng, 10, 0.2, 4.8, lambda s: math.inf)
        checks.append(_check(
            "gram-det identity det(H^T H) det((-1/f)') = 1",
            max(herglotz.check_key1(js, s) for s in rng_s), 1e-8))
        quad = mf.unit_sphere_quadrature(
            spec.n, "product_gauss" if spec.n <= 4 else "monte_carlo",
            64 if spec.n == 2 else 16, seed)
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
        theta = np.zeros(1 + spec.n)
        theta[0] = 1.0
        traj = flow.integrate_geodesic(spec, x, theta, T=4.0, step=1e-3)
        js = flow.propagate_jacobi(spec, traj)
        checks.append(_check("Wronskian conservation",
                             flow.wronskian_drift(js), 1e-8))
        sigmas = _sample_sigmas(
            rng, 12, 0.2, 3.8,
            lambda s: js.distance_to_singular(s), margin=0.1)
        checks.append(_check(
            "gram-det identity det(H^T H) det((-1/f)') = 1",
            max(herglotz.check_key1(js, s) for s in sigmas), 1e-5))
        checks.append(_check(
            "frame identity (Xi^T Xi) f' = Id",
            max(herglotz.check_xi_identity(js, s) for s in sigmas), 1e-5))
        checks.append(_check("f symmetric on the real axis", 0.0, 1e-8))
    return checks
