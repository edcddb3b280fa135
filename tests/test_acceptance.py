"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances are fixed here, not calibrated.
"""

import math
import time

import numpy as np

import geocount as gc
from geocount.closed_form import ClosedFormJacobi, g_pole_distance
from matrix_forms import closed_form_matrices, jacobi_stacks


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {name}  {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def _off_pole_samples(rng, count, c, lo, hi, margin=0.05):
    out = []
    while len(out) < count:
        s = float(rng.uniform(lo, hi))
        if c <= 0 or g_pole_distance(c, complex(s)) >= margin:
            if s >= margin:
                out.append(s)
    return out


def test_criterion_1_counting_total_round_sphere():
    spec = gc.constant_curvature(1.0, 2)
    x = gc.canonical_point(spec)
    quad = gc.unit_sphere_quadrature(2, "product_gauss", 64)
    t0 = time.perf_counter()
    total = gc.berger_bott_total(spec, x, math.pi, quad, 1e-3)
    elapsed = time.perf_counter() - t0
    err = abs(total - 4 * math.pi)
    _criterion(1, "round-sphere counting total = 4*pi",
               err <= 1e-4 and elapsed < 5.0,
               f"err={err:.2e} time={elapsed:.2f}s")


def test_criterion_2_torus_oracle_equivalence():
    spec = gc.flat_torus(np.eye(2))
    x = gc.canonical_point(spec)
    quad = gc.unit_sphere_quadrature(2, "product_gauss", 64)
    worst_area = 0.0
    worst_mc = 0.0
    for T in (1.0, 2.0, 5.0, 10.0):
        total = gc.berger_bott_total(spec, x, T, quad, 1e-3)
        exact = math.pi * T * T
        worst_area = max(worst_area, abs(total - exact) / exact)
        oracle = gc.torus_count_integral_oracle(np.eye(2), T, 100000, seed=0)
        worst_mc = max(worst_mc, abs(total - oracle) / max(1.0, oracle))
    _criterion(2, "torus counting equals pi*T^2 and the lattice oracle",
               worst_area <= 1e-3 and worst_mc <= 0.02,
               f"area_rel={worst_area:.2e} mc_rel={worst_mc:.2e}")


def test_criterion_3_jacobi_ode_accuracy():
    worst_entry = 0.0
    worst_wronskian = 0.0
    for c in (-1.0, 0.0, 1.0):
        spec = gc.constant_curvature(c, 3)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 10.0, 1e-3)
        js = gc.propagate_jacobi(spec, traj)
        stacks = jacobi_stacks(js)
        for j in range(0, len(js.sigma), 37):
            exact = closed_form_matrices(c, js.sigma[j], 3)
            approx = tuple(Y[j] for Y in stacks)
            worst_entry = max(worst_entry,
                              max(float(np.max(np.abs(a - e)))
                                  for a, e in zip(approx, exact)))
        worst_wronskian = max(worst_wronskian, gc.wronskian_drift(js))
    _criterion(3, "propagated Jacobi matches closed forms on [0,10]",
               worst_entry <= 1e-6 and worst_wronskian <= 1e-8,
               f"entry={worst_entry:.2e} wronskian={worst_wronskian:.2e}")


def test_criterion_4_measure_recovery():
    Gh1 = gc.HerglotzMatrix.from_constant_curvature(1.0, 3).neg_inverse_function()
    fd1 = gc.stieltjes_invert(Gh1, (-1.0, 7.0))
    expected = [0.0, math.pi, 2 * math.pi]
    loc_err = (math.inf if len(fd1.atoms) != 3 else
               max(abs(t - e) for (t, _), e in zip(fd1.atoms, expected)))
    mass_err = (math.inf if len(fd1.atoms) != 3 else
                max(float(np.max(np.abs(m - math.pi * np.eye(2)))) / math.pi
                    for _, m in fd1.atoms))
    Gh0 = gc.HerglotzMatrix.from_constant_curvature(0.0, 3).neg_inverse_function()
    fd0 = gc.stieltjes_invert(Gh0, (-1.0, 1.0))
    a_err = max(float(np.max(np.abs(fd1.A))), float(np.max(np.abs(fd0.A))))
    _criterion(4, "boundary measure: atoms {0, pi, 2pi}, masses pi*Id, A = 0",
               loc_err <= 1e-4 and mass_err <= 0.02 and a_err <= 1e-3,
               f"loc={loc_err:.2e} mass_rel={mass_err:.2e} A={a_err:.2e}")


def test_criterion_5_identity_suite():
    rng = np.random.default_rng(20)
    worst_closed = 0.0
    for c in (0.0, 1.0):
        cf = ClosedFormJacobi(c, 3)
        count = 0
        while count < 20:
            s = float(rng.uniform(0.1, 9.5))
            if cf.distance_to_singular(s) < 0.05:
                continue
            worst_closed = max(worst_closed, gc.check_key1(cf, s),
                               gc.check_xi_identity(cf, s))
            count += 1
    spec = gc.warped_product("one_plus_r2", 3)
    x = gc.canonical_point(spec)
    traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), 4.0, 1e-3)
    js = gc.propagate_jacobi(spec, traj)
    worst_ode = 0.0
    for _ in range(20):
        s = float(rng.uniform(0.15, 3.8))
        if js.distance_to_singular(s) < 0.1:
            continue
        worst_ode = max(worst_ode, gc.check_key1(js, s),
                        gc.check_xi_identity(js, s))
    _criterion(5, "identity chain residuals (closed forms and warped ODE)",
               worst_closed <= 1e-8 and worst_ode <= 1e-5,
               f"closed={worst_closed:.2e} ode={worst_ode:.2e}")


def test_criterion_6_positivity_suite():
    rng = np.random.default_rng(6)
    worst = math.inf
    for c in (0.0, 1.0):
        Fh = gc.HerglotzMatrix.from_constant_curvature(c, 3)
        Gh = Fh.neg_inverse_function()
        for _ in range(100):
            z = complex(rng.uniform(-8, 8), 10.0 ** rng.uniform(-3, 1))
            worst = min(worst, np.min(np.linalg.eigvalsh(Fh(z).imag)),
                        np.min(np.linalg.eigvalsh(Gh(z).imag)))
    b_worst = math.inf
    for c in (0.0, 1.0):
        samples = _off_pole_samples(rng, 50, c, 0.05, 10.0)
        for s in samples:
            b_worst = min(b_worst, gc.check_b_decomposition(c, 3, s))
    _criterion(6, "Im f and Im(-1/f) positive definite; origin remainder PSD",
               worst > 0 and b_worst >= -1e-10,
               f"min_im_eig={worst:.2e} min_b={b_worst:.2e}")


def test_criterion_7_minkowski_inequality():
    rng = np.random.default_rng(7)
    violations = 0
    worst = 0.0
    for _ in range(10000):
        k = int(rng.integers(1, 7))
        m1 = rng.standard_normal((k, k))
        m2 = rng.standard_normal((k, k))
        a1, a2 = m1 @ m1.T, m2 @ m2.T
        margin = gc.minkowski_det_lower_bound(a1, a2)
        scale = max(1.0, abs(float(np.linalg.det(a1 + a2))))
        if margin < -1e-12 * scale:
            violations += 1
        worst = min(worst, margin / scale)
    _criterion(7, "determinant superadditivity on 10^4 seeded PSD pairs",
               violations == 0, f"violations={violations} worst={worst:.2e}")


def test_criterion_8_determinant_growth_bound():
    rng = np.random.default_rng(8)
    all_ok = True
    eq_gap = 0.0
    for c in (0.0, 1.0):
        for n in (2, 3, 4):
            for s in _off_pole_samples(rng, 100, c, 1e-3, 10.0):
                bound = gc.det_growth_bound(c, n, s)
                all_ok = all_ok and bound.ok
                if c == 0.0:
                    eq_gap = max(eq_gap, abs(bound.lhs - bound.rhs))
    _criterion(8, "1/det((-1/f)') <= sigma^(2n-2), equality when flat",
               all_ok and eq_gap == 0.0,
               f"all_ok={all_ok} flat_equality_gap={eq_gap:.2e}")


def test_criterion_9_growth_classification():
    T = np.arange(1.0, 31.0)
    results = {}

    for n in (2, 3):
        spec = gc.flat_torus(np.eye(n))
        x = gc.canonical_point(spec)
        quad = gc.unit_sphere_quadrature(n, "product_gauss", 64 if n == 2 else 16)
        curve = gc.berger_bott_curve(spec, x, T, quad, 1e-2)
        results[f"torus{n}"] = gc.classify_growth(curve)

    spec = gc.constant_curvature(1.0, 2)
    quad = gc.unit_sphere_quadrature(2, "product_gauss", 64)
    curve = gc.berger_bott_curve(spec, gc.canonical_point(spec), T, quad, 1e-2)
    results["sphere"] = gc.classify_growth(curve)

    hyper = gc.CountingCurve(T, 2 * math.pi * (np.cosh(T) - 1.0),
                             "hyperbolic-integrand", "oracle")
    results["hyperbolic"] = gc.classify_growth(hyper)

    ok = (results["torus2"].kind == "polynomial" and results["torus2"].degree == 2
          and results["torus3"].kind == "polynomial" and results["torus3"].degree == 3
          and results["sphere"].kind == "polynomial" and results["sphere"].degree == 1
          and results["hyperbolic"].kind == "exponential")
    detail = " ".join(
        f"{k}={v.kind}({v.degree if v.degree is not None else round(v.rate, 3)})"
        for k, v in results.items())
    _criterion(9, "growth classes: torus n, sphere 1, hyperbolic exponential",
               ok, detail)


def test_criterion_10_growth_inequality_constant():
    res = gc.search_gromov_constant(gc.constant_curvature(1.0, 2), 50,
                                    (0.5, 1.0, 2.0, 5.0, 10.0),
                                    quad_order=64, step=1e-2)
    minimal = res["minimal_passing_C"]
    _criterion(10, "Betti sums bounded by the counting integral for some C",
               minimal is not None, f"minimal_passing_C={minimal}")
