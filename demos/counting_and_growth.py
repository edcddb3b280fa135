"""Counting geodesic arcs on model manifolds, and how fast the count grows.

The total number of geodesic arcs out of a base point, integrated over
target points, equals a double integral of the Jacobi-field determinant:
arc length along each geodesic, directions over the unit tangent sphere.
This script evaluates that integral on the round sphere and a flat torus,
checks it against closed forms and a direct count of arcs on the sphere,
and classifies the growth of the resulting curves.
"""

import math

import numpy as np

import geocount as gc

# ---------------------------------------------------------------------------
# 1. Round sphere: the integrand per direction is |sin(sigma)|, so the total
#    up to T = pi is Vol(S^1) * integral_0^pi sin = 4*pi.
# ---------------------------------------------------------------------------
sphere = gc.constant_curvature(1.0, 2)
x = gc.canonical_point(sphere)
quad = gc.unit_sphere_quadrature(2, "product_gauss", 64)

total = gc.berger_bott_total(sphere, x, math.pi, quad, step=1e-3)
print(f"round sphere, T=pi: counting integral = {total:.8f}")
print(f"                    closed-form value = {4 * math.pi:.8f}")

# The combinatorial side: arcs between two fixed points at distance d have
# lengths d + 2k*pi and 2k*pi - d, so they are countable directly.
for T in (2.0, 7.0, 26.0):
    print(f"arcs joining points at distance pi/2 with length <= {T:5.1f}: "
          f"{gc.count_sphere_arcs(math.pi / 2, T)}")

# ---------------------------------------------------------------------------
# 2. Flat torus: geodesic arcs from x to y correspond to lattice translates,
#    so the counting integral equals the area |B_T| = pi*T^2 of the length-T
#    disk: the translates of one cell tile the plane, whatever the lattice.
# ---------------------------------------------------------------------------
torus = gc.flat_torus(np.eye(2))
x_t = gc.canonical_point(torus)

print("\nflat torus (unit square):")
print(f"{'T':>4}  {'integral':>12}  {'|B_T|=pi*T^2':>12}")
for T in (1.0, 2.0, 5.0, 10.0):
    bb = gc.berger_bott_total(torus, x_t, T, quad, step=1e-3)
    print(f"{T:4.0f}  {bb:12.5f}  {math.pi * T * T:12.5f}")

# ---------------------------------------------------------------------------
# 3. Growth classification.  Polynomial growth of the counting integral is
#    the computational signature of a small loop space; exponential growth
#    is the hyperbolic contrast case.
# ---------------------------------------------------------------------------
T_values = np.arange(1.0, 31.0)

curves = {
    "torus n=2": gc.berger_bott_curve(torus, x_t, T_values, quad, step=1e-2),
    "sphere": gc.berger_bott_curve(sphere, x, T_values, quad, step=1e-2),
    "hyperbolic integrand": gc.CountingCurve(
        T_values, 2 * math.pi * (np.cosh(T_values) - 1.0), "contrast", "oracle"),
}

print("\ngrowth classification (fit on the upper half, held-out tail):")
for name, curve in curves.items():
    report = gc.classify_growth(curve)
    if report.kind == "polynomial":
        label = f"polynomial, degree {report.degree}"
    else:
        label = f"exponential, rate {report.rate:.3f}"
    print(f"  {name:22s} -> {label}  (holdout residual {report.fit_residual:.2e})")

# ---------------------------------------------------------------------------
# 4. The loop-space comparison on the sphere: partial Betti sums against the
#    normalized counting integral at cutoff C*k.  Both sides grow linearly,
#    so some constant works; the search reports the smallest on a grid.
# ---------------------------------------------------------------------------
result = gc.search_gromov_constant(gc.constant_curvature(1.0, 2), K=50,
                                   c_grid=(0.5, 1.0, 2.0, 5.0, 10.0),
                                   quad_order=64, step=1e-2)
print(f"\nBetti-sum inequality on the 2-sphere, k <= 50:")
for chk in result["checks"]:
    outcome = "holds" if chk.holds else f"fails at k={chk.first_failure_k}"
    print(f"  C = {chk.C:5.1f}: {outcome}")
print(f"smallest passing constant: {result['minimal_passing_C']}")
