"""Propagating Jacobi fields and locating conjugate points.

Two fundamental matrix solutions of Y'' + K(sigma) Y = 0 travel along every
geodesic: Xi with (Id, 0) initial data and H with (0, Id).  On every model
manifold K = kappa * Id, so Xi = xi * Id and H = eta * Id for two scalar
solutions, and the system stores only (xi, xi', eta, eta').  The zeros of
det Xi = xi^k and det H = eta^k are the singular set (conjugate points for
H); the Wronskian Xi'^T H - Xi^T H' is a conserved -Id and serves as an
integration check.
"""

import math

import numpy as np

import geocount as gc

# ---------------------------------------------------------------------------
# 1. Constant curvature: RK4 propagation against the exact sin/sinh families.
# ---------------------------------------------------------------------------
print("propagated vs closed-form solutions, sigma in [0, 10], step 1e-3:")
for c in (-1.0, 0.0, 1.0):
    spec = gc.constant_curvature(c, 3)
    x = gc.canonical_point(spec)
    theta = gc.orthonormal_frame(spec, x)[0]
    traj = gc.integrate_geodesic(spec, x, theta, T=10.0, step=1e-3)
    js = gc.propagate_jacobi(traj)
    cf = gc.ClosedFormJacobi(c, 3)
    worst = 0.0
    for j in range(0, len(js.sigma), 100):
        exact = cf.eval_at(js.sigma[j])  # (xi, xi', eta, eta')
        worst = max(worst, float(np.max(np.abs(js.cols[j] - exact))))
    print(f"  c = {c:4.1f}: max entry error {worst:.2e}, "
          f"Wronskian drift {gc.wronskian_drift(js):.2e}")

# ---------------------------------------------------------------------------
# 2. Conjugate points on the round sphere.  For n=2 the determinant of H is
#    sin(sigma) and changes sign at pi, 2pi; for n=3 it is sin^2 and only
#    touches zero, found as the sign change of the scalar eta = sin.
# ---------------------------------------------------------------------------
for n in (2, 3):
    spec = gc.constant_curvature(1.0, n)
    x = gc.canonical_point(spec)
    theta = gc.orthonormal_frame(spec, x)[0]
    traj = gc.integrate_geodesic(spec, x, theta, T=7.0, step=1e-3)
    js = gc.propagate_jacobi(traj)
    print(f"\nround sphere n={n}:")
    print(f"  det H zeros: {np.round(js.h_zeros, 8)}")
    print(f"  det Xi zeros: {np.round(js.xi_zeros, 8)}")
print(f"  (reference: pi = {math.pi:.8f}, pi/2 = {math.pi / 2:.8f})")

# ---------------------------------------------------------------------------
# 3. A warped product with sign-changing curvature profile.  The curvature
#    along the radial ray is -w''/w with w = 2 + cos(r); its average is
#    negative, so H grows on balance and no conjugate point appears.
# ---------------------------------------------------------------------------
spec = gc.warped_product("two_plus_cos", 3)
x = gc.canonical_point(spec)
traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), T=10.0, step=1e-3)
js = gc.propagate_jacobi(traj)
K = gc.curvature_along(spec, (x, np.array([1.0, 0, 0, 0])))
print("\nwarped product w(r) = 2 + cos(r), radial ray from r=1:")
print(f"  curvature profile at sigma = 0, 2, 4: "
      f"{[round(float(K.profile(s)), 4) for s in (0.0, 2.0, 4.0)]}")
print(f"  min det H on (0, 10]: {js.det_h[1:].min():.3e} (never vanishes)")
print(f"  det H zeros: {js.h_zeros}")

# ---------------------------------------------------------------------------
# 4. Dense output: the stored grid plus cubic Hermite interpolation gives
#    values between samples at the integrator's own accuracy.
# ---------------------------------------------------------------------------
spec = gc.constant_curvature(1.0, 2)
x = gc.canonical_point(spec)
traj = gc.integrate_geodesic(spec, x, gc.orthonormal_frame(spec, x)[0], 2.0, 1e-3)
js = gc.propagate_jacobi(traj)
s = 1.23456789
_, _, eta, _ = js.eval_at(s)
print(f"\ndense output at sigma = {s}:")
print(f"  eta = {eta:.12f}, sin = {math.sin(s):.12f}, "
      f"difference {abs(eta - math.sin(s)):.2e}")
