"""The determinant identity chain and the inequalities built on it.

The Gram determinant of the (0, Id) Jacobi solution equals the reciprocal
of det((-1/f)'), and removing the origin atom from the derivative
representation leaves a positive semidefinite remainder; determinant
superadditivity then bounds the whole thing by sigma^(2n-2).  Every link is
checked numerically here, on closed forms and on an ODE-propagated warped
product.
"""

import math

import numpy as np

import geocount as gc
from geocount.closed_form import ClosedFormJacobi

# ---------------------------------------------------------------------------
# 1. The identity det(H^T H) * det((-1/f)'(sigma)) = 1 and its twin
#    (Xi^T Xi) f'(sigma) = Id, on closed forms.
# ---------------------------------------------------------------------------
print("identity residuals on closed forms:")
for c in (0.0, 1.0, -1.0):
    cf = ClosedFormJacobi(c, 3)
    sigma = 1.1
    print(f"  c = {c:4.1f}, sigma = {sigma}: "
          f"gram-det {gc.check_key1(cf, sigma):.2e}, "
          f"frame {gc.check_xi_identity(cf, sigma):.2e}")

# same identities on a warped product where only the ODE knows the answer
spec = gc.warped_product("one_plus_r2", 3)
x = gc.canonical_point(spec)
traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), 4.0, 1e-3)
js = gc.propagate_jacobi(traj)
print("identity residuals on the warped product (ODE-propagated):")
for sigma in (0.7, 1.3, 2.5):
    print(f"  sigma = {sigma}: gram-det {gc.check_key1(js, sigma):.2e}, "
          f"frame {gc.check_xi_identity(js, sigma):.2e}")

# ---------------------------------------------------------------------------
# 2. Determinant superadditivity on the PSD cone (the engine of the bound):
#    det(A1 + A2) >= det A1 + det A2.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(0)
worst = math.inf
for _ in range(2000):
    k = int(rng.integers(1, 7))
    m1, m2 = rng.standard_normal((2, k, k))
    margin = gc.minkowski_det_lower_bound(m1 @ m1.T, m2 @ m2.T)
    worst = min(worst, margin)
print(f"\nsmallest superadditivity margin over 2000 random PSD pairs: {worst:.3e}")
print(f"equality case det(A + 0): margin = "
      f"{gc.minkowski_det_lower_bound(np.eye(3), np.zeros((3, 3)))}")

# ---------------------------------------------------------------------------
# 3. The remainder after removing the origin atom is PSD, and the resulting
#    determinant bound 1/det((-1/f)') <= sigma^(2n-2) holds, with equality
#    exactly in the flat case.
# ---------------------------------------------------------------------------
print("\nbound 1/det((-1/f)') <= sigma^(2n-2) at sigma = 2:")
for c in (0.0, 1.0):
    for n in (2, 3, 4):
        lhs, rhs, ok = gc.det_growth_bound(c, n, 2.0)
        tag = "equality" if lhs == rhs else f"slack {rhs - lhs:.4f}"
        print(f"  c = {c:3.1f}, n = {n}: lhs = {lhs:10.4f}, rhs = {rhs:8.1f} ({tag})")
print("hyperbolic contrast (must violate for large sigma):")
print(f"  c = -1, n = 2, sigma = 5: {gc.det_growth_bound(-1.0, 2, 5.0)}")

print("\norigin-remainder min eigenvalue (PSD means >= 0):")
for c in (0.0, 1.0):
    vals = [gc.check_b_decomposition(c, 3, s) for s in (0.5, 1.0, 2.0)]
    print(f"  c = {c:3.1f}: {[f'{v:.4f}' for v in vals]}")

# ---------------------------------------------------------------------------
# 4. The complex structure encoded by f(i): the matrix J on the two frame
#    blocks squares to -Id, and with Re f(i) = 0 it maps the first block to
#    (Im f(i))^{-1} times the second.
# ---------------------------------------------------------------------------
for c in (0.0, 1.0):
    Fh = gc.herglotz.HerglotzMatrix.from_constant_curvature(c, 3)
    J = gc.adapted_complex_structure_at(Fh)
    print(f"\ncomplex structure for c = {c}:")
    print(np.round(J, 6))
print(f"(for c = 1 the lower-left block is 1/tanh(1) = {1 / math.tanh(1.0):.6f})")
