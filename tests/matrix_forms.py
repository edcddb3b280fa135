"""Matrix forms of geocount's scalar data, and other plain references.

Every curvature operator on the menu is kappa * Id, so the library carries
phi (F = phi * Id) and the Jacobi scalars (xi, xi', eta, eta') and builds a
matrix only where a result is one.  These helpers expand the scalars back to
the k x k forms, so tests can compare against the matrix formulas.  The
one-point golden-section search is the reference for herglotz's batched one;
the Gram-Schmidt frame, the sampled geodesic arrays and the row-by-row
sphere product rules are the bit references for the reflection frame,
``GeodesicTrajectory.at`` and the broadcast rules of
``unit_sphere_quadrature``.
"""

import math

import numpy as np

import geocount as gc
from geocount import closed_form
from geocount import manifolds as mf
from geocount.errors import InputError


def times_id(values, k):
    """values * Id: (k, k) for a scalar, (m, k, k) for a 1-d array."""
    values = np.asarray(values)
    return values[..., None, None] * np.eye(k, dtype=values.dtype)


def jacobi_matrices(values, k):
    """(Xi, Xi', H, H') from one (xi, xi', eta, eta'), or stacks from columns."""
    return tuple(times_id(v, k) for v in values)


def jacobi_stacks(js):
    """(Xi, Xi', H, H') of a JacobiSystem as (m+1, k, k) stacks."""
    return jacobi_matrices(js.cols.T, js.dim)


def closed_form_matrices(c, sigma, n):
    """Exact (Xi, Xi', H, H') for constant curvature c in dimension n."""
    return jacobi_matrices(gc.ClosedFormJacobi(c, n).eval_at(sigma), n - 1)


def golden_min_one_point(f, a, b, tol):
    """Golden-section search for a minimizer of a unimodal scalar f on
    [a, b], one evaluation per step; it stops once b - a <= tol or the
    bracket stops shrinking (a < c < d < b fails, as where tol is below the
    spacing of doubles)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# a projected coordinate direction keeping at most this share of its own
# metric norm^2 is dropped: relative, so the warp's scale does not matter,
# and large enough that a kept vector loses at most ~1e-14 to cancellation;
# a frame always completes while the share is below 1 / (number of
# coordinates)
FRAME_SKIP_SHARE = 1e-4


def gram_schmidt_frame(spec, x, normals=()):
    """n - len(normals) orthonormal tangent vectors at x, one per row,
    orthogonal to every vector of ``normals``.

    Modified Gram-Schmidt under diag(g) over the coordinate directions in a
    fixed order: each direction e_i loses its component along the model's
    normal (x on curved space forms, (0, y) on warped products), then along
    each of ``normals``, then along the vectors already kept, and is kept
    unless its metric norm^2 is at most FRAME_SKIP_SHARE * |g_i|.  Raises
    InputError when too few vectors remain.
    """
    x = np.asarray(x, dtype=float)
    g = mf.metric_diagonal(spec, x)
    count = spec.n - len(normals)
    if spec.kind == mf.CONSTANT_CURVATURE and spec.c != 0:
        normals = [x, *normals]
    elif spec.kind == mf.WARPED_PRODUCT:
        normals = [np.concatenate(([0.0], x[1:])), *normals]
    frame = []
    for i in range(len(x)):
        v = np.zeros(len(x))
        v[i] = 1.0
        for nv in normals:
            v = v - nv * ((g * v * nv).sum() / (g * nv * nv).sum())
        for e in frame:
            v = v - e * (g * v * e).sum()
        norm2 = (g * v * v).sum()  # positive definite on the tangent space
        if norm2 > FRAME_SKIP_SHARE * abs(g[i]):
            frame.append(v / math.sqrt(norm2))
        if len(frame) == count:
            return np.array(frame)
    raise InputError(
        f"manifolds.orthonormal_frame: could not complete a frame of {count} "
        f"vectors at x={x}")


def sampled_geodesic(spec, x, theta, sigma):
    """(positions, velocities), (m+1, d) each, on the grid sigma: the
    three closed-form branches as arrays."""
    m = len(sigma) - 1
    if spec.kind == mf.FLAT_TORUS:
        positions = mf.torus_wrap(spec.basis, x + sigma[:, None] * theta)
        velocities = np.tile(theta, (m + 1, 1))
    elif spec.kind == mf.WARPED_PRODUCT:
        r = mf.radial_ray(spec, x, theta)(sigma)
        positions = np.tile(x, (m + 1, 1))
        positions[:, 0] = r
        velocities = np.tile(theta, (m + 1, 1))
    else:
        xi, dxi, eta, deta = closed_form.scalars(spec.c, sigma)
        positions = xi[:, None] * x + eta[:, None] * theta
        velocities = dxi[:, None] * x + deta[:, None] * theta
    return positions, velocities


def sphere_rule_by_rows(n, m):
    """(nodes, weights) of the product rule of order m on S^(n-1), n = 3 or
    4, filled one polar row at a time and the nodes then scaled to unit norm.
    S^2: m Gauss-Legendre cosines times 2m uniform azimuths; S^3: m
    Gauss-Chebyshev polar angles times the S^2 rule."""
    if n == 3:
        z, wz = mf.gauss_legendre(m)
        nphi = 2 * m
        phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
        rho = np.sqrt(1.0 - z**2)
        nodes = np.empty((m * nphi, 3))
        weights = np.empty(m * nphi)
        idx = 0
        for i in range(m):
            nodes[idx:idx + nphi, 0] = rho[i] * np.cos(phi)
            nodes[idx:idx + nphi, 1] = rho[i] * np.sin(phi)
            nodes[idx:idx + nphi, 2] = z[i]
            weights[idx:idx + nphi] = wz[i] * (2.0 * math.pi / nphi)
            idx += nphi
    else:
        psi = np.arange(1, m + 1) * math.pi / (m + 1)
        wpsi = (math.pi / (m + 1)) * np.sin(psi) ** 2
        sub_nodes, sub_weights = sphere_rule_by_rows(3, m)
        size = len(sub_weights)
        nodes = np.empty((m * size, 4))
        weights = np.empty(m * size)
        idx = 0
        for j in range(m):
            nodes[idx:idx + size, 0] = math.cos(psi[j])
            nodes[idx:idx + size, 1:] = math.sin(psi[j]) * sub_nodes
            weights[idx:idx + size] = wpsi[j] * sub_weights
            idx += size
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    return nodes, weights


def random_point(spec, rng, radial=False):
    """A random point of spec and a random unit tangent direction there.

    On a warped product the radius is drawn in [-2, 2] and at least 0.2
    inside the warp's domain, and the direction is +-e_0 when ``radial``;
    on the hyperboloid the spacelike part is U(0, 3) * N(0, I)."""
    n = spec.n
    if spec.kind == mf.WARPED_PRODUCT:
        lo, hi = spec.warp.domain
        r0 = rng.uniform(max(lo + 0.2, -2.0), min(hi - 0.2, 2.0))
        y = rng.standard_normal(n)
        x = np.concatenate(([r0], y / np.linalg.norm(y)))
    elif spec.kind == mf.CONSTANT_CURVATURE and spec.c > 0:
        x = rng.standard_normal(n + 1)
        x *= 1.0 / (np.linalg.norm(x) * math.sqrt(spec.c))
    elif spec.kind == mf.CONSTANT_CURVATURE and spec.c < 0:
        y = rng.uniform(0.0, 3.0) * rng.standard_normal(n)
        x = np.concatenate(([math.sqrt(1.0 / -spec.c + y @ y)], y))
    else:
        x = rng.uniform(-3.0, 3.0) * rng.standard_normal(n)
    if spec.kind == mf.WARPED_PRODUCT and radial:
        return x, np.concatenate(([rng.choice([-1.0, 1.0])], np.zeros(n)))
    g = mf.metric_diagonal(spec, x)
    v = rng.standard_normal(len(x))
    if spec.kind == mf.WARPED_PRODUCT:
        v[1:] -= (v[1:] @ x[1:]) * x[1:]
    elif spec.kind == mf.CONSTANT_CURVATURE and spec.c != 0:
        v -= np.sum(g * v * x) / np.sum(g * x * x) * x
    return x, v / math.sqrt(np.sum(g * v * v))
