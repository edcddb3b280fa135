"""Model manifolds, curvature data along geodesics, and direction quadrature.

The menu is deliberately small: space forms of constant curvature, flat tori,
and rotationally symmetric warped products.  Every member has closed-form
geodesics (warped products along radial rays) and a curvature operator along
the geodesic that is a scalar profile times the identity on the normal space,
which is exactly the data the matrix Jacobi equation consumes.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CatalogError, ConfigurationError, DomainError, InputError

CONSTANT_CURVATURE = "constant_curvature"
FLAT_TORUS = "flat_torus"
WARPED_PRODUCT = "warped_product"


def sphere_surface_area(m: int) -> float:
    """Surface measure of the unit m-sphere embedded in R^(m+1).

    Gamma((m+1)/2) overflows from m = 343 on; there the area (below 1e-200
    by then) is taken through log Gamma instead.
    """
    h = (m + 1) / 2.0
    try:
        return 2.0 * math.pi**h / math.gamma(h)
    except OverflowError:
        return 2.0 * math.exp(h * math.log(math.pi) - math.lgamma(h))


# ---------------------------------------------------------------------------
# warp catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WarpFunction:
    """Scalar profile of a rotationally symmetric metric dr^2 + w(r)^2 g_sphere.

    ``value`` (w) and ``d2`` (its exact second derivative) are numpy
    functions of an array of radii; the curvature along a radial geodesic is
    -w''/w, one array expression.  ``domain`` is the open interval of r.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    domain: tuple = (-math.inf, math.inf)

    def check_domain(self, r) -> None:
        """Raise DomainError naming the first radius outside the domain."""
        lo, hi = self.domain
        r = np.asarray(r, dtype=float)
        bad = np.flatnonzero(~((lo < r) & (r < hi)))
        if bad.size:
            raise DomainError(
                f"manifolds.warp: parameter r={float(r.flat[bad[0]])} outside "
                f"domain ({lo}, {hi}) of warp '{self.name}'"
            )


WARP_CATALOG = {
    # w(r) = r on (0, inf): Euclidean space in polar form, curvature 0
    "identity": WarpFunction("identity", lambda r: r, np.zeros_like, (0.0, math.inf)),
    # w(r) = 1 + r^2: curvature profile -2/(1+r^2), smooth and nonconstant
    "one_plus_r2": WarpFunction(
        "one_plus_r2", lambda r: 1.0 + r * r, lambda r: np.full_like(r, 2.0)
    ),
    # w(r) = 2 + cos r: sign-changing curvature profile cos(r)/(2+cos r)
    "two_plus_cos": WarpFunction(
        "two_plus_cos", lambda r: 2.0 + np.cos(r), lambda r: -np.cos(r)
    ),
    # w(r) = cosh r: constant curvature -1 in disguise
    "cosh": WarpFunction("cosh", np.cosh, np.cosh),
    # w(r) = sin r on (0, pi): the round sphere in polar form
    "sin": WarpFunction("sin", np.sin, lambda r: -np.sin(r), (0.0, math.pi)),
}


def warp_by_name(name: str) -> WarpFunction:
    try:
        return WARP_CATALOG[name]
    except KeyError:
        raise CatalogError(
            f"manifolds.warp_by_name: parameter name='{name}' not in catalog "
            f"{sorted(WARP_CATALOG)}"
        ) from None


# ---------------------------------------------------------------------------
# manifold specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifoldSpec:
    """Immutable description of one model manifold.

    ``entire_tube`` records whether the adapted complex structure extends over
    the whole tangent bundle; it is declared, not detected, and may only be
    true for nonnegatively curved members.
    """

    kind: str
    n: int
    c: float | None = None
    basis: np.ndarray | None = None
    warp: WarpFunction | None = None
    entire_tube: bool = False
    volume: float = math.inf
    base_radius: float = 1.0  # warped products: r-coordinate of the base point

    @property
    def normal_dim(self) -> int:
        return self.n - 1

    @property
    def label(self) -> str:
        if self.kind == CONSTANT_CURVATURE:
            return f"constant_curvature(c={self.c:g},n={self.n})"
        if self.kind == FLAT_TORUS:
            return f"flat_torus(n={self.n},det={abs(np.linalg.det(self.basis)):g})"
        return f"warped_product({self.warp.name},n={self.n})"


def constant_curvature(c: float, n: int) -> ManifoldSpec:
    """Space form of constant sectional curvature c and dimension n >= 2."""
    if n < 2:
        raise InputError(f"manifolds.constant_curvature: parameter n={n} must be >= 2")
    c = float(c)
    if not math.isfinite(c):
        raise InputError(f"manifolds.constant_curvature: parameter c={c} must be finite")
    if c > 0:
        radius = 1.0 / math.sqrt(c)
        area = sphere_surface_area(n)
        try:
            volume = radius**n * area
        except OverflowError:  # radius^n beyond the float range, c near 0
            volume = math.inf
    else:
        volume = math.inf
    return ManifoldSpec(
        kind=CONSTANT_CURVATURE, n=n, c=c, entire_tube=(c >= 0), volume=volume
    )


def flat_torus(basis) -> ManifoldSpec:
    """Flat torus R^n modulo the lattice spanned by the rows of ``basis``."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise InputError(
            f"manifolds.flat_torus: parameter basis has shape {basis.shape}, "
            "expected a square matrix"
        )
    n = basis.shape[0]
    if n < 2:
        raise InputError(f"manifolds.flat_torus: parameter n={n} must be >= 2")
    if not np.all(np.isfinite(basis)):
        raise InputError("manifolds.flat_torus: parameter basis has non-finite entries")
    det = np.linalg.det(basis)
    if abs(det) < 1e-12:
        raise InputError("manifolds.flat_torus: parameter basis is singular")
    basis = basis.copy()
    basis.setflags(write=False)
    return ManifoldSpec(
        kind=FLAT_TORUS, n=n, c=0.0, basis=basis, entire_tube=True, volume=abs(det)
    )


def warped_product(
    warp, n: int, entire_tube: bool = False, base_radius: float = 1.0
) -> ManifoldSpec:
    """Rotationally symmetric metric dr^2 + w(r)^2 g on an interval times a sphere.

    Geodesics are supported along the radial direction only; that is enough to
    exercise every Jacobi-field identity with a genuinely nonconstant
    curvature profile.
    """
    if isinstance(warp, str):
        warp = warp_by_name(warp)
    if n < 2:
        raise InputError(f"manifolds.warped_product: parameter n={n} must be >= 2")
    warp.check_domain(base_radius)
    if warp.value(base_radius) <= 0:
        raise InputError(
            f"manifolds.warped_product: warp '{warp.name}' not positive at "
            f"base_radius={base_radius}"
        )
    lo, hi = warp.domain
    if math.isfinite(lo) and math.isfinite(hi):
        u, gw = np.polynomial.legendre.leggauss(64)
        r = 0.5 * (hi - lo) * u + 0.5 * (hi + lo)
        volume = sphere_surface_area(n - 1) * 0.5 * (hi - lo) * float(
            np.sum(gw * warp.value(r) ** (n - 1))
        )
    else:
        volume = math.inf
    return ManifoldSpec(
        kind=WARPED_PRODUCT,
        n=n,
        warp=warp,
        entire_tube=entire_tube,
        volume=volume,
        base_radius=float(base_radius),
    )


# ---------------------------------------------------------------------------
# point / tangent-space helpers
# ---------------------------------------------------------------------------

def ambient_signature(spec: ManifoldSpec) -> np.ndarray:
    """Diagonal of the ambient bilinear form used to represent the metric."""
    if spec.kind == CONSTANT_CURVATURE:
        if spec.c > 0:
            return np.ones(spec.n + 1)
        if spec.c < 0:
            sig = np.ones(spec.n + 1)
            sig[0] = -1.0  # hyperboloid model sits in Minkowski space
            return sig
        return np.ones(spec.n)
    if spec.kind == FLAT_TORUS:
        return np.ones(spec.n)
    raise ConfigurationError(
        "manifolds.ambient_signature: warped products use block metrics, "
        "not a flat ambient form"
    )


def canonical_point(spec: ManifoldSpec) -> np.ndarray:
    """A convenient base point; all members here are homogeneous enough."""
    if spec.kind == CONSTANT_CURVATURE:
        if spec.c == 0:
            return np.zeros(spec.n)
        x = np.zeros(spec.n + 1)
        x[0] = 1.0 / math.sqrt(abs(spec.c))
        return x
    if spec.kind == FLAT_TORUS:
        return np.zeros(spec.n)
    # warped product: (r, point on the unit fiber sphere in R^n)
    x = np.zeros(1 + spec.n)
    x[0] = spec.base_radius
    x[1] = 1.0
    return x


def metric_dot(spec: ManifoldSpec, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Riemannian inner product of tangent vectors u, v at the point x."""
    if spec.kind == WARPED_PRODUCT:
        w = spec.warp.value(x[0])
        return float(u[0] * v[0] + w * w * np.dot(u[1:], v[1:]))
    sig = ambient_signature(spec)
    return float(np.sum(sig * u * v))


def tangent_frame(spec: ManifoldSpec, x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space at x, one vector per row.

    Deterministic: Gram-Schmidt over the ambient coordinate directions in a
    fixed order.  Used to turn abstract quadrature nodes in R^n into
    directions in T_x M.
    """
    n = spec.n
    if spec.kind == FLAT_TORUS or (spec.kind == CONSTANT_CURVATURE and spec.c == 0):
        return np.eye(n)
    if spec.kind == CONSTANT_CURVATURE:
        sig = ambient_signature(spec)
        d = n + 1
        frame = []
        for i in range(d):
            v = np.zeros(d)
            v[i] = 1.0
            v = v - x * (np.sum(sig * v * x) / np.sum(sig * x * x))
            for e in frame:
                v = v - e * np.sum(sig * v * e)
            norm2 = np.sum(sig * v * v)  # positive definite on the tangent space
            if norm2 > 1e-12:
                frame.append(v / math.sqrt(norm2))
            if len(frame) == n:
                break
        return np.array(frame)
    # warped product: radial direction first, then normalized fiber directions
    r, y = x[0], x[1:]
    w = spec.warp.value(r)
    frame = [np.concatenate(([1.0], np.zeros(n)))]
    fiber = []
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        v = v - y * np.dot(y, v)
        for e in fiber:
            v = v - e * np.dot(v, e)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            fiber.append(v / norm)
        if len(fiber) == n - 1:
            break
    for t in fiber:
        frame.append(np.concatenate(([0.0], t / w)))
    return np.array(frame)


def torus_wrap(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Representatives of the rows of x, shape (..., n), in the fundamental
    domain [0,1)^n . basis, with one solve for the whole stack."""
    coeff = np.linalg.solve(basis.T, np.reshape(x, (-1, basis.shape[0])).T).T
    return np.reshape((coeff - np.floor(coeff)) @ basis, np.shape(x))


def require_unit_direction(spec: ManifoldSpec, x: np.ndarray, theta: np.ndarray) -> None:
    norm2 = metric_dot(spec, x, theta, theta)
    if abs(norm2 - 1.0) > 1e-8:
        raise InputError(
            f"manifolds: direction has metric norm^2 = {norm2!r}, expected 1"
        )


def radial_ray(spec: ManifoldSpec, x: np.ndarray, theta: np.ndarray):
    """The radius sigma -> r0 +- sigma along a warped product's radial geodesic.

    Warped products support radial directions only: any other ``theta``
    raises ConfigurationError.  The returned map takes an array of arc
    lengths and raises DomainError where the ray leaves the warp's domain.
    """
    if abs(abs(theta[0]) - 1.0) > 1e-10 or np.linalg.norm(theta[1:]) > 1e-10:
        raise ConfigurationError(
            "manifolds.radial_ray: warped products support radial "
            f"directions only, got theta={theta}"
        )
    r0, sign = float(x[0]), (1.0 if theta[0] > 0 else -1.0)

    def radius(sigma):
        r = r0 + sign * np.asarray(sigma, dtype=float)
        spec.warp.check_domain(r)
        return r

    return radius


# ---------------------------------------------------------------------------
# curvature along a geodesic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureFrameOperator:
    """The operator v -> R(v, gamma')gamma' on the normal space along gamma.

    Expressed in a parallel orthonormal frame, so the evaluator returns a
    symmetric (n-1) x (n-1) matrix as a function of arc length.  For every
    member of the menu the matrix is scalar_profile(sigma) * Id, and the
    scalar profile is exposed for vectorized residual checks.
    """

    dim: int
    scalar_profile: Callable[[np.ndarray], np.ndarray]

    def __call__(self, sigma: float) -> np.ndarray:
        return float(self.scalar_profile(np.asarray(sigma))) * np.eye(self.dim)

    def profile(self, sigma) -> np.ndarray:
        return self.scalar_profile(np.asarray(sigma, dtype=float))


def curvature_along(spec: ManifoldSpec, geodesic_initial) -> CurvatureFrameOperator:
    """Curvature operator along the geodesic with the given (point, direction).

    For the homogeneous kinds the result does not depend on the initial data;
    for warped products the direction must be radial and the profile is
    -w''(r0 + s*sigma)/w(r0 + s*sigma).
    """
    x, theta = geodesic_initial
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    require_unit_direction(spec, x, theta)
    k = spec.normal_dim

    if spec.kind == CONSTANT_CURVATURE:
        c = spec.c
        return CurvatureFrameOperator(k, lambda s, c=c: np.full_like(np.asarray(s, float), c))
    if spec.kind == FLAT_TORUS:
        return CurvatureFrameOperator(k, lambda s: np.zeros_like(np.asarray(s, float)))

    warp = spec.warp
    radius = radial_ray(spec, x, theta)

    def profile(s):
        r = radius(s)
        return -warp.d2(r) / warp.value(r)

    return CurvatureFrameOperator(k, profile)


# ---------------------------------------------------------------------------
# quadrature on the unit direction sphere
# ---------------------------------------------------------------------------

# nodes of one direction quadrature; the defaults use at most 4096
MAX_QUAD_NODES = 1_000_000
# coordinates of one rule's nodes (80 MB); binds only for monte_carlo above
# n = 10, where the node cap alone allows more
MAX_QUAD_ENTRIES = 10_000_000
# points of one Stieltjes scan grid, (npts,): 80 MB of floats, 160 MB of
# complex values.  The default tau schedule scans 16 568 points; a smallest
# tau of 1e-6 would scan 16 566 372
MAX_STACK_ENTRIES = 10_000_000


def require_stack_size(shape: tuple, caller: str, remedy: str) -> None:
    """Refuse a stack of more than MAX_STACK_ENTRIES entries before it is
    built; ``remedy`` ends the message."""
    entries = math.prod(shape)
    if entries > MAX_STACK_ENTRIES:
        raise InputError(
            f"{caller}: a stack of shape {shape} has {entries} entries, "
            f"more than the cap of {MAX_STACK_ENTRIES}; {remedy}")


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes on the unit sphere of R^n with weights summing to its measure."""

    nodes: np.ndarray    # (m, n), unit rows
    weights: np.ndarray  # (m,), positive
    n: int
    scheme: str

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.ascontiguousarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.ascontiguousarray(self.weights, dtype=float))

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def unit_sphere_quadrature(
    n: int, scheme: str, order_or_samples: int, seed: int = 0
) -> SphereQuadrature:
    """Quadrature rule on the unit sphere S^(n-1) of R^n.

    ``product_gauss`` builds tensor rules (uniform angles for n=2,
    Gauss-Legendre in the polar cosine for n=3, and an additional
    Gauss-Chebyshev polar factor for n=4).  ``monte_carlo`` draws seeded
    uniform directions with equal weights normalized to the sphere measure.
    """
    if n < 2:
        raise InputError(f"manifolds.unit_sphere_quadrature: parameter n={n} must be >= 2")
    m = int(order_or_samples)
    if m < 1:
        raise InputError(
            f"manifolds.unit_sphere_quadrature: parameter order_or_samples={m} must be >= 1"
        )
    if scheme not in ("product_gauss", "monte_carlo"):
        raise ConfigurationError(
            f"manifolds.unit_sphere_quadrature: parameter scheme='{scheme}' "
            "not one of {'product_gauss', 'monte_carlo'}"
        )
    # node count of each rule, checked before anything is allocated
    size = {3: 2 * m * m, 4: 2 * m**3}.get(n, m) if scheme == "product_gauss" else m
    if size > MAX_QUAD_NODES:
        raise InputError(
            f"manifolds.unit_sphere_quadrature: {scheme} of order {m} on S^{n - 1} "
            f"has {size} nodes, more than the cap of {MAX_QUAD_NODES}"
        )
    if size * n > MAX_QUAD_ENTRIES:
        raise InputError(
            f"manifolds.unit_sphere_quadrature: {scheme} of order {m} on S^{n - 1} "
            f"has {size * n} node coordinates, more than the cap of {MAX_QUAD_ENTRIES}"
        )
    area = sphere_surface_area(n - 1)

    if scheme == "monte_carlo":
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((m, n))
        nodes = g / np.linalg.norm(g, axis=1, keepdims=True)
        weights = np.full(m, area / m)
        return SphereQuadrature(nodes, weights, n, scheme)

    if n == 2:
        ang = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        nodes = np.column_stack([np.cos(ang), np.sin(ang)])
        weights = np.full(m, 2.0 * math.pi / m)
    elif n == 3:
        z, wz = np.polynomial.legendre.leggauss(m)
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
    elif n == 4:
        # polar angle psi with weight sin^2: Gauss-Chebyshev (2nd kind) nodes
        # make the weight sum exact for any order
        i = np.arange(1, m + 1)
        psi = i * math.pi / (m + 1)
        wpsi = (math.pi / (m + 1)) * np.sin(psi) ** 2
        sub = unit_sphere_quadrature(3, "product_gauss", m)
        nodes = np.empty((m * sub.size, 4))
        weights = np.empty(m * sub.size)
        idx = 0
        for j in range(m):
            nodes[idx:idx + sub.size, 0] = math.cos(psi[j])
            nodes[idx:idx + sub.size, 1:] = math.sin(psi[j]) * sub.nodes
            weights[idx:idx + sub.size] = wpsi[j] * sub.weights
            idx += sub.size
    else:
        raise ConfigurationError(
            f"manifolds.unit_sphere_quadrature: product_gauss supports n <= 4, "
            f"got n={n}; use monte_carlo"
        )

    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    return SphereQuadrature(nodes, weights, n, "product_gauss")
