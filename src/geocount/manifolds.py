"""Model manifolds, curvature data along geodesics, and direction quadrature.

The menu is deliberately small: space forms of constant curvature, flat tori,
and rotationally symmetric warped products.  Every member has closed-form
geodesics (warped products along radial rays) and a curvature operator along
the geodesic that is a scalar profile times the identity on the normal space,
which is exactly the data the matrix Jacobi equation consumes.
"""

import functools
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


@functools.cache
def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1], as
    read-only arrays bit-equal to ``np.polynomial.legendre.leggauss(m)``.

    Each ``leggauss`` call is an eigensolve, so each order is built once per
    process.  ``leggauss`` is looked up at call time; the orders are those
    of the callers (20, 64 and quadrature orders under the node cap).
    """
    nodes, weights = np.polynomial.legendre.leggauss(m)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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
    if c != 0 and not math.isfinite(1.0 / abs(c)):
        # the model sits at radius 1/sqrt|c|, whose square the frame forms
        raise InputError(
            f"manifolds.constant_curvature: parameter c={c!r}: the squared "
            "radius 1/|c| overflows a float")
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
        u, gw = gauss_legendre(64)
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


def metric_diagonal(spec: ManifoldSpec, x: np.ndarray) -> np.ndarray:
    """Diagonal of the metric at x, or at each row of a stack of points.

    Space forms and tori carry their ambient form, with -1 first on the
    hyperboloid (it sits in Minkowski space); a warped product has
    (1, w(r)^2, ..., w(r)^2) at (r, y).
    """
    x = np.asarray(x, dtype=float)
    g = np.ones(x.shape)
    if spec.kind == WARPED_PRODUCT:
        w = spec.warp.value(x[..., :1])
        g[..., 1:] = w * w
    elif spec.kind == CONSTANT_CURVATURE and spec.c < 0:
        g[..., 0] = -1.0
    return g


def metric_dot(spec: ManifoldSpec, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Riemannian inner product of tangent vectors u, v at the point x."""
    return float(np.sum(metric_diagonal(spec, x) * u * v))


def orthonormal_frame(spec: ManifoldSpec, x: np.ndarray, normals=()) -> np.ndarray:
    """n - len(normals) orthonormal tangent vectors at x, one per row,
    orthogonal to every vector of ``normals``.

    One Householder reflection under diag(g) per normal, the model's normal
    (x on curved space forms, (0, y) on warped products) first.  A normal
    p, mapped through the earlier reflections, cleared on the axes they took
    and scaled to <p, p> = eps = +-1, goes to -sign(p_k) e_k / sqrt|g_k| on
    the free axis k of largest |p_k| sqrt|g_k| (e_0 for the timelike x on
    the hyperboloid); its mirror v = p + sign(p_k) e_k / sqrt|g_k| has <v, v>
    = 2 eps (1 + |p_k| sqrt|g_k|), never 0.  The frame is the other axes
    e_j / sqrt|g_j| mapped back, so an axis no mirror touches stays itself.
    Raises InputError for a null normal or one in the span of those before.
    """
    x = np.asarray(x, dtype=float)
    g = metric_diagonal(spec, x)
    root = np.sqrt(np.abs(g))
    if spec.kind == CONSTANT_CURVATURE and spec.c != 0:
        normals = [x, *normals]
    elif spec.kind == WARPED_PRODUCT:
        normals = [np.concatenate(([0.0], x[1:])), *normals]
    free = np.ones(len(x), dtype=bool)
    mirrors = []
    for p in normals:
        p = np.asarray(p, dtype=float)
        for v, vv in mirrors:
            p = p - v * (2.0 * np.sum(g * p * v) / vv)
        top = np.max(np.abs(p))  # O(1) entries before any square
        p = p / top if top > 0 else p
        size = np.sum(np.abs(g) * p * p)
        p[~free] = 0.0
        nn = np.sum(g * p * p)
        k = int(np.argmax(np.abs(p) * root))
        eps = math.copysign(1.0, g[k])
        if not eps * nn > 1e-20 * size:  # a residue of 1e-10 is rounding
            raise InputError(f"manifolds.orthonormal_frame: a normal at x={x} "
                             "is null or in the span of the normals before it")
        p = p / math.sqrt(eps * nn)
        v = p.copy()
        v[k] += math.copysign(1.0, p[k]) / root[k]
        mirrors.append((v, 2.0 * eps * (1.0 + abs(p[k]) * root[k])))
        free[k] = False
    axes = np.flatnonzero(free)
    frame = np.zeros((len(axes), len(x)))
    frame[np.arange(len(axes)), axes] = 1.0 / root[axes]
    for v, vv in reversed(mirrors):
        frame -= np.outer(frame @ (g * v) * (2.0 / vv), v)
    return frame


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

    In a parallel orthonormal frame, for every member of the menu, it is
    scalar_profile(sigma) * Id as a function of arc length, so only the
    scalar profile is kept; ``profile`` evaluates it on arrays of sigma.
    """

    scalar_profile: Callable[[np.ndarray], np.ndarray]

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

    if spec.kind == CONSTANT_CURVATURE:
        c = spec.c
        return CurvatureFrameOperator(lambda s, c=c: np.full_like(np.asarray(s, float), c))
    if spec.kind == FLAT_TORUS:
        return CurvatureFrameOperator(lambda s: np.zeros_like(np.asarray(s, float)))

    warp = spec.warp
    radius = radial_ray(spec, x, theta)

    def profile(s):
        r = radius(s)
        return -warp.d2(r) / warp.value(r)

    return CurvatureFrameOperator(profile)


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
        z, wz = gauss_legendre(m)
        nphi = 2 * m
        phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
        rho = np.sqrt(1.0 - z**2)[:, None]
        nodes = np.empty((m, nphi, 3))  # polar row i, azimuth j
        nodes[..., 0] = rho * np.cos(phi)
        nodes[..., 1] = rho * np.sin(phi)
        nodes[..., 2] = z[:, None]
        nodes = nodes.reshape(m * nphi, 3)
        weights = np.repeat(wz * (2.0 * math.pi / nphi), nphi)
    elif n == 4:
        # polar angle psi with weight sin^2: Gauss-Chebyshev (2nd kind) nodes
        # make the weight sum exact for any order
        i = np.arange(1, m + 1)
        psi = i * math.pi / (m + 1)
        wpsi = (math.pi / (m + 1)) * np.sin(psi) ** 2
        sub = unit_sphere_quadrature(3, "product_gauss", m)
        # polar row j, S^2 node; math's cos and sin as the rule always took,
        # as numpy's vectorised ones need not round the same on every CPU
        nodes = np.empty((m, sub.size, 4))
        nodes[..., 0] = np.array([math.cos(p) for p in psi])[:, None]
        nodes[..., 1:] = np.array([math.sin(p) for p in psi])[:, None, None] * sub.nodes
        nodes = nodes.reshape(m * sub.size, 4)
        weights = (wpsi[:, None] * sub.weights).ravel()
    else:
        raise ConfigurationError(
            f"manifolds.unit_sphere_quadrature: product_gauss supports n <= 4, "
            f"got n={n}; use monte_carlo"
        )

    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    return SphereQuadrature(nodes, weights, n, "product_gauss")
