"""Closed forms of the scalar Jacobi model on the space forms, keyed by the
curvature c.

On a space form of curvature c the Jacobi equation along every unit-speed
geodesic is y'' = -c y.  Its fundamental solutions xi (data (1, 0)) and eta
(data (0, 1)) are cos/sin for c > 0, linear for c = 0 and cosh/sinh for
c < 0.  f = eta / xi and G = -1/f are each written as one function (tan/tanh
and cot/coth), not as ratios of xi and eta.  The poles of f are the zeros
of xi and those of G the zeros of eta: lattices of period pi / sqrt|c|, on
the real axis for c > 0 and on the imaginary axis for c < 0.  flow samples
geodesics from the scalars, herglotz builds its closed-form evaluators and
real-axis checks from f, G and G's primitive, and verify takes its oracles
and pole-free samples from here.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np


def scalars(c: float, sigma, lib=np):
    """(xi, xi', eta, eta') of y'' = -c y, elementwise in real sigma.

    ``lib`` supplies cos/sin/cosh/sinh: numpy for grids, math for scalars
    (numpy's and math's cosh and sinh differ in the last bit at some points).
    """
    if c > 0:
        s = math.sqrt(c)
        cos, sin = lib.cos(s * sigma), lib.sin(s * sigma)
        return cos, -s * sin, sin / s, cos
    if c < 0:
        s = math.sqrt(-c)
        cosh, sinh = lib.cosh(s * sigma), lib.sinh(s * sigma)
        return cosh, s * sinh, sinh / s, cosh
    one = 1.0 + 0.0 * sigma
    return one, 0.0 * one, sigma, one


def _saturating(u: np.ndarray, edge: np.ndarray, fn, limit) -> np.ndarray:
    """fn(u) where |edge| <= 30, limit * sign(edge) beyond.

    tan and cot saturate off the real axis, tanh and coth along it; past 30
    their limits stand in, so fn never sees an argument whose sin/cos
    (sinh/cosh) would overflow.
    """
    far = np.abs(edge) > 30.0
    if not far.any():
        return fn(u)
    out = np.empty_like(u)
    out[far] = limit * np.copysign(1.0, edge[far])
    out[~far] = fn(u[~far])
    return out


def f_profile(c: float, zeta: np.ndarray) -> np.ndarray:
    """f at an array of complex zeta: zeta for flat, tan-type for positive
    curvature, tanh-type (for contrast experiments; not Herglotz) for
    negative curvature."""
    if c == 0:
        return zeta.copy()
    s = math.sqrt(abs(c))
    u = s * zeta
    if c > 0:
        return _saturating(u, u.imag, np.tan, 1j) / s
    return _saturating(u, u.real, np.tanh, 1.0) / s


def g_profile(c: float, zeta: np.ndarray) -> np.ndarray:
    """G = -1/f at an array of complex zeta, regular at the poles of f."""
    if c == 0:
        return -1.0 / zeta
    s = math.sqrt(abs(c))
    u = s * zeta
    if c > 0:
        return _saturating(u, u.imag, lambda v: -s * np.cos(v) / np.sin(v), 1j * s)
    return _saturating(u, u.real, lambda v: -s * np.cosh(v) / np.sinh(v), -s)


def g_primitive(c: float, zeta: complex) -> complex:
    """A primitive Phi of G (Phi' = G), continuous along every line
    Im zeta = tau > 0; c >= 0 only.

    For c > 0 it is -log sin(s zeta) up to a constant, written as
    i s zeta - log(1 - e^{2 i s zeta}): |e^{2 i s zeta}| < 1 above the real
    axis, so the principal log never meets its cut.  For c = 0 it is -log zeta.
    """
    if c == 0:
        return -cmath.log(zeta)
    s = math.sqrt(c)
    return 1j * s * zeta - cmath.log(1.0 - cmath.exp(2j * s * zeta))


def g_prime(c: float, sigma: float) -> float:
    """G' at real sigma, 1/eta^2 written out."""
    if c == 0:
        return 1.0 / (sigma * sigma)
    s = math.sqrt(abs(c))
    if c > 0:
        return c / math.sin(s * sigma) ** 2
    return -c / math.sinh(s * sigma) ** 2


def pole_period(c: float) -> float:
    """Spacing pi / sqrt|c| of both pole lattices; c != 0."""
    return math.pi / math.sqrt(abs(c))


def _lattice_distance(c: float, zeta, offset: float):
    """Distance from zeta to the nearest pole (offset + k * period) * u,
    with u = 1 for c > 0 and u = i for c < 0."""
    zeta = np.asarray(zeta, dtype=complex)
    along, across = (zeta.real, zeta.imag) if c > 0 else (zeta.imag, zeta.real)
    period = pole_period(c)
    shifted = along - offset * period
    return np.hypot(np.abs(shifted - np.round(shifted / period) * period), across)


def f_pole_distance(c: float, zeta):
    """Distance from zeta (a number or an array) to the nearest pole of f,
    an odd multiple of half the period."""
    if c == 0:
        return np.full(np.shape(zeta), math.inf)
    return _lattice_distance(c, zeta, 0.5)


def g_pole_distance(c: float, zeta):
    """Distance from zeta (a number or an array) to the nearest pole of G,
    a multiple of the period."""
    if c == 0:
        return np.abs(np.asarray(zeta, dtype=complex))
    return _lattice_distance(c, zeta, 0.0)


@dataclass(frozen=True)
class ClosedFormJacobi:
    """Closed-form Jacobi data for constant curvature, read like a system:
    ``eval_at`` gives the scalars (xi, xi', eta, eta') of Xi = xi * Id and
    H = eta * Id, ``f`` gives f = eta / xi at a complex zeta through
    ``f_profile``, and ``distance_to_singular`` the distance to the nearest
    zero of xi or eta."""

    c: float
    n: int

    @property
    def dim(self) -> int:
        return self.n - 1

    def eval_at(self, sigma: float):
        return scalars(self.c, sigma, math)

    def f(self, zeta) -> complex:
        return complex(f_profile(self.c, np.array([zeta], dtype=complex))[0])

    def distance_to_singular(self, sigma: float) -> float:
        return float(min(f_pole_distance(self.c, sigma),
                         g_pole_distance(self.c, sigma)))
