"""Matrix forms of geocount's scalar data, and other plain references.

Every curvature operator on the menu is kappa * Id, so the library carries
phi (F = phi * Id) and the Jacobi scalars (xi, xi', eta, eta') and builds a
matrix only where a result is one.  These helpers expand the scalars back to
the k x k forms, so tests can compare against the matrix formulas.  The
one-point golden-section search is the reference for herglotz's batched one.
"""

import math

import numpy as np

import geocount as gc


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
    [a, b], one evaluation per step."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
