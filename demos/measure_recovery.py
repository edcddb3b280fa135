"""Recovering the boundary measure of a Herglotz function F = phi * Id.

G = -1/f has positive-definite imaginary part on the upper half plane and a
purely atomic boundary measure; Poisson-kernel integrals of Im G just above
the real axis, extrapolated in the height tau, recover the atoms.  The
closed forms make every step checkable: for the round sphere the atoms sit
at multiples of pi with mass pi * Id.
"""

import math

import numpy as np

import geocount as gc
from geocount.herglotz import HerglotzMatrix

# ---------------------------------------------------------------------------
# 1. The function f and its negative inverse for the unit round sphere.
# ---------------------------------------------------------------------------
Fh = HerglotzMatrix.from_constant_curvature(1.0, 3)
Gh = Fh.neg_inverse_function()

z = 0.7 + 0.4j
print(f"f({z}) diagonal entry:  {Fh(z)[0, 0]:.6f}")
print(f"G({z}) diagonal entry:  {Gh(z)[0, 0]:.6f}")
print(f"min eigenvalue of Im f: {np.linalg.eigvalsh(Fh(z).imag).min():.6f} (> 0)")
print(f"min eigenvalue of Im G: {np.linalg.eigvalsh(Gh(z).imag).min():.6f} (> 0)")

report = gc.check_theorem_nice(Fh, [1j, 0.5 + 0.2j, -2 + 1.5j])
print(f"f(0) norm: {report['f_zero_norm']:.2e}, "
      f"f'(0) - Id: {report['fprime_zero_defect']:.2e}, "
      f"min Im f over the samples: {report['min_im_eigenvalue']:.6f}")

# ---------------------------------------------------------------------------
# 2. Watch the Poisson kernel sharpen as tau decreases: the trace of Im G
#    near an atom behaves like mass / (pi * tau) at the center.
# ---------------------------------------------------------------------------
print("\ntrace Im G(pi + i*tau) as tau shrinks (atom of mass pi*Id_2 at pi):")
for tau in (1e-1, 1e-2, 1e-3):
    val = float(np.trace(np.imag(Gh(complex(math.pi, tau)))))
    print(f"  tau = {tau:7.0e}: {val:12.2f}   (2/tau = {2 / tau:10.1f})")

# ---------------------------------------------------------------------------
# 3. Full recovery on the interval (-1, 7): three atoms, masses pi * Id,
#    no constant part, no continuous mass.
# ---------------------------------------------------------------------------
fd = gc.stieltjes_invert(Gh, (-1.0, 7.0))
print("\nrecovered boundary measure:")
for t, mass in fd.atoms:
    err = float(np.max(np.abs(mass - math.pi * np.eye(2))))
    print(f"  atom at {t:10.6f}: mass approx pi*Id, max deviation {err:.2e}")
print(f"constant part A (should vanish): max entry {np.max(np.abs(fd.A)):.2e}")
print(f"continuous mass flagged: {fd.has_continuous_part}")

# ---------------------------------------------------------------------------
# 4. The recovered data reproduces the derivative of G through
#    G'(z) = A + (1/pi) sum mass_j / (z - t_j)^2, up to the atoms outside
#    the analyzed window.
# ---------------------------------------------------------------------------
z = 3.0 + 1.0j
recon = gc.fatou_reconstruct(fd, z)[0, 0]
direct = 1.0 / complex(math.sin(z.real) * math.cosh(z.imag),
                       math.cos(z.real) * math.sinh(z.imag)) ** 2
print(f"\nG'({z}) from recovered atoms: {recon:.6f}")
print(f"G'({z}) analytically:         {direct:.6f}")
print("(the difference is the tail of atoms outside (-1, 7))")

# ---------------------------------------------------------------------------
# 5. A function with genuinely continuous boundary data is flagged rather
#    than misread as atoms: a user-built profile phi = i p, whose boundary
#    measure is p * Id times Lebesgue measure.
# ---------------------------------------------------------------------------
p = 1.5
const = HerglotzMatrix(
    profile=lambda zz: np.full(zz.shape, 1j * p), dim=2,
    pole_set=np.array([]), pole_distance=lambda zz: np.full(zz.shape, np.inf))
fd_const = gc.stieltjes_invert(const, (-1.0, 1.0))
print(f"\nconstant i*{p}*Id function: atoms = {fd_const.atoms}, "
      f"continuous mass {fd_const.continuous_mass:.4f}, "
      f"continuous part flagged = {fd_const.has_continuous_part}")
