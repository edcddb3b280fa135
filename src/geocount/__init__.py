"""Geodesic counting integrals, Jacobi fields, and Herglotz boundary
measures on model Riemannian manifolds.

The package propagates the Jacobi equation along unit-speed geodesics,
evaluates the resulting counting integrals against independent combinatorial
oracles, analyzes the associated Herglotz functions F = phi * Id (boundary
measure recovery, positivity, determinant inequalities), and classifies the
growth of counting curves as polynomial or exponential.
"""

__version__ = "0.1.0"

from .closed_form import ClosedFormJacobi
from .counting import (CountingCurve, GrowthReport, berger_bott_curve,
                       berger_bott_total, classify_growth, count_sphere_arcs,
                       count_torus_lattice, loop_space_betti_partial_sums,
                       search_gromov_constant, torus_count_integral_oracle)
from .errors import (CatalogError, ConfigurationError, ConvergenceError,
                     DegeneracyError, DomainError, GeocountError, InputError,
                     IntegrationFailureError, NumericalError, PoleError)
from .flow import (GeodesicTrajectory, JacobiSystem, integrate_geodesic,
                   jacobi_residual, propagate_jacobi, wronskian_drift)
from .herglotz import (DetBound, FatouData, HerglotzMatrix,
                       adapted_complex_structure_at, check_b_decomposition,
                       check_key1, check_theorem_nice, check_xi_identity,
                       det_growth_bound, fatou_reconstruct,
                       minkowski_det_lower_bound, stieltjes_invert)
from .manifolds import (CurvatureFrameOperator, ManifoldSpec, SphereQuadrature,
                        WarpFunction, canonical_point, constant_curvature,
                        curvature_along, flat_torus, orthonormal_frame,
                        sphere_surface_area, unit_sphere_quadrature,
                        warp_by_name, warped_product)
