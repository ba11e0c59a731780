"""Numerical laboratory for almost-periodic homogenization.

Screened correctors chi_T for -div(A grad .), approximate effective
tensors, almost-periodicity moduli (translation modulus, Kronecker orbit
covering radii, exact discrepancy and its exponential-sum bound), and
convergence-rate / Hoelder-uniformity experiments on box domains.
"""

from .errors import (EllipticityViolation, NonConverged, ResonantFrequencies,
                     UnsupportedDimension)
from .fields import (ConstantField, CoefficientField, Ellipticity,
                     PeriodicSampledField, QuasiPeriodicField, ScaledArgumentField,
                     ShiftedField, TrigPolynomialField, GOLDEN_RATIO, as_tensor,
                     certify_ellipticity, check_ellipticity, diophantine_scan,
                     field_from_config, field_to_config,
                     golden_ratio_field, identity_field, laminate_field,
                     modulus_of_continuity, sine_scalar_field)
from .grids import (Box, BoxGrid, DIRICHLET, PERIODIC, GridFunction,
                    centered_gradient, face_differences, holder_seminorm,
                    load_grid_function, norms, save_grid_function, window_mean)
from .metrics import (DecayReport, PointSet, compute_Theta, covering_from_discrepancy,
                      covering_radius, discrepancy_exact, etk_bound,
                      fit_decay_exponent, fractional_part, kronecker_point_set,
                      rho_ladder, theta_integral, theta_ladder, theta_quasi)
from .operators import DiscreteOperator, assemble, divergence_rhs, solve
from .correctors import (CorrectorSet, FluxTensor, HomogenizedMatrix, corrector_scalings,
                         energy_identity_residual, flux_tensor, gradient_cauchy_decay,
                         homogenized_matrix, solve_corrector,
                         solve_flux_corrector, translation_response, windowed_gradient_sup)
from .experiments import (boundary_corrector, eps_operator, expansion_term,
                          holder_uniformity, rate_experiment, solve_problem,
                          two_scale_error, unit_box_operator)
from .cli import dumps_canonical, manifest_hash, reproduce, run_manifest

__version__ = "0.1.0"
