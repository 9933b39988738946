"""Centered-binomial approximation of lattice random sums.

Exact lattice-distribution arithmetic, the two approximation metrics,
error-bound calculators for independent / locally dependent sums and point
processes, and seeded Monte Carlo harnesses for the moving-window
exceedance and hard-core point count applications.
"""

from .lattice import (LatticePMF, LatticeMismatchError, OffLatticeSampleError,
                      make_pmf, point_mass, convolve, convolve_all,
                      tv_distance, loc_distance, smoothness_functional,
                      empirical_pmf)
from .binomial import (BinomialParams, CenteringParams, binomial_pmf,
                       centering_params, centered_binomial, stein_solution,
                       stein_residual, ehm_bound, sup_norm_bound, shift_bound)
from .bounds import (BoundReport, bound_report, IndependentSummandSpec,
                     LocalDependenceSpec, DependenceTerm, PointProcessSpec,
                     PointTerm, DecomposableSpec, DecompositionTerm, rho,
                     independent_sum_bound, independent_sum_approximant,
                     integer_sum_bound, local_dependence_bound,
                     point_process_bound, decomposition_bound,
                     smoothing_bounds, smoothing_conditional, step_overlap,
                     spec_to_json, spec_from_json)
from .oracle import (TwoRunsModel, exact_sum_pmf, two_runs_pmf,
                     two_runs_dependence_spec, two_runs_decomposable_spec,
                     exact_distance_report)
from .engine import (ExperimentResult, RateFit, run_experiment, fit_rate,
                     noise_floor, filter_floor)
from . import rscan, matern

__version__ = "0.1.0"
