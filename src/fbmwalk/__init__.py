"""fbmwalk: fractional Brownian motion from aggregated correlated random walks.

Thresholded-Gaussian link formulas, marginal-parameter sampling, three walk
modes, deterministic parallel aggregation, exact Cholesky oracles and Hurst
estimators, behind one CLI (``fbmwalk generate|estimate|validate|spread``).
"""

from .aggregate import BACKEND, AggregatedPath, generate_fbm, renewal_keep
from .estimators import (
    EstimateReport,
    aggregated_variance_hurst,
    dsod_hurst,
    empirical_acf,
    estimate_report,
)
from .fgn import (
    HurstModel,
    fbm_covariance,
    fgn_autocovariance,
    one_step_fgn_correlation,
    scaling_constant,
    theoretical_mixture_correlation,
)
from .gaussian import cholesky_fbm, dichotomized_gaussian_walk
from .link import (
    n_step_correlation,
    persistence_from_p,
    phi_from_tetrachoric,
    sigma_max,
)
from .sampling import (
    InfeasiblePolicy,
    PSample,
    density_p,
    feasibility_threshold,
    target_from_uniform,
)
from .special import bvn_cdf_excess_diag, ln_gamma, std_normal_cdf, std_normal_quantile
from .walk import Trajectory

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    "AggregatedPath",
    "generate_fbm",
    "renewal_keep",
    "EstimateReport",
    "aggregated_variance_hurst",
    "dsod_hurst",
    "empirical_acf",
    "estimate_report",
    "HurstModel",
    "fbm_covariance",
    "fgn_autocovariance",
    "one_step_fgn_correlation",
    "scaling_constant",
    "theoretical_mixture_correlation",
    "cholesky_fbm",
    "dichotomized_gaussian_walk",
    "n_step_correlation",
    "persistence_from_p",
    "phi_from_tetrachoric",
    "sigma_max",
    "InfeasiblePolicy",
    "PSample",
    "density_p",
    "feasibility_threshold",
    "target_from_uniform",
    "bvn_cdf_excess_diag",
    "ln_gamma",
    "std_normal_cdf",
    "std_normal_quantile",
    "Trajectory",
]
