"""mindpd: robust parametric estimation by minimum density power divergence.

The tuning constant alpha >= 0 trades robustness against efficiency: alpha=0
is maximum likelihood, alpha=1 minimizes the squared L2 distance between the
model density and the data. The package provides the divergence and its
M-estimation criterion with analytic derivatives, numerical fitting, sandwich
asymptotic covariances, regularity diagnostics, and a Monte Carlo harness.
"""

from .asymptotics import (DiagnosticsConfig, DiagnosticsReport, SandwichCov,
                          compute_J, compute_K, diagnose_regularity,
                          dpd_projection, empirical_sandwich,
                          population_objective, sandwich)
from .divergence import (DpdConfig, criterion, criterion_gradient,
                         dpd_divergence, objective, objective_gradient,
                         objective_hessian)
from .errors import (ConfigError, DomainError, EstimationError,
                     IngestionError, IntegrabilityError, MindpdError,
                     NonconvergenceError, NumericalError, StudyError)
from .estimation import FitConfig, FitPath, FitResult, fit, fit_path
from .families import (FAMILIES, Mixture, Support, get_family, integral_term,
                       model_density)
from .montecarlo import (McConfig, McReport, chi2_cdf, draw, efficiency_curve,
                         ks_distance, run_consistency_study,
                         run_normality_study)
from .quadrature import QuadratureSpec

__version__ = "0.1.0"

__all__ = [
    "DpdConfig", "QuadratureSpec", "FitConfig", "FitResult", "FitPath",
    "McConfig", "McReport", "SandwichCov", "DiagnosticsConfig",
    "DiagnosticsReport", "Mixture", "Support", "FAMILIES", "get_family",
    "model_density", "integral_term", "dpd_divergence", "criterion",
    "criterion_gradient", "objective", "objective_gradient",
    "objective_hessian", "fit", "fit_path",
    "compute_K", "compute_J", "sandwich", "empirical_sandwich",
    "population_objective", "dpd_projection", "diagnose_regularity",
    "run_consistency_study", "run_normality_study", "efficiency_curve",
    "draw", "chi2_cdf", "ks_distance",
    "MindpdError", "DomainError", "IngestionError", "NumericalError",
    "IntegrabilityError", "EstimationError", "NonconvergenceError",
    "StudyError", "ConfigError",
]
