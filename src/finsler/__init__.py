"""Numerical engine for (alpha, beta)-Finsler metrics.

Evaluates the full curvature apparatus of metrics F = alpha * phi(beta/alpha):
spray coefficients, Berwald / Landsberg / Douglas / Riemann / flag / S / H
curvatures, the r/s one-form calculus, and classification predicates
(generalized Berwald, Killing constant-length, vanishing S-curvature) over a
catalog of built-in metrics.
"""

from . import errors
from .jets import JetScalar, base_derivative, jet_apply, jet_variable
from .geometry_core import (BetaCalculus, MetricSpec, beta_derivatives,
                            beta_norm_gradient_check, christoffels)
from .phi_families import (AlphaBetaScalars, CustomExprPhi, PhiFamily,
                           RandersPhi, RiemannSqrtPhi, UnicornPhi, ab_scalars,
                           ode_residual, phi_eval)
from .finsler_metric import FundamentalData, finsler_eval, fundamental, sigma_bh
from .spray_curvature import (berwald, berwald_2d_identity, douglas, h_curvature,
                              landsberg, riemann_flag, s_curvature_def,
                              s_curvature_formula, spray_ab, spray_generic)
from .classify import (ClassificationReport, classify_metric, curvature_flags,
                       is_generalized_berwald, killing_constant_length,
                       randers_s0_shortcut, theorem11_verdict, unicorn_fit)
from .catalog import CatalogEntry, ZermeloData, get_metric, zermelo_to_randers

__version__ = "0.1.0"

__all__ = [
    "errors", "JetScalar", "jet_variable", "jet_apply", "base_derivative",
    "MetricSpec", "BetaCalculus", "christoffels", "beta_derivatives",
    "beta_norm_gradient_check",
    "PhiFamily", "RandersPhi", "RiemannSqrtPhi", "UnicornPhi", "CustomExprPhi",
    "AlphaBetaScalars", "phi_eval", "ab_scalars", "ode_residual",
    "FundamentalData", "finsler_eval", "fundamental", "sigma_bh",
    "spray_ab", "spray_generic", "berwald", "landsberg",
    "douglas", "riemann_flag", "s_curvature_def", "s_curvature_formula",
    "h_curvature", "berwald_2d_identity",
    "ClassificationReport", "classify_metric",
    "is_generalized_berwald", "killing_constant_length",
    "randers_s0_shortcut", "curvature_flags", "unicorn_fit", "theorem11_verdict",
    "CatalogEntry", "ZermeloData", "get_metric", "zermelo_to_randers",
]
