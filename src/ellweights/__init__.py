"""Numerical engine for elliptic weight functions of the cotangent bundle
of the full flag variety: direct fixed-point restriction matrices, their
R-matrix and dual recursions, and the parameter-swap symmetry checks."""

__version__ = "0.1.0"

from .errors import (ConsistencyError, EvaluationError, IllConditionedError,
                     PoleError, RangeError, ResamplingError, ResonanceError)
from .qtheta import ThetaContext, theta
from .permcomb import (Permutation, all_permutations, bruhat_leq, compose,
                       compose_values, fixed_point_tables, mirror_index)
from .weightfn import (ChernPoint, P, ParameterPoint, U, W, W_sigma,
                       is_generic, psi, weight_terms)
from .restriction import (A_diagonal, A_direct, RestrictionMatrix,
                          build_A_direct, restriction_point)
from .rmatrix import (build_A_by_dual_recursion, build_A_by_R_recursion,
                      dual_R, dual_residual, exchange_residual, felder_R)
from .mirror import (DualityInterface, global_sign, interpolation_residuals,
                     kappa_substitute, mirror_residual)
from .sampling import random_chern_point, random_parameter_point

__all__ = [
    "__version__",
    "ConsistencyError", "EvaluationError", "IllConditionedError", "PoleError",
    "RangeError", "ResamplingError", "ResonanceError",
    "ThetaContext", "theta",
    "Permutation", "all_permutations", "bruhat_leq",
    "compose", "compose_values", "fixed_point_tables", "mirror_index",
    "ChernPoint", "P", "ParameterPoint", "U", "W", "W_sigma", "is_generic",
    "psi", "weight_terms",
    "A_diagonal", "A_direct", "RestrictionMatrix", "build_A_direct",
    "restriction_point",
    "build_A_by_dual_recursion", "build_A_by_R_recursion", "dual_R",
    "dual_residual", "exchange_residual", "felder_R",
    "DualityInterface", "global_sign", "interpolation_residuals",
    "kappa_substitute", "mirror_residual",
    "random_chern_point", "random_parameter_point",
]
