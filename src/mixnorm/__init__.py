"""Mixed-norm regularized least squares.

Accelerated proximal-gradient solver for l1/lq-regularized least squares
with any group exponent q >= 1 (including infinity), the exact lq proximal
operator, and safe screening rules for regularization paths.

The package namespace holds the API the README documents; everything else
is imported from its module.  The slow reference oracles live in
:mod:`mixnorm.oracle`, which is not imported here.
"""

from .errors import (
    BracketError,
    DimensionError,
    DivergenceError,
    InputError,
    InvalidExponentError,
    InvalidParameterError,
    LineSearchError,
    MixnormError,
    OracleSizeError,
)
from .model import GroupPartition, ProblemInstance
from .path import PathResult, PathSpec, linear_ratios, run_path
from .prox import ProxParams, prox_group
from .screening import lambda_max
from .solver import SolveResult, SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "DimensionError",
    "DivergenceError",
    "GroupPartition",
    "InputError",
    "InvalidExponentError",
    "InvalidParameterError",
    "LineSearchError",
    "MixnormError",
    "OracleSizeError",
    "PathResult",
    "PathSpec",
    "ProblemInstance",
    "ProxParams",
    "SolveResult",
    "SolverConfig",
    "lambda_max",
    "linear_ratios",
    "prox_group",
    "run_path",
    "solve",
]
