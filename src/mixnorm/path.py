"""Regularization paths and the joint-sparsity recovery experiment.

A path solves the same instance at a decreasing sequence of penalties
lam = r * lam_max through the one driver, ``screening.screen_sequential``:
each solve starts at the secant through the last two solutions (at the
previous solution for the first two solves, at a repeated lam and after an
unconverged solve), and the safe screening test runs before it unless
screening is off.  The recovery experiment builds a multi-response problem
(one group per predictor row), poses it as a single-response instance with
``stacked_instance`` and traces the estimation error along a geometric
path.  That instance keeps the m x d design A and never forms the
(m*k) x (d*k) stacked matrix: its ``B`` is a ``model.StackedDesign`` that
multiplies through A on the d x k coefficient matrix, and path solutions
are in its layout, W.ravel().
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ZERO_GROUP_NORM, ProblemInstance, stacked_instance
from .screening import PathResult, screen_sequential
from .solver import SolverConfig
from .synth import SynthSpec, gen_joint_sparse


def linear_ratios(n: int = 91) -> np.ndarray:
    """n equally spaced ratios from 1.0 down to 0.1 (inclusive)."""
    return np.linspace(1.0, 0.1, n)


def geometric_ratios(n: int = 100) -> np.ndarray:
    """0.9^0, 0.9^1, ..., 0.9^(n-1)."""
    return np.power(0.9, np.arange(n, dtype=np.float64))


@dataclass(frozen=True)
class PathSpec:
    """What to run: ratio grid (checked by the driver), screening toggle, solver knobs."""

    ratios: tuple[float, ...]
    screening: bool = False
    solver: SolverConfig = field(default_factory=SolverConfig)


def run_path(inst: ProblemInstance, spec: PathSpec) -> PathResult:
    """Solve along spec.ratios * lam_max; screening per spec.screening."""
    return screen_sequential(inst, spec.ratios, spec.solver, screening=spec.screening)


@dataclass
class RecoveryReport:
    """Estimation error along a geometric path on synthetic joint-sparse data."""

    ratios: np.ndarray
    lambdas: np.ndarray
    frob_errors: np.ndarray
    best_index: int
    best_solution: np.ndarray          # d x k matrix at the best penalty
    final_row_norms: np.ndarray        # row 2-norms at the best penalty
    true_support: np.ndarray
    lam_max: float

    @property
    def best_error(self) -> float:
        return float(self.frob_errors[self.best_index])


def recovery_experiment(gen_spec: SynthSpec, q: float = 2.0, num_ratios: int = 35,
                        solver_config: SolverConfig | None = None,
                        screening: bool = False) -> RecoveryReport:
    """Generate joint-sparse data, trace a geometric path, report errors.

    The error at each penalty is ||W_hat - W_true||_F on the d x k
    coefficient matrix.
    """
    A, X_true, Y = gen_joint_sparse(gen_spec)
    d, k = X_true.shape
    inst = stacked_instance(A, Y, q, 0.0)
    spec = PathSpec(
        ratios=tuple(geometric_ratios(num_ratios)),
        screening=screening,
        solver=solver_config or SolverConfig(),
    )
    result = run_path(inst, spec)
    x_true_flat = X_true.ravel()
    errors = np.array([float(np.linalg.norm(sol - x_true_flat)) for sol in result.solutions])
    best = int(np.argmin(errors))
    best_mat = result.solutions[best].reshape(d, k)
    return RecoveryReport(
        ratios=result.ratios,
        lambdas=result.lambdas,
        frob_errors=errors,
        best_index=best,
        best_solution=best_mat,
        final_row_norms=np.linalg.norm(best_mat, axis=1),
        true_support=np.linalg.norm(X_true, axis=1) > ZERO_GROUP_NORM,
        lam_max=result.lam_max,
    )
