"""Synthetic problem generators.

Two recipes: a joint-sparse multi-response regression (a few predictor rows
active across every response column, Gaussian design, additive noise) and a
single-response design whose columns have controlled correlation with the
response, for exercising the screening rules.  Everything is driven by a
seeded ``np.random.default_rng`` so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .model import GroupPartition, ProblemInstance


@dataclass(frozen=True)
class SynthSpec:
    """Generator knobs shared by both recipes.

    ``d`` is the predictor count for the joint-sparse recipe and the total
    column count for the screening recipe.  ``entry_dist`` picks the law of
    the nonzero true coefficients.  ``d_tilde <= d`` is checked by
    ``gen_joint_sparse``, the only recipe that reads ``d_tilde``.
    """

    m: int = 100
    d: int = 200
    k: int = 50
    d_tilde: int = 50
    sigma: float = 0.1
    entry_dist: str = "uniform01"
    num_groups: int = 100
    corr_range: tuple[float, float] = (-0.8, 0.8)
    seed: int = 0

    def __post_init__(self):
        if min(self.m, self.d, self.k) < 1 or self.d_tilde < 0 or self.num_groups < 1:
            raise InvalidParameterError("sizes must be positive (d_tilde may be 0)")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise InvalidParameterError(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        if self.entry_dist not in ("uniform01", "standard_normal"):
            raise InvalidParameterError(f"unknown entry_dist {self.entry_dist!r}")
        lo, hi = self.corr_range
        if not (-1.0 < lo <= hi < 1.0):
            raise InvalidParameterError("corr_range must sit strictly inside (-1, 1)")

    @classmethod
    def screening_default(cls, seed: int = 0) -> "SynthSpec":
        """Desk-scale version of the screening benchmark data."""
        return cls(m=100, d=1000, num_groups=100, seed=seed)


def gen_joint_sparse(spec: SynthSpec):
    """(A, X_true, Y): Gaussian design, row-sparse X_true, noisy response.

    The first d_tilde rows of X_true are nonzero; Y = A X_true + sigma * Z.
    """
    if spec.d_tilde > spec.d:
        raise InvalidParameterError("d_tilde cannot exceed d")
    rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal((spec.m, spec.d))
    X = np.zeros((spec.d, spec.k))
    if spec.d_tilde > 0:
        if spec.entry_dist == "uniform01":
            X[:spec.d_tilde] = rng.random((spec.d_tilde, spec.k))
        else:
            X[:spec.d_tilde] = rng.standard_normal((spec.d_tilde, spec.k))
    Y = A @ X
    if spec.sigma > 0:
        Y = Y + spec.sigma * rng.standard_normal((spec.m, spec.k))
    return A, X, Y


def equal_partition(p: int, num_groups: int) -> GroupPartition:
    """Split p coordinates into num_groups contiguous groups, sizes as equal
    as possible (earlier groups take the remainder)."""
    if num_groups > p:
        raise InvalidParameterError("more groups than coordinates")
    base, extra = divmod(p, num_groups)
    return GroupPartition(tuple(base + (1 if i < extra else 0) for i in range(num_groups)))


def gen_screening_instance(spec: SynthSpec, q: float = 2.0) -> ProblemInstance:
    """Design with controlled column-response correlation, unit-norm columns.

    Each column is rho_j * Yhat + sqrt(1 - rho_j^2) * xi_j with rho_j drawn
    uniformly from spec.corr_range and xi_j a unit vector orthogonal to
    Yhat, so the cosine between column j and Y equals rho_j exactly.  The
    returned instance carries lam = 0; callers set the penalty per path
    point.
    """
    if spec.m < 2:
        raise InvalidParameterError("need m >= 2 for the orthogonalization")
    rng = np.random.default_rng(spec.seed)
    y = rng.standard_normal(spec.m)
    y_hat = y / np.linalg.norm(y)
    rho = rng.uniform(spec.corr_range[0], spec.corr_range[1], size=spec.d)
    xi = rng.standard_normal((spec.m, spec.d))
    xi -= np.outer(y_hat, y_hat @ xi)
    xi /= np.linalg.norm(xi, axis=0)
    B = y_hat[:, None] * rho + xi * np.sqrt(1.0 - rho * rho)
    part = equal_partition(spec.d, spec.num_groups)
    return ProblemInstance(B, y, part, q, 0.0)
