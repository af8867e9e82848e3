"""Tests for the slow reference implementations.

These exist to validate the validators: the grid search and the brentq
scalarization must agree with closed forms where closed forms exist, and
with each other elsewhere.
"""

import numpy as np
import pytest

from mixnorm.errors import OracleSizeError
from mixnorm.model import GroupPartition, ProblemInstance, lq_norm, objective
from mixnorm.oracle import (oracle_prox_group, prox_oracle_grid,
                            reference_solve)
from mixnorm.prox import prox_inf, soft_threshold


def test_grid_matches_soft_threshold():
    v = np.array([3.0, -2.0, 0.5])
    x = prox_oracle_grid(v, 1.0, 1.0, resolution=0.05)
    assert np.abs(x - soft_threshold(v, 1.0)).max() < 1e-3


def test_grid_matches_q2_scaling():
    v = np.array([3.0, 4.0])
    x = prox_oracle_grid(v, 1.0, 2.0, resolution=0.05)
    assert np.abs(x - np.array([2.4, 3.2])).max() < 1e-3


def test_grid_matches_inf_clipping():
    v = np.array([3.0, 1.0])
    x = prox_oracle_grid(v, 1.0, np.inf, resolution=0.05)
    assert np.abs(x - prox_inf(v, 1.0)).max() < 1e-3


def test_grid_refinement_tightens():
    # refinement brings the spacing down by 1000x from the initial grid
    v = np.array([2.0, -1.5])
    coarse_only = prox_oracle_grid(v, 0.7, 3.0, resolution=0.4)
    fine = prox_oracle_grid(v, 0.7, 3.0, resolution=0.02)
    exact = oracle_prox_group(v, 0.7, 3.0)
    assert np.abs(fine - exact).max() < np.abs(coarse_only - exact).max() + 1e-12
    assert np.abs(fine - exact).max() < 1e-4


def test_grid_rejects_large_dimension():
    with pytest.raises(OracleSizeError):
        prox_oracle_grid(np.ones(5), 0.5, 2.0)


def test_grid_rejects_a_grid_too_large_to_build():
    # 3001 * 4001 * 5001 * 6001 = 3.6e14 points: a missing check fails fast
    # in numpy's allocator instead of raising this
    with pytest.raises(OracleSizeError, match="points"):
        prox_oracle_grid(np.array([3.0, 4.0, 5.0, 6.0]), 1.0, 2.0, resolution=1e-3)
    with pytest.raises(OracleSizeError):
        prox_oracle_grid(np.array([3.0, 4.0]), 1.0, 2.0, resolution=1e-320)


def test_grid_zero_answer():
    v = np.array([0.5, -0.25])
    lam = 2.0 * lq_norm(v, 2.0)
    x = prox_oracle_grid(v, lam, 2.0, resolution=0.05)
    assert np.abs(x).max() < 1e-3


def test_scalar_oracle_agrees_with_grid(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        v = rng.standard_normal(n) * 2
        if not np.any(v):
            continue
        q = float(rng.uniform(1.1, 5.0))
        lam = 0.4 * lq_norm(v, q / (q - 1))
        if lam <= 0:
            continue
        a = prox_oracle_grid(v, lam, q, resolution=0.05)
        b = oracle_prox_group(v, lam, q)
        assert np.abs(a - b).max() < 1e-3


def test_reference_solve_tiny_frozen():
    # frozen outputs from this module at tol 1e-14 (see test provenance
    # note in test_prox.py)
    B = np.array([[1.0, 0.5, 0.0, 0.2],
                  [0.0, 1.0, 0.3, -0.4],
                  [0.5, -0.2, 1.0, 0.1]])
    Y = np.array([1.0, -2.0, 0.5])
    part = GroupPartition((2, 2))
    expect = {
        1.0: 1.3960620233266705,
        2.0: 1.0736744737605708,
        np.inf: 0.80162960872019806,
    }
    for q, want in expect.items():
        inst = ProblemInstance(B, Y, part, q, 0.4)
        ref = reference_solve(inst, tol=1e-12, max_iters=10 ** 5)
        assert ref.converged
        assert ref.objective == pytest.approx(want, rel=1e-9)


def test_reference_solve_unregularized_least_squares(rng):
    # lam ~ 0 reduces to plain least squares; compare against lstsq
    B = rng.standard_normal((12, 6))
    Y = rng.standard_normal(12)
    part = GroupPartition((3, 3))
    inst = ProblemInstance(B, Y, part, 2.0, 1e-12)
    ref = reference_solve(inst, tol=1e-13, max_iters=10 ** 6)
    w_ls, *_ = np.linalg.lstsq(B, Y, rcond=None)
    assert np.abs(ref.solution.values - w_ls).max() < 1e-6


def test_reference_solve_warm_start_agrees(rng):
    B = rng.standard_normal((10, 8))
    Y = rng.standard_normal(10)
    part = GroupPartition((4, 4))
    inst = ProblemInstance(B, Y, part, 1.5, 0.8)
    cold = reference_solve(inst, tol=1e-12)
    warm = reference_solve(inst, tol=1e-12, x0=cold.solution.values + 1e-3)
    assert abs(cold.objective - warm.objective) <= 1e-9 * max(1.0, abs(cold.objective))
    assert warm.iterations < cold.iterations


def test_reference_solution_reports_residual(rng):
    B = rng.standard_normal((6, 4))
    inst = ProblemInstance(B, rng.standard_normal(6), GroupPartition((2, 2)), 2.0, 0.3)
    ref = reference_solve(inst, tol=1e-10)
    assert ref.residual <= 1e-10
    assert ref.objective == pytest.approx(objective(inst, ref.solution), rel=1e-12)
