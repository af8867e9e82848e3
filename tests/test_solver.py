import numpy as np
import pytest

from conftest import random_instance
from mixnorm.errors import DivergenceError, InvalidParameterError
from mixnorm.model import (GroupPartition, GroupedVector, ProblemInstance,
                           group_norms, objective)
from mixnorm.oracle import reference_solve
from mixnorm.solver import SolverConfig, default_l0, kkt_group_residuals, solve


def small_instance(rng, q=2.0, lam_ratio=0.3, m=15, p=20):
    return random_instance(rng, m, p, q, lam_ratio=lam_ratio,
                           partition=GroupPartition((5, 5, 5, 5)) if p == 20 else None)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        SolverConfig(max_iters=0)
    with pytest.raises(InvalidParameterError):
        SolverConfig(tol=-1.0)
    with pytest.raises(InvalidParameterError):
        SolverConfig(L0=0.0)


def test_default_l0_positive(rng):
    inst = small_instance(rng)
    assert default_l0(inst) > 0


def one_step(inst, s):
    # the first iteration has no momentum (beta = -1 on x_prev = x0), so it
    # is one backtracking prox step from x0 starting at L = default_l0
    res = solve(inst, SolverConfig(max_iters=1), x0=s)
    return res.solution, res.L_final


def test_line_search_majorizes(rng):
    # the accepted L certifies the quadratic upper bound at the step
    inst = small_instance(rng)
    s = GroupedVector(rng.standard_normal(inst.p), inst.partition)
    x_new, L = one_step(inst, s)
    r_s = inst.B @ s.values - inst.Y
    g = inst.B.T @ r_s
    d = x_new.values - s.values
    smooth_s = 0.5 * r_s @ r_s
    smooth_new = 0.5 * np.sum((inst.B @ x_new.values - inst.Y) ** 2)
    assert smooth_new <= smooth_s + g @ d + 0.5 * L * d @ d + 1e-9


def test_line_search_L_bounded_by_twice_lipschitz(rng):
    # doubling overshoots the true curvature by at most a factor of two
    inst = small_instance(rng)
    sigma = np.linalg.norm(inst.B, 2) ** 2
    s = GroupedVector(rng.standard_normal(inst.p), inst.partition)
    _, L = one_step(inst, s)
    assert L <= 2 * sigma + 1e-9


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_solver_matches_reference(q, rng):
    inst = random_instance(rng, 18, 24, q, lam_ratio=0.35)
    res = solve(inst, SolverConfig(tol=1e-12, max_iters=30000))
    if q in (1.5, 3.0):
        # cold-start ISTA with the per-group brentq prox is minutes-slow at
        # general q; start it perturbed off the candidate instead.  The
        # fixed-point residual certificate does not depend on the start: if
        # the candidate were wrong, ISTA would walk away from it and the
        # objectives would disagree.  Residual 1e-8 puts the solution within
        # ~1e-7 of the fixed point, and the objective gap is quadratic in
        # that distance, far below the 1e-8 relative check.
        x0 = res.solution.values + 1e-6 * np.sin(np.arange(inst.p))
        ref = reference_solve(inst, tol=1e-8, max_iters=20000, x0=x0)
    else:
        ref = reference_solve(inst, tol=1e-13, max_iters=500000)
    rel = abs(res.f_history[-1] - ref.objective) / max(1.0, abs(ref.objective))
    assert res.converged and ref.converged
    assert rel <= 1e-8


def test_history_and_result_fields(rng):
    inst = small_instance(rng)
    res = solve(inst, SolverConfig(tol=1e-10, max_iters=5000))
    assert res.f_history.shape == (res.iterations + 1,)
    assert res.f_history[-1] == pytest.approx(objective(inst, res.solution), rel=1e-12)
    assert res.L_final >= 0


def test_objective_decreases_overall(rng):
    # acceleration is not monotone per-step, but the running minimum is
    inst = small_instance(rng, q=2.0)
    res = solve(inst, SolverConfig(tol=1e-12, max_iters=10000))
    running = np.minimum.accumulate(res.f_history)
    assert running[-1] <= running[0]
    assert res.f_history[-1] <= res.f_history[0] + 1e-12


def test_warm_start_reduces_iterations(rng):
    inst = small_instance(rng, lam_ratio=0.4)
    cold = solve(inst, SolverConfig(tol=1e-10))
    warm = solve(inst, SolverConfig(tol=1e-10), x0=cold.solution)
    assert warm.iterations <= cold.iterations
    assert abs(warm.f_history[-1] - cold.f_history[-1]) <= 1e-7 * max(1.0, abs(cold.f_history[-1]))


def test_lam_zero_reaches_least_squares(rng):
    B = rng.standard_normal((20, 8))
    Y = rng.standard_normal(20)
    part = GroupPartition((4, 4))
    inst = ProblemInstance(B, Y, part, 2.0, 0.0)
    res = solve(inst, SolverConfig(tol=1e-14, max_iters=50000))
    w_ls, *_ = np.linalg.lstsq(B, Y, rcond=None)
    f_ls = 0.5 * np.sum((B @ w_ls - Y) ** 2)
    assert res.f_history[-1] == pytest.approx(f_ls, abs=1e-8)


def test_huge_lam_gives_zero(rng):
    inst = small_instance(rng, lam_ratio=1.5)
    res = solve(inst, SolverConfig(tol=1e-12))
    assert np.abs(res.solution.values).max() <= 1e-10


def test_divergence_detected():
    B = np.array([[np.nan, 0.0], [0.0, 1.0]])
    inst = ProblemInstance(B, np.array([1.0, 1.0]), GroupPartition((2,)), 2.0, 0.1)
    with pytest.raises(DivergenceError):
        solve(inst)


def test_deterministic(rng):
    inst = small_instance(rng)
    a = solve(inst, SolverConfig(tol=1e-10))
    b = solve(inst, SolverConfig(tol=1e-10))
    assert np.array_equal(a.solution.values, b.solution.values)
    assert np.array_equal(a.f_history, b.f_history)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, np.inf])
def test_kkt_residuals_small_at_solution(q, rng):
    inst = random_instance(rng, 16, 20, q, lam_ratio=0.3)
    res = solve(inst, SolverConfig(tol=1e-13, max_iters=40000))
    r = kkt_group_residuals(inst, res.solution)
    assert r.shape == (inst.partition.s,)
    assert r.max() <= 1e-4


def test_kkt_residuals_large_away_from_solution(rng):
    inst = small_instance(rng)
    w = GroupedVector(np.ones(inst.p), inst.partition)
    r = kkt_group_residuals(inst, w)
    assert r.max() > 1e-2


def test_kkt_requires_positive_lam(rng):
    inst = small_instance(rng).with_lam(0.0)
    w = GroupedVector(np.zeros(inst.p), inst.partition)
    with pytest.raises(InvalidParameterError):
        kkt_group_residuals(inst, w)
