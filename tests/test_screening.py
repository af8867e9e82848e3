import numpy as np
import pytest

from conftest import random_instance
from mixnorm.errors import InputError, InvalidParameterError
from mixnorm.model import (GroupPartition, GroupedVector, ProblemInstance,
                           dual_exponent, group_norms, lq_norm)
from mixnorm.screening import (DualPoint, dual_feasibility_scale,
                               dual_from_primal, group_bound_cache,
                               hoelder_direction, lambda_max, reduced_instance,
                               screen_groups, screen_sequential, screening_ball)
from mixnorm.solver import SolverConfig, solve


def tight_dual(inst, tol=1e-12):
    res = solve(inst, SolverConfig(tol=tol, max_iters=50000))
    return res, dual_from_primal(inst, res.solution)


def test_lambda_max_matches_manual(rng):
    inst = random_instance(rng, 12, 18, 2.0)
    lmax = lambda_max(inst)
    want = max(
        lq_norm(inst.block(i).T @ inst.Y, dual_exponent(inst.q))
        for i in range(inst.partition.s)
    )
    assert lmax.value == pytest.approx(want, rel=1e-12)
    got_g = lq_norm(inst.block(lmax.group).T @ inst.Y, dual_exponent(inst.q))
    assert got_g == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lambda_max_rejects_non_finite_design(bad, rng):
    inst = random_instance(rng, 8, 10, 2.0)
    B = inst.B.copy()
    B[3, 4] = bad
    with pytest.raises(InputError):
        lambda_max(ProblemInstance(B, inst.Y, inst.partition, 2.0, 0.0))


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, np.inf])
def test_solution_zero_at_lambda_max(q, rng):
    inst = random_instance(rng, 14, 20, q)
    lmax = lambda_max(inst).value
    res = solve(inst.with_lam(lmax * 1.0001), SolverConfig(tol=1e-12))
    assert np.abs(res.solution.values).max() <= 1e-10
    # and strictly below, some group activates
    res2 = solve(inst.with_lam(lmax * 0.95), SolverConfig(tol=1e-12))
    assert group_norms(res2.solution.values, inst.partition, q).max() > 1e-8


@pytest.mark.parametrize("q", [1.0, 1.4, 2.0, 3.0, np.inf])
def test_hoelder_direction_properties(q, rng):
    qbar = dual_exponent(q)
    for _ in range(15):
        u = rng.standard_normal(int(rng.integers(1, 8)))
        if not np.any(u):
            continue
        d = hoelder_direction(u, q)
        assert lq_norm(d, q) == pytest.approx(1.0, abs=1e-10)
        assert u @ d == pytest.approx(lq_norm(u, qbar), rel=1e-10)


def test_hoelder_direction_rejects_zero():
    with pytest.raises(InvalidParameterError):
        hoelder_direction(np.zeros(3), 2.0)


def test_dual_from_primal_scaled_feasible(rng):
    inst = random_instance(rng, 15, 24, 2.0, lam_ratio=0.5)
    _, theta = tight_dual(inst)
    assert theta.lam == inst.lam
    assert dual_feasibility_scale(inst, theta.theta) >= 1.0 - 1e-12
    # every group satisfies the dual constraint after the rescale
    for i in range(inst.partition.s):
        assert lq_norm(inst.block(i).T @ theta.theta, dual_exponent(inst.q)) <= 1 + 1e-10


def test_group_bound_cache_matches_loop(rng):
    inst = random_instance(rng, 10, 16, 3.0)
    cache = group_bound_cache(inst)
    for i in range(inst.partition.s):
        cols = np.linalg.norm(inst.block(i), axis=0)
        assert cache[i] == pytest.approx(lq_norm(cols, dual_exponent(inst.q)), rel=1e-12)


def test_group_bound_is_lipschitz_constant(rng):
    # |  ||B_i^T a||_qbar - ||B_i^T b||_qbar | <= T_i ||a - b||
    inst = random_instance(rng, 12, 20, 1.5)
    cache = group_bound_cache(inst)
    for _ in range(40):
        a = rng.standard_normal(inst.m)
        b = rng.standard_normal(inst.m)
        for i in range(inst.partition.s):
            na = lq_norm(inst.block(i).T @ a, dual_exponent(inst.q))
            nb = lq_norm(inst.block(i).T @ b, dual_exponent(inst.q))
            assert abs(na - nb) <= cache[i] * np.linalg.norm(a - b) + 1e-10


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, np.inf])
def test_ball_contains_next_dual_point(q, rng):
    # the certified ball at lam_new must contain theta*(lam_new)
    inst = random_instance(rng, 16, 24, q, lam_ratio=0.6)
    lmax = lambda_max(inst)
    _, theta_old = tight_dual(inst)
    for ratio in (0.8, 0.5, 0.3):
        lam_new = ratio * inst.lam
        ball = screening_ball(inst, lam_new, inst.lam, theta_old, lmax)
        _, theta_new = tight_dual(inst.with_lam(lam_new))
        dist = np.linalg.norm(theta_new.theta - ball.center)
        assert dist <= ball.radius * (1 + 1e-6) + 1e-9


def test_ball_from_lambda_max_branch(rng):
    # lam_old == lambda_max uses the boundary direction, not the plain dual
    inst = random_instance(rng, 14, 21, 2.0)
    lmax = lambda_max(inst)
    theta_old = DualPoint(inst.Y / lmax.value, lmax.value)
    lam_new = 0.7 * lmax.value
    ball = screening_ball(inst, lam_new, lmax.value, theta_old, lmax)
    _, theta_new = tight_dual(inst.with_lam(lam_new))
    assert np.linalg.norm(theta_new.theta - ball.center) <= ball.radius * (1 + 1e-6) + 1e-9


def test_screening_ball_validates_order(rng):
    inst = random_instance(rng, 10, 12, 2.0, lam_ratio=0.5)
    theta = DualPoint(np.zeros(inst.m), inst.lam)
    with pytest.raises(InvalidParameterError):
        screening_ball(inst, inst.lam * 1.5, inst.lam, theta)
    with pytest.raises(InvalidParameterError):
        screening_ball(inst, 0.0, inst.lam, theta)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, np.inf])
def test_screening_is_safe(q, rng):
    # a discarded group is always absent from the tight solution
    for trial in range(5):
        inst = random_instance(rng, 15, 30, q, lam_ratio=0.7)
        lmax = lambda_max(inst)
        _, theta_old = tight_dual(inst)
        lam_new = 0.5 * inst.lam
        mask = screen_groups(inst, lam_new, inst.lam, theta_old)
        res_new = solve(inst.with_lam(lam_new), SolverConfig(tol=1e-12, max_iters=50000))
        norms = group_norms(res_new.solution.values, inst.partition, q)
        assert np.all(norms[mask] <= 1e-6)


def test_screen_groups_above_lambda_max_discards_all(rng):
    inst = random_instance(rng, 12, 18, 2.0)
    lmax = lambda_max(inst)
    theta = DualPoint(inst.Y / lmax.value, lmax.value)
    mask = screen_groups(inst, lmax.value * 1.01, lmax.value, theta)
    assert mask.all()


def test_sequential_screening_matches_plain_solves(rng):
    inst = random_instance(rng, 20, 40, 2.0)
    seq = screen_sequential(inst, np.array([0.9, 0.7, 0.5, 0.3, 0.15]),
                            solver_config=SolverConfig(tol=1e-10))
    assert seq.lam_max == pytest.approx(lambda_max(inst).value)
    for st in seq.steps:
        plain = solve(inst.with_lam(st.lam), SolverConfig(tol=1e-10, max_iters=50000))
        rel = abs(st.objective - plain.f_history[-1]) / max(1.0, abs(plain.f_history[-1]))
        assert rel <= 1e-7, f"lam={st.lam}"


def test_sequential_screening_starting_above_lambda_max(rng):
    # first grid point above lambda_max must not poison the next ball
    inst = random_instance(rng, 14, 24, 2.0)
    seq = screen_sequential(inst, np.array([1.01, 0.8, 0.5]),
                            solver_config=SolverConfig(tol=1e-10))
    assert seq.steps[0].groups_kept == 0
    assert np.abs(seq.steps[0].solution).max() == 0.0
    plain = solve(inst.with_lam(seq.steps[2].lam), SolverConfig(tol=1e-10, max_iters=50000))
    rel = abs(seq.steps[2].objective - plain.f_history[-1]) / max(1.0, abs(plain.f_history[-1]))
    assert rel <= 1e-7


def test_sequential_screening_repeated_lambda(rng):
    inst = random_instance(rng, 12, 18, 2.0)
    seq = screen_sequential(inst, np.array([0.6, 0.6, 0.4]))
    assert np.array_equal(seq.steps[0].mask, seq.steps[1].mask)
    # the repeat is re-solved warm from the previous point, so only
    # solver-tolerance agreement is promised
    assert seq.steps[0].objective == pytest.approx(seq.steps[1].objective, rel=1e-6)


def test_sequential_screening_ratio_contract(rng):
    # the driver keeps the caller's ratios and scales them by its one lambda_max
    inst = random_instance(rng, 14, 24, 2.0)
    ratios = np.array([1.2, 0.9, 0.5])
    seq = screen_sequential(inst, ratios)
    assert np.array_equal(seq.ratios, ratios)
    assert seq.lam_max == lambda_max(inst).value
    assert np.array_equal(seq.lambdas, ratios * seq.lam_max)
    assert seq.steps[0].groups_kept == 0


def test_sequential_screening_rejects_increasing(rng):
    inst = random_instance(rng, 10, 12, 2.0)
    with pytest.raises(InvalidParameterError):
        screen_sequential(inst, np.array([0.5, 0.7]))


def test_reduced_instance_solves_like_full(rng):
    inst = random_instance(rng, 16, 32, 2.0, lam_ratio=0.4)
    keep = np.zeros(inst.partition.s, dtype=bool)
    keep[::2] = True
    sub, col_keep = reduced_instance(inst, keep, inst.lam)
    assert sub.p == int(col_keep.sum())
    # the reduced design is the kept columns in order
    assert np.array_equal(sub.B, inst.B[:, col_keep])
    res = solve(sub, SolverConfig(tol=1e-12))
    # embed and check the kept-group KKT system is satisfied for the
    # restricted problem by comparing objectives against a direct solve
    direct = solve(
        ProblemInstance(inst.B[:, col_keep], inst.Y, sub.partition, inst.q, inst.lam),
        SolverConfig(tol=1e-12),
    )
    assert res.f_history[-1] == pytest.approx(direct.f_history[-1], rel=1e-10)
    # keeping every group copies nothing: the instance itself at the new lam
    whole, col_all = reduced_instance(inst, np.ones(inst.partition.s, dtype=bool), 0.5)
    assert whole.B is inst.B and whole.lam == 0.5 and col_all.all()


def test_sequential_all_discarded_objective(rng):
    inst = random_instance(rng, 12, 18, 2.0)
    seq = screen_sequential(inst, np.array([1.05]))
    assert seq.steps[0].objective == pytest.approx(0.5 * inst.Y @ inst.Y, rel=1e-12)


def test_rejection_ratio_range(rng):
    inst = random_instance(rng, 15, 30, 2.0)
    seq = screen_sequential(inst, np.array([0.95, 0.75, 0.5, 0.25]))
    rr = seq.rejection_ratios
    assert np.all(rr >= 0.0) and np.all(rr <= 1.0)
