import numpy as np
import pytest

from conftest import numpy_relative_gap, random_instance
from mixnorm.errors import InvalidParameterError
from mixnorm.model import (ZERO_GROUP_NORM, GroupPartition, GroupedVector,
                           ProblemInstance, group_norms)
from mixnorm import prox as prox_module
from mixnorm import solver as solver_module
from mixnorm.path import (PathSpec, geometric_ratios, linear_ratios,
                          recovery_experiment, run_path, stacked_instance)
from mixnorm.screening import lambda_max
from mixnorm.solver import SolverConfig, solve
from mixnorm.synth import SynthSpec, gen_joint_sparse, gen_screening_instance


def test_linear_ratios_grid():
    r = linear_ratios()
    assert r.shape == (91,)
    assert r[0] == 1.0 and r[-1] == pytest.approx(0.1)
    assert np.all(np.diff(r) < 0)
    # uniform spacing of 0.01
    assert np.allclose(np.diff(r), -0.01)


def test_geometric_ratios_grid():
    r = geometric_ratios()
    assert r.shape == (100,)
    assert r[0] == 1.0
    assert np.allclose(r[1:] / r[:-1], 0.9)


def test_path_spec_validation(rng):
    # the driver checks the ratios; PathSpec only carries them
    inst = random_instance(rng, 12, 16, 2.0).with_lam(0.0)
    for bad in ((0.5, 0.7), (0.5, 0.0), ()):  # increasing, zero, empty
        with pytest.raises(InvalidParameterError):
            run_path(inst, PathSpec(ratios=bad))
    # a ratio above 1 is a step above lambda_max, where the solution is zero
    for screening in (False, True):
        out = run_path(inst, PathSpec(ratios=(1.2, 0.5), screening=screening))
        assert np.array_equal(out.ratios, [1.2, 0.5])
        assert not np.any(out.solutions[0])
        assert np.any(out.solutions[1])


def test_run_path_off_basics(rng):
    inst = random_instance(rng, 18, 30, 2.0).with_lam(0.0)
    spec = PathSpec(ratios=tuple(np.linspace(1.0, 0.2, 9)),
                    solver=SolverConfig(tol=1e-10))
    out = run_path(inst, spec)
    assert out.lambdas.shape == (9,)
    assert np.allclose(out.lambdas, out.ratios * out.lam_max)
    # optimal value is nondecreasing in lam, so nonincreasing along the path
    assert np.all(np.diff(out.objectives) <= 1e-8)
    assert out.solutions is not None and len(out.solutions) == 9


def test_run_path_screening_matches_plain(rng):
    inst = random_instance(rng, 20, 40, 2.0).with_lam(0.0)
    ratios = tuple(np.linspace(1.0, 0.15, 12))
    on = run_path(inst, PathSpec(ratios=ratios, screening=True,
                                 solver=SolverConfig(tol=1e-10)))
    off = run_path(inst, PathSpec(ratios=ratios, screening=False,
                                  solver=SolverConfig(tol=1e-10)))
    rel = np.abs(on.objectives - off.objectives) / np.maximum(1.0, np.abs(off.objectives))
    assert rel.max() <= 1e-7
    assert np.all(on.groups_kept <= inst.partition.s)
    assert np.all(off.rejection_ratios == 0.0)


@pytest.mark.parametrize("q", [1.5, 2.0])
def test_unscreened_path_is_a_warm_started_solve_loop(q, rng):
    # screening off is the driver with nothing discarded: the same solves,
    # bit for bit, as a plain warm-started loop, the ratio-1.0 point included
    inst = random_instance(rng, 16, 24, q).with_lam(0.0)
    ratios = (1.0, 0.8, 0.6, 0.4)
    config = SolverConfig(tol=1e-9)
    out = run_path(inst, PathSpec(ratios=ratios, solver=config))
    lmax = lambda_max(inst).value
    x = GroupedVector(np.zeros(inst.p), inst.partition)
    for i, r in enumerate(ratios):
        res = solve(inst.with_lam(r * lmax), config, x0=x)
        x = res.solution
        assert out.iterations[i] == res.iterations
        assert out.backtracks[i] == res.backtracks
        assert out.restarts[i] == res.restarts
        assert out.prox_sweeps[i] == res.prox_sweeps
        assert out.prox_joint_steps[i] == res.prox_joint_steps
        assert out.gaps[i] == res.gap
        assert out.objectives[i] == res.f_history[-1]
        assert np.array_equal(out.solutions[i], res.solution.values)
    assert out.iterations[0] > 0
    assert (out.prox_sweeps.sum() > 0) == (q != 2.0)
    assert (out.prox_joint_steps.sum() > 0) == (q != 2.0)
    assert np.all(out.groups_kept == inst.partition.s)
    assert np.all(out.rejection_ratios == 0.0)
    assert np.array_equal(out.ratios, ratios)


def test_general_q_path_sweep_budget(monkeypatch):
    # every group starts joint Newton on (x, c), from the solver's iterate
    # or from one sweep at the shrink start, and only the groups those
    # steps do not certify take the bracketed zero find: 0.40 sweeps a call
    # on these paths, against 1.5 when only the iterate gave a start
    base = gen_screening_instance(SynthSpec(m=50, d=100, num_groups=10, seed=1), q=1.5)
    sweeps, steps, calls = [], [], []
    h_roots, joint_newton = prox_module._h_roots, prox_module._joint_newton
    prox = solver_module._prox_concat

    def counted_joint_newton(*args):
        # the bracketed loop calls _joint_step too; only joint Newton's count
        x, done, n = joint_newton(*args)
        steps.append(n)
        return x, done, n

    monkeypatch.setattr(prox_module, "_h_roots",
                        lambda *args, **kwargs: sweeps.append(1) or h_roots(*args, **kwargs))
    monkeypatch.setattr(prox_module, "_joint_newton", counted_joint_newton)
    monkeypatch.setattr(solver_module, "_prox_concat",
                        lambda *args: calls.append(1) or prox(*args))
    spec = PathSpec(ratios=(1.0, 0.9, 0.8), screening=False, solver=SolverConfig(tol=1e-8))
    reported = reported_steps = 0
    for q in (1.5, 3.0):
        out = run_path(ProblemInstance(base.B, base.Y, base.partition, q, 0.0), spec)
        assert out.converged.all()
        reported += int(out.prox_sweeps.sum())
        reported_steps += int(out.prox_joint_steps.sum())
    assert reported == len(sweeps)
    assert reported_steps == sum(steps) > 0
    assert len(sweeps) <= 0.45 * len(calls)


def test_path_steps_report_convergence(rng):
    inst = random_instance(rng, 16, 24, 2.0).with_lam(0.0)
    ratios = (1.0, 0.5, 0.3)
    capped = run_path(inst, PathSpec(ratios=ratios, screening=True,
                                     solver=SolverConfig(max_iters=2)))
    # the ratio-1.0 point is screened out entirely: no solve, nothing unconverged
    assert capped.iterations[0] == 0 and capped.converged[0]
    assert not capped.converged[1:].any()
    assert capped.unconverged_steps == 2
    done = run_path(inst, PathSpec(ratios=ratios, solver=SolverConfig(tol=1e-10)))
    assert done.converged.all() and done.unconverged_steps == 0


@pytest.mark.parametrize("q", [1.5, 2.0, np.inf])
def test_path_step_gap_is_taken_on_the_full_instance(q, rng):
    # the gap certifies x_full against every group, the discarded ones too
    inst = random_instance(rng, 16, 24, q).with_lam(0.0)
    sizes = inst.partition.sizes
    for config in (SolverConfig(max_iters=4), SolverConfig(tol=1e-12)):
        out = run_path(inst, PathSpec(ratios=(1.0, 0.7, 0.5, 0.3), screening=True,
                                      solver=config))
        for st in out.steps:
            want = numpy_relative_gap(inst.B, inst.Y, st.solution, sizes, q, st.lam)
            assert st.gap == pytest.approx(want, rel=1e-6, abs=1e-12)
    assert out.gaps.max() <= 1e-6
    assert out.iterations[0] == out.backtracks[0] == out.restarts[0] == 0


def test_step_after_unconverged_solve_discards_nothing(rng):
    # the screening ball assumes the previous solve reached its optimum
    inst = random_instance(rng, 16, 24, 2.0).with_lam(0.0)
    s = inst.partition.s
    ratios = (1.0, 0.9, 0.8, 0.7, 0.6)
    capped = run_path(inst, PathSpec(ratios=ratios, screening=True,
                                     solver=SolverConfig(max_iters=1)))
    assert capped.groups_kept[0] == 0 and capped.converged[0]
    assert not capped.converged[1:].any()
    assert np.all(capped.groups_kept[2:] == s)
    # a converged path still discards groups after its solved steps
    done = run_path(inst, PathSpec(ratios=ratios, screening=True,
                                   solver=SolverConfig(tol=1e-12)))
    assert done.converged.all()
    assert np.all(done.groups_kept[2:] < s)


def test_run_path_no_solutions_stored(rng):
    inst = random_instance(rng, 12, 16, 2.0).with_lam(0.0)
    out = run_path(inst, PathSpec(ratios=(0.9, 0.5), store_solutions=False))
    assert out.solutions is None


def test_run_path_rejects_zero_response():
    B = np.eye(4)
    inst = ProblemInstance(B, np.zeros(4), GroupPartition((2, 2)), 2.0, 0.0)
    with pytest.raises(InvalidParameterError):
        run_path(inst, PathSpec(ratios=(0.5,)))


def kron_stacked(A, k):
    """The dense stacked design, entry A[j, i] at (t*m + j, i*k + t)."""
    m, d = A.shape
    B = np.zeros((m * k, d * k))
    for t in range(k):
        for i in range(d):
            B[t * m:(t + 1) * m, i * k + t] = A[:, i]
    return B


def test_stacked_instance_layout(rng):
    m, d, k = 6, 5, 3
    A = rng.standard_normal((m, d))
    Y = rng.standard_normal((m, k))
    inst = stacked_instance(A, Y, 2.0, 0.3)
    dense = kron_stacked(A, k)
    assert inst.B.shape == dense.shape == (m * k, d * k)
    assert inst.B.nbytes == A.nbytes
    assert inst.Y.shape == (m * k,)
    assert inst.partition.s == d
    assert set(inst.partition.sizes) == {k}
    # multiplying the stacked system equals per-task products
    X = rng.standard_normal((d, k))
    w = X.ravel()
    assert np.allclose(inst.B @ w, (A @ X).T.ravel())
    assert np.allclose(inst.B @ w, dense @ w, rtol=1e-14, atol=1e-14)
    r = rng.standard_normal(m * k)
    assert np.allclose(inst.B.T @ r, dense.T @ r, rtol=1e-14, atol=1e-14)
    assert np.allclose(inst.column_norms(), np.linalg.norm(dense, axis=0), rtol=1e-14)
    assert np.allclose(inst.Y, Y.T.ravel())
    # row i of X is group i of w
    assert np.allclose(w[inst.partition.slice(2)], X[2])
    # selecting groups keeps the columns of those groups, in order
    keep = np.array([True, False, True, True, False])
    sub = inst.select_groups(keep)
    col_keep = np.repeat(keep, k)
    assert np.array_equal(sub.toarray(), dense[:, col_keep])
    v = rng.standard_normal(int(col_keep.sum()))
    assert np.allclose(sub @ v, dense[:, col_keep] @ v, rtol=1e-14, atol=1e-14)
    assert np.allclose(sub.T @ r, dense[:, col_keep].T @ r, rtol=1e-14, atol=1e-14)
    for i in range(d):
        blk = inst.block(i)
        assert blk.shape == (m * k, k)
        assert np.array_equal(blk.toarray(), dense[:, inst.partition.slice(i)])
        assert np.allclose(blk.T @ r, dense[:, inst.partition.slice(i)].T @ r,
                           rtol=1e-14, atol=1e-14)
    assert np.array_equal(inst.B.toarray(), dense)


def test_stacked_instance_at_synth_defaults_stores_only_A():
    # the stacked matrix would be (100*50) x (200*50) doubles: 400 MB
    A, _, Y = gen_joint_sparse(SynthSpec())
    inst = stacked_instance(A, Y, 2.0, 0.0)
    assert inst.B.shape == (5000, 10000)
    assert inst.B.nbytes == A.nbytes == 160_000


def test_stacked_block_norms_match_dense_blocks(rng):
    # block i of the stacked design has k orthogonal copies of column i of
    # A, so its spectral norm is ||a_i|| without an SVD
    m, d, k = 7, 6, 4
    A = rng.standard_normal((m, d))
    inst = stacked_instance(A, rng.standard_normal((m, k)), 2.0, 0.0)
    dense = kron_stacked(A, k)
    want = [np.linalg.norm(dense[:, inst.partition.slice(i)], 2) for i in range(d)]
    assert np.allclose(inst.block_norms(), want, rtol=1e-13, atol=0.0)
    as_dense = ProblemInstance(dense, inst.Y, inst.partition, 2.0, 0.0)
    assert np.allclose(as_dense.block_norms(), want, rtol=1e-13, atol=0.0)


def test_screening_discards_at_synth_defaults():
    # at k = 50 the column-norm bound is sqrt(50) times the operator norm of
    # a row group's block; with it alone nothing is discarded below lambda_max
    A, _, Y = gen_joint_sparse(SynthSpec())
    inst = stacked_instance(A, Y, 2.0, 0.0)
    ratios = tuple(geometric_ratios(35))
    config = SolverConfig(tol=1e-7)
    screened = run_path(inst, PathSpec(ratios=ratios, screening=True, solver=config))
    plain = run_path(inst, PathSpec(ratios=ratios, screening=False, solver=config))
    for step, x in zip(screened.steps, plain.solutions):
        nonzero = group_norms(x, inst.partition, 2.0) > ZERO_GROUP_NORM
        assert not np.any(step.mask & nonzero)
    assert ratios[1] == 0.9
    true_zero = group_norms(plain.solutions[1], inst.partition, 2.0) <= ZERO_GROUP_NORM
    assert np.count_nonzero(screened.steps[1].mask) >= 0.9 * np.count_nonzero(true_zero)


@pytest.mark.parametrize("q", [1.5, 2.0])
def test_screened_recovery_matches_dense_stacking(q):
    # the matrix-free design takes the same solver and screening decisions
    # as the dense stacked matrix it stands for
    spec = SynthSpec(m=30, d=40, k=5, d_tilde=5, sigma=0.1, seed=3)
    config = SolverConfig(tol=1e-7)
    A, X_true, Y = gen_joint_sparse(spec)
    free = stacked_instance(A, Y, q, 0.0)
    dense = ProblemInstance(kron_stacked(A, spec.k), Y.T.ravel(), free.partition, q, 0.0)
    path_spec = PathSpec(ratios=tuple(geometric_ratios(20)), screening=True, solver=config)
    got, want = run_path(free, path_spec), run_path(dense, path_spec)
    assert np.array_equal(got.iterations, want.iterations)
    assert np.array_equal(got.groups_kept, want.groups_kept)
    assert 0 < got.groups_kept[-1] < spec.d
    for x, y in zip(got.solutions, want.solutions):
        assert np.abs(x - y).max() <= 1e-12
    assert got.lam_max == pytest.approx(want.lam_max, rel=1e-12)
    rep = recovery_experiment(spec, q=q, num_ratios=20, solver_config=config, screening=True)
    errors = [np.linalg.norm(x - X_true.ravel()) for x in want.solutions]
    assert np.allclose(rep.frob_errors, errors, rtol=1e-12, atol=1e-12)


def test_stacked_instance_rejects_mismatch(rng):
    A = rng.standard_normal((5, 4))
    Y = rng.standard_normal((6, 2))
    with pytest.raises(Exception):
        stacked_instance(A, Y, 2.0, 0.1)


def test_recovery_experiment_small():
    spec = SynthSpec(m=25, d=30, k=4, d_tilde=4, sigma=0.05, seed=21)
    rep = recovery_experiment(spec, q=2.0, num_ratios=10)
    assert rep.ratios.shape == (10,)
    assert rep.frob_errors.shape == (10,)
    assert rep.best_index == int(np.argmin(rep.frob_errors))
    assert rep.best_error == rep.frob_errors[rep.best_index]
    assert rep.best_solution.shape == (30, 4)
    assert rep.final_row_norms.shape == (30,)
    want_support = np.zeros(30, dtype=bool)
    want_support[:4] = True
    assert np.array_equal(rep.true_support, want_support)
    assert rep.lam_max > 0


def test_recovery_identifies_support():
    spec = SynthSpec(m=40, d=50, k=6, d_tilde=5, sigma=0.02, seed=33)
    rep = recovery_experiment(spec, q=2.0, num_ratios=15)
    top = np.argsort(rep.final_row_norms)[-5:]
    assert set(top.tolist()) == set(range(5))
