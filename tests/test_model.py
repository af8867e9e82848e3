import numpy as np
import pytest

from mixnorm.errors import (DimensionError, InvalidExponentError,
                            InvalidParameterError)
from mixnorm.model import (GroupPartition, GroupedVector, ProblemInstance,
                           QKind, classify_q, dual_exponent, group_norms,
                           lq_norm, mixed_norm, objective)


def test_classify_q():
    assert classify_q(1.0) is QKind.ONE
    assert classify_q(2.0) is QKind.TWO
    assert classify_q(np.inf) is QKind.INF
    assert classify_q(1.5) is QKind.GENERAL
    assert classify_q(7.0) is QKind.GENERAL


@pytest.mark.parametrize("bad", [0.5, 0.999, 0.0, -1.0, np.nan])
def test_classify_q_rejects(bad):
    with pytest.raises(InvalidExponentError):
        classify_q(bad)


@pytest.mark.parametrize("q,qbar", [(1.0, np.inf), (2.0, 2.0), (np.inf, 1.0),
                                    (1.5, 3.0), (4.0, 4 / 3), (3.0, 1.5)])
def test_dual_exponent(q, qbar):
    assert dual_exponent(q) == pytest.approx(qbar)


def test_dual_exponent_is_involution():
    for q in (1.0, 1.2, 2.0, 3.7, np.inf):
        assert dual_exponent(dual_exponent(q)) == pytest.approx(q)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_lq_norm_matches_numpy(q, rng):
    for _ in range(20):
        v = rng.standard_normal(int(rng.integers(1, 12)))
        assert lq_norm(v, q) == pytest.approx(np.linalg.norm(v, ord=q), rel=1e-12)


def test_lq_norm_large_entries_no_overflow():
    v = np.array([1e200, 2e200])
    # naive sum of |v|^q overflows for q=8 (np.linalg.norm does); the
    # max-rescaled form must match the analytic value instead
    assert np.isfinite(lq_norm(v, 8.0))
    assert lq_norm(v, 8.0) == pytest.approx(2e200 * (1 + 0.5 ** 8) ** 0.125, rel=1e-12)


def test_lq_norm_zero_vector():
    assert lq_norm(np.zeros(4), 3.0) == 0.0
    assert lq_norm(np.zeros(4), np.inf) == 0.0


def test_partition_basics():
    part = GroupPartition((2, 3, 1))
    assert part.p == 6
    assert part.s == 3
    assert list(part.offsets) == [0, 2, 5, 6]
    assert part.slice(1) == slice(2, 5)
    assert list(part.starts) == [0, 2, 5]


def test_partition_rejects_bad_sizes():
    with pytest.raises(DimensionError):
        GroupPartition((2, 0, 3))
    with pytest.raises(DimensionError):
        GroupPartition(())


def test_grouped_vector_views():
    part = GroupPartition((2, 2))
    w = GroupedVector(np.array([1.0, 2.0, 3.0, 4.0]), part)
    g = w.group(1)
    g[:] = 0.0  # live view writes through
    assert np.array_equal(w.values, [1.0, 2.0, 0.0, 0.0])


def test_group_norms_against_per_group_loop(rng):
    part = GroupPartition((3, 1, 4, 2))
    v = rng.standard_normal(10)
    for q in (1.0, 1.5, 2.0, 3.0, np.inf):
        got = group_norms(v, part, q)
        want = [np.linalg.norm(v[part.slice(i)], ord=q) for i in range(part.s)]
        assert np.allclose(got, want, rtol=1e-12)


def test_mixed_norm_is_sum_of_group_norms(rng):
    part = GroupPartition((2, 5, 3))
    v = rng.standard_normal(10)
    w = GroupedVector(v, part)
    assert mixed_norm(w, 2.0) == pytest.approx(group_norms(v, part, 2.0).sum())


def test_problem_instance_validation(rng):
    B = rng.standard_normal((5, 6))
    Y = rng.standard_normal(5)
    part = GroupPartition((3, 3))
    inst = ProblemInstance(B, Y, part, 2.0, 0.5)
    assert inst.m == 5 and inst.p == 6
    assert inst.block(1).shape == (5, 3)

    with pytest.raises(DimensionError):
        ProblemInstance(B, Y[:-1], part, 2.0, 0.5)
    with pytest.raises(DimensionError):
        ProblemInstance(B, Y, GroupPartition((3, 2)), 2.0, 0.5)
    with pytest.raises(InvalidParameterError):
        ProblemInstance(B, Y, part, 2.0, -0.1)


def test_with_lam_keeps_arrays(rng):
    B = rng.standard_normal((4, 4))
    inst = ProblemInstance(B, rng.standard_normal(4), GroupPartition((2, 2)), 2.0, 1.0)
    other = inst.with_lam(0.25)
    assert other.lam == 0.25
    # no data copies on a lam change
    assert np.shares_memory(other.B, inst.B) and np.shares_memory(other.Y, inst.Y)


def test_objective(rng):
    B = rng.standard_normal((6, 8))
    Y = rng.standard_normal(6)
    part = GroupPartition((4, 4))
    inst = ProblemInstance(B, Y, part, 2.0, 0.7)
    w = GroupedVector(rng.standard_normal(8), part)

    r = B @ w.values - Y
    want = 0.5 * r @ r + 0.7 * sum(np.linalg.norm(w.values[part.slice(i)]) for i in range(2))
    assert objective(inst, w) == pytest.approx(want, rel=1e-12)
