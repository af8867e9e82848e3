"""Tests of the benchmark's own output checks.

    python3 -m pytest perfbench/test_gapcheck.py
"""

import math

import numpy as np
import pytest

import gapcheck

QS = (1.0, 1.5, 2.0, 3.0, math.inf)


def group_prox(y: np.ndarray, lam: float, q: float) -> np.ndarray:
    """argmin_x 0.5 ||x - y||^2 + lam ||x||_q, by closed form or bisection."""
    a = np.abs(y)
    if gapcheck.group_norms(y, np.array([y.size]), gapcheck.dual_exponent(q))[0] <= lam:
        return np.zeros_like(y)
    if q == 1:
        return np.sign(y) * np.maximum(a - lam, 0.0)
    if q == 2:
        return y * (1.0 - lam / np.linalg.norm(y))
    if q == math.inf:
        # y minus its projection onto the l1 ball of radius lam
        u = np.sort(a)[::-1]
        css = np.cumsum(u) - lam
        rho = np.nonzero(u - css / np.arange(1, u.size + 1) > 0)[0][-1]
        return np.sign(y) * np.minimum(a, css[rho] / (rho + 1))

    # x_j = sign(y_j) t_j with t_j + lam t_j^(q-1) / c^(q-1) = |y_j| and
    # c = ||t||_q; both levels solved by bisection
    def t_of(c):
        lo, hi = np.zeros_like(a), a.copy()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            big = mid + lam * mid ** (q - 1) / c ** (q - 1) > a
            hi, lo = np.where(big, mid, hi), np.where(big, lo, mid)
        return 0.5 * (lo + hi)

    lo, hi = 0.0, float(np.sum(a ** q) ** (1 / q))
    for _ in range(200):
        c = 0.5 * (lo + hi)
        if np.sum(t_of(c) ** q) ** (1 / q) > c:
            lo = c
        else:
            hi = c
    return np.sign(y) * t_of(0.5 * (lo + hi))


@pytest.mark.parametrize("q", QS)
def test_gap_is_zero_at_the_identity_design_minimiser(q):
    rng = np.random.default_rng(7)
    sizes = np.array([3, 5, 4, 2])
    Y = 2.0 * rng.standard_normal(sizes.sum())
    B = np.eye(sizes.sum())
    norms = gapcheck.group_norms(Y, sizes, gapcheck.dual_exponent(q))
    lam = float(np.median(norms))  # some groups zero, some not
    starts = np.concatenate(([0], np.cumsum(sizes)))
    x = np.concatenate([group_prox(Y[a:b], lam, q) for a, b in zip(starts, starts[1:])])
    assert np.any(x == 0.0) and np.any(x != 0.0)

    P, D = gapcheck.dense_gap(B, Y, x, sizes, q, lam)
    assert abs(gapcheck.relative_gap(P, D)) < 1e-9

    P2, D2 = gapcheck.dense_gap(B, Y, x + 0.05 * rng.standard_normal(x.size), sizes, q, lam)
    assert gapcheck.relative_gap(P2, D2) > 1e-4


@pytest.mark.parametrize("q", QS)
def test_primal_bounds_dual_at_random_points(q):
    rng = np.random.default_rng(11)
    sizes = np.array([4, 4, 2, 6])
    for _ in range(200):
        B = rng.standard_normal((9, sizes.sum()))
        Y = rng.standard_normal(9)
        x = rng.standard_normal(sizes.sum()) * rng.integers(0, 2, sizes.sum())
        lam = float(rng.uniform(0.01, 2.0) * gapcheck.dense_lambda_max(B, Y, sizes, q))
        P, D = gapcheck.dense_gap(B, Y, x, sizes, q, lam)
        assert P >= D - 1e-12 * max(1.0, abs(P))


@pytest.mark.parametrize("q", QS)
def test_multitask_gap_matches_the_stacked_design(q):
    rng = np.random.default_rng(3)
    m, d, k = 6, 5, 3
    A, Y = rng.standard_normal((m, d)), rng.standard_normal((m, k))
    W = rng.standard_normal((d, k))
    B = np.zeros((m * k, d * k))
    for t in range(k):
        B[t * m:(t + 1) * m, t::k] = A
    sizes = np.full(d, k)
    lam = 0.3 * gapcheck.multitask_lambda_max(A, Y, q)
    assert gapcheck.close(lam / 0.3, gapcheck.dense_lambda_max(B, Y.T.ravel(), sizes, q), 1e-12)
    P, D = gapcheck.multitask_gap(A, Y, W, q, lam)
    P2, D2 = gapcheck.dense_gap(B, Y.T.ravel(), W.ravel(), sizes, q, lam)
    assert gapcheck.close(P, P2, 1e-12) and gapcheck.close(D, D2, 1e-12)
