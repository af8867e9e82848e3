"""Output checks for mixnorm, written apart from the package in numpy only.

For the l1/lq problem

    P(x) = 0.5 * ||Y - B x||^2 + lam * sum_i ||x_i||_q

every theta with ||B_i^T theta||_qbar <= 1 for all groups gives the lower
bound D(theta) = 0.5 * ||Y||^2 - 0.5 * ||Y - lam * theta||^2 <= P(x*).
From a candidate x the residual r = Y - B x is scaled into that set,

    theta = r / max(lam, max_i ||B_i^T r||_qbar),

and (P(x) - D(theta)) / P(x) certifies how far x is from optimal.  Nothing
here imports mixnorm, so a wrong answer from the package cannot also make
its own check pass.
"""

from __future__ import annotations

import math

import numpy as np

# a group whose lq norm is at most this counts as zero (as in mixnorm)
ZERO_GROUP_NORM = 1e-6


def dual_exponent(q: float) -> float:
    """qbar with 1/q + 1/qbar = 1 (1 <-> inf)."""
    if q == 1:
        return math.inf
    if q == math.inf:
        return 1.0
    return q / (q - 1.0)


def group_norms(v: np.ndarray, sizes: np.ndarray, q: float) -> np.ndarray:
    """lq norm of each contiguous group of the flat vector v."""
    a = np.abs(np.asarray(v, dtype=np.float64).ravel())
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
    if q == math.inf:
        return np.maximum.reduceat(a, starts)
    if q == 1:
        return np.add.reduceat(a, starts)
    # scale each group by its largest entry so a large q cannot overflow
    top = np.maximum.reduceat(a, starts)
    safe = np.where(top > 0.0, top, 1.0)
    scaled = a / np.repeat(safe, sizes)
    return top * np.add.reduceat(scaled ** q, starts) ** (1.0 / q)


def primal_dual(Y: np.ndarray, resid: np.ndarray, corr: np.ndarray, x: np.ndarray,
                sizes: np.ndarray, q: float, lam: float) -> tuple[float, float]:
    """(P, D) from the residual Y - B x and its correlation B^T (Y - B x).

    All arrays may have any shape; groups are contiguous runs of ``sizes``
    in the row-major flattening of ``x`` and ``corr``.
    """
    P = 0.5 * float(np.sum(resid * resid)) + lam * float(group_norms(x, sizes, q).sum())
    scale = max(lam, float(group_norms(corr, sizes, dual_exponent(q)).max()))
    theta = resid / scale
    gap_vec = Y - lam * theta
    D = 0.5 * float(np.sum(Y * Y)) - 0.5 * float(np.sum(gap_vec * gap_vec))
    return P, D


def dense_gap(B, Y, x, sizes, q, lam) -> tuple[float, float]:
    """(P, D) for a single-response design B with grouped columns."""
    resid = Y - B @ x
    return primal_dual(Y, resid, B.T @ resid, x, sizes, q, lam)


def multitask_gap(A, Y, W, q, lam) -> tuple[float, float]:
    """(P, D) for 0.5 ||Y - A W||_F^2 + lam sum_rows ||W_row||_q, on the
    d x k form: no stacked design is built."""
    resid = Y - A @ W
    sizes = np.full(W.shape[0], W.shape[1])
    return primal_dual(Y, resid, A.T @ resid, W, sizes, q, lam)


def dense_lambda_max(B, Y, sizes, q) -> float:
    """Smallest lam whose solution is zero: max_i ||B_i^T Y||_qbar."""
    return float(group_norms(B.T @ Y, sizes, dual_exponent(q)).max())


def multitask_lambda_max(A, Y, q) -> float:
    corr = A.T @ Y
    return float(group_norms(corr, np.full(corr.shape[0], corr.shape[1]),
                             dual_exponent(q)).max())


def relative_gap(P: float, D: float) -> float:
    return (P - D) / P


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
