"""Accelerated proximal-gradient solver with backtracking line search.

Iterates

    S_i     = X_i + beta_i (X_i - X_{i-1}),   beta_i = (alpha_{i-2} - 1) / alpha_{i-1}
    X_{i+1} = pi_1q(S_i - grad l(S_i) / L, lam / L)

doubling L until the quadratic model at S_i dominates the objective at the
candidate, with the extrapolation weights alpha_{-1} = 0, alpha_0 = 1,
alpha_{i+1} = (1 + sqrt(1 + 4 alpha_i^2)) / 2.  L is carried forward and
never decreased.  Stops when the objective change falls below
tol * max(1, |f|), or at the iteration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidParameterError, LineSearchError
from .model import (
    ZERO_GROUP_NORM,
    GroupedVector,
    ProblemInstance,
    dual_exponent,
    group_norms,
)
from .prox import _prox_concat

_L_CAP = 1e30


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`solve`.

    ``L0 = None`` picks max(1e-3, ||B^T Y||_inf / ||Y||_inf); explicit
    values must be positive.
    """

    L0: float | None = None
    max_iters: int = 10000
    tol: float = 1e-8

    def __post_init__(self):
        if self.L0 is not None and not (self.L0 > 0 and math.isfinite(self.L0)):
            raise InvalidParameterError(f"L0 must be positive, got {self.L0!r}")
        if self.max_iters < 1:
            raise InvalidParameterError("max_iters must be at least 1")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise InvalidParameterError(f"tol must be positive, got {self.tol!r}")


@dataclass
class SolveResult:
    """Final iterate plus convergence bookkeeping."""

    solution: GroupedVector
    f_history: np.ndarray
    iterations: int
    converged: bool
    L_final: float


def default_l0(inst: ProblemInstance) -> float:
    y_inf = float(np.max(np.abs(inst.Y))) if inst.Y.size else 0.0
    if y_inf == 0.0:
        return 1e-3
    bty_inf = float(np.max(np.abs(inst.B.T @ inst.Y)))
    return max(1e-3, bty_inf / y_inf)


def _penalty(values: np.ndarray, inst: ProblemInstance) -> float:
    return float(inst.lam * group_norms(values, inst.partition, inst.q).sum())


def _backtrack(s, Bs, g, L, inst):
    """Double L until the quadratic model at s dominates the loss.

    For the least-squares loss the acceptance test
    l(x) <= l(s) + <g, x - s> + (L/2)||x - s||^2 collapses algebraically to
    ||B (x - s)||^2 <= L ||x - s||^2, and that is the form evaluated here:
    the expanded form cancels to roundoff noise near convergence, where a
    spurious failure would double L forever.  The collapsed test accepts as
    soon as L reaches ||B||_2^2, so the cap only guards non-finite data.
    Returns (x_new, B @ x_new, L).
    """
    while True:
        x = _prox_concat(s - g / L, inst.partition, inst.lam / L, inst.q)
        d = x - s
        Bx = inst.B @ x
        bd = Bx - Bs
        if float(np.dot(bd, bd)) <= L * float(np.dot(d, d)):
            return x, Bx, L
        L *= 2.0
        if L > _L_CAP:
            raise LineSearchError(f"step-size search exceeded L = {_L_CAP:g}")


def solve(inst: ProblemInstance, config: SolverConfig | None = None,
          x0: GroupedVector | None = None) -> SolveResult:
    """Minimize 0.5 ||Y - B w||^2 + lam * sum_i ||w_i||_q.

    ``x0`` warm-starts the iteration (default: zero).  The objective history
    includes the starting point, so ``f_history[k]`` is the value after k
    iterations.
    """
    config = config or SolverConfig()
    B, Y = inst.B, inst.Y
    x_cur = np.zeros(inst.p) if x0 is None else np.asarray(x0.values, dtype=np.float64).copy()
    if x_cur.shape != (inst.p,):
        raise InvalidParameterError("x0 has the wrong length for this instance")
    x_prev = x_cur.copy()
    Bx_cur = B @ x_cur
    Bx_prev = Bx_cur.copy()

    r0 = Bx_cur - Y
    f_cur = 0.5 * float(np.dot(r0, r0)) + _penalty(x_cur, inst)
    if not math.isfinite(f_cur):
        raise DivergenceError("objective is non-finite at the starting point")
    history = [f_cur]

    L = config.L0 if config.L0 is not None else default_l0(inst)
    alpha_prev, alpha_cur = 0.0, 1.0
    converged = False
    stall = 0
    for it in range(1, config.max_iters + 1):
        beta = (alpha_prev - 1.0) / alpha_cur
        s = x_cur + beta * (x_cur - x_prev)
        Bs = Bx_cur + beta * (Bx_cur - Bx_prev)
        g = B.T @ (Bs - Y)

        x_new, Bx_new, L = _backtrack(s, Bs, g, L, inst)
        rn = Bx_new - Y
        f_new = 0.5 * float(np.dot(rn, rn)) + _penalty(x_new, inst)
        if not math.isfinite(f_new):
            raise DivergenceError(f"objective became non-finite at iteration {it}")
        history.append(f_new)

        x_prev, x_cur = x_cur, x_new
        Bx_prev, Bx_cur = Bx_cur, Bx_new
        alpha_prev, alpha_cur = alpha_cur, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha_cur ** 2))

        # momentum can stall the objective for an iteration without being
        # anywhere near a minimizer, so the small-change test has to hold on
        # three consecutive iterations before it counts as convergence
        if abs(f_new - f_cur) <= config.tol * max(1.0, abs(f_new)):
            stall += 1
            if stall >= 3:
                converged = True
                break
        else:
            stall = 0
        f_cur = f_new

    return SolveResult(
        solution=GroupedVector(x_cur, inst.partition),
        f_history=np.asarray(history),
        iterations=it,
        converged=converged,
        L_final=L,
    )


def kkt_group_residuals(inst: ProblemInstance, W: GroupedVector) -> np.ndarray:
    """Per-group optimality residuals at W for lam > 0.

    With u_i = B_i^T (Y - B w) / lam, a group is optimal iff
    ||u_i||_qbar <= 1, and additionally <u_i, w_i> = ||w_i||_q when the
    group is active (||w_i||_q > ZERO_GROUP_NORM).  Returns max(0, dual-norm excess, pairing deficit).
    """
    if inst.lam <= 0:
        raise InvalidParameterError("KKT residuals need lam > 0")
    w = W.values
    u = inst.B.T @ (inst.Y - inst.B @ w) / inst.lam
    qbar = dual_exponent(inst.q)
    u_norms = group_norms(u, inst.partition, qbar)
    w_norms = group_norms(w, inst.partition, inst.q)
    res = np.maximum(u_norms - 1.0, 0.0)
    active = w_norms > ZERO_GROUP_NORM
    pairing = 1.0 - np.add.reduceat(u * w, inst.partition.starts) / np.where(active, w_norms, 1.0)
    return np.where(active, np.maximum(res, pairing), res)
