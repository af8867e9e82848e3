"""Accelerated proximal-gradient solver with backtracking line search.

Iterates

    S_i     = X_i + beta_i (X_i - X_{i-1}),   beta_i = (alpha_{i-2} - 1) / alpha_{i-1}
    X_{i+1} = pi_1q(S_i - grad l(S_i) / L, lam / L)

doubling L until the quadratic model at S_i dominates the objective at the
candidate, with the extrapolation weights alpha_{-1} = 0, alpha_0 = 1,
alpha_{i+1} = (1 + sqrt(1 + 4 alpha_i^2)) / 2.  The first search starts at
L0 and every later one at 0.9 times the last accepted L, so L can fall
back toward the local curvature (Scheinberg, Goldfarb & Bai, 2014) instead
of keeping every overshoot of a doubling.  After each step the
gradient-mapping restart test <S_i - X_{i+1}, X_{i+1} - X_i> > 0
(O'Donoghue & Candes, 2015) drops the momentum: the weights go back to
alpha = (0, 1) and the previous iterate to X_{i+1}, so the next
extrapolated point is X_{i+1} itself.  Stops when the objective change
falls below tol * max(1, |f|), or at the iteration cap.
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
    relative_gap,
)
from .prox import _prox_concat

_L_CAP = 1e30
# each search starts from this fraction of the last accepted L, so L can
# fall back toward the local curvature after a doubling or a high L0
_L_SHRINK = 0.9


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
    """Final iterate plus convergence bookkeeping.

    ``L_final`` is the last accepted L.  ``backtracks`` counts the doublings
    of L, so the prox ran iterations + backtracks times; ``restarts`` counts
    the momentum resets.  ``prox_sweeps`` and ``prox_joint_steps`` sum the
    general-q prox's inner root sweeps and its Newton steps on (x, c) from
    the solver's iterate, over those calls (0 for q in {1, 2, inf}).  ``gap`` is
    the relative duality gap (P - D) / P at the solution
    (``model.relative_gap``), None at lam = 0.
    """

    solution: GroupedVector
    f_history: np.ndarray
    iterations: int
    converged: bool
    L_final: float
    restarts: int
    backtracks: int
    prox_sweeps: int
    prox_joint_steps: int
    gap: float | None


def default_l0(inst: ProblemInstance) -> float:
    y_inf = float(np.max(np.abs(inst.Y))) if inst.Y.size else 0.0
    if y_inf == 0.0:
        return 1e-3
    bty_inf = float(np.max(np.abs(inst.B.T @ inst.Y)))
    return max(1e-3, bty_inf / y_inf)


def _penalty(values: np.ndarray, inst: ProblemInstance) -> float:
    return float(inst.lam * group_norms(values, inst.partition, inst.q).sum())


def _backtrack(s, Bs, g, L, inst, x_cur):
    """Double L until the quadratic model at s dominates the loss.

    For the least-squares loss the acceptance test
    l(x) <= l(s) + <g, x - s> + (L/2)||x - s||^2 collapses algebraically to
    ||B (x - s)||^2 <= L ||x - s||^2, and that is the form evaluated here:
    the expanded form cancels to roundoff noise near convergence, where a
    spurious failure would double L forever.  The collapsed test accepts as
    soon as L reaches ||B||_2^2, so the cap only guards non-finite data.
    The current iterate x_cur is the prox's starting guess.  Returns
    (x_new, B @ x_new, L, number of doublings, prox sweeps, prox joint
    Newton steps).
    """
    doublings = sweeps = steps = 0
    while True:
        x, n, k = _prox_concat(s - g / L, inst.partition, inst.lam / L, inst.q, x_cur)
        sweeps += n
        steps += k
        d = x - s
        Bx = inst.B @ x
        bd = Bx - Bs
        if float(bd @ bd) <= L * float(d @ d):
            return x, Bx, L, doublings, sweeps, steps
        L *= 2.0
        doublings += 1
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
    B, BT, Y = inst.B, inst.B.T, inst.Y
    x_cur = np.zeros(inst.p) if x0 is None else np.asarray(x0.values, dtype=np.float64).copy()
    if x_cur.shape != (inst.p,):
        raise InvalidParameterError("x0 has the wrong length for this instance")
    Bx_cur = B @ x_cur
    # x_cur - x_prev and its image under B: the momentum direction
    dx = dBx = 0.0

    r0 = Bx_cur - Y
    f_cur = 0.5 * float(r0 @ r0) + _penalty(x_cur, inst)
    if not math.isfinite(f_cur):
        raise DivergenceError("objective is non-finite at the starting point")
    history = [f_cur]

    L_try = config.L0 if config.L0 is not None else default_l0(inst)
    alpha_prev, alpha_cur = 0.0, 1.0
    converged = False
    stall = restarts = backtracks = prox_sweeps = prox_joint_steps = 0
    for it in range(1, config.max_iters + 1):
        if alpha_prev == 0.0:
            # first step, or just restarted: no momentum, s is x_cur itself
            s, Bs = x_cur, Bx_cur
        else:
            beta = (alpha_prev - 1.0) / alpha_cur
            s = x_cur + beta * dx
            Bs = Bx_cur + beta * dBx
        g = BT @ (Bs - Y)

        x_new, Bx_new, L, doublings, sweeps, steps = _backtrack(s, Bs, g, L_try, inst, x_cur)
        backtracks += doublings
        prox_sweeps += sweeps
        prox_joint_steps += steps
        L_try = _L_SHRINK * L
        rn = Bx_new - Y
        f_new = 0.5 * float(rn @ rn) + _penalty(x_new, inst)
        if not math.isfinite(f_new):
            raise DivergenceError(f"objective became non-finite at iteration {it}")
        history.append(f_new)

        dx, dBx = x_new - x_cur, Bx_new - Bx_cur
        if float((s - x_new) @ dx) > 0.0:
            restarts += 1
            dx = dBx = 0.0
            alpha_prev, alpha_cur = 0.0, 1.0
        else:
            alpha_prev, alpha_cur = alpha_cur, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha_cur ** 2))
        x_cur, Bx_cur = x_new, Bx_new

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
        restarts=restarts,
        backtracks=backtracks,
        prox_sweeps=prox_sweeps,
        prox_joint_steps=prox_joint_steps,
        gap=relative_gap(inst, x_cur, Y - Bx_cur),
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
