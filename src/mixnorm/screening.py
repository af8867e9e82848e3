"""Safe group screening for the regularization path.

The dual feasible region is F = {theta : ||B_i^T theta||_qbar <= 1 for all
groups i}, and the dual optimum theta*(lam) is the projection of Y/lam onto
F, related to the primal optimum by theta*(lam) = (Y - B X*) / lam.  A group
is discardable whenever ||B_i^T theta*(lam)||_qbar < 1, and although
theta*(lam) is unknown before solving, it can be trapped in a ball built
from a previously solved parameter lam_old > lam_new:

    a = (Y/lam_new - theta_old) / 2
    b = Y/lam_old - theta_old            if lam_old < lam_max
      = B_* d_max                        if lam_old = lam_max
    v = a - (<a,b>/||b||^2) b            (coefficient clamped at 0)
    theta*(lam_new) lies in ball(theta_old + v, ||v||)

where B_* is the group attaining lam_max = max_i ||B_i^T Y||_qbar and d_max
is the Hoelder-equality direction pairing with B_*^T (Y/lam_max).  Combined
with the operator bound ||B_i^T u||_qbar <= T_i ||u||_2, the test

    ||B_i^T center||_qbar < 1 - T_i * radius

certifies X*_i = 0 without touching the unsolved problem.  T_i is the
smaller of the qbar-norm of group i's column norms and
g_i^max(0, 1/qbar - 1/2) ||B_i||_2 (g_i the group size); both bound the
operator, the second by Cauchy-Schwarz and the equivalence of the l2 and
lqbar norms on R^g_i.  Theta estimates coming from inexact primal solutions
are rescaled into F first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError, InvalidParameterError
from .model import (
    ZERO_GROUP_NORM,
    GroupPartition,
    GroupedVector,
    ProblemInstance,
    QKind,
    classify_q,
    dual_exponent,
    dual_feasibility_scale,
    group_norms,
    lq_norm,
    relative_gap,
)
from .solver import SolverConfig, solve

_REL_SLACK = 1e-12
# relative raise of a computed spectral norm, so that its rounding cannot
# leave T_i below the true operator norm
_NORM_ROUNDING = 32 * np.finfo(np.float64).eps


class LambdaMax(NamedTuple):
    """Smallest penalty that zeroes everything, and the group attaining it."""

    value: float
    group: int


def lambda_max(inst: ProblemInstance) -> LambdaMax:
    """max_i ||B_i^T Y||_qbar; the solution is identically zero iff lam >= it.

    Raises InputError when B^T Y is not finite (non-finite B or Y).
    """
    corr = inst.B.T @ inst.Y
    if not np.isfinite(corr).all():
        raise InputError("B^T Y is not finite; the design or response has non-finite entries")
    norms = group_norms(corr, inst.partition, dual_exponent(inst.q))
    g = int(np.argmax(norms))  # lowest index on ties
    return LambdaMax(float(norms[g]), g)


@dataclass(frozen=True)
class DualPoint:
    """A dual estimate theta tied to the penalty it came from."""

    theta: np.ndarray
    lam: float


def dual_from_primal(inst: ProblemInstance, X: GroupedVector) -> DualPoint:
    """Feasible dual point (Y - B x) / lam, rescaled into F.

    At the exact primal optimum the raw point is already feasible and the
    rescale is a no-op.  With an inexact X it can poke slightly outside F,
    and screening safety rests on feasibility, so the division by
    ``dual_feasibility_scale`` is not optional.
    """
    if inst.lam <= 0:
        raise InvalidParameterError("dual point requires lam > 0")
    theta = (inst.Y - inst.B @ X.values) / inst.lam
    theta = theta / dual_feasibility_scale(inst, theta)
    return DualPoint(theta, inst.lam)


def group_bound_cache(inst: ProblemInstance) -> np.ndarray:
    """Per-group operator bounds T_i, ||B_i^T u||_qbar <= T_i ||u||_2.

    T_i is the smaller of two bounds.  Entry j of B_i^T u is at most
    ||b_j|| ||u||, so the qbar-norm of the column norms is one; it is the
    tighter at q = 1, where it is the largest column norm.  The other is
    g_i^max(0, 1/qbar - 1/2) ||B_i||_2: ||B_i^T u||_2 <= ||B_i||_2 ||u||,
    and ||z||_qbar <= g^max(0, 1/qbar - 1/2) ||z||_2 for z in R^g.  On a
    block of near-orthogonal columns, such as a multi-response row group,
    it is smaller by up to g_i^min(1/qbar, 1/2).
    """
    qbar = dual_exponent(inst.q)
    by_columns = group_norms(inst.column_norms(), inst.partition, qbar)
    widen = np.power(inst.partition.sizes_array, max(0.0, 1.0 / qbar - 0.5))
    by_spectrum = widen * inst.block_norms() * (1.0 + _NORM_ROUNDING)
    return np.minimum(by_columns, by_spectrum)


def hoelder_direction(u: np.ndarray, q: float) -> np.ndarray:
    """Unit-q-norm d with <d, u> = ||u||_qbar (Hoelder equality).

    Finite q in (1, inf): d = sgn(u) |u|^(qbar-1), rescaled.  q = inf pairs
    with the l1 norm, so d = sgn(u); q = 1 pairs with the max norm, so d is
    the signed coordinate vector at the largest |u_j| (lowest index on
    ties).
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.any(u):
        raise InvalidParameterError("cannot build a pairing direction for u = 0")
    kind = classify_q(q)
    if kind is QKind.INF:
        d = np.sign(u).astype(np.float64)
    elif kind is QKind.ONE:
        d = np.zeros_like(u)
        j = int(np.argmax(np.abs(u)))
        d[j] = np.sign(u[j])
    else:
        qbar = q / (q - 1.0)
        d = np.sign(u) * np.power(np.abs(u), qbar - 1.0)
    return d / lq_norm(d, q)


@dataclass(frozen=True)
class ScreeningBall:
    """center/radius trapping theta*(lam_new).

    ``ab_inner`` records <a, b> before the nonnegative clamp.  The theory
    says it cannot be negative (up to rounding), and keeping it around lets
    callers audit that premise.
    """

    center: np.ndarray
    radius: float
    ab_inner: float = 0.0


def screening_ball(inst: ProblemInstance, lam_new: float, lam_old: float,
                   theta_old: DualPoint, lmax: LambdaMax | None = None) -> ScreeningBall:
    """Ball containing theta*(lam_new), built from the solution at lam_old."""
    if not (0 < lam_new < lam_old):
        raise InvalidParameterError(
            f"need 0 < lam_new < lam_old, got lam_new={lam_new!r}, lam_old={lam_old!r}"
        )
    lmax = lmax or lambda_max(inst)
    if lam_old > lmax.value * (1.0 + 1e-9):
        raise InvalidParameterError("lam_old exceeds the zero-solution threshold")
    theta = theta_old.theta / dual_feasibility_scale(inst, theta_old.theta)
    a = 0.5 * (inst.Y / lam_new - theta)
    if lam_old >= lmax.value * (1.0 - _REL_SLACK):
        u = inst.block(lmax.group).T @ (inst.Y / lmax.value)
        b = inst.block(lmax.group) @ hoelder_direction(u, inst.q)
    else:
        b = inst.Y / lam_old - theta
    bb = float(np.dot(b, b))
    if bb == 0.0:
        return ScreeningBall(theta + a, float(np.linalg.norm(a)))
    ab = float(np.dot(a, b))
    coef = max(0.0, ab / bb)
    v = a - coef * b
    return ScreeningBall(theta + v, float(np.linalg.norm(v)), ab_inner=ab)


def screen_groups(inst: ProblemInstance, lam_new: float, lam_old: float,
                  theta_old: DualPoint, T: np.ndarray | None = None,
                  lmax: LambdaMax | None = None) -> np.ndarray:
    """Safe discard mask for lam_new given the dual estimate at lam_old:
    True where the ball test certifies the group is zero, everywhere when
    lam_new is at or above lambda_max.  ``T`` (``group_bound_cache``) and
    ``lmax`` are computed when not given."""
    if lam_new <= 0:
        raise InvalidParameterError("lam_new must be positive")
    lmax = lmax or lambda_max(inst)
    if lam_new >= lmax.value * (1.0 - _REL_SLACK):
        return np.ones(inst.partition.s, dtype=bool)
    ball = screening_ball(inst, lam_new, lam_old, theta_old, lmax)
    T = group_bound_cache(inst) if T is None else T
    norms = group_norms(inst.B.T @ ball.center, inst.partition, dual_exponent(inst.q))
    return norms < 1.0 - T * ball.radius


# ---------------------------------------------------------------------------
# the path driver: screen, then solve, down a decreasing parameter sequence


@dataclass
class PathStep:
    """One penalty of a path.  ``mask`` marks the discarded groups;
    ``converged`` is the solve's flag, and True when no solve ran.  ``gap``
    is the relative duality gap of ``solution`` on the full instance;
    ``iterations``, ``backtracks``, ``restarts``, ``prox_sweeps`` and
    ``prox_joint_steps`` are the solve's counters (0 when no solve ran)."""

    lam: float
    mask: np.ndarray
    solution: np.ndarray
    objective: float
    gap: float
    iterations: int
    backtracks: int
    restarts: int
    prox_sweeps: int
    prox_joint_steps: int
    converged: bool
    groups_kept: int
    rejection_ratio: float
    screen_time: float
    solve_time: float


def _per_step(attr: str, doc: str) -> property:
    return property(lambda self: np.array([getattr(st, attr) for st in self.steps]), doc=doc)


@dataclass
class PathResult:
    """A solved path: its steps, in grid order, and per-step arrays."""

    lam_max: float
    ratios: np.ndarray
    screening: bool
    steps: list[PathStep] = field(default_factory=list)
    store_solutions: bool = True

    lambdas = _per_step("lam", "Penalty of each step.")
    objectives = _per_step("objective", "Final objective of each step.")
    gaps = _per_step("gap", "Relative duality gap on the full instance.")
    iterations = _per_step("iterations", "Solver iterations (0 where no solve ran).")
    backtracks = _per_step("backtracks", "Doublings of L in the solve.")
    restarts = _per_step("restarts", "Momentum resets in the solve.")
    prox_sweeps = _per_step("prox_sweeps", "General-q prox inner root sweeps in the solve.")
    prox_joint_steps = _per_step("prox_joint_steps",
                                 "General-q prox Newton steps on (y, t) in the solve.")
    converged = _per_step("converged", "Solver converged flag (True where no solve ran).")
    groups_kept = _per_step("groups_kept", "Groups left after screening.")
    rejection_ratios = _per_step("rejection_ratio", "Discarded over truly zero groups.")
    solve_times = _per_step("solve_time", "Seconds in the solve.")
    screen_times = _per_step("screen_time", "Seconds in the screening test.")

    @property
    def solutions(self) -> list[np.ndarray] | None:
        """Full-length solution of each step, or None unless stored."""
        return [st.solution for st in self.steps] if self.store_solutions else None

    @property
    def unconverged_steps(self) -> int:
        return int(np.count_nonzero(~self.converged))


def reduced_instance(inst: ProblemInstance, keep: np.ndarray, lam: float
                     ) -> tuple[ProblemInstance, np.ndarray]:
    """Sub-problem over the kept groups; also returns the column mask.

    With every group kept the instance itself is returned at ``lam``, and
    no column is copied.  A multi-response design copies only the kept
    columns of its A.
    """
    sizes = inst.partition.sizes_array
    col_keep = np.repeat(keep, sizes)
    if keep.all():
        return inst.with_lam(lam), col_keep
    sub_part = GroupPartition(tuple(int(s) for s in sizes[keep]))
    sub = ProblemInstance(inst.select_groups(keep), inst.Y, sub_part, inst.q, lam)
    return sub, col_keep


def _rejection_ratio(discarded: int, x_full: np.ndarray, inst: ProblemInstance) -> float:
    true_zero = int(np.count_nonzero(
        group_norms(x_full, inst.partition, inst.q) <= ZERO_GROUP_NORM))
    return discarded / true_zero if true_zero > 0 else 0.0


def screen_sequential(inst: ProblemInstance, ratios, solver_config: SolverConfig | None = None,
                      screening: bool = True) -> PathResult:
    """Screen-then-solve down the penalties lam = ratios * lambda_max.

    The ratios must be finite, positive and nonincreasing; a ratio above 1 is a
    step above lambda_max.  Each step screens through ``screen_groups``
    against the previous step's dual estimate (the very first against
    Y/lam_max), solves the reduced problem and re-embeds zeros for the
    discarded groups.  The solve starts at the secant predictor through the
    last two steps (lam1, x1) and (lam2, x2),
    x1 + (lam - lam1) / (lam1 - lam2) * (x1 - x2), on the kept columns;
    a step at or above lambda_max counts as the exact point (lam_max, 0).
    It starts at x1 instead for the first two steps, when lam1 == lam2, or
    when either of those two solves did not converge.
    A step at or above lambda_max discards every group, and a repeated
    lambda reuses the previous mask as is.  The ball assumes the previous
    solve reached its optimum, so a step after an unconverged solve
    discards nothing.  With ``screening`` off every step keeps every group,
    so each one is a full solve from that start.
    """
    ratios = np.asarray(ratios, dtype=np.float64).ravel()
    if ratios.size == 0 or not np.all(np.isfinite(ratios) & (ratios > 0)):
        raise InvalidParameterError("ratio sequence must be finite, positive and nonempty")
    if np.any(np.diff(ratios) > 0):
        raise InvalidParameterError("ratio sequence must be nonincreasing")
    solver_config = solver_config or SolverConfig()

    lmax = lambda_max(inst)
    if lmax.value <= 0:
        raise InvalidParameterError("lambda_max is zero; the path is trivially zero")
    lambdas = ratios * lmax.value
    T = group_bound_cache(inst) if screening else None
    result = PathResult(lam_max=lmax.value, ratios=ratios, screening=screening)
    s = inst.partition.s
    prev_lam = lmax.value
    prev_x = np.zeros(inst.p)
    prev_r = inst.Y  # the residual Y - B prev_x
    prev_mask = np.ones(s, dtype=bool)
    prev_converged = True

    for i, lam in enumerate(lambdas):
        t0 = time.perf_counter()
        if not screening or not prev_converged:
            mask = np.zeros(s, dtype=bool)
        elif lam == prev_lam:
            mask = prev_mask.copy()
        else:
            theta = DualPoint(prev_r / prev_lam, prev_lam)
            mask = screen_groups(inst, lam, prev_lam, theta, T, lmax)
        t_screen = time.perf_counter() - t0

        t0 = time.perf_counter()
        x_full = np.zeros(inst.p)
        if mask.all():
            obj = 0.5 * float(np.dot(inst.Y, inst.Y))
            iters = backtracks = restarts = sweeps = joint_steps = 0
            converged = True
        else:
            sub, col_keep = reduced_instance(inst, ~mask, lam)
            x0 = prev_x  # the secant needs two trusted points at distinct lambdas
            if i >= 2 and prev_converged and older_converged and prev_lam != older_lam:
                x0 = prev_x + (lam - prev_lam) / (prev_lam - older_lam) * (prev_x - older_x)
            res = solve(sub, solver_config, x0=GroupedVector(x0[col_keep], sub.partition))
            x_full[col_keep] = res.solution.values
            obj = float(res.f_history[-1])
            iters, backtracks, restarts = res.iterations, res.backtracks, res.restarts
            sweeps, joint_steps = res.prox_sweeps, res.prox_joint_steps
            converged = res.converged
        t_solve = time.perf_counter() - t0
        r_full = inst.Y - inst.B @ x_full

        result.steps.append(PathStep(
            lam=float(lam),
            mask=mask,
            solution=x_full,
            objective=obj,
            gap=relative_gap(inst.with_lam(float(lam)), x_full, r_full),
            iterations=iters,
            backtracks=backtracks,
            restarts=restarts,
            prox_sweeps=sweeps,
            prox_joint_steps=joint_steps,
            converged=converged,
            groups_kept=int(s - mask.sum()),
            rejection_ratio=_rejection_ratio(int(mask.sum()), x_full, inst),
            screen_time=t_screen,
            solve_time=t_solve,
        ))
        older_lam, older_x, older_converged = prev_lam, prev_x, prev_converged
        # a step at or above lambda_max has theta* = Y/lam_max; store that pair
        prev_lam = min(float(lam), lmax.value)
        prev_x, prev_r, prev_mask, prev_converged = x_full, r_full, mask, converged
    return result
