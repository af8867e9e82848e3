"""Slow reference implementations used only for validation.

Two oracles live here, deliberately sharing no root-finding code with the
production prox module:

* :func:`prox_oracle_grid` minimizes the prox objective by brute-force grid
  enumeration with local refinement (n <= 4).
* :func:`reference_solve` is a plain, non-accelerated proximal-gradient
  loop with a fixed step.  Its per-group prox goes through this module's
  own closed forms and, for general q, its own zero finds.  Like the
  production code it finds the outer unknown t = ||x||_q, but by
  scipy.optimize.brentq on ||x(t)||_q - t, and its inner unknown is x
  itself, solving x + k x^(q-1) = |v| with k = lam t^(1-q) by local
  Newton iteration, where the production code solves for y = x / t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import InputError, InvalidParameterError, OracleSizeError
from .model import (
    GroupPartition,
    GroupedVector,
    ProblemInstance,
    QKind,
    classify_q,
    dual_exponent,
    lq_norm,
    mixed_norm,
)


def _grid_objective(points: np.ndarray, a: np.ndarray, lam: float, q: float) -> np.ndarray:
    d = points - a
    fit = 0.5 * np.sum(d * d, axis=1)
    kind = classify_q(q)
    if kind is QKind.ONE:
        norms = np.sum(np.abs(points), axis=1)
    elif kind is QKind.INF:
        norms = np.max(np.abs(points), axis=1)
    else:
        norms = np.power(np.sum(np.power(np.abs(points), q), axis=1), 1.0 / q)
    return fit + lam * norms


def prox_oracle_grid(v, lam: float, q: float, resolution: float = 0.25) -> np.ndarray:
    """Brute-force prox by grid search over the box [0, |v|] (sign-reduced).

    ``resolution`` is the initial grid spacing; three refinement passes,
    each 10x finer around the incumbent, bring the final spacing to
    resolution/1000, and a local polish then tightens the incumbent.
    Only n <= 4 is supported.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    n = v.size
    if n > 4:
        raise OracleSizeError(f"grid oracle enumerates n <= 4 dimensions, got {n}")
    classify_q(q)
    if not np.isfinite(v).all():
        raise InputError("grid oracle input contains non-finite entries")
    if not (math.isfinite(lam) and lam >= 0):
        raise InvalidParameterError(f"lam must be finite and nonnegative, got {lam!r}")
    if not (math.isfinite(resolution) and resolution > 0):
        raise InvalidParameterError(f"resolution must be finite and positive, got {resolution!r}")
    if n == 0 or not np.any(v):
        return np.zeros_like(v)

    a = np.abs(v)
    lo = np.zeros(n)
    hi = a.copy()
    spacing = np.full(n, float(resolution))
    best = None
    for _ in range(4):  # initial pass + 3 refinements
        axes = []
        for i in range(n):
            if hi[i] <= lo[i]:
                axes.append(np.array([lo[i]]))
                continue
            num = max(2, int(math.ceil((hi[i] - lo[i]) / spacing[i])) + 1)
            axes.append(np.linspace(lo[i], hi[i], num))
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        vals = _grid_objective(points, a, lam, q)
        best = points[int(np.argmin(vals))]
        step = np.array([ax[1] - ax[0] if ax.size > 1 else 0.0 for ax in axes])
        # for smooth penalties the incumbent sits within sqrt(n)/2 * step of
        # the minimizer (strong convexity modulus 1), so +-1.5 steps always
        # contains it; the nonsmooth cases are handled by the polish below
        lo = np.clip(best - 1.5 * step, 0.0, a)
        hi = np.clip(best + 1.5 * step, 0.0, a)
        spacing = np.maximum(step / 10.0, 1e-14)

    # Grid refinement alone cannot localize a minimizer that sits on a kink
    # of the penalty (q = 1, or q = inf with several coordinates tied at the
    # max): there the objective grows linearly off the kink, so the best
    # grid point lands O(sqrt(lam * spacing)) away while the window shrinks
    # like the spacing itself.  Polish the incumbent with a local solve that
    # is exact for those two kinds; candidates are only accepted when they
    # beat the incumbent on the true objective, so the polish can never make
    # the oracle worse.
    def boxed_objective(x: np.ndarray) -> float:
        x = np.clip(x, 0.0, a)
        return float(0.5 * np.sum((x - a) ** 2) + lam * lq_norm(x, q))

    kind = classify_q(q)
    candidates = []
    if kind is QKind.ONE:
        # in the folded orthant the l1 penalty is linear, so the problem is
        # a smooth box-constrained quadratic
        res = minimize(
            lambda x: 0.5 * float(np.sum((x - a) ** 2)) + lam * float(np.sum(x)),
            best,
            jac=lambda x: (x - a) + lam,
            method="L-BFGS-B",
            bounds=[(0.0, float(ai)) for ai in a],
        )
        candidates.append(np.clip(res.x, 0.0, a))
    elif kind is QKind.INF:
        # epigraph form in (x, t): quadratic objective, linear constraints
        # x_i <= t; sequential quadratic programming solves this exactly
        amax = float(np.max(a))
        grad = np.zeros(n + 1)

        def epi_objective(z: np.ndarray) -> float:
            return 0.5 * float(np.sum((z[:-1] - a) ** 2)) + lam * z[-1]

        def epi_gradient(z: np.ndarray) -> np.ndarray:
            grad[:-1] = z[:-1] - a
            grad[-1] = lam
            return grad

        cons_jac = np.hstack([-np.eye(n), np.ones((n, 1))])
        res = minimize(
            epi_objective,
            np.append(best, float(np.max(best))),
            jac=epi_gradient,
            method="SLSQP",
            bounds=[(0.0, float(ai)) for ai in a] + [(0.0, amax)],
            constraints=[{
                "type": "ineq",
                "fun": lambda z: z[-1] - z[:-1],
                "jac": lambda z: cons_jac,
            }],
            options={"ftol": 1e-14, "maxiter": 200},
        )
        candidates.append(np.clip(res.x[:-1], 0.0, a))
    else:
        # smooth penalty: the grid window argument above already bounds the
        # incumbent error, a derivative-free descent just tightens it
        res = minimize(
            boxed_objective,
            best,
            method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-15, "maxfev": 8000},
        )
        candidates.append(np.clip(res.x, 0.0, a))

    incumbent = boxed_objective(best)
    for cand in candidates:
        if boxed_objective(cand) < incumbent:
            best = cand
            incumbent = boxed_objective(cand)
    return np.sign(v) * best


# ---------------------------------------------------------------------------
# oracle-local group prox (independent of mixnorm.prox)

def _newton_coordinate_roots(a: np.ndarray, k: float, q: float) -> np.ndarray:
    """Solve x + k x^(q-1) = a_i componentwise on (0, a_i), Newton with clamping.

    Starts from min(a_i, (a_i / k)^(1/(q-1))), an upper bound on the root.
    A coordinate stops once its residual is within a few ulps of
    a_i + h'(x_i) x_i, the size of its rounding error, or once its bracket
    is at float resolution.
    """
    lo = np.zeros_like(a)
    hi = a.copy()
    floor = 4.0 * np.finfo(np.float64).eps
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.clip(np.minimum(a, np.power(a / k, 1.0 / (q - 1.0))), 1e-300, hi)
        done = np.zeros(a.shape, dtype=bool)
        for _ in range(200):
            h = x + k * np.power(x, q - 1.0) - a
            neg = h < 0
            lo = np.where(neg, x, lo)
            hi = np.where(neg, hi, x)
            dh = 1.0 + k * (q - 1.0) * np.power(x, q - 2.0)
            done |= ((np.abs(h) <= floor * (a + dh * x))
                     | (hi - lo <= 1e-15 * np.maximum(hi, 1e-300)))
            if done.all():
                break
            xn = x - h / dh
            bad = ~((xn > lo) & (xn < hi))
            x = np.where(done, x, np.where(bad, 0.5 * (lo + hi), xn))
    return x


def _oracle_prox_general(v: np.ndarray, lam: float, q: float) -> np.ndarray:
    """General-q prox via the norm-value scalarization.

    Parametrize by t = ||x||_q.  For a trial t, the coordinates solve
    x + lam t^(1-q) x^(q-1) = |v| and F(t) = ||x(t)||_q - t crosses zero
    exactly once between 0+ and ||v||_q.
    """
    a = np.abs(v)
    nz = a > 0
    az = a[nz]

    def F(t):
        k = lam * t ** (1.0 - q)
        x = _newton_coordinate_roots(az, k, q)
        return lq_norm(x, q) - t

    t_hi = lq_norm(az, q)
    t_lo = 1e-12 * t_hi
    flo = F(t_lo)
    while flo <= 0 and t_lo > 1e-200 * t_hi:
        t_lo *= 1e-3
        flo = F(t_lo)
    tstar = brentq(F, t_lo, t_hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    x = _newton_coordinate_roots(az, lam * tstar ** (1.0 - q), q)
    out = np.zeros_like(v)
    out[nz] = np.sign(v[nz]) * x
    return out


def oracle_prox_group(v, lam: float, q: float) -> np.ndarray:
    """This module's own group prox (validation twin of prox.prox_group)."""
    v = np.asarray(v, dtype=np.float64).ravel()
    kind = classify_q(q)
    qbar = dual_exponent(q)
    if lam >= lq_norm(v, qbar) * (1.0 - 1e-12):
        return np.zeros_like(v)
    if kind is QKind.ONE:
        return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
    if kind is QKind.TWO:
        n2 = lq_norm(v, 2.0)
        return (1.0 - lam / n2) * v
    if kind is QKind.INF:
        a = np.abs(v)
        t = brentq(lambda s: np.maximum(a - s, 0.0).sum() - lam, 0.0, float(a.max()),
                   xtol=1e-14, maxiter=200)
        return np.sign(v) * np.minimum(a, t)
    return _oracle_prox_general(v, lam, q)


def _oracle_prox_all(w: np.ndarray, lam: float, partition: GroupPartition, q: float) -> np.ndarray:
    if lam == 0.0:
        return w.copy()
    out = np.empty_like(w)
    for i in range(partition.s):
        sl = partition.slice(i)
        out[sl] = oracle_prox_group(w[sl], lam, q)
    return out


@dataclass
class ReferenceSolution:
    """Output of the plain proximal-gradient reference run."""

    solution: GroupedVector
    objective: float
    residual: float
    iterations: int
    converged: bool


def reference_solve(inst: ProblemInstance, tol: float = 1e-12, max_iters: int = 10 ** 6,
                    x0: np.ndarray | None = None) -> ReferenceSolution:
    """Non-accelerated proximal gradient with fixed step 0.9 / ||B^T B||_2.

    Runs until the fixed-point residual ||x - P(x - tau grad)||_2 drops to
    ``tol`` or the iteration cap is hit (then ``converged`` is False and the
    caller decides what to do).  Serves as the ground-truth objective for
    validating the accelerated solver; shares none of its code path.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be finite and positive, got {tol!r}")
    if max_iters < 1:
        raise InvalidParameterError("max_iters must be at least 1")
    B, Y, lam, q = inst.B, inst.Y, inst.lam, inst.q
    if not (np.isfinite(B).all() and np.isfinite(Y).all()):
        raise InputError("reference solve needs finite design and response entries")
    sigma = float(np.linalg.norm(B, 2)) ** 2
    tau = 0.9 / sigma if sigma > 0 else 1.0
    x = np.zeros(inst.p) if x0 is None else np.asarray(x0, dtype=np.float64).ravel().copy()
    residual = math.inf
    it = 0
    for it in range(1, max_iters + 1):
        grad = B.T @ (B @ x - Y)
        xn = _oracle_prox_all(x - tau * grad, tau * lam, inst.partition, q)
        residual = float(np.linalg.norm(xn - x))
        x = xn
        if residual <= tol:
            break
    gx = GroupedVector(x, inst.partition)
    r = Y - B @ x
    obj = float(0.5 * np.dot(r, r) + lam * mixed_norm(gx, q))
    return ReferenceSolution(gx, obj, residual, it, residual <= tol)
