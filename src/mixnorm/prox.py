"""Proximal operator of the (grouped) lq norm.

For a single group the operator is

    pi_q(v; lam) = argmin_x  0.5 ||x - v||_2^2 + lam ||x||_q ,

with the whole-vector operator applying pi_q group by group.  The minimizer
is unique, it is exactly zero iff lam >= ||v||_qbar (qbar the conjugate
exponent), it inherits the signs of v, and on the support it satisfies

    x + lam * ||x||_q^(1-q) * x^(q-1) = v      (componentwise, x > 0)

after reducing to positive v.  ``_prox_concat`` takes every group of a flat
vector at once; ``prox_group`` is its one-group case.  q = 1 (soft
threshold), q = 2 (norm shrinkage) and q = inf (clip at the l1-ball
projection threshold, one segmented sort over all groups) have closed forms,
as has a group with one nonzero entry at every q: the soft threshold.
For general finite q the optimality system is solved for t = ||x||_q and
y = x / t, in which it reads

  * k_i = t y_i + lam y_i^(q-1) - v_i = 0: for fixed t, each coordinate
    has a unique root y_i(t) in (0, v_i / t);
  * G = log ||y||_q = 0: t* is the unique zero of F(t) = log ||y(t)||_q,
    which falls as t grows, on [t_lo, t_hi] = [eps gn n^-max(0, 1-2/q),
    ||v||_q] (eps gn = ||v||_qbar - lam, n the group size).

Every term of k is at most v_i and y <= 1 at the answer, so nothing leaves
float range at any q, where the paper's c = lam t^(1-q) does at large q.
G is the log of the norm, not sum(y^q) - 1: the norm is homogeneous in y,
so an iterate with ||y||_q = 1.1 reads G = 0.095, not 1.1^q - 1.

One Newton step on (y, t), ``_joint_step``, drives both solves below.  The
Jacobian of the two equations is an arrowhead, so a step costs a sum per
group.  It accepts a group once every |k_i| is at its rounding floor and
the step in t is below 256 ulps of t, or below what those k_i and G's floor
can make of it, which is more where F is flat; an accepted group returns
x = (t + dt)(y + dy), one final Newton correction.

Every group takes up to 8 of these steps, in log y and log t, so the
iterate stays positive, with y <= 1 and t inside its bracket.  A group
starts from a guess at the answer (the solver passes its current iterate),
at t0 = ||guess||_q and y0 = guess / t0, when the guess is nonzero on all
of it with t0 inside the bracket; else from t0 = eps ||v||_q, the norm of
the q = 2 shrink v eps, and its roots y(t0), one sweep for all such groups.

The groups that joint Newton does not accept take the bracketed zero find
on F from the same t0 and the bracket ends.  At each trial t it solves the
coordinate equations afresh, as ``_h_roots`` on k / t, and the Newton step
at those roots gives F's sign, the next trial t + dt and the stop.  A trial
outside the bracket, or after a step that failed to halve |F|, becomes a
bisection at the geometric midpoint.  A group also stops at F = 0 or at a
bracket of float width; F's sign change on [t_lo, t_hi] is checked only
where a group stops without an accepting step and away from F = 0.

Both paths solve all general-q groups of a vector in one lock-step batch;
each group stops independently once its own test passes, so batched
results match solo calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
    DimensionError,
    InputError,
    InvalidExponentError,
    InvalidParameterError,
)
from .model import (SQUARE_HI, SQUARE_LO, GroupPartition, GroupedVector, QKind, classify_q,
                    dual_exponent, group_norms)

# Relative slack on the zero test lam >= ||v||_qbar; errs toward returning 0.
ZERO_SLACK = 1e-12
_MAX_OUTER = 400
_MAX_INNER = 80
# Four ulps of 1.0: the rounding floor used by the stopping tests.
_EPS4 = 4.0 * np.finfo(np.float64).eps
# a Newton step in t below this many ulps of t, with every coordinate
# residual at its rounding floor, is at F's rounding floor
_FLOOR_ULPS = 256.0 * np.finfo(np.float64).eps
# joint Newton steps on (y, t) before a group falls back to the bracket
_MAX_JOINT = 8


@dataclass(frozen=True)
class ProxParams:
    """Per-call parameters: positive weight lam and exponent q."""

    lam: float
    q: float

    def __post_init__(self):
        if not (isinstance(self.lam, (int, float)) and self.lam > 0 and math.isfinite(self.lam)):
            raise InvalidParameterError(f"lam must be a positive finite real, got {self.lam!r}")
        classify_q(self.q)


def soft_threshold(v: np.ndarray, lam: float) -> np.ndarray:
    """Componentwise sgn(v) * max(|v| - lam, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def _validate_group_input(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size == 0:
        raise DimensionError("prox input must be a nonempty vector")
    if not np.isfinite(v).all():
        raise InputError("prox input contains non-finite entries")
    return v


def _starts(sizes):
    """Offset of each group's first entry."""
    return np.concatenate(([0], np.cumsum(sizes)))[:-1]


def _inf_clip(values, sizes, lam):
    """Prox of lam * ||.||_inf on every group of the flat ``values`` (group g
    occupies sizes[g] entries), given lam < ||v_g||_1 for all g.

    Group g is clipped at the t_g solving sum_i max(|v_i| - t, 0) = lam
    (Duchi et al. 2008; Condat 2016).  One lexsort puts every group in
    descending |v| order; j_g, the number of entries above t_g, counts the
    j with |v|_(j) * j > cs_j - lam (at least 1: lam can be below the
    rounding of the top entry), and t_g = (top-j_g sum - lam) / j_g.  The
    cumsum cs runs through all groups, so it is taken over |v| / ||v_g||_1,
    where each group adds about 1, and the top-j_g sum within the group.
    """
    a = np.abs(values)
    starts = _starts(sizes)
    asort = a[np.lexsort((-a, np.repeat(np.arange(sizes.size), sizes)))]
    l1 = np.repeat(np.add.reduceat(asort, starts), sizes)
    rank = np.arange(1, a.size + 1) - np.repeat(starts, sizes)
    y = asort / l1
    cs = np.cumsum(y)
    cs -= np.repeat(np.concatenate(([0.0], cs[starts[1:] - 1])), sizes)
    jstar = np.maximum(np.add.reduceat(y * rank > cs - lam / l1, starts), 1)
    top = np.add.reduceat(np.where(rank <= np.repeat(jstar, sizes), asort, 0.0), starts)
    return np.sign(values) * np.minimum(a, np.repeat((top - lam) / jstar, sizes))


def prox_inf(v: np.ndarray, lam: float) -> np.ndarray:
    """Prox of lam * ||.||_inf for 0 < lam < ||v||_1: v minus its Euclidean
    projection onto the l1 ball of radius lam, the one-group case of
    ``_inf_clip``."""
    v = _validate_group_input(v)
    if not lam > 0:
        raise InvalidParameterError(f"lam must be positive, got {lam!r}")
    if lam >= np.abs(v).sum():
        raise InvalidParameterError("prox_inf requires lam < ||v||_1; caller handles the zero case")
    return _inf_clip(v, np.array([v.size]), lam)


def _h_roots(v, c, q):
    """Componentwise root of h(x) = x + c x^(q-1) - v inside (0, v).

    h is strictly increasing with h(0) < 0 < h(v).  Newton steps start
    from (v/c)^(1/(q-1)), where c x^(q-1) alone reaches v, an upper bound
    on the root, and fall back to bisection whenever they leave the live
    bracket, at the geometric midpoint when the bracket spans more than
    three decades (a tiny coordinate's root can lie ~30 decades below it).
    A coordinate stops once its residual is down to the rounding error of
    evaluating h, or once its bracket is at relative float resolution, and
    then stays put while the others finish.
    """
    lo = np.zeros_like(v)
    hi = v.copy()
    qm1 = q - 1.0
    done = np.zeros(v.shape, dtype=bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cq = c * qm1
        x = np.minimum(np.power(v / c, 1.0 / qm1), v)
        for _ in range(_MAX_INNER):
            h = x + c * np.power(x, qm1) - v
            neg = h < 0.0
            lo = np.where(neg, x, lo)
            hi = np.where(neg, hi, x)
            dh = 1.0 + cq * np.power(x, q - 2.0)
            # the rounding floor of h: a few ulps of v, plus a few ulps of
            # x carried along the slope dh
            done |= (np.abs(h) <= _EPS4 * (v + dh * x)) | (hi - lo <= 1e-15 * hi)
            if done.all():
                break
            xn = x - h / dh
            x = np.where(done, x, xn)
            bis = ~(done | ((xn > lo) & (xn < hi)))
            if bis.any():
                lb, hb = lo[bis], hi[bis]
                geo = (lb > 0.0) & (hb > 1e3 * lb)
                x[bis] = np.where(geo, np.sqrt(lb) * np.sqrt(hb), 0.5 * (lb + hb))
    return np.clip(x, lo, hi)


def _qnorm(x, starts, sizes, q):
    """Per-group ||x||_q, max-rescaled so that no power leaves float range."""
    gmax = np.maximum.reduceat(x, starts)
    sums = np.add.reduceat(np.power(x / np.repeat(gmax, sizes), q), starts)
    return gmax * np.power(sums, 1.0 / q)


def _joint_step(v, y, t, starts, sizes, lam, q):
    """One Newton step on the coupled system, on every group at once.

    The unknowns are y = x / t and t = ||x||_q; the equations are
    k_i = t y_i + lam y_i^(q-1) - v_i = 0 and G = log(sum(y^q)) / q = 0.
    The Jacobian is an arrowhead: diagonal k'_i = t + lam (q-1) y_i^(q-2)
    in y, column y_i in t, row y_i^(q-1) / sum(y^q) from G, and a zero
    corner.  So the step is one sum per group, with
    w_i = y_i^(q-1) / (sum(y^q) k'_i):

        dt  = (G - sum w_i k_i) / sum w_i y_i
        dy_i = -(k_i + y_i dt) / k'_i

    At k = 0, dt is the Newton step on F(t) = log ||y(t)||_q.  Returns
    dy, dt, G and, per group, whether the step accepts the group: every
    k_i at its rounding floor (the one ``_h_roots`` stops at), and |dt|
    below 256 ulps of t or below what those k_i and G at its own floor
    can make of dt, which exceeds 256 ulps where F is flat.
    """
    qm1 = q - 1.0
    t_rep = np.repeat(t, sizes)
    y_qm1 = np.power(y, qm1)
    k = t_rep * y + lam * y_qm1 - v
    dk = t_rep + lam * qm1 * np.power(y, q - 2.0)
    sum_yq = np.add.reduceat(y_qm1 * y, starts)
    G = np.log(sum_yq) / q
    w = y_qm1 / (np.repeat(sum_yq, sizes) * dk)
    denom = np.add.reduceat(w * y, starts)
    dt = (G - np.add.reduceat(w * k, starts)) / denom
    dy = -(k + y * np.repeat(dt, sizes)) / dk
    k_floor = _EPS4 * (v + dk * y)
    floor = np.logical_and.reduceat(np.abs(k) <= k_floor, starts)
    # the most of dt that k_i and G at their floors can make (every w_i >= 0)
    dt_floor = (np.add.reduceat(w * k_floor, starts) + _EPS4) / denom
    return dy, dt, G, floor & (np.abs(dt) < np.maximum(_FLOOR_ULPS * t, dt_floor))


def _roots_at(v, sizes, lam, q, t):
    """The coordinate roots y(t) of k_i = 0 at each group's t, from
    ``_h_roots`` on k_i / t, whose terms are v / t and lam / t."""
    t_rep = np.repeat(t, sizes)
    return _h_roots(v / t_rep, lam / t_rep, q)


def _joint_newton(v, sizes, lam, q, y, t, t_lo, t_hi):
    """Newton's method on (y, t) together, from y in (0, 1] and t in
    [t_lo, t_hi].  Steps are taken in log y and log t, y <- min(y e^(dy/y), 1)
    and t <- clip(t e^(dt/t), t_lo, t_hi), so the iterate stays in the
    bracket.  A group is done once ``_joint_step`` accepts it; it returns
    x = (t + dt)(y + dy) from that step, one final correction.
    Returns x, which groups are done, and the number of steps taken (at
    most ``_MAX_JOINT``).
    """
    starts = _starts(sizes)
    x = np.zeros_like(v)
    done = np.zeros(sizes.size, dtype=bool)
    steps = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while steps < _MAX_JOINT and not done.all():
            dy, dt, _, accept = _joint_step(v, y, t, starts, sizes, lam, q)
            steps += 1
            acc = np.repeat(accept & ~done, sizes)
            x[acc] = (np.repeat(t + dt, sizes) * (y + dy))[acc]
            y = np.minimum(y * np.exp(dy / y), 1.0)
            t = np.clip(t * np.exp(dt / t), t_lo, t_hi)
            done |= accept
    return x, done, steps


def _general_q_batch(v, sizes, lam, q, gn, guess=None):
    """Solve the general-q prox for every group of the concatenated positive
    vector ``v`` (group g occupies sizes[g] consecutive entries), whose
    dual norms ||v_g||_qbar are ``gn``.

    Preconditions (caller-enforced): all entries strictly positive and
    finite, and lam < ||v_g||_qbar for every group g.  ``guess``, laid out
    like ``v``, estimates the minimizer's magnitudes.  Each group starts
    joint Newton from it, or from the roots at t_f = eps ||v||_q (module
    docstring); the groups joint Newton does not accept take
    ``_bracketed`` from the same t0.  Returns the positive minimizers,
    concatenated the same way, the number of sweeps (``_h_roots`` calls)
    and the number of joint Newton steps.
    """
    starts = _starts(sizes)
    eps = (gn - lam) / gn
    if np.any(eps <= 0.0):
        raise InvalidParameterError("general-q solve requires lam < ||v||_qbar for every group")

    # x* < v, so t* < ||v||_q; and ||x*||_q >= n^-max(0, 1-2/q) ||x*||_qbar,
    # with ||x*||_qbar >= ||v||_qbar - ||v - x*||_qbar = eps gn
    t_lo = eps * gn * np.power(sizes, -max(0.0, 1.0 - 2.0 / q))
    t_hi = _qnorm(v, starts, sizes, q)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # no guess is a zero guess, which starts every group fresh
        x = np.zeros_like(v) if guess is None else guess
        t0 = _qnorm(x, starts, sizes, q)
        fresh = ~((np.minimum.reduceat(x, starts) > 0.0) & (t0 > t_lo) & (t0 < t_hi))
        y0 = x / np.repeat(t0, sizes)
    if fresh.any():
        # the q = 2 shrink v eps has norm eps ||v||_q: start at its roots
        t0 = np.where(fresh, np.clip(eps * t_hi, t_lo, t_hi), t0)
        sel = np.repeat(fresh, sizes)
        y0[sel] = _roots_at(v[sel], sizes[fresh], lam, q, t0[fresh])
    x, done, steps = _joint_newton(v, sizes, lam, q, y0, t0, t_lo, t_hi)
    sweeps = int(fresh.any())
    if not done.all():
        sel = np.repeat(~done, sizes)
        x[sel], cold_sweeps = _bracketed(v[sel], sizes[~done], lam, q, t0[~done],
                                         t_lo[~done], t_hi[~done])
        sweeps += cold_sweeps
    return x, sweeps, steps


def _bracketed(v, sizes, lam, q, t_try, t_lo, t_hi):
    """The outer zero find on F(t) = log ||y(t)||_q, every group at once,
    from the first trial ``t_try`` (the t joint Newton started from) and
    the bracket [t_lo, t_hi].  Each trial t gets its roots fresh from
    ``_h_roots``, and ``_joint_step`` at those roots gives F's sign, the
    Newton step on t and the stop test.  Where a group stops without an
    accepting step and away from F = 0 (at a bracket of float width, or
    out of trials), two more sweeps check F's sign change on the bracket,
    and a lost one raises BracketError.  Returns the roots and the number
    of sweeps taken."""
    starts = _starts(sizes)
    ends = t_lo, t_hi
    frozen = settled = np.zeros(sizes.size, dtype=bool)
    x = v
    abs_F_prev = np.full(sizes.size, np.inf)
    sweeps = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_MAX_OUTER):
            # a trial outside the live bracket, or one taken after a step
            # that failed to halve |F|, is replaced by the geometric
            # midpoint, which also halves brackets that span many decades
            ok = (t_try > t_lo) & (t_try < t_hi)
            t_try = np.where(ok, t_try, np.sqrt(t_lo) * np.sqrt(t_hi))
            y = _roots_at(v, sizes, lam, q, t_try)
            dy, dt, F, accept = _joint_step(v, y, t_try, starts, sizes, lam, q)
            sweeps += 1

            # F falls as t grows: F > 0 puts t* above the trial
            live = ~frozen
            t_lo = np.where(live & (F > 0.0), t_try, t_lo)
            t_hi = np.where(live & (F < 0.0), t_try, t_hi)
            # a group is done where joint Newton would accept it, and then
            # returns its roots moved by that step; or at F = 0; or once
            # the bracket pins t to float resolution
            accept &= live
            x = np.where(np.repeat(live, sizes), np.repeat(t_try, sizes) * y, x)
            acc = np.repeat(accept, sizes)
            x[acc] = (np.repeat(t_try + dt, sizes) * (y + dy))[acc]
            settled = settled | accept | (live & (F == 0.0))
            frozen = settled | (t_hi - t_lo <= _EPS4 * t_hi)
            if frozen.all():
                break
            t_try = np.where(np.abs(F) > 0.5 * abs_F_prev, np.nan, t_try + dt)
            abs_F_prev = np.abs(F)

        if not settled.all():
            for end, sign in zip(ends, (1.0, -1.0)):
                y = _roots_at(v, sizes, lam, q, end)
                F = _joint_step(v, y, end, starts, sizes, lam, q)[2]
                sweeps += 1
                if np.any(~settled & (sign * F < -1e-9)):
                    raise BracketError("F lost its sign change on the initial bracket")
    return x, sweeps


def prox_general_q(v_pos, lam: float, q: float):
    """General-q prox on a strictly positive vector with lam < ||v||_qbar.

    Exposed separately so the nested zero-find path can be exercised
    directly (including at q = 2.0, where it must agree with the closed
    form).  Returns the strictly positive minimizer.
    """
    v = _validate_group_input(v_pos)
    if np.any(v <= 0.0):
        raise InputError("prox_general_q expects strictly positive entries")
    if not (1.0 < q < math.inf):
        raise InvalidExponentError(f"general-q solve needs 1 < q < inf, got {q!r}")
    if not (isinstance(lam, (int, float)) and lam > 0):
        raise InvalidParameterError(f"lam must be positive, got {lam!r}")
    gn = group_norms(v, GroupPartition((v.size,)), q / (q - 1.0))
    return _general_q_batch(v, np.array([v.size]), float(lam), float(q), gn)[0]


def prox_group(v, params: ProxParams) -> np.ndarray:
    """Prox of lam * ||.||_q for one group; handles every q >= 1.

    Returns exact zero when lam >= ||v||_qbar (up to a relative slack of
    1e-12 that errs toward zero).  This is the one-group case of the
    whole-vector kernel.
    """
    v = _validate_group_input(v)
    return _scaled_prox(v, GroupPartition((v.size,)), params.lam, params.q)


def _scaled_prox(values: np.ndarray, partition: GroupPartition, lam: float,
                 q: float) -> np.ndarray:
    """``_prox_concat`` for the public entry points, at any scale of values.

    A group whose max|v_g| lies outside [SQUARE_LO, SQUARE_HI] is taken on
    its own by homogeneity, prox_lam(v_g) = s * prox_{lam/s}(v_g / s), with
    s the power of two at max|v_g|, so the q = 2 sums of squares neither
    overflow nor vanish.  Dividing by a power of two is exact.
    """
    gmax = np.maximum.reduceat(np.abs(values), partition.starts)
    wild = (gmax > 0.0) & ((gmax < SQUARE_LO) | (gmax > SQUARE_HI))
    if not wild.any():
        return _prox_concat(values, partition, lam, q)[0]
    sizes = partition.sizes_array
    tame_c = ~np.repeat(wild, sizes)
    out = np.zeros_like(values)
    if tame_c.any():
        tame = GroupPartition(tuple(int(n) for n in sizes[~wild]))
        out[tame_c] = _prox_concat(values[tame_c], tame, lam, q)[0]
    for g in np.flatnonzero(wild):
        lo, hi = int(partition.offsets[g]), int(partition.offsets[g + 1])
        s = float(np.ldexp(1.0, int(np.frexp(gmax[g])[1]) - 1))
        out[lo:hi] = s * _prox_concat(values[lo:hi] / s, GroupPartition((hi - lo,)), lam / s, q)[0]
    return out


def _prox_concat(values: np.ndarray, partition: GroupPartition, lam: float,
                 q: float, guess: np.ndarray | None = None) -> tuple[np.ndarray, int, int]:
    """Group-wise prox on a flat array; the solver's hot path and the one
    place that dispatches on the exponent.

    ``guess``, laid out like ``values``, is an estimate of the answer that
    only the general-q solve reads, as its starting point.  Returns the
    prox, the number of general-q sweeps (``_h_roots`` calls) and the
    number of joint Newton steps (both 0 for q in {1, 2, inf}).
    """
    if lam == 0.0:
        return values.copy(), 0, 0
    sizes = partition.sizes_array
    if q == 2.0:
        # tested before classify_q: q = 2 is self-dual and needs no
        # per-coordinate zero mask
        gn = group_norms(values, partition, 2.0)
        zero_g = lam >= gn * (1.0 - ZERO_SLACK)
        denom = np.where(gn > 0.0, gn, 1.0)
        factor = np.where(zero_g, 0.0, (gn - lam) / denom)
        return values * np.repeat(factor, sizes), 0, 0
    kind = classify_q(q)
    gn = group_norms(values, partition, dual_exponent(q))
    zero_g = lam >= gn * (1.0 - ZERO_SLACK)
    zero_c = np.repeat(zero_g, sizes)

    if kind is QKind.ONE:
        out = soft_threshold(values, lam)
        out[zero_c] = 0.0
        return out, 0, 0
    # q = inf and general q solve the live groups only, with their zero
    # entries stripped: a zero entry stays zero at every q
    out = np.zeros_like(values)
    keep_c = ~zero_c & (values != 0.0)
    if not keep_c.any():
        return out, 0, 0
    counts = np.add.reduceat(keep_c.astype(np.intp), partition.starts)
    live_sizes = counts[~zero_g]
    kept = values[keep_c]
    if kind is QKind.INF:
        out[keep_c] = _inf_clip(kept, live_sizes, lam)
        return out, 0, 0
    # one nonzero entry: the soft threshold, no zero find
    x = np.abs(kept) - lam
    sweeps = steps = 0
    multi = live_sizes > 1
    if multi.any():
        sel = np.repeat(multi, live_sizes)
        x[sel], sweeps, steps = _general_q_batch(
            np.abs(kept[sel]), live_sizes[multi], lam, q, gn[~zero_g][multi],
            None if guess is None else np.abs(guess[keep_c][sel]))
    out[keep_c] = np.sign(kept) * x
    return out, sweeps, steps


def prox_all(V: GroupedVector, lam: float, q: float) -> GroupedVector:
    """Apply the group prox to every group of a grouped vector.

    lam = 0 returns a copy of the input.  Input validation failures name
    the offending group.
    """
    classify_q(q)
    if not (isinstance(lam, (int, float)) and lam >= 0 and math.isfinite(lam)):
        raise InvalidParameterError(f"lam must be a finite nonnegative real, got {lam!r}")
    values = V.values
    bad = ~np.isfinite(values)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        g = int(np.searchsorted(V.partition.offsets, j, side="right") - 1)
        raise InputError(f"non-finite entry in group {g}")
    return GroupedVector(_scaled_prox(values, V.partition, float(lam), float(q)), V.partition)
