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
For general finite q the optimality system is solved through the scalar
substitution c = lam * ||x||_q^(1-q):

  * for fixed c, each coordinate solves  h(x) = x + c x^(q-1) - v_i = 0,
    which has a unique root in (0, v_i);
  * c* is the unique zero of  phi(c) = lam * psi(c) - c  on [c_lo, c_hi],
    where psi(c) = (sum_i x_i(c)^q)^((1-q)/q), phi(c_lo) >= 0 >= phi(c_hi).

One Newton step on (x, c), ``_joint_step``, drives both solves below.  The
Jacobian of the two equations is an arrowhead, so a step costs a sum per
group.  It accepts a group once every |h_i| is at its rounding floor and
the step in c is below 256 ulps of c, or below what those h_i can make of
it, which is more where phi is flat; an accepted group returns its x moved
by that step's dx, one final Newton correction.

Every group takes up to 8 of these steps, in log x and log c, so the
iterate stays positive and inside the analytic bracket.  A group starts
from a guess at the answer (the solver passes its current iterate) when
the guess is nonzero on all of it with lam psi(guess) inside the bracket;
else from the roots at the c of the q = 2 shrink v (1 - lam / ||v||_qbar),
with c moved to lam psi of those roots, one sweep for all such groups.

The groups that joint Newton does not accept take the bracketed zero find
on phi from the same start c and the analytic ends.  At each trial c it
solves the coordinate equations afresh inside (0, v_i), from the upper
bound (v_i / c)^(1/(q-1)), and the Newton step at those roots gives phi's
sign, the next trial c + dc and the stop.  A trial outside the bracket, or
after a step that failed to halve |phi|, becomes a bisection at the
geometric midpoint.  A group also stops at phi = 0 or at a bracket of
float width; phi's sign change on the analytic bracket is checked only
where a group stops without an accepting step and away from phi = 0.

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
from .model import GroupPartition, GroupedVector, QKind, classify_q, dual_exponent, group_norms

# Relative slack on the zero test lam >= ||v||_qbar; errs toward returning 0.
ZERO_SLACK = 1e-12
_MAX_OUTER = 400
_MAX_INNER = 80
# Four ulps of 1.0: the rounding floor used by the stopping tests.
_EPS4 = 4.0 * np.finfo(np.float64).eps
# a Newton step in c below this many ulps of c, with every inner residual
# at its rounding floor, is at phi's rounding floor
_FLOOR_ULPS = 256.0 * np.finfo(np.float64).eps
# joint Newton steps on (x, c) before a group falls back to the bracket
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


def _psi(x, starts, rep_sizes, q):
    """Per-group ||x||_q^(1-q) for strictly positive x, max-rescaled."""
    gmax = np.maximum.reduceat(x, starts)
    scaled = x / np.repeat(gmax, rep_sizes)
    sums = np.add.reduceat(np.power(scaled, q), starts)
    return np.power(gmax, 1.0 - q) * np.power(sums, (1.0 - q) / q)


def _joint_step(v, x, c, starts, sizes, lam, q):
    """One Newton step on the coupled system, on every group at once.

    The unknowns are the roots x and c; the equations are
    h_i = x_i + c x_i^(q-1) - v_i = 0 and g = lam psi(x) - c = 0.  The
    Jacobian is an arrowhead: diagonal h'_i in x, column x_i^(q-1) in c,
    row a_i = (1-q) lam psi x_i^(q-1) / sum(x^q) from g, and -1.  So the
    step is one sum per group:

        dc  = (g - sum a_i h_i / h'_i) / (1 + sum a_i x_i^(q-1) / h'_i)
        dx_i = -(h_i + x_i^(q-1) dc) / h'_i

    At h = 0 the denominator is 1 - lam psi d(log psi)/dc, and dc is the
    Newton step on phi(c) = lam psi(x(c)) - c.  The sums are taken
    max-rescaled, like ``_psi``.  Returns dx, dc, g and, per group, whether
    the step accepts the group: every h_i at its rounding floor (the one
    ``_h_roots`` stops at), and |dc| below 256 ulps of c or below what
    those h_i can make of dc, which exceeds 256 ulps where phi is flat.
    """
    qm1 = q - 1.0
    c_rep = np.repeat(c, sizes)
    x_qm1 = np.power(x, qm1)
    h = x + c_rep * x_qm1 - v
    dh = 1.0 + c_rep * qm1 * np.power(x, q - 2.0)
    gmax = np.maximum.reduceat(x, starts)
    y = x / np.repeat(gmax, sizes)
    y_qm1 = np.power(y, qm1)
    sum_yq = np.add.reduceat(y_qm1 * y, starts)
    lam_psi = lam * np.power(gmax, -qm1) * np.power(sum_yq, -qm1 / q)
    # a_i, with x^(q-1) / sum(x^q) = y^(q-1) / (gmax sum(y^q))
    a = np.repeat(-qm1 * lam_psi / (gmax * sum_yq), sizes) * y_qm1
    g = lam_psi - c
    denom = 1.0 + np.add.reduceat(a * x_qm1 / dh, starts)
    dc = (g - np.add.reduceat(a * h / dh, starts)) / denom
    dx = -(h + x_qm1 * np.repeat(dc, sizes)) / dh
    h_floor = _EPS4 * (v + dh * x)
    floor = np.logical_and.reduceat(np.abs(h) <= h_floor, starts)
    # the most of dc that h_i at their floor can make (every a_i <= 0)
    dc_floor = np.abs(np.add.reduceat(a * h_floor / dh, starts) / denom)
    return dx, dc, g, floor & (np.abs(dc) < np.maximum(_FLOOR_ULPS * c, dc_floor))


def _joint_newton(v, sizes, lam, q, x, c, c_lo, c_hi):
    """Newton's method on (x, c) together, from x in (0, v] and c in
    [c_lo, c_hi].  Steps are taken in log x and log c, x <- min(x e^(dx/x), v)
    and c <- clip(c e^(dc/c), c_lo, c_hi), so the iterate stays in the
    analytic bracket.  A group is done once ``_joint_step`` accepts it; it
    keeps its x moved by that step's dx, one final correction, and takes no
    further step.  Returns the roots, which groups are done, and the number
    of steps taken (at most ``_MAX_JOINT``).
    """
    starts = _starts(sizes)
    done = np.zeros(sizes.size, dtype=bool)
    steps = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while steps < _MAX_JOINT and not done.all():
            dx, dc, _, accept = _joint_step(v, x, c, starts, sizes, lam, q)
            steps += 1
            x = np.where(np.repeat(done, sizes), x, np.minimum(x * np.exp(dx / x), v))
            c = np.where(done, c, np.clip(c * np.exp(dc / c), c_lo, c_hi))
            done |= accept
    return x, done, steps


def _general_q_batch(v, sizes, lam, q, gn, guess=None):
    """Solve the general-q prox for every group of the concatenated positive
    vector ``v`` (group g occupies sizes[g] consecutive entries), whose
    dual norms ||v_g||_qbar are ``gn``.

    Preconditions (caller-enforced): all entries strictly positive and
    finite, and lam < ||v_g||_qbar for every group g.  ``guess``, laid out
    like ``v``, estimates the minimizer's magnitudes.  Each group starts
    joint Newton from it, or from the roots x0 at c_f = lam psi(v eps) with
    c0 = lam psi(x0) (module docstring); the groups joint Newton does not
    accept take ``_bracketed`` from the same c0.  Returns the positive
    minimizers, concatenated the same way, the number of sweeps
    (``_h_roots`` calls) and the number of joint Newton steps.
    """
    starts = _starts(sizes)
    eps = (gn - lam) / gn
    if np.any(eps <= 0.0):
        raise InvalidParameterError("general-q solve requires lam < ||v||_qbar for every group")

    eps_c = np.repeat(eps, sizes)
    with np.errstate(over="ignore", divide="ignore"):
        # candidate c at each coordinate: omega_i evaluated at eps * v_i;
        # 1 - eps is taken as lam / ||v||_qbar, which does not cancel
        ci = np.repeat(lam / gn, sizes) / (np.power(eps_c, q - 1.0) * np.power(v, q - 2.0))
        # at large q a tiny coordinate's candidate overflows.  Then cap c_hi
        # by c* = lam ||x*||_q^(1-q), since ||x*||_q >= n^-max(0, 1-2/q)
        # ||x*||_qbar and ||x*||_qbar >= ||v||_qbar - ||v - x*||_qbar = eps gn
        c_cap = lam * np.power(eps * gn * np.power(sizes, -max(0.0, 1.0 - 2.0 / q)), 1.0 - q)
    c_lo = np.minimum.reduceat(ci, starts)
    c_hi = np.maximum.reduceat(ci, starts)
    c_hi = np.where(np.isfinite(c_hi), c_hi, c_cap)
    if not (np.isfinite(c_lo).all() and np.isfinite(c_hi).all()):
        raise BracketError("outer bracket overflowed; inputs out of numerical range")

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # no guess is a zero guess, which starts every group fresh
        x = np.zeros_like(v) if guess is None else guess.copy()
        c0 = lam * _psi(x, starts, sizes, q)
        fresh = ~((np.minimum.reduceat(x, starts) > 0.0) & (c0 > c_lo) & (c0 < c_hi))
        if fresh.any():
            sel = np.repeat(fresh, sizes)
            c_f = np.clip(lam * _psi(v * eps_c, starts, sizes, q), c_lo, c_hi)
            x[sel] = _h_roots(v[sel], np.repeat(c_f, sizes)[sel], q)
            c0 = np.clip(lam * _psi(x, starts, sizes, q), c_lo, c_hi)
    x, done, steps = _joint_newton(v, sizes, lam, q, x, c0, c_lo, c_hi)
    sweeps = int(fresh.any())
    if not done.all():
        sel = np.repeat(~done, sizes)
        x[sel], cold_sweeps = _bracketed(v[sel], sizes[~done], lam, q, c0[~done],
                                         c_lo[~done], c_hi[~done])
        sweeps += cold_sweeps
    return x, sweeps, steps


def _bracketed(v, sizes, lam, q, c_try, c_lo, c_hi):
    """The outer zero find on phi, every group at once, from the first
    trial ``c_try`` (the c joint Newton started from) and the analytic
    bracket [c_lo, c_hi].  Each trial c gets its roots fresh from
    ``_h_roots``, and ``_joint_step`` at those roots gives phi's sign, the
    Newton step on c and the stop test.  Where a group stops without an
    accepting step and away from phi = 0 (at a bracket of float width, or
    out of trials), two more sweeps check phi's sign change on the
    analytic bracket, and a lost one raises BracketError.  Returns the
    roots and the number of sweeps taken."""
    starts = _starts(sizes)
    ends = c_lo, c_hi
    guard = 1e-9 * np.maximum(1.0, c_hi)
    frozen = settled = np.zeros(sizes.size, dtype=bool)
    x = v
    abs_phi_prev = np.full(sizes.size, np.inf)
    sweeps = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_MAX_OUTER):
            # a trial outside the live bracket, or one taken after a step
            # that failed to halve |phi|, is replaced by the geometric
            # midpoint, which also halves brackets that span many decades
            ok = (c_try > c_lo) & (c_try < c_hi)
            c_try = np.where(ok, c_try, np.sqrt(c_lo) * np.sqrt(c_hi))
            x_try = _h_roots(v, np.repeat(c_try, sizes), q)
            dx, dc, phi, accept = _joint_step(v, x_try, c_try, starts, sizes, lam, q)
            sweeps += 1

            live = ~frozen
            c_lo = np.where(live & (phi > 0.0), c_try, c_lo)
            c_hi = np.where(live & (phi < 0.0), c_try, c_hi)
            # a group is done where joint Newton would accept it, and then
            # returns its roots moved by that step's dx; or at phi = 0; or
            # once the bracket pins c to float resolution
            accept &= live
            x = np.where(np.repeat(live, sizes), x_try, x)
            acc = np.repeat(accept, sizes)
            x[acc] += dx[acc]
            settled = settled | accept | (live & (phi == 0.0))
            frozen = settled | (c_hi - c_lo <= _width_floor(c_hi))
            if frozen.all():
                break
            c_try = np.where(np.abs(phi) > 0.5 * abs_phi_prev, np.nan, c_try + dc)
            abs_phi_prev = np.abs(phi)

        if not settled.all():
            for end, sign in zip(ends, (1.0, -1.0)):
                phi = lam * _psi(_h_roots(v, np.repeat(end, sizes), q), starts, sizes, q) - end
                sweeps += 1
                if np.any(~settled & (sign * phi < -guard)):
                    raise BracketError("phi lost its sign change on the initial bracket")
    return x, sweeps


def _width_floor(c_hi):
    """Outer brackets this narrow are at float resolution."""
    return np.maximum(_EPS4 * np.abs(c_hi), 5e-324)


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
    return _prox_concat(v, GroupPartition((v.size,)), params.lam, params.q)[0]


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
    # one nonzero entry: no zero find, whose c can overflow where x cannot
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
    return GroupedVector(_prox_concat(values, V.partition, float(lam), float(q))[0], V.partition)
