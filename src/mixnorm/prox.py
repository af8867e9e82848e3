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
projection threshold, one segmented sort over all groups) have closed forms.
For general finite q the optimality system is solved through the scalar
substitution c = lam * ||x||_q^(1-q):

  * for fixed c, each coordinate solves  h(x) = x + c x^(q-1) - v_i = 0,
    which has a unique root in (0, v_i);
  * c* is the unique zero of  phi(c) = lam * psi(c) - c  on [c_lo, c_hi],
    where psi(c) = (sum_i x_i(c)^q)^((1-q)/q), phi(c_lo) >= 0 >= phi(c_hi).

The outer zero find keeps a bracket [c_lo, c_hi] per group and steps by
Newton's method on phi, with the derivative taken through the coordinate
equations; a step that leaves the bracket, or that follows a step which
failed to halve |phi|, is replaced by bisection at the geometric
midpoint.  The roots at the bracket ends are cached: x_i(c) is strictly
decreasing in c, so they sandwich the root at any interior c and bracket
the inner solves, which are Newton steps safeguarded by bisection inside
that bracket.  All general-q groups
of a vector are solved in one lock-step batch; each group freezes
independently once its own stopping rule fires, so batched results match
solo calls.
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
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
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


def _h_roots(v, c, q, lo, hi, x0=None):
    """Componentwise root of h(x) = x + c x^(q-1) - v inside (lo, hi).

    h is strictly increasing with h(lo) < 0 < h(hi).  Newton steps start
    from x0 (default: (v/c)^(1/(q-1)), where c x^(q-1) alone reaches v, an
    upper bound on the root) and fall back to bisection whenever they
    leave the live bracket, at the geometric midpoint when the bracket
    spans more than three decades (a tiny coordinate's root can lie ~30
    decades below it).  A coordinate stops once its residual is down to the
    rounding error of evaluating h, or once its bracket is at relative
    float resolution, and then stays put while the others finish.  Returns
    the roots; lo/hi are not modified in place.
    """
    lo = lo.copy()
    hi = hi.copy()
    qm1 = q - 1.0
    cq = c * qm1
    done = np.zeros(v.shape, dtype=bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.clip(np.power(v / c, 1.0 / qm1) if x0 is None else x0, lo, hi)
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


def _dlog_psi(x, c, starts, rep_sizes, q):
    """Per-group d(log psi)/dc at the roots x = x(c), max-rescaled.

    Differentiating x + c x^(q-1) = v gives dx/dc = -x^(q-1) / h'(x), so
    d(log psi)/dc = (q-1) * sum(x^(2q-2) / h'(x)) / sum(x^q).
    """
    gmax = np.maximum.reduceat(x, starts)
    y = x / np.repeat(gmax, rep_sizes)
    y_qm1 = np.power(y, q - 1.0)
    dh = 1.0 + c * (q - 1.0) * np.power(x, q - 2.0)
    num = np.add.reduceat(y_qm1 * y_qm1 / dh, starts)
    den = np.add.reduceat(y_qm1 * y, starts)
    return (q - 1.0) * np.power(gmax, q - 2.0) * num / den


def _general_q_batch(v, sizes, lam, q):
    """Solve the general-q prox for every group of the concatenated positive
    vector ``v`` (group g occupies sizes[g] consecutive entries).

    Preconditions (caller-enforced): all entries strictly positive and
    finite, and lam < ||v_g||_qbar for every group g.  Returns the positive
    minimizers, concatenated the same way.
    """
    starts = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    qbar = q / (q - 1.0)

    gn = group_norms(v, GroupPartition(tuple(int(s) for s in sizes)), qbar)
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

    # roots at the bracket endpoints seed the inner bracket cache:
    # x_hi holds the roots at c_lo and x_lo the roots at c_hi
    x_hi = _h_roots(v, np.repeat(c_lo, sizes), q, np.zeros_like(v), v.copy())
    phi_lo = lam * _psi(x_hi, starts, sizes, q) - c_lo
    x_lo = _h_roots(v, np.repeat(c_hi, sizes), q, np.zeros_like(v), x_hi)
    phi_hi = lam * _psi(x_lo, starts, sizes, q) - c_hi

    guard = 1e-9 * np.maximum(1.0, c_hi)
    if np.any(phi_lo < -guard) or np.any(phi_hi > guard):
        raise BracketError("phi lost its sign change on the initial bracket")

    # endpoints that already are roots, and degenerate zero-width brackets
    at_lo = phi_lo <= 0.0
    at_hi = (phi_hi >= 0.0) & ~at_lo
    frozen = at_lo | at_hi | ((c_hi - c_lo) <= _width_floor(c_hi))
    c = np.where(at_hi, c_hi, c_lo)
    x_cur = np.where(np.repeat(at_hi, sizes), x_lo, x_hi)

    # the first trial is the secant through the endpoints, then Newton
    # steps on phi; a trial outside the live bracket, or one taken after a
    # step that failed to halve |phi|, is replaced by the geometric
    # midpoint, which also halves brackets that span many decades quickly
    with np.errstate(divide="ignore", invalid="ignore"):
        c_try = c_lo + phi_lo * ((c_hi - c_lo) / (phi_lo - phi_hi))
    abs_phi_prev = np.full(sizes.size, np.inf)
    for _ in range(_MAX_OUTER):
        if frozen.all():
            break
        ok = (c_try > c_lo) & (c_try < c_hi)
        c_try = np.where(frozen, c, np.where(ok, c_try, np.sqrt(c_lo) * np.sqrt(c_hi)))
        c_rep = np.repeat(c_try, sizes)
        x_try = _h_roots(v, c_rep, q, x_lo, x_hi, x0=x_cur)
        lam_psi = lam * _psi(x_try, starts, sizes, q)
        phi = lam_psi - c_try

        live = ~frozen
        up = live & (phi > 0.0)
        dn = live & (phi < 0.0)
        c_lo = np.where(up, c_try, c_lo)
        c_hi = np.where(dn, c_try, c_hi)
        x_hi = np.where(np.repeat(up, sizes), x_try, x_hi)
        x_lo = np.where(np.repeat(dn, sizes), x_try, x_lo)
        x_cur = np.where(np.repeat(live, sizes), x_try, x_cur)
        c = np.where(live, c_try, c)

        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            step = phi / (lam_psi * _dlog_psi(x_try, c_rep, starts, sizes, q) - 1.0)
        # done once c is pinned to float resolution, by the bracket or by
        # a Newton step that no longer moves it
        frozen |= live & ((phi == 0.0) | ((c_hi - c_lo) <= _width_floor(c_hi))
                          | (np.abs(step) <= _EPS4 * c_try))
        slow = np.abs(phi) > 0.5 * abs_phi_prev
        c_try = np.where(slow, np.nan, c_try - step)
        abs_phi_prev = np.abs(phi)

    return x_cur


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
    return _general_q_batch(v, np.array([v.size]), float(lam), float(q))


def prox_group(v, params: ProxParams) -> np.ndarray:
    """Prox of lam * ||.||_q for one group; handles every q >= 1.

    Returns exact zero when lam >= ||v||_qbar (up to a relative slack of
    1e-12 that errs toward zero).  This is the one-group case of the
    whole-vector kernel.
    """
    v = _validate_group_input(v)
    return _prox_concat(v, GroupPartition((v.size,)), params.lam, params.q)


def _prox_concat(values: np.ndarray, partition: GroupPartition, lam: float,
                 q: float) -> np.ndarray:
    """Group-wise prox on a flat array; the solver's hot path and the one
    place that dispatches on the exponent."""
    if lam == 0.0:
        return values.copy()
    kind = classify_q(q)
    sizes = partition.sizes_array
    gn = group_norms(values, partition, dual_exponent(q))
    zero_g = lam >= gn * (1.0 - ZERO_SLACK)
    zero_c = np.repeat(zero_g, sizes)

    if kind is QKind.ONE:
        out = soft_threshold(values, lam)
        out[zero_c] = 0.0
        return out
    if kind is QKind.TWO:
        denom = np.where(gn > 0.0, gn, 1.0)
        factor = np.where(zero_g, 0.0, (gn - lam) / denom)
        return values * np.repeat(factor, sizes)
    # q = inf and general q solve the live groups only, with their zero
    # entries stripped: a zero entry stays zero at every q
    out = np.zeros_like(values)
    keep_c = ~zero_c & (values != 0.0)
    if not keep_c.any():
        return out
    counts = np.add.reduceat(keep_c.astype(np.intp), partition.starts)
    live_sizes = counts[~zero_g]
    kept = values[keep_c]
    if kind is QKind.INF:
        out[keep_c] = _inf_clip(kept, live_sizes, lam)
    else:
        out[keep_c] = np.sign(kept) * _general_q_batch(np.abs(kept), live_sizes, lam, q)
    return out


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
    return GroupedVector(_prox_concat(values, V.partition, float(lam), float(q)), V.partition)
