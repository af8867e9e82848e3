"""Proximal operator tests.

The frozen arrays below were produced by the independent oracles in
mixnorm.oracle (grid search at resolution 0.02, i.e. final spacing 2e-5
after refinement, and the brentq-based scalar solver at xtol 1e-14).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixnorm.errors import (BracketError, InputError, InvalidExponentError, InvalidParameterError,
                            MixnormError)
from mixnorm.model import GroupPartition, GroupedVector, dual_exponent, group_norms, lq_norm
from mixnorm import prox as prox_module
from mixnorm.prox import (ProxParams, _prox_concat, prox_all, prox_general_q,
                          prox_group, prox_inf, soft_threshold)


def optimality_residual(x, v, lam, q):
    """Infinity norm of x + lam * ||x||_q^(1-q) * sign(x)|x|^(q-1) - v.

    Zero exactly when x solves the group prox for finite q > 1 with x != 0.
    The gradient term is taken at x / max|x|, which leaves it unchanged and
    keeps ||x||_q^(1-q) finite at large q.
    """
    xmax = np.abs(x).max()
    if xmax == 0.0:
        return np.abs(v).max()
    y = x / xmax
    grad = lam * lq_norm(y, q) ** (1 - q) * np.sign(y) * np.abs(y) ** (q - 1)
    return np.abs(x + grad - v).max()


# ---------------------------------------------------------------------------
# closed-form cases

def test_soft_threshold_small_case():
    v = np.array([3.0, -2.0, 0.5])
    assert np.allclose(soft_threshold(v, 1.0), [2.0, -1.0, 0.0])


def test_prox_inf_small_case():
    assert np.allclose(prox_inf(np.array([3.0, 1.0]), 1.0), [2.0, 1.0])


def test_prox_q2_small_case():
    x = prox_group(np.array([3.0, 4.0]), ProxParams(lam=1.0, q=2.0))
    assert np.allclose(x, [2.4, 3.2], atol=1e-12)


def test_prox_inf_budget_identity(rng):
    # the amount clipped off equals lam whenever the prox is nonzero
    for _ in range(50):
        v = rng.standard_normal(int(rng.integers(1, 9))) * 3
        lam = rng.uniform(0.05, 0.95) * np.abs(v).sum()
        x = prox_inf(v, lam)
        assert np.abs(v - x).sum() == pytest.approx(lam, rel=1e-10, abs=1e-12)
        # clipping never flips signs and never grows a coordinate
        assert np.all(np.abs(x) <= np.abs(v) + 1e-15)
        assert np.all(x * v >= 0)


def test_prox_inf_ties():
    x = prox_inf(np.array([2.0, 2.0, 2.0]), 1.5)
    assert np.allclose(x, [1.5, 1.5, 1.5])


@pytest.mark.filterwarnings("error")
def test_prox_inf_lam_below_rounding_of_top_entry():
    # 1e20 - 1 rounds to 1e20, so no sorted prefix passes the threshold
    # test; the top entry alone is clipped, by less than its rounding
    x = prox_inf(np.array([1e20, 1.0]), 1.0)
    assert np.array_equal(x, [1e20, 1.0])


@pytest.mark.filterwarnings("error")
def test_prox_all_inf_group_below_rounding_between_groups():
    # the middle group's cumsum must not leak into its neighbours' thresholds
    part = GroupPartition((2, 2, 2))
    v = GroupedVector(np.array([3.0, 1.0, 1e20, 1.0, -2.0, 0.5]), part)
    out = prox_all(v, 1.0, np.inf)
    assert np.array_equal(out.values, [2.0, 1.0, 1e20, 1.0, -1.0, 0.5])


def test_single_coordinate_any_q_is_soft_threshold():
    # with one coordinate the penalty is lam*|x| regardless of q
    for q in (1.0, 1.5, 2.0, 7.0, np.inf):
        x = prox_group(np.array([4.0]), ProxParams(lam=1.0, q=q))
        assert x[0] == pytest.approx(3.0, abs=1e-10)
    # a tiny lam leaves 1 - lam / |v| near 1, where computing it cancels
    for v, q in ((2.2e-8, 6.0), (1.9e7, 1.01), (4.4e-6, 4.0)):
        lam = 1e-8 * v
        x = prox_group(np.array([v]), ProxParams(lam=lam, q=q))
        assert x[0] == pytest.approx(v - lam, rel=1e-12)
    # c* = lam |v|^(1-q) is above the float range at q = 20 and 50, where the
    # general-q solve raised BracketError; one nonzero entry never reaches it
    v = np.array([0.0, -1.5582392425233504e-11, 0.0])
    lam = 1.5582392425233504e-11 * (1 - 5.24e-7)
    for q in (1.5, 20.0, 50.0):
        assert np.array_equal(prox_group(v, ProxParams(lam=lam, q=q)), soft_threshold(v, lam))


# ---------------------------------------------------------------------------
# frozen oracle values (see module docstring)

FROZEN = [
    # v, lam, q, expected (brentq oracle), grid oracle agreement witnessed at 1e-5
    ([1.0, 3.0], 1.0, 4.0, [0.91195221531484494, 2.0295240367490983]),
    ([2.0, -1.0, 0.5], 0.8, 1.5, [1.273403798959013, -0.53086180545735107, 0.20702860058770195]),
    ([-3.0, 2.5], 1.5, 3.0, [-1.932207068300682, 1.6865049171298949]),
    ([1.2, 0.7, -2.2], 0.6, 2.5, [0.9778010827083643, 0.59462627914556532, -1.6935285641486333]),
    ([4.0], 1.0, 7.0, [3.0]),
]


@pytest.mark.parametrize("v,lam,q,want", FROZEN)
def test_general_q_frozen_values(v, lam, q, want):
    x = prox_group(np.array(v), ProxParams(lam=lam, q=q))
    assert np.allclose(x, want, atol=5e-9)


# ---------------------------------------------------------------------------
# threshold behavior

@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_zero_iff_lam_at_dual_norm(q, rng):
    for _ in range(20):
        v = rng.standard_normal(int(rng.integers(1, 7))) * 2
        if not np.any(v):
            continue
        thresh = lq_norm(v, dual_exponent(q))
        above = prox_group(v, ProxParams(lam=thresh * (1 + 1e-3), q=q))
        below = prox_group(v, ProxParams(lam=thresh * (1 - 1e-3), q=q))
        assert np.all(above == 0.0)
        assert np.any(below != 0.0)


def test_zero_input_stays_zero():
    for q in (1.0, 1.7, 2.0, np.inf):
        x = prox_group(np.zeros(3), ProxParams(lam=0.5, q=q))
        assert np.all(x == 0.0)


# ---------------------------------------------------------------------------
# optimality residual across regimes

@pytest.mark.parametrize("q", [1.3, 1.5, 2.5, 4.0, 5.0, 10.0])
def test_general_q_optimality(q, rng):
    for _ in range(30):
        n = int(rng.integers(1, 9))
        v = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
        if not np.any(v):
            continue
        lam = rng.uniform(0.05, 0.95) * lq_norm(v, dual_exponent(q))
        if lam == 0:
            continue
        x = prox_group(v, ProxParams(lam=lam, q=q))
        assert optimality_residual(x, v, lam, q) <= 1e-6


@pytest.mark.parametrize("q", [1.2, 1.5, 3.0, 5.0, 10.0, 20.0])
def test_general_q_optimality_across_scales(q, rng, monkeypatch):
    # the stopping rules are relative, so accuracy holds at every scale of v;
    # the sweep count (``_h_roots`` calls) is bounded, so a change that
    # makes the fresh start certify fewer groups, or the bracketed zero
    # find slower, shows up here
    sweeps = []
    h_roots = prox_module._h_roots
    monkeypatch.setattr(prox_module, "_h_roots",
                        lambda *args, **kwargs: sweeps.append(1) or h_roots(*args, **kwargs))
    for _ in range(40):
        v = rng.standard_normal(int(rng.integers(1, 9))) * 10.0 ** rng.uniform(-3, 3)
        lam = rng.uniform(0.05, 0.95) * lq_norm(v, dual_exponent(q))
        x = prox_group(v, ProxParams(lam=lam, q=q))
        assert optimality_residual(x, v, lam, q) <= 1e-13 * np.abs(v).max()
    assert len(sweeps) <= {1.2: 33, 1.5: 33, 3.0: 33, 5.0: 33, 10.0: 42, 20.0: 135}[q]


@pytest.mark.parametrize("slack", [1e-6, 1e-9, 1e-11])
def test_general_q_large_q_tiny_coordinate(slack):
    # eps^(q-1) * v^(q-2) underflows at the tiny coordinate, so its bracket
    # candidate for c is not a float
    v = np.array([0.18, 6.7e-12])
    q = 20.0
    lam = lq_norm(v, dual_exponent(q)) * (1 - slack)
    x = prox_group(v, ProxParams(lam=lam, q=q))
    assert optimality_residual(x, v, lam, q) <= 1e-12 * np.abs(v).max()


def test_general_q_prox_emits_no_numpy_warnings():
    # overflow in c (q - 1) at large q and in psi at the bracket ends is
    # part of the computation; it must not reach the caller as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = np.array([0.4802581280570139, 1.2252818176322943e-07])
        lam, q = 0.4802572127259937, 50.0
        x = prox_group(v, ProxParams(lam=lam, q=q))
        assert optimality_residual(x, v, lam, q) <= 1e-12 * np.abs(v).max()
        # the bracket lost phi's sign change here; joint Newton from the
        # fresh start certifies the answer without it
        v = np.array([-2.745208185247936e-10, 3.868895335877817e-12])
        lam, q = 2.774540658616903e-10, 20.0
        x = prox_group(v, ProxParams(lam=lam, q=q))
        assert optimality_residual(x, v, lam, q) <= 1e-14 * np.abs(v).max()
        # the analytic bracket overflows here, a known BracketError
        with pytest.raises(BracketError):
            prox_group(np.array([0.00013110521396422447, -5.817048304025612e-07,
                                 0.0716308123802742]),
                       ProxParams(lam=0.07175311072263263, q=100.0))


def test_general_q_small_q_roots_decades_below_coordinates():
    # near the zero threshold the inner roots of the small coordinates lie
    # ~30 decades below them, which halving the bracket cannot cross
    v = np.array([0.005488511997968033, 5.611866965683302e-12, -2.5831796844280752e-09,
                  1.600619452387541e-07, -0.0001147281030040366])
    q = 1.2
    lam = lq_norm(v, dual_exponent(q)) * (1 - 2.5e-12)
    x = prox_group(v, ProxParams(lam=lam, q=q))
    assert optimality_residual(x, v, lam, q) <= 1e-12 * np.abs(v).max()


def test_sign_and_magnitude_structure(rng):
    # prox preserves signs and never exceeds |v| coordinatewise
    for q in (1.4, 3.0):
        v = rng.standard_normal(6) * 2
        lam = 0.4 * lq_norm(v, dual_exponent(q))
        x = prox_group(v, ProxParams(lam=lam, q=q))
        assert np.all(x * v >= 0)
        assert np.all(np.abs(x) <= np.abs(v) + 1e-12)


def test_near_one_exponent_close_to_soft_threshold(rng):
    v = rng.standard_normal(5) * 2
    lam = 0.3 * np.abs(v).max()
    x_soft = soft_threshold(v, lam)
    x_gen = prox_group(v, ProxParams(lam=lam, q=1.001))
    assert np.abs(x_gen - x_soft).max() < 1e-2


def test_general_machinery_at_q2_matches_closed_form(rng):
    for _ in range(40):
        v = rng.standard_normal(int(rng.integers(1, 10))) * 3
        if not np.any(v):
            continue
        lam = rng.uniform(0.05, 0.95) * np.linalg.norm(v)
        closed = prox_group(v, ProxParams(lam=lam, q=2.0))
        forced = np.sign(v) * prox_general_q(np.abs(v), lam, 2.0)
        assert np.abs(closed - forced).max() <= 1e-7


# ---------------------------------------------------------------------------
# outer zero-finding structure

def test_fixed_point_iteration_can_fail_where_zero_finding_succeeds():
    """Naive alternation x <- shrink(v, c), c <- lam*||x||^(1-q) can cycle.

    This is the motivating failure case for the nested bisection: on this
    input the alternation bounces between two clusters without settling,
    while the bracketed zero-finder hits the optimality condition.
    """
    v = np.array([1.0, 3.0])
    lam, q = 1.0, 4.0

    from mixnorm.prox import _h_roots  # inner solver reused directly

    c = 1e-3  # start near the unpenalized end
    iterates = []
    for _ in range(200):
        x = _h_roots(v, np.full(2, c), q)
        c_next = lam * lq_norm(x, q) ** (1 - q)
        iterates.append(c_next)
        if abs(c_next - c) <= 1e-12 * max(1.0, c):
            break
        c = c_next
    tail = np.array(iterates[-20:])
    fixed_point_converged = tail.std() <= 1e-9 * max(1.0, tail.mean())

    x_bisect = prox_general_q(v, lam, q)
    assert optimality_residual(x_bisect, v, lam, q) <= 1e-8
    if fixed_point_converged:
        x_fp = _h_roots(v, np.full(2, c), q)
        assert optimality_residual(x_fp, v, lam, q) > 1e-6


def test_newton_at_phi_rounding_floor_stops_without_bisecting(monkeypatch):
    # Newton closes in on c* from one side, so the far end of the bracket is
    # still the analytic one; bisecting once |phi| stops halving at its
    # rounding floor walked that end in over decades, for 33 sweeps
    v = np.array([-0.08336233677328574, 0.03937214755246577, -0.07918721457279891,
                  0.004424148882862664, 0.15268608127580746, 0.012738178946544668,
                  -0.035158341327072885, -0.1324730754983202, 0.03904757837546792,
                  -0.009011518986615577])
    lam, q = 0.2908687122409926, 3.0
    sweeps = []
    h_roots = prox_module._h_roots
    monkeypatch.setattr(prox_module, "_h_roots",
                        lambda *args, **kwargs: sweeps.append(1) or h_roots(*args, **kwargs))
    x = prox_group(v, ProxParams(lam=lam, q=q))
    assert len(sweeps) <= 10
    assert optimality_residual(x, v, lam, q) <= 1e-12 * np.abs(v).max()


def bracketed_reference(monkeypatch, v, part, lam, q):
    """The prox with joint Newton accepting nothing, so that every general-q
    group takes the bracketed zero find."""
    with monkeypatch.context() as m:
        m.setattr(prox_module, "_joint_newton",
                  lambda v, sizes, *args: (v, np.zeros(sizes.size, dtype=bool), 0))
        return _prox_concat(v, part, lam, q)[0]


def random_multi_group_call(rng, q):
    sizes = tuple(int(n) for n in rng.integers(1, 9, size=int(rng.integers(2, 9))))
    part = GroupPartition(sizes)
    v = rng.standard_normal(part.p) * np.repeat(10.0 ** rng.uniform(-2, 2, part.s), sizes)
    v[rng.random(part.p) < 0.1] = 0.0
    # lam near the median zero threshold leaves some groups at zero
    lam = float(rng.uniform(0.2, 1.2) * np.median(group_norms(v, part, dual_exponent(q))))
    return v, part, lam


@pytest.mark.parametrize("q", [1.2, 1.5, 3.0, 8.0, 20.0])
def test_warm_start_never_changes_the_answer(q, rng, monkeypatch):
    # a guess only moves where joint Newton starts; a group whose guess has a
    # zero, or whose c0 = lam ||guess||_q^(1-q) is outside the analytic
    # bracket, starts fresh, exactly as with no guess at all
    for _ in range(25):
        v, part, lam = random_multi_group_call(rng, q)
        tol = 1e-14 * np.abs(v).max()
        ref = bracketed_reference(monkeypatch, v, part, lam, q)
        cold, cold_sweeps, cold_steps = _prox_concat(v, part, lam, q)
        assert np.abs(cold - ref).max() <= tol
        warm_guesses = [cold * s for s in (1.0, 1e-8, 0.5, 2.0, 1e8)]
        warm_guesses += [rng.uniform(1e-3, 2.0, part.p) * np.abs(v) for _ in range(3)]
        warm_guesses += [rng.uniform(0.1, 10.0, part.p)]
        # the solver's iterate is the answer perturbed coordinate by coordinate
        warm_guesses += [cold * np.exp(sigma * rng.standard_normal(part.p))
                         for sigma in (1e-8, 1e-4, 1e-2, 0.3)]
        for guess in warm_guesses:
            out, _, _ = _prox_concat(v, part, lam, q, guess)
            assert np.abs(out - ref).max() <= tol
        zeroed = cold.copy()
        for g in range(part.s):
            zeroed[part.starts[g] + np.argmax(np.abs(cold[part.slice(g)]))] = 0.0
        for guess in (zeroed, cold * 1e-300, cold * 1e300):
            out, sweeps, steps = _prox_concat(v, part, lam, q, guess)
            assert np.array_equal(out, cold) and sweeps == cold_sweeps and steps == cold_steps


@pytest.mark.parametrize("q", [1.2, 1.5, 3.0, 8.0, 20.0])
def test_fresh_start_matches_bracketed_zero_find(q, rng, monkeypatch):
    # joint Newton from the shrink start, or from the solver's iterate,
    # returns what the bracketed zero find alone returns
    for _ in range(300):
        v, part, lam = random_multi_group_call(rng, q)
        tol = 1e-14 * np.abs(v).max()
        ref = bracketed_reference(monkeypatch, v, part, lam, q)
        cold = _prox_concat(v, part, lam, q)[0]
        assert np.abs(cold - ref).max() <= tol
        for sigma in (1e-3, 0.3):
            guess = cold * np.exp(sigma * rng.standard_normal(part.p))
            assert np.abs(_prox_concat(v, part, lam, q, guess)[0] - ref).max() <= tol


def test_warm_start_at_large_q_falls_back_when_newton_stalls(monkeypatch):
    # from this guess at q = 20, joint Newton does not certify an answer
    # within its step budget, so the bracketed zero find answers
    v = np.array([0.1101401565827222, 0.07678912606297768])
    guess = np.array([0.0009923441308011044, 0.0005874939676119461])
    lam, q = 0.1789665303350068, 20.0
    part = GroupPartition((2,))
    cold = _prox_concat(v, part, lam, q)[0]
    calls = []
    bracketed = prox_module._bracketed
    monkeypatch.setattr(prox_module, "_bracketed",
                        lambda *args: calls.append(1) or bracketed(*args))
    out, sweeps, steps = _prox_concat(v, part, lam, q, guess)
    assert optimality_residual(out, v, lam, q) <= 1e-14 * np.abs(v).max()
    assert np.abs(out - cold).max() <= 1e-14 * np.abs(v).max()
    assert calls and steps == prox_module._MAX_JOINT and sweeps <= 6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v,lam,tail", [
    # tail: an 80-digit bisection's |x5|, |x6|, to five digits
    ([-3.550038181159699e-09, 1.6206470964887932e-07, -0.0023732594963877434,
      4.4844352959922145e-12, -0.2215401131402656, 0.005860329144185953], 0.21793698027277247,
     [0.0048145, 0.0045716]),
    ([-0.00010945081475416414, 0.004241298668796034, -1.166227197181281e-09,
      -0.8233831903673666, 1.5158956129999782e-05, 0.049154926877958284], 0.8677328700532485,
     None),
])
def test_large_q_bracketed_answer_is_stationary(v, lam, tail):
    # at q = 100 an inner root stopped short of its floor; kept as a bound on
    # the roots of later trials, it pinned c away from c* and the bracketed
    # zero find returned a wrong answer without an error
    v = np.array(v)
    x = prox_group(v, ProxParams(lam=lam, q=100.0))
    assert optimality_residual(x, v, lam, 100.0) <= 1e-12 * np.abs(v).max()
    if tail is not None:
        assert np.allclose(np.abs(x[4:]), tail, rtol=2e-5)


@pytest.mark.filterwarnings("error")
def test_bracket_sign_check_only_where_the_zero_find_does_not_settle():
    # phi's sign change on the analytic bracket is lost here, but the zero
    # find accepts the group, so it is answered
    v = np.array([3.8077668522321415e-06, -0.003333211755777225, -2.2560729629183456e-12,
                  2.2352559399663685e-08, -5.036207594245712e-07])
    lam, q = 0.0033360308129788607, 20.0
    x = prox_group(v, ProxParams(lam=lam, q=q))
    assert optimality_residual(x, v, lam, q) <= 1e-14 * np.abs(v).max()
    # here the bracket closes to float width without an accepting step
    with pytest.raises(BracketError):
        prox_group(np.array([5.991993318415473e-11, -3.632168195588501e-11]),
                   ProxParams(lam=9.311165316389133e-11, q=q))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", [50.0, 100.0])
def test_large_q_near_threshold_raises_or_answers(q, monkeypatch):
    # entries across twelve decades and lam just below the zero threshold:
    # every call, through joint Newton or the bracketed zero find alone,
    # either raises a typed error or returns a stationary point
    rng = np.random.default_rng(99)
    for _ in range(400):
        n = int(rng.integers(2, 7))
        v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 0, n)
        lam = float(lq_norm(v, dual_exponent(q)) * (1 - 10.0 ** rng.uniform(-4, -0.3)))
        part = GroupPartition((n,))
        for bracket_only in (False, True):
            try:
                x = (bracketed_reference(monkeypatch, v, part, lam, q) if bracket_only
                     else _prox_concat(v, part, lam, q)[0])
            except MixnormError:
                continue
            assert optimality_residual(x, v, lam, q) <= 1e-12 * np.abs(v).max()


# ---------------------------------------------------------------------------
# whole-vector prox

def test_prox_all_mixed_groups(rng):
    part = GroupPartition((3, 1, 4, 2))
    v = GroupedVector(rng.standard_normal(10) * 2, part)
    for q in (1.0, 1.5, 2.0, 3.0, np.inf):
        lam = 0.4
        out = prox_all(v, lam, q)
        for i in range(part.s):
            solo = prox_group(v.group(i).copy(), ProxParams(lam=lam, q=q))
            assert np.allclose(out.group(i), solo, atol=1e-12), f"group {i} q={q}"


def test_prox_all_batched_matches_solo_general_q(rng):
    # many groups of different sizes, one lock-step batched solve
    sizes = tuple(int(s) for s in rng.integers(1, 8, size=30))
    part = GroupPartition(sizes)
    v = GroupedVector(rng.standard_normal(part.p) * 3, part)
    lam, q = 0.7, 2.6
    out = prox_all(v, lam, q)
    for i in range(part.s):
        solo = prox_group(v.group(i).copy(), ProxParams(lam=lam, q=q))
        assert np.allclose(out.group(i), solo, atol=1e-10)


def _prox_inf_per_group(values, partition, lam):
    """The per-group loop the batched q = inf kernel replaced: zero test,
    then one sort and cumsum per live group."""
    out = np.zeros_like(values)
    for i in range(partition.s):
        a = np.abs(values[partition.slice(i)])
        if lam >= a.sum() * (1.0 - 1e-12):
            continue
        asort = np.sort(a)[::-1]
        cs = np.cumsum(asort)
        jstar = int(np.count_nonzero(asort * np.arange(1, a.size + 1) > cs - lam))
        t = (cs[jstar - 1] - lam) / jstar
        out[partition.slice(i)] = np.sign(values[partition.slice(i)]) * np.minimum(a, t)
    return out


def test_prox_all_inf_matches_per_group_loop_and_oracle(rng):
    from mixnorm.oracle import oracle_prox_group

    eps = np.finfo(np.float64).eps
    lam = 1.0
    for _ in range(60):
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 25)))
        part = GroupPartition(tuple(int(n) for n in sizes))
        v = rng.standard_normal(part.p) * np.repeat(10.0 ** rng.uniform(-3, 3, part.s), sizes)
        v[rng.random(part.p) < 0.2] = 0.0                        # zero entries
        pick = [part.slice(int(i)) for i in rng.integers(part.s, size=4)]
        v[pick[0]] = rng.choice([-0.75, 0.75], v[pick[0]].size)  # ties
        v[pick[1]] *= lam / max(np.abs(v[pick[1]]).sum(), 1e-300)  # ||v_g||_1 = lam
        v[pick[2]] = 0.0                                         # a fully zeroed group
        v[pick[3]][:2] = [2.0, -1.0][:v[pick[3]].size]           # an entry at t = 1
        got = prox_all(GroupedVector(v, part), lam, np.inf).values
        want = _prox_inf_per_group(v, part, lam)
        # both sum at most n entries of the group, each rounding by eps * ||v_g||_1
        tol = np.repeat(4 * sizes * eps * group_norms(v, part, 1.0), sizes)
        assert np.all(np.abs(got - want) <= tol)
        for i in range(part.s):
            sl = part.slice(i)
            # brentq's xtol is 1e-14, on top of the rounding above
            assert np.allclose(got[sl], oracle_prox_group(v[sl], lam, np.inf), rtol=0,
                               atol=1e-14 + 4 * sizes[i] * eps * np.abs(v[sl]).sum())


def test_prox_all_zero_lambda_is_identity(rng):
    part = GroupPartition((2, 3))
    v = GroupedVector(rng.standard_normal(5), part)
    out = prox_all(v, 0.0, 2.5)
    assert np.array_equal(out.values, v.values)


def test_prox_all_rejects_nonfinite():
    part = GroupPartition((2, 2))
    v = GroupedVector(np.array([1.0, np.nan, 0.0, 1.0]), part)
    with pytest.raises(InputError, match="group 0"):
        prox_all(v, 0.5, 2.0)


def test_prox_params_validation():
    with pytest.raises(InvalidParameterError):
        ProxParams(lam=0.0, q=2.0)
    with pytest.raises(InvalidParameterError):
        ProxParams(lam=-1.0, q=2.0)
    with pytest.raises(InvalidExponentError):
        ProxParams(lam=1.0, q=0.5)


def test_prox_group_coordinates_with_zero_entries():
    # zero coordinates stay zero, the rest still satisfy optimality
    v = np.array([2.0, 0.0, -1.0, 0.0])
    lam, q = 0.8, 3.0
    x = prox_group(v, ProxParams(lam=lam, q=q))
    assert x[1] == 0.0 and x[3] == 0.0
    assert optimality_residual(x[[0, 2]], v[[0, 2]], lam, q) <= 1e-8


def test_delta_controls_inner_root_accuracy():
    # the documented guarantee: each inner root residual h(x) is small
    v = np.array([1.0, 3.0])
    lam, q = 1.0, 4.0
    x = prox_general_q(np.abs(v), lam, q)
    c = lam * lq_norm(x, q) ** (1 - q)
    h = x + c * x ** (q - 1) - np.abs(v)
    assert np.abs(h).max() <= 1e-7


# ---------------------------------------------------------------------------
# property-based sweep

@given(
    n=st.integers(1, 6),
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0, 6.0, np.inf]),
    u=st.floats(0.1, 0.9),
    seed=st.integers(0, 2 ** 16),
)
def test_prox_properties(n, q, u, seed):
    g = np.random.default_rng(seed)
    v = g.standard_normal(n) * g.uniform(0.5, 3.0)
    if not np.any(v):
        return
    lam = u * lq_norm(v, dual_exponent(q))
    if lam <= 0:
        return
    x = prox_group(v, ProxParams(lam=lam, q=q))
    # nonexpansive toward v and objective no worse than at v (0.5||x-v||^2 term)
    fx = 0.5 * np.sum((x - v) ** 2) + lam * lq_norm(x, q)
    fv = lam * lq_norm(v, q)
    assert fx <= fv + 1e-10
    assert np.linalg.norm(x) <= np.linalg.norm(v) + 1e-12
