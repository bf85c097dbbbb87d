"""Closed-form guarantee evaluators."""
import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leashed import (
    AdversaryConfig,
    BoundParams,
    RegretLedger,
    StreamAdversary,
    StreamStats,
    bettor_bound,
    build_learner,
    dual_norm,
    conjugate_bound,
    fixed_diameter_bound,
    full_stack_bound,
    hintless_bound,
    ons_regret_bound,
    run_game,
)
from leashed.bounds import _leash_terms, _pow

ZERO_STREAM = StreamStats.from_norms([])


def test_params_validation():
    for field, bad in (
        ("epsilon", 0.0), ("alpha", -1.0), ("k", 0.0),
        ("p", 0.0), ("p", 1.5), ("g0", 0.0),
        ("epsilon", math.nan), ("alpha", math.inf), ("k", math.nan), ("k", math.inf),
        ("p", math.nan), ("g0", math.inf),
    ):
        with pytest.raises(ValueError):
            BoundParams(**{field: bad})


def test_stream_stats_from_norms():
    s = StreamStats.from_norms([1.0, 2.0])
    assert s.T == 2
    assert s.sum_sq == 5.0
    assert s.sum_abs == 3.0
    assert s.G == 2.0
    assert s.max_ratio == 1.5
    with pytest.raises(ValueError):
        StreamStats.from_norms([-1.0])


def test_bounds_charge_the_final_hint_max_of_g0_and_G():
    # G = 2 is the final hint at g0 <= 2, g0 above it
    s = StreamStats.from_norms([1.0, 2.0])
    for bound in (bettor_bound, full_stack_bound):
        at_G = bound(BoundParams(g0=2.0), s, 3.0)
        assert bound(BoundParams(g0=0.5), s, 3.0) == at_G
        assert bound(BoundParams(g0=3.0), s, 3.0) != at_G
    # the zero stream plays at hint g0: ln x = ln(16 h) + 1 / (4 h^2)
    h = 3.0
    want = 1.0 + 8.0 * h * (math.log(16.0) + math.log(h) + 1.0 / (4.0 * h * h) - 1.0)
    assert bettor_bound(BoundParams(g0=h), ZERO_STREAM, 1.0) == pytest.approx(want, rel=1e-15)


def test_stream_stats_max_ratio_is_prefix_maximum():
    # the ratio peaks mid-stream when a late spike resets the denominator
    s = StreamStats.from_norms([1.0, 1.0, 1.0, 10.0])
    assert s.max_ratio == 3.0
    assert s.G == 10.0


def test_stream_stats_from_ledger():
    ledger = RegretLedger()
    ledger.append(np.zeros(2), np.array([3.0, 4.0]), 0.0, 5.0)
    s = StreamStats.from_ledger(ledger)
    assert s.G == 5.0 and s.sum_sq == 25.0 and s.T == 1


@pytest.mark.parametrize("algo, dim", [("leashed", 1), ("leashed_dimfree", 10)])
@pytest.mark.parametrize("kind", ["seeded_uniform", "spike", "zero"])
def test_from_ledger_equals_from_norms(algo, dim, kind):
    # the ledger's running sums are from_norms' operations in its order
    params = BoundParams()
    norms = []
    ledger = run_game(build_learner(algo, params, dim=dim),
                      StreamAdversary(AdversaryConfig(kind, dim=dim, seed=3)), 500,
                      on_round=lambda t, w, g: norms.append(dual_norm(g)))
    fast = StreamStats.from_ledger(ledger)
    slow = StreamStats.from_norms(norms)
    for field in ("T", "sum_sq", "sum_abs", "G", "max_ratio"):
        assert getattr(fast, field) == getattr(slow, field), field


def test_bettor_bound_at_origin_is_initial_wealth():
    assert bettor_bound(BoundParams(epsilon=2.5), ZERO_STREAM, 0.0) == 2.5


def test_bettor_bound_zero_stream_value():
    val = bettor_bound(BoundParams(), ZERO_STREAM, 1.0)
    assert val == pytest.approx(1.0 + 8.0 * (math.log(16.0) + 0.25 - 1.0), rel=1e-15)


def test_bettor_bound_survives_huge_mass():
    s = StreamStats(T=10, sum_sq=1e300, sum_abs=1e150, G=1e150, max_ratio=10.0)
    assert math.isfinite(bettor_bound(BoundParams(), s, 1.0))


def test_full_stack_bound_at_origin():
    assert full_stack_bound(BoundParams(), ZERO_STREAM, 0.0) == 2.0
    s = StreamStats.from_norms([1.0, 1.0])
    # at the origin only the barrier and penalty terms remain
    expected = 2.0 + (2.0 ** 0.5)
    assert full_stack_bound(BoundParams(), s, 0.0) == pytest.approx(expected, rel=1e-15)


def test_full_stack_vs_composed_bound_on_zero_stream():
    # with no gradients the expanded bound exceeds the composition of the
    # leash around the bettor, 2 * inner + leash terms, by exactly 14 w h
    params = BoundParams()
    for w in (0.5, 1.0, 7.0, 100.0):
        composed = (2.0 * bettor_bound(params, ZERO_STREAM, w)
                    + _leash_terms(params, ZERO_STREAM, w))
        assert full_stack_bound(params, ZERO_STREAM, w) == pytest.approx(
            composed + 14.0 * w * params.g0, rel=1e-9
        )


def test_leash_bound_terms_pinned():
    # four unit gradients: barrier 2, comparator charge 2, best q is zero
    s = StreamStats.from_norms([1.0, 1.0, 1.0, 1.0])
    assert _leash_terms(BoundParams(), s, 1.0) == 5.0
    # at comparator 10 the q = 1 arm, the full gradient mass times w = 40,
    # is the least (q = 0, 1/3, 1/2 give 1000, about 342, 200): 2 + 20 + 40
    assert _leash_terms(BoundParams(), s, 10.0) == 62.0
    # zero stream adds nothing
    assert _leash_terms(BoundParams(), ZERO_STREAM, 5.0) == 0.0


def test_hintless_bound_composition():
    params = BoundParams()
    s = StreamStats.from_norms([1.0, 2.0])
    expected = bettor_bound(params, s, 3.0) + s.G * (7.0 + 3.0)
    assert hintless_bound(params, s, 3.0, max_played=7.0) == expected


def test_fixed_diameter_bound_composition():
    params = BoundParams()
    s = StreamStats.from_norms([1.0, 2.0])
    inside = 2.0 * bettor_bound(params, s, 0.5) + s.G * (1.0 + 0.5)
    assert fixed_diameter_bound(params, s, 0.5, diameter=1.0) == inside
    outside = 2.0 * bettor_bound(params, s, 4.0) + s.G * (1.0 + 4.0) \
        + s.sum_abs * (4.0 - 1.0)
    assert fixed_diameter_bound(params, s, 4.0, diameter=1.0) == outside


stats_strategy = st.builds(
    StreamStats.from_norms,
    st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50),
)


@given(stats=stats_strategy, w=st.floats(min_value=0.0, max_value=1e6),
       g0=st.floats(min_value=1e-3, max_value=1e3))
@settings(deadline=None)
# 16 w h underflows to zero at a subnormal comparator and a small hint
@example(stats=StreamStats.from_norms([]), w=5e-324, g0=1.0 / 32.0)
# the leash penalty's q = 0 term G w (w/k)^(1/p) overflows, and at 1e300
# (w/k)^(1/p) itself: the q = 1 term is charged
@example(stats=StreamStats.from_norms([1.0, 2.0]), w=1e120, g0=1.0)
@example(stats=StreamStats.from_norms([1.0, 2.0]), w=1e300, g0=1.0)
def test_bounds_are_positive(stats, w, g0):
    params = BoundParams(g0=g0)
    assert bettor_bound(params, stats, w) > 0.0
    assert full_stack_bound(params, stats, w) > 0.0
    assert fixed_diameter_bound(params, stats, w, diameter=1.0) > 0.0


def test_bounds_finite_at_subnormal_comparator():
    # w / eps underflows to zero when eps > 1; the arm that takes its
    # logarithm needs a nonzero squared-gradient mass
    params = BoundParams(epsilon=4.0)
    s = StreamStats.from_norms([1.0])
    for bound in (bettor_bound, full_stack_bound):
        val = bound(params, s, 1e-323)
        assert math.isfinite(val) and val > 0.0


@given(stats_strategy, st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6))
@settings(deadline=None)
def test_leash_terms_monotone_in_comparator(stats, w1, w2):
    lo, hi = sorted((w1, w2))
    params = BoundParams()
    assert _leash_terms(params, stats, lo) <= _leash_terms(params, stats, hi)


def grid_penalty(params, stats, w, q):
    """The leash penalty at exponent q, G |u| a^(1-q) R^q with
    a = (|u|/k)^(1/p) and R = sum |g| / G, in the operations of a q grid."""
    G = stats.G
    a = _pow(w / params.k, 1.0 / params.p)
    return G * w * _pow(a, 1.0 - q) * (stats.sum_abs / G) ** q


@given(G=st.floats(min_value=1e-3, max_value=1e3), R=st.floats(min_value=1.0, max_value=1e4),
       k=st.floats(min_value=1e-2, max_value=1e2),
       p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       w=st.floats(min_value=0.0, max_value=1e4))
@settings(deadline=None, max_examples=300)
# a = (|u|/k)^(1/p) is 1e200
@example(G=1.0, R=1.0, k=100.0, p=0.01, w=1e4)
# a = 0 at |u| = 0, however small p is
@example(G=1.0, R=1.0, k=1.0 / 32.0, p=1.0 / 256.0, w=0.0)
# a overflows: the q = 0 term is inf and q = 1 is charged
@example(G=1.0, R=10.0, k=1e-5, p=0.01, w=1.0)
# a = (|u|/k)^(1/p) = R, where q = 1/2 rounds below both endpoints
@example(G=1.0, R=1000.0, k=0.1, p=1.0, w=100.0)
def test_leash_penalty_is_the_least_of_its_endpoint_terms(G, R, k, p, w):
    params = BoundParams(k=k, p=p)
    stats = StreamStats(T=1, sum_sq=G * G, sum_abs=G * R, G=G, max_ratio=R)
    least = min(grid_penalty(params, stats, w, q) for q in (0.0, 1.0))
    barrier = G * k * R ** p
    assert _leash_terms(params, stats, w) == barrier + 2.0 * G * w + least
    # log-linear in q: no interior q is lower, up to rounding. Every term
    # shares the floats G w, a and R, and from these a term's exact value is
    # at least the least's. A term rounds by two powers (2u each, u = 2^-53)
    # and two products (u each), the least by one product: 7u < 2^-49. Near
    # a tie of a and R (both >= 1) no value is subnormal, and a term past the
    # float range is inf, so no input is skipped
    for q in (i / 16.0 for i in range(17)):
        term = grid_penalty(params, stats, w, q)
        assert least <= term * (1.0 + 2.0 ** -49), (q, least, term)


U = 2.0 ** -53  # unit roundoff


def reference_leash_terms(params, stats, w):
    """barrier + 2 G |u| + G |u| min(a, R) from the same floats, in 60 digits."""
    with decimal.localcontext(decimal.Context(prec=60, Emax=decimal.MAX_EMAX,
                                              Emin=decimal.MIN_EMIN)) as ctx:
        ctx.traps[decimal.Overflow] = False  # a past MAX_EMAX reads Infinity
        G, k, p, w = (Decimal(x) for x in (stats.G, params.k, params.p, w))
        a = (w / k) ** (1 / p)
        R = Decimal(stats.sum_abs) / G
        return G * k * Decimal(stats.max_ratio) ** p + 2 * G * w + G * w * min(a, R)


@given(G=st.floats(min_value=1e-3, max_value=1e3), R=st.floats(min_value=1.0, max_value=1e4),
       k=st.floats(min_value=1e-2, max_value=1e2),
       p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       w=st.floats(min_value=0.0, max_value=1e4))
@settings(deadline=None, max_examples=300)
# |u|^(1+1/p) and k^(1/p) are subnormal, a = (|u|/k)^(1/p) is not
@example(G=1.0, R=1e6, k=0.1, p=1.0 / 315.0, w=0.1)
@example(G=1.0, R=1e6, k=0.5, p=1.0 / 1060.0, w=0.49)
# k^(1/p) underflows to zero, and the q = 0 term, 1.9e-60, is the least
@example(G=1.0, R=10.0, k=0.079, p=0.0034, w=0.05)
def test_leash_penalty_matches_a_high_precision_reference(G, R, k, p, w):
    params = BoundParams(k=k, p=p)
    stats = StreamStats(T=1, sum_sq=G * G, sum_abs=G * R, G=G, max_ratio=R)
    got = _leash_terms(params, stats, w)
    ref = reference_leash_terms(params, stats, w)
    # The float 1/p and |u|/k are each within u of the exact ones, so
    # ln a = ln(|u|/k) / p moves by up to drift = (1 + |ln(|u|/k)|) u / p,
    # and a by a factor within e^drift. The powers (2u each), the products
    # and the sums (u each) add at most 8u to the sum of positive terms
    x = w / k
    drift = (1.0 + abs(math.log(x))) * U / p if x > 0.0 else 0.0
    tol = 8.0 * U + (math.expm1(drift) if drift < 709.0 else math.inf)
    assert abs(Decimal(got) - ref) <= Decimal(tol) * ref, (got, ref)


def test_leash_penalty_where_G_u_underflows():
    # G |u| rounds to zero while a = (|u|/k)^(1/p) overflows: the penalty is
    # G |u| min(a, R) = 0, not 0 * inf
    params = BoundParams(k=1e-20, p=0.01)
    stats = StreamStats(T=1, sum_sq=0.0, sum_abs=5e-324, G=5e-324, max_ratio=1.0)
    assert _leash_terms(params, stats, 1e-10) == 0.0


def test_leash_penalty_at_a_tie_of_its_endpoints():
    # a = (|u|/k)^(1/p) = R = 1000: both endpoints give 1e5, and q = 1/2
    # rounds one ulp lower; the penalty is the endpoint value
    params = BoundParams(k=0.1, p=1.0)
    stats = StreamStats(T=1000, sum_sq=1000.0, sum_abs=1000.0, G=1.0, max_ratio=1000.0)
    assert grid_penalty(params, stats, 100.0, 0.5) < 1e5
    assert _leash_terms(params, stats, 100.0) == 100.0 + 200.0 + 1e5


def test_bounds_read_inf_where_the_hint_squares_to_zero():
    # 4 h^2 underflows to 0 for a hint below about 1e-162; a / (4 h^2) is then
    # past the float range, and each bound reads inf instead of dividing by 0
    params = BoundParams(g0=1e-170)
    for stats in (ZERO_STREAM, StreamStats.from_norms([1e-171, 1e-170])):
        for w in (1.0, 1e-300):
            assert bettor_bound(params, stats, w) == math.inf
            assert full_stack_bound(params, stats, w) == math.inf
            assert hintless_bound(params, stats, w, 1.0) == math.inf
            assert fixed_diameter_bound(params, stats, w, 1.0) == math.inf
        assert bettor_bound(params, stats, 0.0) == params.epsilon
    assert ons_regret_bound(1.0, 1e-170, 0.0) == math.inf
    # where 4 h^2 is a nonzero float the quotient is the formula's
    assert ons_regret_bound(1.0, 1e-150, 0.0) == 1.0 / (4.0 * 1e-150 * 1e-150)


def test_conjugate_bound_reads_inf_where_a_divisor_underflows():
    # a b and a^2 b underflow to 0, then a^2 b alone
    for a, b, c, theta in ((1e-200, 1e-200, 0.0, 1.0), (1e-200, 1e-200, 3.0, -1.0),
                           (1e-200, 1e-40, 1.0, 1.0)):
        assert conjugate_bound(a, b, c, theta) == math.inf
    assert math.isfinite(conjugate_bound(1e-100, 1e-100, 0.0, 1.0))


def test_conjugate_bound_validation():
    with pytest.raises(ValueError):
        conjugate_bound(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        conjugate_bound(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        conjugate_bound(1.0, 1.0, -0.5, 1.0)


def test_conjugate_bound_pins():
    assert conjugate_bound(1.0, 1.0, 0.0, 0.0) == 0.0
    assert abs(conjugate_bound(1.0, 1.0, 0.0, math.e / 2.0)) < 1e-12
    assert conjugate_bound(1.0, 1.0, 1.0, 2.0) == conjugate_bound(1.0, 1.0, 1.0, -2.0)


def brute_conjugate(a, b, c, theta, lo=-100.0, hi=100.0, n=400_001):
    xs = np.linspace(lo, hi, n)
    absx = np.abs(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        expo = b * np.where(absx > 0.0, xs * xs / (absx + c), 0.0)
        vals = theta * xs - a * np.exp(expo)
    return float(np.nanmax(np.where(np.isfinite(vals), vals, -np.inf)))


@pytest.mark.parametrize("theta", [0.5, -0.5, 2.0, -2.0, 8.0, -8.0])
def test_conjugate_bound_dominates_brute_force(theta):
    sup = brute_conjugate(1.0, 0.25, 4.0, theta)
    assert sup <= conjugate_bound(1.0, 0.25, 4.0, theta) + 1e-6


def test_conjugate_bound_handles_interior_maximizers():
    # steep exponents put the maximizer well inside (0, c); the cap must hold there
    for a, b, c, theta in (
        (2.35, 3.24, 7.97, 35.3),
        (6.76, 9.42, 2.48, 89.8),
        (7.0, 3.33, 7.34, -56.0),
    ):
        sup = brute_conjugate(a, b, c, theta, lo=-120.0, hi=120.0)
        assert sup <= conjugate_bound(a, b, c, theta) + 1e-6


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=-100.0, max_value=100.0))
@settings(deadline=None, max_examples=40)
def test_conjugate_bound_dominates_everywhere(a, b, c, theta):
    sup = brute_conjugate(a, b, c, theta, lo=-120.0, hi=120.0, n=120_001)
    assert sup <= conjugate_bound(a, b, c, theta) + 1e-6


def test_conjugate_bound_at_subnormal_theta():
    # 2 * theta / (a * b) underflows to zero here; the cap must stay finite
    for a, b, c in ((2.0, 2.0, 0.0), (10.0, 10.0, 4.0)):
        for theta in (5e-324, -5e-324, 1e-310):
            cap = conjugate_bound(a, b, c, theta)
            assert math.isfinite(cap)
            assert brute_conjugate(a, b, c, theta, lo=-120.0, hi=120.0) <= cap + 1e-6

