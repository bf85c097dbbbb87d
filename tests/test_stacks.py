"""Named stack assembly and guarantee dispatch."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leashed
from leashed import (
    ALGOS,
    AdaGradBall,
    BoundParams,
    CoinBettor,
    DimFreeLift,
    Leashed,
    StreamStats,
    Truncation,
    ball_regret_bound,
    bettor_bound,
    build_learner,
    fixed_diameter_bound,
    full_stack_bound,
    hintless_bound,
    stack_bound,
)
from leashed.stacks import growth_exponent

PARAMS = BoundParams(epsilon=2.0, alpha=3.0, k=0.5, p=1.0, g0=4.0)
STATS = StreamStats.from_norms([1.0, 2.0, 1.0])


def test_package_exports_are_intact():
    # every exported name exists, once, so `from leashed import *` works
    assert all(hasattr(leashed, name) for name in leashed.__all__)
    assert len(set(leashed.__all__)) == len(leashed.__all__)


def test_algos_roster():
    assert ALGOS == (
        "ons_hints", "hintless", "leashed", "leashed_dimfree",
        "fixed_diameter", "adagrad_ball",
    )


def test_build_learner_types_and_wiring():
    bettor = build_learner("ons_hints", PARAMS)
    assert isinstance(bettor, CoinBettor)
    assert (bettor.wealth, bettor.A, bettor.h) == (2.0, 12.0, 4.0)
    assert build_learner("ons_hints", PARAMS, hint=9.0).h == 9.0

    trunc = build_learner("hintless", PARAMS)
    assert isinstance(trunc, Truncation) and trunc.h == 4.0

    leash = build_learner("leashed", PARAMS)
    assert isinstance(leash, Leashed)
    assert (leash.k, leash.p, leash.h) == (0.5, 1.0, 4.0)
    assert leash.fixed_barrier is None

    lift = build_learner("leashed_dimfree", PARAMS, dim=3)
    assert isinstance(lift, DimFreeLift) and lift.dim == 3
    assert isinstance(lift.one_d, Leashed) and isinstance(lift.ball, AdaGradBall)

    fd = build_learner("fixed_diameter", PARAMS, diameter=2.5)
    assert isinstance(fd, Leashed) and fd.fixed_barrier == 2.5

    ball = build_learner("adagrad_ball", PARAMS, dim=7)
    assert isinstance(ball, AdaGradBall) and ball.dim == 7


def test_build_learner_validation():
    with pytest.raises(ValueError):
        build_learner("bogus", PARAMS)
    with pytest.raises(ValueError):
        build_learner("leashed", PARAMS, dim=2)  # scalar stacks refuse dim > 1
    with pytest.raises(ValueError):
        build_learner("fixed_diameter", PARAMS)  # needs a diameter
    # dim 0 is refused by the pieces each stack is built from
    for algo in ("leashed", "adagrad_ball", "leashed_dimfree"):
        with pytest.raises(ValueError):
            build_learner(algo, PARAMS, dim=0)


@pytest.mark.parametrize("algo", [a for a in ALGOS if a != "ons_hints"])
def test_build_learner_ignores_the_hint_outside_ons_hints(algo):
    kw = {"dim": 3} if algo in ("leashed_dimfree", "adagrad_ball") else {}
    if algo == "fixed_diameter":
        kw["diameter"] = 2.5
    plain = build_learner(algo, PARAMS, **kw)
    hinted = build_learner(algo, PARAMS, hint=9.0, **kw)
    assert hinted.current_hint == plain.current_hint


def test_stack_bound_dispatch():
    w = 2.0
    assert stack_bound("ons_hints", PARAMS, STATS, w) == \
        bettor_bound(PARAMS, STATS, w)
    assert stack_bound("hintless", PARAMS, STATS, w, max_played=3.0) == \
        hintless_bound(PARAMS, STATS, w, 3.0)
    assert stack_bound("leashed", PARAMS, STATS, w) == \
        full_stack_bound(PARAMS, STATS, w)
    assert stack_bound("leashed_dimfree", PARAMS, STATS, w) == \
        full_stack_bound(PARAMS, STATS, w) + w * ball_regret_bound(STATS.sum_sq)
    assert stack_bound("fixed_diameter", PARAMS, STATS, w, diameter=1.0) == \
        fixed_diameter_bound(PARAMS, STATS, w, 1.0)
    assert stack_bound("adagrad_ball", PARAMS, STATS, w) == \
        ball_regret_bound(STATS.sum_sq)


def test_stack_bound_missing_arguments():
    with pytest.raises(ValueError):
        stack_bound("hintless", PARAMS, STATS, 1.0)
    with pytest.raises(ValueError):
        stack_bound("fixed_diameter", PARAMS, STATS, 1.0)
    with pytest.raises(ValueError):
        stack_bound("bogus", PARAMS, STATS, 1.0)


def _positive(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi)


@given(algo=st.sampled_from(ALGOS),
       params=st.builds(BoundParams, epsilon=_positive(1e-3, 1e3), alpha=_positive(1e-3, 1e3),
                        k=_positive(1e-3, 1e3), p=_positive(1e-2, 1.0), g0=_positive(1e-3, 1e3)),
       norms=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50),
       w1=st.floats(min_value=0.0, max_value=1e12), w2=st.floats(min_value=0.0, max_value=1e12),
       max_played=st.floats(min_value=0.0, max_value=1e6), diameter=_positive(1e-3, 1e3))
@settings(deadline=None, max_examples=300)
def test_every_stack_bound_is_nondecreasing_in_the_comparator_norm(algo, params, norms, w1, w2,
                                                                    max_played, diameter):
    # worst regret at norm r is affine in r, so a scan that brackets the worst
    # comparator between grid norms needs each bound not to fall as |u| grows
    stats = StreamStats.from_norms(norms)
    lo, hi = sorted((w1, w2))
    at_lo, at_hi = (stack_bound(algo, params, stats, w, diameter=diameter, max_played=max_played)
                    for w in (lo, hi))
    assert at_lo <= at_hi


def test_built_stacks_play_one_round():
    # every stack completes a play/update cycle in its natural dimension
    grads = {1: 1.0, 3: np.array([1.0, 0.0, 0.0])}
    for algo in ALGOS:
        dim = 3 if algo in ("leashed_dimfree", "adagrad_ball") else 1
        learner = build_learner(algo, PARAMS, dim=dim, diameter=1.0)
        learner.play()
        learner.update(grads[dim])


def test_growth_exponent_fits_a_power_law_and_clamps_profit():
    horizons = (100, 1000, 10_000, 100_000)
    assert growth_exponent(horizons, [3.0 * T ** 0.5 for T in horizons]) == pytest.approx(0.5)
    assert growth_exponent(horizons[:2], [T ** 1.5 for T in horizons[:2]]) == pytest.approx(1.5)
    # regret at or below 1, profit included, reads as flat growth
    assert growth_exponent(horizons, [1.0, 0.5, -22.06 * 1000, -math.inf]) == 0.0
