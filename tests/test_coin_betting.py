"""Coin bettor: wealth dynamics, the Newton step on fractions, and its bound."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leashed import (
    ONS_STEP,
    CoinBettor,
    ons_inner_regret,
    ons_regret_bound,
)


def test_constructor_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            CoinBettor(epsilon=bad)
        with pytest.raises(ValueError):
            CoinBettor(alpha=bad)
        with pytest.raises(ValueError):
            CoinBettor(h1=bad)


def test_initial_state():
    b = CoinBettor(epsilon=2.0, alpha=3.0, h1=5.0)
    assert b.wealth == 2.0
    assert b.v == 0.0
    assert b.A == 12.0
    assert b.current_hint == 5.0
    assert b.play() == 0.0


def test_single_update_pins_fraction():
    # v moves to -step * z / A with z = 1, A = 5, and stays inside the cap 1/2
    b = CoinBettor(1.0, 1.0, 1.0)
    b.update(1.0)
    assert b.v == -ONS_STEP / 5.0
    assert b.wealth == 1.0  # the bet was zero, wealth unchanged


def test_update_clips_to_next_hint():
    b = CoinBettor(1.0, 1.0, 1.0)
    b.update(1.0, h_next=10.0)
    assert b.v == -0.05
    assert b.current_hint == 10.0


def test_sustained_stream_pins_fraction_at_cap():
    b = CoinBettor(epsilon=1.0, alpha=10.0, h1=0.5)
    for _ in range(200):
        b.update(0.5)
    assert b.v == -1.0  # exactly the cap 1/(2 * 0.5)
    assert math.isfinite(b.wealth) and b.wealth > 0.0


def test_gradient_above_hint_rejected():
    b = CoinBettor(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        b.update(1.5)
    b.update(1.0)  # exactly the hint is allowed


def test_decreasing_hint_rejected():
    b = CoinBettor(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        b.update(0.5, h_next=1.0)


def test_hint_carries_forward():
    b = CoinBettor(1.0, 1.0, 3.0)
    b.update(2.0)
    assert b.current_hint == 3.0


def test_play_is_fraction_times_wealth():
    b = CoinBettor(1.0, 1.0, 1.0)
    b.update(1.0)
    assert b.play() == b.v * b.wealth


def test_keeps_no_per_round_history():
    b = CoinBettor(1.0, 1.0, 1.0)
    for g in (1.0, -1.0, 0.5) * 100:
        b.update(g)
    # the state after any number of rounds is a handful of scalars, in slots
    assert not vars(b)
    state = {name: getattr(b, name) for name in CoinBettor.__slots__}
    assert all(type(v) is float for v in state.values()), state


# one betting game: fractions of the hint, and multiplicative hint escalations
games = st.lists(
    st.tuples(
        st.floats(min_value=-1.0, max_value=1.0),  # g as a fraction of h
        st.floats(min_value=1.0, max_value=2.0),   # h growth factor
    ),
    min_size=1,
    max_size=200,
)


@given(games, st.floats(min_value=0.1, max_value=10.0))
@settings(deadline=None)
def test_wealth_factors_stay_in_half_three_halves(moves, h1):
    b = CoinBettor(1.0, 1.0, h1)
    prev = b.wealth
    for frac, esc in moves:
        g = frac * b.h
        b.update(g, h_next=b.h * esc)
        factor = b.wealth / prev
        assert 0.5 - 1e-12 <= factor <= 1.5 + 1e-12
        prev = b.wealth
    assert b.wealth > 0.0


@given(games, st.floats(min_value=0.1, max_value=10.0))
@settings(deadline=None)
def test_fraction_always_inside_cap(moves, h1):
    b = CoinBettor(1.0, 1.0, h1)
    for frac, esc in moves:
        b.update(frac * b.h, h_next=b.h * esc)
        assert abs(b.v) <= 0.5 / b.h


@given(games, st.floats(min_value=0.5, max_value=2.0))
@settings(deadline=None)
def test_wealth_equals_initial_minus_losses(moves, eps):
    b = CoinBettor(eps, 1.0, 1.0)
    terms = []
    for frac, esc in moves:
        g, w = frac * b.h, b.play()
        b.update(g, h_next=b.h * esc)
        terms.append(g * w)
    losses = math.fsum(terms)
    assert eps - losses == pytest.approx(b.wealth, rel=1e-9, abs=1e-9)


def test_inner_regret_single_round():
    b = CoinBettor(1.0, 1.0, 1.0)
    gs, vs = [1.0], [b.v]
    b.update(gs[0])
    # first bet is v = 0, so the excess loss vs v_ref = 1/4 is ln(3/4)
    assert ons_inner_regret(gs, vs, 0.25) == pytest.approx(math.log(0.75), rel=1e-15)
    assert ons_inner_regret(gs, vs, 0.0) == 0.0


def test_inner_regret_rejects_out_of_domain_reference():
    with pytest.raises(ValueError):
        ons_inner_regret([1.0], [0.0], 1.0)


def test_ons_regret_bound_values():
    assert ons_regret_bound(1.0, 1.0, 0.0) == 0.25
    assert ons_regret_bound(1.0, 1.0, math.e - 1.0) == pytest.approx(4.75, rel=1e-15)
    assert ons_regret_bound(4.0, 2.0, 0.0) == 0.25
