"""Truncation, the adaptive barrier, and the dimension lift."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leashed import (
    AdaGradBall,
    CoinBettor,
    DimFreeLift,
    Learner,
    Leashed,
    Truncation,
    fixed_diameter,
    leash_project,
    surrogate_grad,
    surrogate_loss,
    truncate,
)

grad_floats = st.floats(min_value=-1e8, max_value=1e8,
                        allow_nan=False, allow_infinity=False)


def fresh_stack(**kw):
    return Leashed(CoinBettor(1.0, 1.0, 1.0), g0=1.0, **kw)


class InwardBettor(CoinBettor):
    """Coin bettor that keeps what a wrapper sends it: each gradient with
    the hint in force when it arrives."""

    def __init__(self, *args):
        super().__init__(*args)
        self.received = []

    def update(self, g, h_next=None):
        self.received.append((g, self.h))
        super().update(g, h_next)


class ScalarLog(Learner):
    """Scalar learner that always plays 2 and keeps the losses it is charged."""

    current_hint = 1.0

    def __init__(self):
        self.charged = []

    def play(self):
        return 2.0

    def update(self, s):
        self.charged.append(s)


def test_truncate_scalar():
    assert truncate(0.5, 1.0) == 0.5
    assert truncate(2.0, 1.0) == 1.0
    assert truncate(-2.0, 1.0) == -1.0
    assert truncate(1.0, 1.0) == 1.0  # exactly at the hint is kept as is


def test_leash_project():
    assert leash_project(0.5, 1.0) == 0.5
    assert leash_project(3.0, 1.0) == 1.0
    assert leash_project(-3.0, 1.0) == -1.0
    assert leash_project(0.0, 0.0) == 0.0
    assert leash_project(2.0, 0.0) == 0.0


def test_surrogate_grad_pins():
    assert surrogate_grad(1.0, 0.5, 2.0) == 0.5
    assert surrogate_grad(1.0, 3.0, 2.0) == 1.0
    assert surrogate_grad(-1.0, -3.0, 2.0) == -1.0
    # loss-profitable overshoot contributes nothing
    assert surrogate_grad(1.0, -3.0, 2.0) == 0.0
    # at the kink the inactive side is taken
    assert surrogate_grad(1.0, 2.0, 2.0) == 0.5
    assert abs(surrogate_grad(g_trunc=0.7, w=9.9, barrier=1.0)) <= 0.7


# The assertions below run in exact rational arithmetic over the program's
# float outputs, so the only rounding they see is that of the two surrogate
# loss values; the 1e-9 slack is scaled by the magnitude of those values.

@given(grad_floats, grad_floats,
       st.floats(min_value=0.0, max_value=1e8),
       st.floats(min_value=-1.0, max_value=1.0))
# g w < 0 outside the barrier: g w and |g| (|w| - B) cancel near 3e8 unless
# the surrogate is evaluated by branch
@example(g=38347923.27028152, w=-8.0, barrier=1.0, u_frac=-1.0)
# the same cancellation near 1.2e15 misses the exact value by 0.08, five
# times the slack
@example(g=33067098.91707371, w=-36071146.0, barrier=1.0, u_frac=0.0)
# a float lhs and a float rhs cancel here even over an exact surrogate
@example(g=-16777217.0, w=1.0, barrier=1.0, u_frac=0.9999999999999999)
def test_surrogate_dominates_projected_loss(g, w, barrier, u_frac):
    """g * (projected play - u) <= 2 * (loss at w - loss at u) inside the barrier."""
    u = u_frac * barrier
    loss_w = surrogate_loss(g, w, barrier)
    loss_u = surrogate_loss(g, u, barrier)
    lhs = Fraction(g) * (Fraction(leash_project(w, barrier)) - Fraction(u))
    rhs = 2 * (Fraction(loss_w) - Fraction(loss_u))
    scale = max(1.0, abs(loss_w), abs(loss_u))
    assert lhs <= rhs + Fraction(1e-9) * Fraction(scale)


@given(grad_floats, grad_floats, grad_floats, st.floats(min_value=0.0, max_value=1e8))
# the exact tangent touches the loss at w_other; a float tangent cancels
# two terms near 5.6e14 and overshoots by more than the slack
@example(g=73640379.875, w=7644583.0, w_other=1.0, barrier=1.0)
# w_other - w rounds in floats
@example(g=62989.0, w=1048577.0, w_other=0.1, barrier=0.0)
def test_surrogate_grad_is_subgradient(g, w, w_other, barrier):
    loss_w = surrogate_loss(g, w, barrier)
    actual = surrogate_loss(g, w_other, barrier)
    tangent = Fraction(loss_w) + Fraction(surrogate_grad(g, w, barrier)) * (
        Fraction(w_other) - Fraction(w))
    scale = max(1.0, abs(actual), abs(loss_w))
    assert Fraction(actual) >= tangent - Fraction(1e-9) * Fraction(scale)


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(CoinBettor(1.0, 1.0, 1.0), g0=0.0)
    with pytest.raises(ValueError):
        # inner hint must agree with the initial guess
        Truncation(CoinBettor(1.0, 1.0, 2.0), g0=1.0)


def test_truncation_fabricates_monotone_hints():
    w = Truncation(InwardBettor(1.0, 1.0, 1.0), g0=1.0)
    for g in (0.5, 3.0, 2.0, -7.0):
        w.play()
        w.update(g)
    assert w.inner.received == [(0.5, 1.0), (1.0, 1.0), (2.0, 3.0), (-3.0, 3.0)]
    assert w.h == 7.0
    assert w.wealth == w.inner.wealth


@given(st.lists(grad_floats, min_size=1, max_size=120))
@settings(deadline=None)
def test_truncation_never_breaks_its_promise(gs):
    w = Truncation(InwardBettor(1.0, 1.0, 1.0), g0=1.0)
    for g in gs:
        w.play()
        w.update(g)  # CoinBettor itself rejects any broken promise
    assert len(w.inner.received) == len(gs)
    for sent, h in w.inner.received:
        assert abs(sent) <= h


def test_leashed_validation():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            fresh_stack(k=bad)
        with pytest.raises(ValueError):
            fresh_stack(fixed_barrier=bad)
    with pytest.raises(ValueError):
        fresh_stack(p=0.0)
    with pytest.raises(ValueError):
        fresh_stack(p=1.5)
    with pytest.raises(ValueError):
        Leashed(CoinBettor(1.0, 1.0, 1.0), g0=-1.0)
    with pytest.raises(ValueError):
        Leashed(CoinBettor(1.0, 1.0, 2.0), g0=1.0)


def test_leashed_is_a_truncation_with_its_own_round():
    # falling through to Truncation's round would drop the barrier and the surrogate
    assert issubclass(Leashed, Truncation)
    assert {"play", "update", "barrier"} <= vars(Leashed).keys()
    stack = fresh_stack()
    assert (stack.current_hint, stack.wealth) == (1.0, stack.inner.wealth)


def test_leashed_update_requires_play():
    stack = fresh_stack()
    with pytest.raises(RuntimeError):
        stack.update(1.0)


def test_barrier_path_on_unit_stream():
    stack = fresh_stack(k=1.0, p=0.5)
    seen = []
    for _ in range(4):
        stack.play()
        seen.append(stack.B)
        stack.update(1.0)
    assert seen == [0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0)]


def test_barrier_uses_running_ratio():
    stack = Leashed(CoinBettor(1.0, 1.0, 2.0), k=1.0, p=0.5, g0=2.0)
    stack.play(); stack.update(1.0)
    stack.play(); stack.update(2.0)
    assert stack.B == 1.5 ** 0.5  # (|1| + |2|) / max = 1.5, raised to p
    assert stack.G == 2.0


def test_plays_stay_inside_barrier():
    stack = fresh_stack(k=0.01, p=1.0)
    for t in range(1, 300):
        b = stack.B
        w = stack.play()
        assert abs(w) <= b if b > 0.0 else w == 0.0
        stack.update(1.0 if t % 3 else -1.0)


def test_plays_zero_while_barrier_zero():
    stack = fresh_stack()
    for _ in range(5):
        assert stack.play() == 0.0
        stack.update(0.0)
    assert stack.B == 0.0


def test_fixed_barrier_never_moves():
    stack = fresh_stack(fixed_barrier=0.25)
    for g in (1.0, -5.0, 100.0):
        w = stack.play()
        assert abs(w) <= 0.25
        stack.update(g)
        assert stack.B == 0.25
    assert stack.fixed_barrier == 0.25


def test_fixed_diameter_factory():
    stack = fixed_diameter(CoinBettor(1.0, 1.0, 1.0), 2.0, g0=1.0)
    assert isinstance(stack, Leashed)
    assert stack.B == 2.0 and stack.fixed_barrier == 2.0


def barrier_trace(gs, k=1.0, p=0.5):
    stack = Leashed(CoinBettor(1.0, 1.0, 1.0), k=k, p=p, g0=1.0)
    out = []
    for g in gs:
        stack.play()
        out.append(stack.B)
        stack.update(g)
    out.append(stack.B)
    return out


@given(st.lists(st.floats(min_value=-1e10, max_value=1e10,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=80))
@settings(deadline=None)
def test_barrier_invariant_under_power_of_two_scaling(gs):
    # scaling by 2**10 is exact for every float, so the ratio divides out
    scaled = [1024.0 * g for g in gs]
    assert barrier_trace(gs) == barrier_trace(scaled)


def test_dimfree_lift_validation():
    with pytest.raises(ValueError):
        DimFreeLift(fresh_stack(), AdaGradBall(1), 0)
    lift = DimFreeLift(fresh_stack(), AdaGradBall(2), 2)
    with pytest.raises(RuntimeError):
        lift.update(np.zeros(2))
    lift.play()
    with pytest.raises(ValueError):
        lift.update(np.zeros(3))


@pytest.mark.parametrize("raw", [[0.1, -0.3, 2.7], np.array([0.1, -0.3, 2.7], dtype=np.float32),
                                 np.array(0.7), 0.7, np.zeros((1, 3)), np.zeros(2)],
                         ids=["list", "float32", "0-d", "float", "1x3", "short"])
@pytest.mark.parametrize("learner", ["ball", "lift"])
def test_vector_learners_refuse_all_but_float64_arrays_of_their_dimension(learner, raw):
    # run_game is the one cast: a vector learner takes a float64 array of its
    # dimension as it is, and refuses anything else by name, before any state moves
    target = AdaGradBall(3) if learner == "ball" else DimFreeLift(fresh_stack(), AdaGradBall(3), 3)
    before = target.play().tobytes()
    with pytest.raises(ValueError, match="does not match dimension 3"):
        target.update(raw)
    assert target.play().tobytes() == before


def test_dimfree_lift_plays_product_and_passes_through():
    lift = DimFreeLift(fresh_stack(), AdaGradBall(3), 3)
    assert lift.current_hint == 1.0
    assert lift.barrier == 0.0
    assert lift.wealth == 1.0
    w = lift.play()
    assert np.array_equal(w, lift.x * lift.y)
    # the scalar learner is charged <g_t, y_t> for the y_t the round played
    lift = DimFreeLift(ScalarLog(), AdaGradBall(3), 3)
    ys, gs = [], [np.array([1.0, 0.0, 0.0]), np.array([0.5, -2.0, 1.0])]
    for g in gs:
        assert np.array_equal(lift.play(), 2.0 * lift.y)
        ys.append(lift.y.copy())
        lift.update(g)
        assert lift.y is None
    assert lift.one_d.charged == [float(g @ y) for g, y in zip(gs, ys)]
    assert lift.one_d.charged[1] != 0.0


def test_dimfree_lift_regret_decomposition():
    gen = np.random.Generator(np.random.PCG64(21))
    lift = DimFreeLift(fresh_stack(), AdaGradBall(3), 3)
    plays, grads, xs, ys = [], [], [], []
    for _ in range(60):
        plays.append(lift.play().copy())
        xs.append(lift.x)
        ys.append(lift.y.copy())
        g = gen.standard_normal(3)
        grads.append(g)
        lift.update(g)
    for m in (0.5, 3.0):
        u = gen.standard_normal(3)
        u /= float(np.linalg.norm(u))
        wc = m * u
        n = float(np.linalg.norm(wc))
        total = math.fsum(float(g @ (w - wc)) for g, w in zip(grads, plays))
        scalar_part = math.fsum(float(g @ y) * (x - n) for g, x, y in zip(grads, xs, ys))
        direction_part = math.fsum(
            float(g @ (y - wc / n)) for g, y in zip(grads, ys)
        )
        assert total == pytest.approx(scalar_part + n * direction_part, abs=1e-9)
