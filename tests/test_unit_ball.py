"""Unit-ball gradient descent and its guarantee."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leashed import AdaGradBall, ball_regret_bound, project_unit_ball, unit_ball


def test_constructor_validation():
    with pytest.raises(ValueError):
        AdaGradBall(0)


def test_projection():
    inside = np.array([0.3, 0.4])
    assert project_unit_ball(inside) is inside
    out = project_unit_ball(np.array([3.0, 4.0]))
    assert np.linalg.norm(out) <= 1.0
    assert np.allclose(out, [0.6, 0.8])


def test_first_step_lands_on_boundary():
    ball = AdaGradBall(2)
    ball.update(np.array([1.0, 0.0]))
    assert abs(ball.w[0] + 1.0) <= 1e-15
    assert ball.w[1] == 0.0


def test_zero_gradients_hold_still():
    ball = AdaGradBall(3)
    ball.update(np.zeros(3))
    ball.update(np.zeros(3))
    assert np.array_equal(ball.w, np.zeros(3))
    assert ball.sum_sq == 0.0


def test_shape_mismatch_rejected():
    ball = AdaGradBall(2)
    with pytest.raises(ValueError):
        ball.update(np.zeros(3))


@pytest.mark.parametrize("g", [np.zeros(2), np.zeros(4), np.zeros((1, 3)), np.zeros((3, 1)),
                               np.array(1.0), [1.0, 2.0]])
def test_wrong_shape_rejected_with_or_without_coercion(g):
    with pytest.raises(ValueError, match="does not match dimension 3"):
        AdaGradBall(3).update(g)


def test_bound_value():
    assert ball_regret_bound(0.0) == 0.0
    assert ball_regret_bound(2.0) == pytest.approx(4.0, rel=1e-12)


def test_default_step_scale_is_optimal():
    # the guarantee constant is 2/lam + lam, minimized at lam = sqrt(2)
    f = lambda lam: 2.0 / lam + lam
    assert f(math.sqrt(2.0)) <= f(math.sqrt(2.0) - 0.01)
    assert f(math.sqrt(2.0)) <= f(math.sqrt(2.0) + 0.01)
    assert unit_ball.STEP_SCALE == math.sqrt(2.0)


@given(
    st.lists(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0),
            min_size=3, max_size=3,
        ),
        min_size=1, max_size=80,
    )
)
@settings(deadline=None)
def test_iterates_never_leave_ball(grads):
    ball = AdaGradBall(3)
    for g in grads:
        ball.update(np.asarray(g))
        assert float(np.linalg.norm(ball.w)) <= 1.0


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(deadline=None, max_examples=25)
def test_regret_within_bound_on_random_streams(seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    ball = AdaGradBall(4)
    played = []
    grads = []
    for _ in range(120):
        played.append(ball.w.copy())
        g = gen.standard_normal(4)
        grads.append(g)
        ball.update(g)
    cap = ball_regret_bound(math.fsum(float(g @ g) for g in grads))
    for _ in range(5):
        u = gen.standard_normal(4)
        u = u / float(np.linalg.norm(u))
        regret = math.fsum(float(g @ (w - u)) for g, w in zip(grads, played))
        assert regret <= cap
