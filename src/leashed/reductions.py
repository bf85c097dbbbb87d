"""Wrappers that remove input knowledge requirements from a scalar learner.

Three reductions compose around a hint-consuming learner such as CoinBettor:

* Truncation fabricates hints from past gradient magnitudes; gradients that
  overshoot the current hint are clipped back to it, and the damage of the
  clipped mass telescopes to at most one final-magnitude term.
* Leashed additionally confines the played points inside a data-driven
  barrier that grows with the observed gradient mass, feeding the inner
  learner subgradients of a hinged surrogate loss instead of raw gradients.
  With a constant barrier it degrades gracefully into a fixed-diameter
  constrained learner.
* DimFreeLift runs a scalar stack for the magnitude and a unit-ball learner
  for the direction, playing their product in d dimensions.
"""
from __future__ import annotations

import math
from typing import Union

import numpy as np

from .core import HintedLearner, Learner, as_gradient


def truncate(g: float, h: float) -> float:
    """Clip a scalar gradient back to magnitude h when it meets or exceeds h."""
    if abs(g) < h:
        return g
    return math.copysign(h, g)


def leash_project(w: float, barrier: float) -> float:
    """Nearest point of [-barrier, barrier]."""
    if abs(w) < barrier:
        return w
    if w == 0.0:
        return 0.0
    return math.copysign(barrier, w)


def surrogate_loss(g_trunc: float, w: float, barrier: float) -> float:
    """Hinged surrogate 0.5 * (g w + |g| max(0, |w| - B)) at the unprojected w.

    Evaluated by branch so that no two large terms cancel:

    * ``0.5 * g * w`` when |w| <= B;
    * ``-0.5 * |g| * B`` when |w| > B and g w < 0;
    * ``0.5 * |g| * (2|w| - B)`` when |w| > B and g w >= 0.

    Each branch rounds at most twice, so the result is accurate to a few
    ulps of its own magnitude, not of the magnitude of g * w.
    """
    if abs(w) <= barrier:
        return 0.5 * g_trunc * w
    if g_trunc * w < 0.0:
        return -0.5 * abs(g_trunc) * barrier
    return 0.5 * abs(g_trunc) * (2.0 * abs(w) - barrier)


def surrogate_grad(g_trunc: float, w: float, barrier: float) -> float:
    """Subgradient of the hinged surrogate at the unprojected point w.

    At the kink |w| == barrier the inactive side is taken, and sign(0) = 0,
    so the magnitude never exceeds |g_trunc|.
    """
    hinge = 0.0
    if abs(w) > barrier:
        hinge = math.copysign(abs(g_trunc), w)
    return 0.5 * (g_trunc + hinge)


class Truncation(Learner):
    """Hint fabrication for a scalar game.

    Starts from an a-priori magnitude guess g0 and maintains
    h_{t+1} = max(h_t, |g_t|); the inner learner always receives gradients
    respecting the hint it was promised. Scalar, like Leashed: d dimensions
    come from DimFreeLift around a scalar stack.
    """

    __slots__ = ("inner", "h")

    def __init__(self, inner: HintedLearner, g0: float = 1.0):
        if not 0.0 < g0 < math.inf:
            raise ValueError(f"initial magnitude guess must be positive and finite, got {g0}")
        if inner.current_hint != g0:
            raise ValueError("inner learner must start with its hint equal to g0")
        self.inner = inner
        self.h = float(g0)

    @property
    def current_hint(self) -> float:
        return self.h

    @property
    def wealth(self) -> Union[float, None]:
        return getattr(self.inner, "wealth", None)

    def play(self) -> float:
        return self.inner.play()

    def update(self, g: float) -> None:
        a = abs(g)
        old_h = h = self.h
        if a > h:
            self.h = h = a
        # truncate(g, old_h), inline
        self.inner.update(g if a < old_h else math.copysign(old_h, g), h)


class Leashed(Truncation):
    """Barrier-constrained scalar learner with fabricated hints.

    The inner learner runs unconstrained; its proposals are projected onto
    [-B_t, B_t] before being played. The barrier after t rounds is
    B_{t+1} = k * (sum_{i<=t} |g_i| / G_t)^p with G_t the running maximum
    magnitude (B stays 0 until a nonzero gradient arrives). The inner
    learner is charged the subgradient of a hinged surrogate evaluated at
    its unprojected proposal, which vanishes once the proposal strays
    outside the barrier, so runaway wealth is impossible. Raw gradients are
    truncated to the fabricated hint exactly as in Truncation, whose checks,
    hint state and introspection it reuses; play and update are its own.

    A fixed_barrier pins B_t to a constant diameter instead and disables
    barrier growth. Like the bettor, it takes a Python float gradient and
    plays the inner learner's Python float proposals as they come.
    """

    __slots__ = ("k", "p", "fixed_barrier", "B", "G", "sum_abs", "_pending")

    def __init__(
        self,
        inner: HintedLearner,
        k: float = 1.0,
        p: float = 0.5,
        g0: float = 1.0,
        fixed_barrier: Union[float, None] = None,
    ):
        if not 0.0 < k < math.inf:
            raise ValueError(f"barrier scale k must be positive and finite, got {k}")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"barrier exponent p must lie in (0, 1], got {p}")
        if fixed_barrier is not None and not 0.0 < fixed_barrier < math.inf:
            raise ValueError(f"fixed barrier must be positive and finite, got {fixed_barrier}")
        super().__init__(inner, g0)
        self.k = float(k)
        self.p = float(p)
        self.fixed_barrier = fixed_barrier
        self.B = float(fixed_barrier) if fixed_barrier is not None else 0.0
        self.G = 0.0
        self.sum_abs = 0.0
        self._pending: Union[float, None] = None

    @property
    def barrier(self) -> float:
        return self.B

    def play(self) -> float:
        self._pending = w = self.inner.play()
        # leash_project(w, B), inline
        B = self.B
        if abs(w) < B:
            return w
        if w == 0.0:
            return 0.0
        return math.copysign(B, w)

    def update(self, g: float) -> None:
        w_inner = self._pending
        if w_inner is None:
            raise RuntimeError("update called before play")
        self._pending = None
        a = abs(g)
        old_h = h = self.h
        G = self.G
        if a > G:
            self.G = G = a
        self.sum_abs = sum_abs = self.sum_abs + a
        if a > h:
            self.h = h = a
        B = self.B
        if self.fixed_barrier is None and G > 0.0:
            next_b = self.k * (sum_abs / G) ** self.p
        else:
            next_b = B
        # surrogate_grad(truncate(g, old_h), w_inner, B), inline; a becomes
        # |g_in|, and with no hinge g_in + 0.0 turns -0.0 into +0.0
        if a < old_h:
            g_in = g
        else:
            g_in, a = math.copysign(old_h, g), old_h
        hinge = math.copysign(a, w_inner) if abs(w_inner) > B else 0.0
        self.inner.update(0.5 * (g_in + hinge), h)
        self.B = next_b


def fixed_diameter(inner: HintedLearner, diameter: float, g0: float = 1.0) -> Leashed:
    """Truncation plus a constant barrier: plays never leave [-D, D]."""
    return Leashed(inner, g0=g0, fixed_barrier=diameter)


class DimFreeLift(Learner):
    """d-dimensional learner from a scalar stack and a unit-ball learner.

    Plays w_t = x_t * y_t where x_t comes from the scalar learner and y_t
    from the ball learner; the ball sees the raw gradient, the scalar
    learner sees the projected loss <g_t, y_t>. Between a play and its
    update, x and y hold the round's x_t and y_t, which is what an audit of
    the regret decomposition reads; y is None outside a round. It converts
    nothing: x and y are the objects its parts' plays return.
    """

    __slots__ = ("one_d", "ball", "dim", "x", "y")

    def __init__(self, scalar_learner: Learner, ball_learner: Learner, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.one_d = scalar_learner
        self.ball = ball_learner
        self.dim = int(dim)
        self.x = 0.0
        self.y: Union[np.ndarray, None] = None

    @property
    def current_hint(self) -> Union[float, None]:
        return self.one_d.current_hint

    @property
    def barrier(self) -> Union[float, None]:
        return getattr(self.one_d, "barrier", None)

    @property
    def wealth(self) -> Union[float, None]:
        return getattr(self.one_d, "wealth", None)

    def play(self) -> np.ndarray:
        self.x = x = self.one_d.play()
        self.y = y = self.ball.play()
        return x * y

    def update(self, g) -> None:
        if self.y is None:
            raise RuntimeError("update called before play")
        g = as_gradient(g, self.dim)
        # s is taken before the ball updates, which may reuse y's buffer
        s = float(g.dot(self.y))
        self.y = None
        self.ball.update(g)
        self.one_d.update(s)
