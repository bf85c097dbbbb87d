"""Scalar coin-betting learner driven by an online Newton step.

The learner keeps a positive wealth and wagers the signed fraction v of it
each round, playing w = v * wealth. After seeing the gradient g it loses
g * w, i.e. wealth multiplies by (1 - g * v). The fraction is updated by a
projected Newton step on the log-wealth losses -ln(1 - g v), whose domain is
kept safe by a magnitude hint: the hint h delivered with each gradient
promises |g_next| <= h and shrinks the admissible fractions to
[-1/(2h), 1/(2h)]. That keeps every wealth factor inside [1/2, 3/2], so
wealth never dies and never more than multiplies by 3/2 in a round.
"""
from __future__ import annotations

import math
from typing import Union

from .core import HintedLearner

# Step coefficient of the projected Newton update, 2 / (2 - ln 3). The losses
# -ln(1 - g v) are 1-exp-concave on every wealth factor the hint allows, with
# curvature constant (2 - ln 3) / 2.
ONS_STEP = 2.0 / (2.0 - math.log(3.0))


class CoinBettor(HintedLearner):
    """Parameter-free scalar learner; regret adapts to the comparator size.

    epsilon is the initial wealth, alpha seeds the Newton accumulator, and h1
    is the hint in force for the first round. When update is called without
    an explicit next hint the current one is carried forward, which makes the
    bettor directly playable in a game whose gradients respect a fixed,
    known magnitude bound. update takes g and h_next as Python floats, which
    is what run_game and the reductions hand it, and converts neither.
    """

    __slots__ = ("wealth", "v", "A", "h")

    def __init__(self, epsilon: float = 1.0, alpha: float = 1.0, h1: float = 1.0):
        if not 0.0 < epsilon < math.inf:
            raise ValueError(f"initial wealth epsilon must be positive and finite, got {epsilon}")
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"accumulator seed alpha must be positive and finite, got {alpha}")
        if not 0.0 < h1 < math.inf:
            raise ValueError(f"initial hint must be positive and finite, got {h1}")
        self.wealth = float(epsilon)
        self.v = 0.0
        self.A = 4.0 * float(alpha)
        self.h = float(h1)

    @property
    def current_hint(self) -> float:
        return self.h

    def play(self) -> float:
        return self.v * self.wealth

    def update(self, g: float, h_next: Union[float, None] = None) -> None:
        h = self.h
        if h_next is None:
            h_next = h
        if abs(g) > h:
            raise ValueError(f"gradient magnitude {abs(g)} exceeds the hint {h} in force")
        if h_next < h:
            raise ValueError(f"hints must be nondecreasing, got {h_next} after {h}")
        v = self.v
        w = v * self.wealth
        self.wealth -= g * w
        z = g / (1.0 - g * v)
        self.A = A = self.A + z * z
        v -= ONS_STEP * z / A
        # clamp to [-cap, cap], the same value as max(min(v, cap), -cap)
        cap = 0.5 / h_next
        if v > cap:
            v = cap
        elif v < -cap:
            v = -cap
        self.v = v
        self.h = h_next


def ons_inner_regret(gs, vs, v_ref: float) -> float:
    """Excess log-wealth loss of the wagered fractions vs over a fixed
    fraction, on the gradients gs the bettor received.

    v_ref must keep every factor 1 - g * v_ref positive.
    """
    v_ref = float(v_ref)
    terms = []
    for g, v in zip(gs, vs):
        ref = 1.0 - g * v_ref
        if ref <= 0.0:
            raise ValueError(
                f"reference fraction {v_ref} leaves the betting domain (factor {ref})"
            )
        terms.append(math.log(ref) - math.log1p(-g * v))
    return math.fsum(terms)


def ons_regret_bound(alpha: float, h_final: float, sum_sq: float) -> float:
    """Closed-form cap on the inner Newton-step regret against any fixed
    fraction inside the final betting interval. A hint below about 1e-162
    squares to 0, and the cap then reads inf."""
    d = 4.0 * h_final * h_final
    return (alpha / d if d else math.inf) + 4.5 * math.log1p(sum_sq / alpha)
