"""Closed-form regret guarantees, evaluated numerically.

Every evaluator takes the hyperparameters and a summary of the gradient
stream and returns the value of the corresponding proven bound; the
verification suite compares these values against measured regret with no
tolerance. Logarithm arguments are assembled in log space, as sums of
logarithms, so that streams with enormous squared-gradient mass cannot
overflow and subnormal comparators cannot underflow to log(0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import RegretLedger


@dataclass(frozen=True)
class BoundParams:
    """Hyperparameters shared by the learning stack and its guarantees."""

    epsilon: float = 1.0   # initial wealth
    alpha: float = 1.0     # Newton accumulator seed
    k: float = 1.0         # barrier scale
    p: float = 0.5         # barrier exponent
    g0: float = 1.0        # a-priori gradient magnitude guess

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.k < math.inf:
            raise ValueError(f"k must be positive and finite, got {self.k}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if not 0.0 < self.g0 < math.inf:
            raise ValueError(f"g0 must be positive and finite, got {self.g0}")


@dataclass(frozen=True)
class StreamStats:
    """Gradient-stream summary consumed by the bound evaluators.

    h_T is the final fabricated hint max(g0, G); max_ratio is the largest
    prefix value of (sum of |g_i| up to t) / (max |g_i| up to t), the
    quantity that drives barrier growth.
    """

    T: int
    sum_sq: float
    sum_abs: float
    G: float
    h_T: float
    max_ratio: float

    @classmethod
    def from_norms(cls, norms: Iterable[float], g0: float) -> "StreamStats":
        if g0 <= 0.0:
            raise ValueError(f"g0 must be positive, got {g0}")
        T = 0
        sum_sq = 0.0
        sum_abs = 0.0
        g_max = 0.0
        max_ratio = 0.0
        for n in norms:
            n = float(n)
            if n < 0.0:
                raise ValueError("gradient norms cannot be negative")
            T += 1
            sum_sq += n * n
            sum_abs += n
            if n > g_max:
                g_max = n
            if g_max > 0.0:
                ratio = sum_abs / g_max
                if ratio > max_ratio:
                    max_ratio = ratio
        return cls(T=T, sum_sq=sum_sq, sum_abs=sum_abs, G=g_max,
                   h_T=max(g0, g_max), max_ratio=max_ratio)

    @classmethod
    def from_ledger(cls, ledger: RegretLedger, g0: float) -> "StreamStats":
        """The stream statistics of a game, from the ledger's running sums,
        which it keeps with from_norms' operations in from_norms' order."""
        if g0 <= 0.0:
            raise ValueError(f"g0 must be positive, got {g0}")
        G = ledger.max_norm
        return cls(T=len(ledger), sum_sq=ledger.sum_sq, sum_abs=ledger.sum_norm, G=G,
                   h_T=max(g0, G), max_ratio=ledger.max_ratio)


def _softplus(x: float) -> float:
    """log(1 + e^x) without overflow; x may be -inf."""
    if x > 40.0:
        return x
    if x < -745.0:
        return 0.0
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _bettor_terms(params: BoundParams, stats: StreamStats, w: float, c: float) -> tuple:
    """(ln x, square-root arm) of the coin bettor's guarantee at comparator
    magnitude w > 0, where the arm's log argument carries a / (c h^2)."""
    eps, a = params.epsilon, params.alpha
    h, s = stats.h_T, stats.sum_sq
    ln_x = (math.log(16.0) + math.log(w) + math.log(h) - math.log(eps)
            + a / (4.0 * h * h) + 4.5 * math.log1p(s / a))
    if s == 0.0:
        return ln_x, 0.0
    ln_arg = (math.log(4.0) + 10.0 * math.log(s) + a / (c * h * h)
              + 2.0 * (math.log(w) - math.log(eps)))
    return ln_x, 2.0 * math.sqrt(s * _softplus(ln_arg))


def bettor_bound(params: BoundParams, stats: StreamStats, w_abs: float) -> float:
    """Regret guarantee of the hint-consuming coin bettor at comparator
    magnitude w_abs. Equals epsilon exactly at the origin."""
    w = abs(float(w_abs))
    if w == 0.0:
        return params.epsilon
    ln_x, arm2 = _bettor_terms(params, stats, w, 2.0)
    return params.epsilon + w * max(8.0 * stats.h_T * (ln_x - 1.0), arm2)


def _pow(x: float, y: float) -> float:
    """x ** y for x >= 0, or inf where float ** raises OverflowError."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _leash_terms(params: BoundParams, stats: StreamStats, w_abs: float) -> float:
    """Barrier cost plus comparator terms added by the Leashed wrapper. The
    penalty G |u| a^(1-q) R^q, a = (|u|/k)^(1/p) and R = sum |g| / G, holds at
    every q in [0, 1] and is log-linear in q: q = 0 or q = 1 gives the least,
    G |u| min(a, R)."""
    G = stats.G
    if G == 0.0:
        return 0.0
    barrier = G * params.k * stats.max_ratio ** params.p
    a = _pow(w_abs / params.k, 1.0 / params.p)
    return barrier + 2.0 * G * w_abs + G * w_abs * min(a, stats.sum_abs / G)


def full_stack_bound(params: BoundParams, stats: StreamStats, w_abs: float) -> float:
    """End-to-end guarantee of the Leashed coin bettor with fabricated
    hints, fully expanded."""
    w = abs(float(w_abs))
    if w == 0.0:
        comparator_part = 0.0
    else:
        h = stats.h_T
        ln_x, arm2 = _bettor_terms(params, stats, w, 4.0)
        comparator_part = 2.0 * w * max(8.0 * h * ln_x - h, arm2)
    return 2.0 * params.epsilon + comparator_part + _leash_terms(params, stats, w)


def hintless_bound(params: BoundParams, stats: StreamStats, w_abs: float,
                   max_played: float) -> float:
    """Guarantee of the plain truncation wrapper around the coin bettor:
    the bettor's own bound at hint max(g0, G) plus the truncation damage."""
    w = abs(float(w_abs))
    return bettor_bound(params, stats, w) + stats.G * (max_played + w)


def fixed_diameter_bound(params: BoundParams, stats: StreamStats, w_abs: float,
                         diameter: float) -> float:
    """Guarantee of the constant-barrier stack. For comparators inside the
    diameter this is the surrogate composition 2 * inner + G * (D + |w|);
    outside, the projection gap of the comparator is charged too."""
    w = abs(float(w_abs))
    out = 2.0 * bettor_bound(params, stats, w) + stats.G * (diameter + w)
    if w > diameter:
        out += stats.sum_abs * (w - diameter)
    return out


def conjugate_bound(a: float, b: float, c: float, theta: float) -> float:
    """Cap on the Fenchel conjugate of f(x) = a * exp(b x^2 / (|x| + c))
    at theta, for a, b > 0 and c >= 0. Zero at theta = 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    if c < 0.0:
        raise ValueError(f"c must be nonnegative, got {c}")
    t = abs(float(theta))
    if t == 0.0:
        return 0.0
    # Split the sup at |x| = c.  On |x| >= c the exponent is at least b|x|/2,
    # on |x| <= c it is at least b x^2 / (2c); each minorant has a closed-form
    # conjugate cap and the true conjugate is at most the larger of the two.
    # for subnormal t the ratio 2t/(ab) can round to zero; take its log as a
    # difference of logs there so arm1 stays finite
    ratio = 2.0 * t / (a * b)
    log_ratio = math.log(ratio) if ratio > 0.0 else math.log(2.0 * t) - math.log(a * b)
    arm1 = t * (2.0 / b) * (log_ratio - 1.0)
    arm2 = t * math.sqrt((2.0 * c / b) * math.log1p(2.0 * c * t * t / (a * a * b))) - a
    return max(arm1, arm2)

