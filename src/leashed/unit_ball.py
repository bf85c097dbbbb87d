"""Adaptive gradient descent restricted to the Euclidean unit ball.

Serves as the direction learner in the dimension-free lifting; its regret
against any unit-norm comparator is at most 2^(3/2) * sqrt(sum of squared
gradient norms). The step scale STEP_SCALE = sqrt(2) is the minimizer of
2/lam + lam, so no tuning knob remains.
"""
from __future__ import annotations

import math

import numpy as np

from .core import as_gradient

STEP_SCALE = math.sqrt(2.0)


def project_unit_ball(x: np.ndarray) -> np.ndarray:
    # dual_norm, without its type test
    n = math.sqrt(x.dot(x))
    if n <= 1.0:
        return x
    y = x / n
    m = math.sqrt(y.dot(y))
    if m > 1.0:
        # rounding pushed the rescaled point just outside; shave it back
        y = y * (1.0 - 2.0 ** -50)
    return y


class AdaGradBall:
    __slots__ = ("dim", "w", "sum_sq")

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.w = np.zeros(self.dim)
        self.sum_sq = 0.0

    def play(self) -> np.ndarray:
        return self.w

    def update(self, g) -> None:
        g = as_gradient(g, self.dim)
        self.sum_sq += float(g.dot(g))
        if self.sum_sq > 0.0:
            eta = STEP_SCALE / math.sqrt(self.sum_sq)
            self.w = project_unit_ball(self.w - eta * g)


def ball_regret_bound(sum_sq: float) -> float:
    """Regret cap against any comparator inside the unit ball."""
    return 2.0 ** 1.5 * math.sqrt(sum_sq)
