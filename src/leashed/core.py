"""Game loop and regret accounting for online linear optimization.

Points and gradients are plain floats in the one-dimensional game and 1-d
numpy arrays otherwise. Losses are exclusively linear, so a game is fully
described by the sequence of played points and gradients; the ledger keeps
that sequence plus running statistics needed by the bound evaluators.
The norm is Euclidean (self-dual) throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

Vector = Union[float, np.ndarray]


class GameDivergence(RuntimeError):
    """A learner or adversary produced a non-finite value mid-game."""


def dual_norm(g: Vector) -> float:
    """Euclidean norm. For an array, sqrt(g . g) as numpy's norm computes
    it, bit for bit, overflow to inf included."""
    if isinstance(g, np.ndarray):
        return math.sqrt(float(g @ g))
    return abs(g)


def _dot(g: Vector, w: Vector) -> float:
    if isinstance(g, np.ndarray):
        return float(g @ w)
    return g * w


class Learner:
    """Plays a point each round, then receives the round's gradient.

    The optional introspection attributes are read by the trace writer;
    learners for which a field has no meaning leave it as None in every round.
    """

    current_hint: Union[float, None] = None
    barrier: Union[float, None] = None
    wealth: Union[float, None] = None

    def play(self) -> Vector:
        raise NotImplementedError

    def update(self, g: Vector) -> None:
        raise NotImplementedError


class HintedLearner(Learner):
    """Learner that consumes a magnitude hint alongside each gradient.

    The hint h delivered with gradient g promises that the *next* gradient
    will have magnitude at most h; hints must be nondecreasing.
    """

    def update(self, g: float, h_next: Union[float, None] = None) -> None:
        raise NotImplementedError


@dataclass(slots=True)
class RoundRecord:
    t: int
    played: Vector
    grad: Vector
    hint_before: float  # hint in force when the point was played, 0 if hintless


class RegretLedger:
    """Trace of one game plus incrementally maintained summary statistics.

    max_ratio is the largest prefix value of sum_norm / max_norm, updated
    each round in the order StreamStats.from_norms uses, so the stream
    statistics of a finished game need no second pass.
    """

    def __init__(self) -> None:
        self.rounds: list[RoundRecord] = []
        self.cum_loss = 0.0
        self.grad_sum: Vector = 0.0
        self.sum_norm = 0.0
        self.sum_sq = 0.0
        self.max_norm = 0.0
        self.max_ratio = 0.0
        self.max_played_norm = 0.0

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def dim(self) -> Union[int, None]:
        if not self.rounds:
            return None
        w = self.rounds[0].played
        return w.shape[0] if isinstance(w, np.ndarray) else 1

    def append(self, record: RoundRecord) -> None:
        w, g = record.played, record.grad
        if isinstance(g, np.ndarray):
            if not self.rounds:
                self.grad_sum = np.zeros_like(g)
            self.cum_loss += float(g @ w)
            self.grad_sum += g
            n = dual_norm(g)
            pn = dual_norm(w)
        else:
            self.cum_loss += g * w
            self.grad_sum += g
            n = abs(g)
            pn = abs(w)
        self.rounds.append(record)
        self.sum_norm += n
        self.sum_sq += n * n
        if n > self.max_norm:
            self.max_norm = n
        if self.max_norm > 0.0:
            ratio = self.sum_norm / self.max_norm
            if ratio > self.max_ratio:
                self.max_ratio = ratio
        if pn > self.max_played_norm:
            self.max_played_norm = pn

    def regret(self, comparator: Vector) -> float:
        """Cumulative loss of the played points in excess of the comparator's.

        Affine in the comparator with slope -grad_sum. An empty ledger has
        zero regret against anything.
        """
        if not self.rounds:
            return 0.0
        if isinstance(self.grad_sum, np.ndarray):
            w = np.atleast_1d(np.asarray(comparator, dtype=float))
            if w.shape != self.grad_sum.shape:
                raise ValueError(
                    f"comparator dimension {w.shape} does not match game dimension "
                    f"{self.grad_sum.shape}"
                )
            return self.cum_loss - float(self.grad_sum @ w)
        w = np.asarray(comparator, dtype=float)
        if w.ndim > 0:
            if w.size != 1:
                raise ValueError(
                    f"comparator dimension {w.size} does not match game dimension 1"
                )
            w = w.reshape(())
        return self.cum_loss - self.grad_sum * float(w)

    def recompute(self) -> dict:
        """Summary statistics recomputed from scratch (exact summation)."""
        norms = [dual_norm(r.grad) for r in self.rounds]
        if isinstance(self.grad_sum, np.ndarray):
            cols = np.stack([np.asarray(r.grad, dtype=float) for r in self.rounds])
            grad_sum = np.array([math.fsum(cols[:, j]) for j in range(cols.shape[1])])
        else:
            grad_sum = math.fsum(r.grad for r in self.rounds)
        return {
            "cum_loss": math.fsum(_dot(r.grad, r.played) for r in self.rounds),
            "grad_sum": grad_sum,
            "sum_norm": math.fsum(norms),
            "sum_sq": math.fsum(n * n for n in norms),
            "max_norm": max(norms, default=0.0),
            "max_played_norm": max((dual_norm(r.played) for r in self.rounds), default=0.0),
        }


def run_game(learner: Learner, adversary, T: int, check_finite: bool = True) -> RegretLedger:
    """Run T rounds of the online linear optimization protocol.

    Each round the learner plays a point, the adversary answers with a
    gradient (it may inspect the played point), and the learner updates.
    Non-finite points or gradients abort the game with a diagnostic naming
    the round; pass check_finite=False to let a run continue through float
    overflow, in which case IEEE semantics apply to the ledger sums.

    The type of the first point sets the game: an ndarray makes it a vector
    game, anything else a scalar game. That choice, made once, picks the
    finiteness test, the gradient check and the snapshot the loop uses.
    """
    if T < 1:
        raise ValueError(f"number of rounds must be >= 1, got {T}")
    w = learner.play()
    if isinstance(w, np.ndarray):
        finite, coerce, snapshot = _finite_vector, _vector_grad, np.ndarray.copy
    else:
        # the ledger keeps Python floats
        finite, coerce, snapshot = math.isfinite, _scalar_grad, float
    ledger = RegretLedger()
    play, update, append = learner.play, learner.update, ledger.append
    next_grad = adversary.next_grad
    for t in range(1, T + 1):
        if check_finite and not finite(w):
            wealth = getattr(learner, "wealth", None)
            why = "" if wealth is None or math.isfinite(wealth) else ": its wealth left float range"
            raise GameDivergence(f"learner produced a non-finite point at round {t}{why}")
        g = coerce(next_grad(t, w), w, t)
        if check_finite and not finite(g):
            raise GameDivergence(f"adversary produced a non-finite gradient at round {t}")
        h = learner.current_hint
        # snapshot before update: the learner may mutate its play buffer in place
        w_rec, g_rec = snapshot(w), snapshot(g)
        update(g)
        append(RoundRecord(t, w_rec, g_rec, 0.0 if h is None else h))
        if t < T:
            w = play()
    return ledger


def _finite_vector(x: np.ndarray) -> bool:
    # a finite squared norm means every entry is finite; only when it is not
    # (an entry is inf or nan, or the squares overflow) are the entries read
    return math.isfinite(float(x @ x)) or bool(np.isfinite(x).all())


def _scalar_grad(g, w, t: int):
    if isinstance(g, np.ndarray):
        if g.size != 1:
            raise ValueError(
                f"gradient dimension {g.size} does not match point dimension 1 "
                f"at round {t}"
            )
        g = float(g.reshape(-1)[0])
    return g


def _vector_grad(g, w: np.ndarray, t: int) -> np.ndarray:
    if not isinstance(g, np.ndarray):
        g = np.atleast_1d(np.asarray(g, dtype=float))
    if g.shape != w.shape:
        raise ValueError(
            f"gradient dimension {g.shape} does not match point dimension "
            f"{w.shape} at round {t}"
        )
    return g
