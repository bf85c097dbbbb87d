"""Game loop and regret accounting for online linear optimization.

Points and gradients are plain floats in the one-dimensional game and 1-d
numpy arrays otherwise. Losses are exclusively linear, so the regret of a
game against every comparator follows from two running sums; the ledger
keeps those and the statistics the bound evaluators need, never the points
or gradients themselves, so a game's memory depends on neither T nor d.
Only a caller that asks for them (the trace writer of `leashed run`) gets
a row of norms per round as well. The norm is Euclidean (self-dual)
throughout.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

Vector = Union[float, np.ndarray]


class GameDivergence(RuntimeError):
    """A learner or adversary produced a non-finite value mid-game."""


def dual_norm(g: Vector) -> float:
    """Euclidean norm. For an array, sqrt(g . g) as numpy's norm computes
    it, bit for bit, overflow to inf included."""
    if isinstance(g, np.ndarray):
        return math.sqrt(g.dot(g))
    return abs(g)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] . b[i] for every row i of two (n, d) arrays, each one ddot, so
    bit for bit what a[i].dot(b[i]) computes (einsum sums in another order)."""
    return (a[:, None, :] @ b[:, :, None]).reshape(-1)


_FLOAT64 = np.dtype(float)


def as_gradient(g, dim: int) -> np.ndarray:
    """g itself, which must be a float64 array of shape (dim,): what run_game
    hands a vector learner. Anything else (a list, a float, a 0-d or float32
    array) is a ValueError; nothing is converted."""
    if type(g) is np.ndarray and g.dtype == _FLOAT64 and g.shape == (dim,):
        return g
    got = f"{g.dtype} array of shape {g.shape}" if isinstance(g, np.ndarray) else type(g).__name__
    raise ValueError(f"gradient ({got}) does not match dimension {dim}: "
                     "a vector learner takes a float64 array")


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
    """What trace.csv reads of one round: the norms of the point as played
    and of its gradient, and the cumulative loss after the round. The round
    is the row's position: rounds[t - 1] is round t."""

    w_norm: float
    g_norm: float
    cum_loss: float


class RegretLedger:
    """Running summary statistics of one game, and, if asked, a norm-only
    row per round.

    Regret is affine in the comparator, so cum_loss and grad_sum are all it
    needs. max_ratio is the largest prefix value of sum_norm / max_norm,
    updated each round in the order StreamStats.from_norms uses, so the
    stream statistics of a finished game need no second pass. grad_sum
    starts at 0.0, and a vector game's first gradient makes it an array
    (0.0 + x is x, bit for bit); dim reads the game's dimension off it.
    len() counts the rounds appended.

    With keep_rows, `rounds` collects one RoundRecord per round; a row holds
    no point or gradient, so its size depends on neither the dimension nor
    the learner. Without it, `rounds` is None and the ledger's memory does
    not grow with the rounds.
    """

    __slots__ = ("rounds", "n_rounds", "cum_loss", "grad_sum", "sum_norm", "sum_sq",
                 "max_norm", "max_ratio", "max_played_norm")

    def __init__(self, keep_rows: bool = False) -> None:
        self.rounds: Optional[list[RoundRecord]] = [] if keep_rows else None
        self.n_rounds = 0
        self.cum_loss = 0.0
        self.grad_sum: Vector = 0.0
        self.sum_norm = 0.0
        self.sum_sq = 0.0
        self.max_norm = 0.0
        self.max_ratio = 0.0
        self.max_played_norm = 0.0

    def __len__(self) -> int:
        return self.n_rounds

    @property
    def dim(self) -> Union[int, None]:
        """1 in a scalar game, the gradient's length in a vector one, None before any round."""
        if not self.n_rounds:
            return None
        return self.grad_sum.shape[0] if isinstance(self.grad_sum, np.ndarray) else 1

    def append(self, w: Vector, g: Vector, pn: float, n: float) -> None:
        """Account the next round, where w was played and g answered it; pn
        and n are dual_norm(w) and dual_norm(g). Nothing of w or g is kept,
        so the caller may reuse their buffers afterwards."""
        # a scalar game's gradient is a Python float, tested for first
        if type(g) is not float and isinstance(g, np.ndarray):
            self.cum_loss = cum_loss = self.cum_loss + float(g.dot(w))
        else:
            self.cum_loss = cum_loss = self.cum_loss + g * w
        self.grad_sum += g
        self.n_rounds += 1
        if self.rounds is not None:
            self.rounds.append(RoundRecord(pn, n, cum_loss))
        self.sum_norm = sum_norm = self.sum_norm + n
        self.sum_sq += n * n
        max_norm = self.max_norm
        if n > max_norm:
            self.max_norm = max_norm = n
        if max_norm > 0.0:
            ratio = sum_norm / max_norm
            if ratio > self.max_ratio:
                self.max_ratio = ratio
        if pn > self.max_played_norm:
            self.max_played_norm = pn

    def regret(self, comparator: Vector) -> float:
        """Cumulative loss of the played points in excess of the comparator's.

        Affine in the comparator with slope -grad_sum. An empty ledger has
        zero regret against anything.
        """
        if not self.n_rounds:
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


def run_game(learner: Learner, adversary, T: int, check_finite: bool = True,
             on_round: Optional[Callable[[int, Vector, Vector], None]] = None,
             keep_rows: bool = False,
             ledger: Optional[RegretLedger] = None) -> RegretLedger:
    """Run rounds 1 ... T of the online linear optimization protocol, or,
    given the ledger of a game's first rounds, rounds len(ledger) + 1 ... T
    of that game, accounted in that ledger, which is returned.

    Each round the learner plays a point, the adversary answers with a
    gradient (it may inspect the played point), and the learner updates.
    Non-finite points or gradients abort the game with a diagnostic naming
    the round; pass check_finite=False to let a run continue through float
    overflow, in which case IEEE semantics apply to the ledger sums.

    The ledger reads each round's point and gradient before the learner's
    update, so a learner may mutate its play buffer in place. on_round, if
    given, is called as on_round(t, w, g) after both finiteness checks and
    before the update, right after the ledger has accounted round t (so
    len(ledger) == t): w and g are the point and gradient as played, and the
    learner's attributes still hold the state w was played from. It is how a
    caller sees more of a game than the ledger's sums. keep_rows asks
    a new ledger for its per-round rows (RegretLedger.rounds), which only a
    trace writer needs; without it the game's memory does not grow with T.

    A continued game is the same learner and adversary, handed back with
    the ledger their earlier rounds returned: the round number, next_grad(t,
    w) and on_round go on from there, and the learner, which never sees T,
    plays what it would have played in one longer game. So the ledger after
    T rounds is bit for bit that of a separate game of horizon T. T <=
    len(ledger) plays nothing and is a ValueError.

    The type of the first point sets the game: an ndarray makes it a vector
    game, anything else a scalar game. That choice, made once, picks the
    norm, the finiteness test and the gradient check the loop uses; a scalar
    game skips the check for a gradient that is exactly a Python float and
    turns any other real number into one, a vector game checks every
    gradient and casts one that is not a float64 array to float64. So a
    scalar learner is handed Python floats only, and a vector learner
    float64 arrays of the point's shape. Each norm is computed once a round,
    for the finiteness test and the ledger.
    """
    if ledger is None:
        if T < 1:
            raise ValueError(f"number of rounds must be >= 1, got {T}")
        ledger = RegretLedger(keep_rows)
    elif T <= len(ledger):
        raise ValueError(f"the ledger already accounts for {len(ledger)} rounds, "
                         f"so a game to round {T} plays none")
    first = len(ledger) + 1
    w = learner.play()
    # `plain` is the gradient type that needs no check; type() is never None
    if isinstance(w, np.ndarray):
        norm, finite, coerce, plain = _array_norm, _finite_entries, _vector_grad, None
    else:
        norm, finite, coerce, plain = abs, math.isfinite, _scalar_grad, float
    play, update, record = learner.play, learner.update, ledger.append
    next_grad, isfinite = adversary.next_grad, math.isfinite
    for t in range(first, T + 1):
        # a finite norm means every entry is finite; only when it is not
        # (an entry is inf or nan, or the squares overflow) are the entries read
        pn = norm(w)
        if check_finite and not (isfinite(pn) or finite(w)):
            wealth = getattr(learner, "wealth", None)
            why = "" if wealth is None or math.isfinite(wealth) else ": its wealth left float range"
            raise GameDivergence(f"learner produced a non-finite point at round {t}{why}")
        g = next_grad(t, w)
        if type(g) is not plain:
            g = coerce(g, w, t)
        n = norm(g)
        if check_finite and not (isfinite(n) or finite(g)):
            raise GameDivergence(f"adversary produced a non-finite gradient at round {t}")
        record(w, g, pn, n)
        if on_round is not None:
            on_round(t, w, g)
        update(g)
        if t < T:
            w = play()
    return ledger


def _array_norm(x: np.ndarray) -> float:
    """dual_norm of an array, without its type test."""
    return math.sqrt(x.dot(x))


def _finite_entries(x: np.ndarray) -> bool:
    return bool(np.isfinite(x).all())


def _scalar_grad(g, w, t: int):
    if isinstance(g, np.ndarray):
        if g.size != 1:
            raise ValueError(
                f"gradient dimension {g.size} does not match point dimension 1 "
                f"at round {t}"
            )
        return float(g.reshape(-1)[0])
    # any other real number (a numpy scalar, an int, a float subclass) leaves
    # as the Python float the game hands out
    return float(g) if isinstance(g, numbers.Real) else g


def _vector_grad(g, w: np.ndarray, t: int) -> np.ndarray:
    # the one cast of a vector game: the ledger, on_round and the learner all
    # see this float64 gradient, and as_gradient only checks it
    if not (type(g) is np.ndarray and g.dtype is _FLOAT64):
        g = np.atleast_1d(np.asarray(g, dtype=float))
    if g.shape != w.shape:
        raise ValueError(
            f"gradient dimension {g.shape} does not match point dimension "
            f"{w.shape} at round {t}"
        )
    return g
