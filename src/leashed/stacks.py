"""Assembly of named learner stacks, their matching guarantees, and the
RunSpec record that `run`, `sweep` and `verify` build and score games from.
RunSpec's fields are the one list of settings: the command line makes one
flag per field, with the help text the field carries."""
from __future__ import annotations

import dataclasses
import math
from typing import Iterator, Optional

import numpy as np

from .adversaries import KINDS, AdversaryConfig, StreamAdversary, comparator_sweep
from .bounds import (
    BoundParams,
    StreamStats,
    bettor_bound,
    fixed_diameter_bound,
    full_stack_bound,
    hintless_bound,
)
from .coin_betting import CoinBettor
from .core import GameDivergence, RegretLedger, dual_norm, run_game
from .reductions import DimFreeLift, Leashed, Truncation, fixed_diameter
from .unit_ball import AdaGradBall, ball_regret_bound, project_unit_ball

ALGOS = (
    "ons_hints",
    "hintless",
    "leashed",
    "leashed_dimfree",
    "fixed_diameter",
    "adagrad_ball",
)

_SCALAR_ONLY = ("ons_hints", "hintless", "leashed", "fixed_diameter")


def build_learner(
    algo: str,
    params: BoundParams,
    dim: int = 1,
    diameter: Optional[float] = None,
    hint: Optional[float] = None,
):
    """Construct the named stack.

    hint seeds the bettor's initial magnitude promise for ons_hints; every
    other stack ignores it and starts from params.g0. diameter is required
    by fixed_diameter and ignored elsewhere.
    """
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}, expected one of {ALGOS}")
    if algo in _SCALAR_ONLY and dim != 1:
        raise ValueError(f"{algo} plays a one-dimensional game, got dim={dim}")

    def bettor(h1: float) -> CoinBettor:
        return CoinBettor(epsilon=params.epsilon, alpha=params.alpha, h1=h1)

    if algo == "ons_hints":
        h1 = params.g0 if hint is None else hint
        return bettor(h1)
    if algo == "hintless":
        return Truncation(bettor(params.g0), g0=params.g0)
    if algo == "leashed":
        return Leashed(bettor(params.g0), k=params.k, p=params.p, g0=params.g0)
    if algo == "leashed_dimfree":
        scalar = Leashed(bettor(params.g0), k=params.k, p=params.p, g0=params.g0)
        return DimFreeLift(scalar, AdaGradBall(dim))
    if algo == "fixed_diameter":
        if diameter is None:
            raise ValueError("fixed_diameter needs a diameter")
        return fixed_diameter(bettor(params.g0), diameter, g0=params.g0)
    return AdaGradBall(dim)


def stack_bound(
    algo: str,
    params: BoundParams,
    stats: StreamStats,
    w_abs: float,
    diameter: Optional[float] = None,
    max_played: Optional[float] = None,
) -> float:
    """The guarantee matching the named stack, at comparator norm w_abs.

    For leashed_dimfree the scalar guarantee is evaluated on the norm stream
    and the ball guarantee enters scaled by the comparator norm, mirroring
    the regret decomposition of the lift. For adagrad_ball the value is only
    a guarantee when w_abs <= 1.
    """
    if algo == "ons_hints":
        return bettor_bound(params, stats, w_abs)
    if algo == "hintless":
        if max_played is None:
            raise ValueError("hintless bound needs the largest played norm")
        return hintless_bound(params, stats, w_abs, max_played)
    if algo == "leashed":
        return full_stack_bound(params, stats, w_abs)
    if algo == "leashed_dimfree":
        scalar = full_stack_bound(params, stats, w_abs)
        return scalar + w_abs * ball_regret_bound(stats.sum_sq)
    if algo == "fixed_diameter":
        if diameter is None:
            raise ValueError("fixed_diameter bound needs the diameter")
        return fixed_diameter_bound(params, stats, w_abs, diameter)
    if algo == "adagrad_ball":
        return ball_regret_bound(stats.sum_sq)
    raise ValueError(f"unknown algorithm {algo!r}, expected one of {ALGOS}")


def growth_exponent(horizons, regrets) -> float:
    """Least-squares slope of log10(max(regret, 1)) against log10(T). Regret
    can be negative; the clamp at 1 makes profit read as flat growth."""
    xs = [math.log10(T) for T in horizons]
    ys = [math.log10(max(r, 1.0)) for r in regrets]
    return float(np.polyfit(xs, ys, 1)[0])


def _setting(default, text: str):
    """A RunSpec field with its default and the help text of its flag."""
    return dataclasses.field(default=default, metadata={"help": text})


def comparator_label(wc, i: int) -> str:
    """A scalar's value; a vector's norm and index i in RunSpec.rows' comparators."""
    if isinstance(wc, np.ndarray):
        return f"|w|={dual_norm(wc):.6g}#{i}"
    return format(float(wc), ".12g")


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Every setting of one game: the stack, the stream and its horizon, the
    comparators `run`, `sweep` and `verify` score (None for the default set
    `rows` picks, else a tuple of floats), the output directory and sweep's
    worker count. Building a spec checks it, so bad settings fail before any
    game runs."""

    algo: str = _setting("leashed", "learner stack: " + ", ".join(ALGOS))
    adversary: str = _setting("constant", "gradient stream kind: " + ", ".join(KINDS))
    T: int = _setting(1000, "number of rounds")
    dim: int = _setting(1, "game dimension")
    k: float = _setting(1.0, "barrier scale")
    p: float = _setting(0.5, "barrier exponent in (0, 1]")
    eps: float = _setting(1.0, "initial wealth")
    alpha: float = _setting(1.0, "curvature seed for the betting update")
    g0: float = _setting(1.0, "initial magnitude guess")
    D: Optional[float] = _setting(None, "diameter for the fixed_diameter stack")
    seed: int = _setting(0, "seed for adversaries and comparators")
    comparators: Optional[tuple] = _setting(None, '"auto" or comma-separated scalars')
    out: str = _setting(".", "existing output directory")
    scale: float = _setting(1.0, "gradient scale")
    rate: float = _setting(0.5, "growth rate for the growing kind")
    period: int = _setting(10, "spike period")
    magnitude: float = _setting(10.0, "spike magnitude")
    envelope: float = _setting(1.0, "magnitude cap for seeded kinds")
    jobs: int = _setting(1, "parallel worker processes")

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"number of rounds must be >= 1, got {self.T}")
        if self.jobs < 1:
            raise ValueError(f"number of worker processes must be >= 1, got {self.jobs}")
        self.build()  # the library checks what it is built from
        if self.comparators is not None:
            if not self.comparators:
                raise ValueError("empty comparator list")
            if not (isinstance(self.comparators, tuple)
                    and all(type(w) is float and math.isfinite(w) for w in self.comparators)):
                raise ValueError("comparators must be a tuple of finite floats, "
                                 f"got {self.comparators!r}")
            if self.dim != 1:
                raise ValueError("explicit comparators are scalars; use auto for dim > 1")
            if self.algo == "adagrad_ball" and not all(abs(w) <= 1.0 for w in self.comparators):
                raise ValueError("adagrad_ball's bound holds only in the unit ball: "
                                 f"comparators must satisfy |u| <= 1, got {self.comparators!r}")

    @property
    def params(self) -> BoundParams:
        return BoundParams(epsilon=self.eps, alpha=self.alpha, k=self.k, p=self.p, g0=self.g0)

    def build(self) -> tuple:
        """(adversary, learner) of a fresh game."""
        adversary = StreamAdversary(AdversaryConfig(
            self.adversary, scale=self.scale, dim=self.dim, seed=self.seed, rate=self.rate,
            period=self.period, magnitude=self.magnitude, envelope=self.envelope,
        ))
        # a cap past float range would hand some round an infinite gradient
        cap = adversary.bound()
        if cap is not None and not math.isfinite(cap):
            knob = "magnitude" if self.adversary == "spike" else "envelope"
            raise ValueError(f"the {self.adversary} stream's gradient cap, scale * {knob} = "
                             f"{self.scale!r} * {getattr(self, knob)!r}, is not finite; "
                             f"lower scale or {knob}")
        # only ons_hints takes the stream's a-priori cap; without one (growing,
        # zero) it starts from g0, and an unbounded stream aborts on contract
        hint = cap or None
        return adversary, build_learner(self.algo, self.params, self.dim, self.D, hint)

    def play_through(self, horizons, check_finite: bool = True) -> Iterator[tuple]:
        """(T, the ledger after T rounds) for each distinct T in horizons, in
        increasing order, from the one game build() makes, continued from
        horizon to horizon; the spec's own T plays no part. The learners
        never see T, so each ledger is bit for bit that of a separate game of
        horizon T, which `rows` scores as it scores this spec's. It is one
        ledger, continued in place when the next is taken: score each before
        that. Nothing is built or played before the first is taken.
        check_finite, as run_game takes it, also raises GameDivergence at the
        first horizon whose ledger's loss or norm sum has left float range: a
        regret or bound read from that ledger would be inf or nan."""
        adversary, learner = self.build()
        ledger = None
        for T in sorted(set(horizons)):
            ledger = run_game(learner, adversary, T, check_finite=check_finite, ledger=ledger)
            if check_finite and not (math.isfinite(ledger.cum_loss)
                                     and math.isfinite(ledger.sum_norm)):
                raise GameDivergence(f"the ledger's sums left float range by round {T}")
            yield T, ledger

    def rows(self, ledger: RegretLedger,
             stats: Optional[StreamStats] = None) -> Iterator[tuple]:
        """(comparator, its norm, regret, stack bound, regret / bound) per
        comparator, scored on the ledger's stream statistics (stats, when the
        caller already took them from this ledger); the ratio is None where
        the bound is not positive. The comparators are the explicit scalars;
        else, for adagrad_ball, whose bound holds only inside the unit ball,
        comparators of norm <= 1, the ones rounding left just outside shaved
        back in; else comparator_sweep."""
        if stats is None:
            stats = StreamStats.from_ledger(ledger)
        if self.comparators is not None:
            comparators = self.comparators
        elif self.algo != "adagrad_ball":
            comparators = comparator_sweep(ledger, seed=self.seed)
        elif self.dim == 1:
            comparators = [0.0, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0]
        else:
            comparators = [project_unit_ball(w) for w in comparator_sweep(ledger, seed=self.seed)
                           if dual_norm(w) <= 1.0 + 1e-12]
        params = self.params
        for wc in comparators:
            w_abs = dual_norm(wc)
            regret = ledger.regret(wc)
            bound = stack_bound(self.algo, params, stats, w_abs,
                                diameter=self.D, max_played=ledger.max_played_norm)
            yield wc, w_abs, regret, bound, (regret / bound) if bound > 0.0 else None
