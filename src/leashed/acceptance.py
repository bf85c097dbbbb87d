"""Executable acceptance checks for every guarantee the package makes.

Every criterion is a body under the `criterion` runner. The body plays its
games one at a time, each built from a `stacks.RunSpec` (epsilon = alpha =
k = g0 = 1 and p = 1/2 unless the spec sets them), and a bound check scores
its game through `RunSpec.rows`, the path `run` and `sweep` report through.
The body appends one line to `failures` for each check that does not hold,
and returns the summary that PASS reports. The runner times the call,
reports the first four failures in place of the summary, fails a criterion
that reaches its wall-clock gate (adding "; took X s" when every check
held), builds the CriterionResult and lists the criterion in CRITERIA; the
verify command and the test suite share them.

Measured regret is compared against the closed-form guarantees with zero
tolerance unless a stated numerical slack is part of the check itself. A few
streams drive bettor wealth past float range by design; those checks are
evaluated under IEEE extended-real semantics (every comparison still has a
definite truth value because the quantities never mix opposite infinities).
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adversaries import KINDS, SEEDED_KINDS, best_betting_fraction, random_unit_vectors
from .bounds import StreamStats, conjugate_bound
from .coin_betting import CoinBettor, ons_inner_regret, ons_regret_bound
from .core import HintedLearner, Learner, RegretLedger, dual_norm, run_game
from .reductions import Leashed
from .stacks import RunSpec

_COMPARATORS = (0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: str
    required: str
    seconds: float


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"{status} {r.name}: {r.measured}; required: {r.required} [{r.seconds:.2f}s]"


CRITERIA: dict = {}


def criterion(required: str, gate: Optional[float] = None):
    """Register body(failures, *args, **kwargs) in CRITERIA under its name, run
    as the module docstring describes; gate is the wall-clock limit in seconds."""
    def register(body):
        @functools.wraps(body)
        def run(*args, **kwargs) -> CriterionResult:
            failures: list = []
            t0 = time.perf_counter()
            summary = body(failures, *args, **kwargs)
            seconds = time.perf_counter() - t0
            slow = gate is not None and seconds >= gate
            measured = "; ".join(failures[:4]) if failures else summary
            if slow and not failures:
                measured += f"; took {seconds:.2f}s"
            return CriterionResult(body.__name__, not failures and not slow, measured,
                                   required, seconds)

        CRITERIA[body.__name__] = run
        return run

    return register


def _play(failures: list, label: str, spec: RunSpec, learner: Optional[Learner] = None,
          check_finite: bool = True, on_round=None) -> Optional[RegretLedger]:
    """The game of spec against a fresh adversary, played by learner if given
    (a learner the criterion inspects or wraps) and else by the spec's own
    stack: its ledger, or None with the exception recorded."""
    try:
        _, adversary, built = spec.build()
        return run_game(built if learner is None else learner, adversary, spec.T,
                        check_finite=check_finite, on_round=on_round)
    except Exception as exc:
        failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


def _within_bound(failures: list, label: str, spec: RunSpec, ledger: RegretLedger,
                  comparators) -> float:
    """Check regret <= the spec's stack bound at every comparator, one failure
    per violation; returns the largest regret/bound over finite regrets under
    positive bounds (-inf when there is none)."""
    stats = StreamStats.from_ledger(ledger, g0=spec.g0)
    worst = -math.inf
    for i, (wc, _, r, b, ratio) in enumerate(spec.rows(ledger, stats, comparators)):
        if not r <= b:
            name = f"{wc:g}" if np.ndim(wc) == 0 else f"#{i}"
            failures.append(f"{label} comparator {name}: regret {r:.6g} > bound {b:.6g}")
        elif math.isfinite(r) and ratio is not None:
            worst = max(worst, ratio)
    return worst


class _SentRecorder:
    """Inner learner that passes everything through to the one it wraps and
    keeps every gradient a wrapper sends it."""

    def __init__(self, inner: HintedLearner):
        self.inner, self.sent = inner, []

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def update(self, g, h_next=None) -> None:
        self.sent.append(g)
        self.inner.update(g, h_next)


def _bettor_games():
    """(label, spec) of the nine games of the bettor hinted with the stream's bound."""
    for kind in ("constant", "alternating", "seeded_uniform"):
        for T in (100, 1000, 10_000):
            yield f"{kind} T={T}", RunSpec(algo="ons_hints", adversary=kind, seed=1, T=T)


@criterion(
    required="wealth > 0 and |v_t| <= 1/(2 h_t) exactly, every adversary kind, under 5 s",
    gate=5.0,
)
def wealth_positive_bets_clipped(failures: list, bettor_cls=CoinBettor) -> str:
    """Wealth stays strictly positive and every bet respects the hint cap."""
    min_wealth = math.inf
    n_runs = 0
    for kind in KINDS:
        # only the seeded kinds consume the seed; the rest rerun identically
        for seed in range(1, 11) if kind in SEEDED_KINDS else (1,):
            n_runs += 1
            label = f"{kind}/seed{seed}"
            spec = RunSpec(adversary=kind, seed=seed, T=10_000)
            bettor = bettor_cls(epsilon=spec.eps, alpha=spec.alpha, h1=spec.g0)
            # the least wealth a bet from round 2 on is placed from; bets over the cap
            low, bad = None, 0

            def watch(t, w, g):
                nonlocal low, bad
                # builtin min's order: keep the first value, replace on a smaller one
                if t > 1 and (low is None or bettor.wealth < low):
                    low = bettor.wealth
                if abs(bettor.v) > 0.5 / bettor.h:
                    bad += 1

            if _play(failures, label, spec, Leashed(bettor, k=spec.k, p=spec.p, g0=spec.g0),
                     on_round=watch) is None:
                continue
            # the wealth after each round: the next bet's, then the final one
            low = min(low, bettor.wealth)
            min_wealth = min(min_wealth, low)
            if not low > 0.0:
                failures.append(f"{label}: wealth reached {low}")
            if bad:
                failures.append(f"{label}: bet outside [-1/(2h), 1/(2h)] {bad} times")
    return f"{n_runs} runs of T=10000: min wealth {min_wealth:.4g}, 0 cap violations"


@criterion(required="regret <= guarantee with zero tolerance, T in {1e2,1e3,1e4}, comparators 0, +/-0.1, ..., +/-100")
def bettor_regret_within_bound(failures: list) -> str:
    """Hinted bettor regret never exceeds its closed-form guarantee."""
    # the one-signed constant stream pushes wealth past float range near round
    # 1750; its late regrets are -inf and the comparison stays exact
    worst = -math.inf
    for label, spec in _bettor_games():
        ledger = _play(failures, label, spec, check_finite=False)
        if ledger is not None:
            worst = max(worst, _within_bound(failures, label, spec, ledger, _COMPARATORS))
    return f"{9 * len(_COMPARATORS)} cells: max regret/bound = {worst:.4g}"


@criterion(required="log-wealth regret vs best grid fraction <= alpha/(4 h^2) + 4.5 ln(1 + sum g^2/alpha) + 1e-3")
def inner_ons_within_log_bound(failures: list) -> str:
    """Betting-fraction regret vs the best fixed fraction on an exhaustive grid."""
    worst = -math.inf
    for label, spec in _bettor_games():
        bettor = spec.build()[2]
        bets = []  # (gradient, fraction wagered) of each round
        if _play(failures, label, spec, bettor, check_finite=False,
                 on_round=lambda t, w, g: bets.append((float(g), bettor.v))) is None:
            continue
        gs, vs = zip(*bets)
        v_star = best_betting_fraction(gs, bettor.h, resolution=1e-4)
        reg = ons_inner_regret(gs, vs, v_star)
        cap = ons_regret_bound(1.0, bettor.h, math.fsum(g * g for g in gs))
        worst = max(worst, reg - cap)
        if not reg <= cap + 1e-3:
            failures.append(f"{label}: log-loss regret {reg:.6g} > {cap:.6g} + 1e-3")
    return f"max (regret - bound) = {worst:.4g} over 9 runs, grid step 1e-4"


@criterion(required="sum (g - g_sent)(w - comparator) <= max|g| * (max|w| + |comparator|), exactly")
def truncation_overhead_bounded(failures: list) -> str:
    """Per-round truncation error, summed against any comparator, stays within range."""
    # one-signed streams at T=1e4 overflow wealth by design and are checked in
    # IEEE extended reals; the T=1500/5000 reruns keep both sides finite
    worst = -math.inf
    cells = (("spike", {}, 10_000, False), ("growing", {}, 10_000, False),
             ("spike", {"magnitude": 100.0}, 10_000, True), ("growing", {}, 1_500, True),
             ("spike", {}, 5_000, True))
    for kind, kw, T, expect_finite in cells:
        label = f"{kind}{kw or ''} T={T}"
        spec = RunSpec(algo="hintless", adversary=kind, T=T, **kw)
        wrapper = spec.build()[2]
        wrapper.inner = inner = _SentRecorder(wrapper.inner)
        played = []
        ledger = _play(failures, label, spec, wrapper, check_finite=expect_finite,
                       on_round=lambda t, w, g: played.append((g, w)))
        if ledger is None:
            continue
        if expect_finite and not math.isfinite(ledger.max_played_norm):
            failures.append(f"{label}: expected a finite run, played norm overflowed")
            continue
        # exactly-zero truncation error charges nothing
        rows = [(g, sent, w) for (g, w), sent in zip(played, inner.sent) if g - sent != 0.0]
        for wc in _COMPARATORS:
            lhs = math.fsum((g - sent) * (w - wc) for g, sent, w in rows)
            rhs = ledger.max_norm * (ledger.max_played_norm + abs(wc))
            if not lhs <= rhs:
                failures.append(f"{label} comparator {wc:g}: overhead {lhs} > {rhs}")
            elif math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0.0:
                worst = max(worst, lhs / rhs)
    return f"max overhead/range = {worst:.4g} across {len(cells)} runs"


@criterion(
    required="regret <= composed guarantee, zero tolerance, every adversary kind, T in {1e3,1e4}, under 30 s",
    gate=30.0,
)
def leashed_regret_within_bound(failures: list) -> str:
    """Full stack regret never exceeds the composed guarantee."""
    worst = -math.inf
    for kind in KINDS:
        for T in (1000, 10_000):
            label = f"{kind} T={T}"
            spec = RunSpec(adversary=kind, seed=1, T=T)
            ledger = _play(failures, label, spec)
            if ledger is not None:
                worst = max(worst, _within_bound(failures, label, spec, ledger, _COMPARATORS))
    return f"{len(KINDS) * 2 * len(_COMPARATORS)} cells: max regret/bound = {worst:.4g}"


@criterion(required="regret/T strictly decreasing through T = 1e2, 1e3, 1e4 and exponent <= 0.55 through 1e5")
def leashed_regret_sublinear(failures: list) -> str:
    """Average regret shrinks with the horizon; growth exponent at most 0.55."""
    horizons = (100, 1000, 10_000, 100_000)
    regrets = []
    for T in horizons:
        ledger = _play(failures, f"constant T={T}", RunSpec(adversary="constant", T=T))
        if ledger is None:
            return ""
        regrets.append(ledger.regret(1.0))
    per_round = [r / T for r, T in zip(regrets, horizons)]
    decreasing = per_round[1] < per_round[0] and per_round[2] < per_round[1]
    # regret can be negative; the growth fit clamps at 1 so profit reads as flat
    ys = [math.log10(max(r, 1.0)) for r in regrets]
    slope = float(np.polyfit([math.log10(T) for T in horizons], ys, 1)[0])
    summary = (f"regret/T = {per_round[0]:.4g}, {per_round[1]:.4g}, {per_round[2]:.4g} "
               f"at T = 1e2, 1e3, 1e4; fitted exponent {slope:.3g}")
    if not (decreasing and slope <= 0.55):
        failures.append(summary)
    return summary


@criterion(required="regret <= 2^{3/2} sqrt(sum ||g||^2), zero tolerance, d in {1,2,10}, T = 1e4")
def ball_regret_within_bound(failures: list) -> str:
    """Unit-ball learner regret never exceeds its guarantee."""
    worst = -math.inf
    for d in (1, 2, 10):
        units = random_unit_vectors(d, 20, seed=7)
        for kind in ("seeded_uniform", "alternating", "adaptive_sign"):
            label = f"{kind} d={d}"
            spec = RunSpec(algo="adagrad_ball", adversary=kind, dim=d, seed=2, T=10_000)
            ledger = _play(failures, label, spec)
            if ledger is None:
                continue
            gn = dual_norm(ledger.grad_sum)
            comps = units + [-ledger.grad_sum / gn] if gn > 0.0 else units
            worst = max(worst, _within_bound(failures, label, spec, ledger, comps))
    return f"max regret/bound = {worst:.4g} over 9 runs x 21 comparators"


@criterion(required="regret = scalar regret at |comparator| + |comparator| * direction regret, to 1e-9 absolute")
def lift_identity_exact(failures: list) -> str:
    """Dimension-lift regret splits exactly into scalar and direction parts."""
    worst = 0.0
    for d in (2, 10):
        for kind in ("seeded_uniform", "alternating"):
            label = f"{kind} d={d}"
            spec = RunSpec(algo="leashed_dimfree", adversary=kind, dim=d, seed=3, T=1000)
            lift = spec.build()[2]
            rows = []  # (g, w, x, y) of each round, as played
            if _play(failures, label, spec, lift, on_round=lambda t, w, g: rows.append((g, w, lift.x, lift.y.copy()))
                     ) is None:
                continue
            for m, u in zip((0.5, 3.0, 50.0), random_unit_vectors(d, 3, seed=11)):
                wc = m * u
                n = float(np.linalg.norm(wc))
                un = wc / n
                lhs = math.fsum(float(g @ (w - wc)) for g, w, _, _ in rows)
                # s_t = <g_t, y_t>, the loss the lift hands its scalar learner
                scalar_part = math.fsum(float(g @ y) * (x1 - n) for g, _, x1, y in rows)
                direction_part = math.fsum(float(g @ (y - un)) for g, _, _, y in rows)
                gap = abs(lhs - (scalar_part + n * direction_part))
                worst = max(worst, gap)
                if gap > 1e-9:
                    failures.append(f"{label} |comparator|={m:g}: identity gap {gap:.3g}")
    return f"max identity gap = {worst:.3g}"


@criterion(required="barrier traces for {g_t} and {1000 g_t} bit-identical, all adversary kinds, T = 1e3")
def barrier_scale_invariant(failures: list) -> str:
    """Scaling a gradient stream by 1000 leaves the barrier trace bit-identical."""
    # generated magnitudes sit on the 2^-20 lattice, so the ledger sums and
    # maxima scale exactly and the barrier ratio divides out bit-for-bit
    T = 1000

    def barrier_trace(stack, gs):
        out = []
        for g in gs:
            stack.play()
            out.append(stack.B)  # barrier in force for this round's projection
            stack.update(g)
        out.append(stack.B)
        return out

    for kind in KINDS:
        spec = RunSpec(adversary=kind, seed=1, T=T)
        stream = []
        if _play(failures, kind, spec, on_round=lambda t, w, g: stream.append(g)) is None:
            continue
        b1 = barrier_trace(spec.build()[2], stream)
        b2 = barrier_trace(spec.build()[2], [1000.0 * g for g in stream])
        bad = sum(1 for x, y in zip(b1, b2) if x != y)
        if bad:
            failures.append(f"{kind}: {bad} of {len(b1)} barrier values differ")
    return f"all {T + 1} barrier values bit-identical for every adversary kind"


@criterion(required="sup_x (theta x - f(x)) on a half-million-point grid <= closed form + 1e-6, 20 seeded tuples")
def conjugate_dominated(failures: list) -> str:
    """Closed-form conjugate cap dominates the brute-force conjugate."""
    worst = -math.inf
    gen = np.random.Generator(np.random.PCG64(12345))
    # [-120, 120] is wide enough to contain every maximizer in range
    blocks = _conjugate_grid()
    for i in range(20):
        a = 0.1 + 9.9 * float(gen.random())
        b = 0.1 + 9.9 * float(gen.random())
        c = 10.0 * float(gen.random())
        theta = -100.0 + 200.0 * float(gen.random())
        sup = _conjugate_sup(a, b, c, theta, blocks)
        cap = conjugate_bound(a, b, c, theta)
        worst = max(worst, sup - cap)
        if not sup <= cap + 1e-6:
            failures.append(f"tuple {i} (a={a:.3g}, b={b:.3g}, c={c:.3g}, theta={theta:.3g}): "
                            f"sup {sup:.6g} > cap {cap:.6g} + 1e-6")
    return f"max (brute-force sup - cap) = {worst:.4g} over 20 seeded tuples"


def _conjugate_grid() -> list:
    """The 480,001 points of [-120, 120] at step 5e-4, with their absolute
    values, as (xs, |xs|) views of 32,768 points each (the last shorter)."""
    xs = np.linspace(-120.0, 120.0, 480_001)
    absx = np.abs(xs)
    return [(xs[lo:lo + 32_768], absx[lo:lo + 32_768]) for lo in range(0, xs.size, 32_768)]


def _conjugate_sup(a: float, b: float, c: float, theta: float, blocks: list) -> float:
    """max of theta x - a exp(b x^2 / (|x| + c)) over the grid, one block at
    a time so the temporaries stay block-sized; a NaN anywhere propagates."""
    sups = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for xs, absx in blocks:
            expo = b * np.where(absx > 0.0, xs * xs / (absx + c), 0.0)
            sups.append(np.max(theta * xs - a * np.exp(expo)))
    return float(np.max(sups))


@criterion(required="max played point <= 1 exactly on the growing stream, T = 1e4; regret within the fixed-diameter guarantee")
def diameter_respected(failures: list) -> str:
    """Fixed-diameter stack never leaves its domain and keeps its guarantee."""
    spec = RunSpec(algo="fixed_diameter", adversary="growing", D=1.0, T=10_000)
    ledger = _play(failures, "growing", spec)
    if ledger is None:
        return ""
    reach = ledger.max_played_norm
    if not reach <= 1.0:
        failures.append(f"played point reached {reach!r} outside the unit diameter")
    worst = _within_bound(failures, "growing", spec, ledger, (0.0, 0.3, -0.3, 1.0, -1.0))
    return f"max played point {reach:.6g} <= 1; max regret/bound = {worst:.4g}"


SUITES = {
    "all": tuple(CRITERIA),
    "coin": ("wealth_positive_bets_clipped", "bettor_regret_within_bound",
             "inner_ons_within_log_bound"),
    "reductions": ("truncation_overhead_bounded", "leashed_regret_within_bound",
                   "leashed_regret_sublinear", "lift_identity_exact", "barrier_scale_invariant",
                   "diameter_respected"),
    "ball": ("ball_regret_within_bound",),
    "bounds": ("conjugate_dominated",),
}
