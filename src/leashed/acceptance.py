"""Executable acceptance checks for every guarantee the package makes.

Every criterion is a plan() under the `criterion` runner that returns
(tasks, fold). A game task is a (fn, label, *args) tuple whose
module-level fn(failures, label, *args) plays one independent game, appends
one line to `failures` for each check that does not hold and returns one
small value; fold(failures, values) gets those values in task order and
returns the summary that PASS reports. A check that plays no game of its
own, such as a brute-force oracle, is a plan of one task. A game lets what
it raises propagate. Each game is the pair `stacks.RunSpec.build` makes
(epsilon = alpha = k = g0 = 1 and p = 1/2 unless the spec sets them),
played by `RunSpec.play`, or by `run_game` where a check watches its rounds;
a bound check scores it through `RunSpec.rows`, as `run` and `sweep` do, a
scalar stack's at the comparators `run` reports for the spec.

Called directly, a runner builds its plan, runs its tasks here and folds
them; `run_suite` builds each plan of a suite once and runs all their tasks
through the map it is given. The runner appends each task's failure lines in
task order and records an exception raised by the plan, a task or the fold
as one failure line, "<label>: <Type>: <message>" for a task; nothing is
folded after a plan or a task raised. A criterion's seconds are the sum of
its plan's, its tasks' and its fold's, so they never read less than an
in-process run. It reports the first four failures in place of the summary,
fails a criterion whose seconds reach its gate (adding "; took X s" when
every check held) and lists the criterion in CRITERIA and in SUITES under
"all" and its suite, which the verify command and the tests share.

Measured regret is compared against the closed-form guarantees with zero
tolerance unless a stated numerical slack is part of the check itself. A few
streams drive bettor wealth past float range by design; those checks are
evaluated under IEEE extended-real semantics (every comparison still has a
definite truth value because the quantities never mix opposite infinities).
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .adversaries import (KINDS, SCALAR_COMPARATORS, SEEDED_KINDS, best_betting_fraction,
                          random_unit_vectors)
from .bounds import conjugate_bound
from .coin_betting import ons_inner_regret, ons_regret_bound
from .core import HintedLearner, RegretLedger, dual_norm, row_dots, run_game
from .stacks import RunSpec, comparator_label, growth_exponent


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
# criterion names by suite, "all" first, each in registration order
SUITES: dict = {}


def _timed(fn, *args, **kwargs) -> tuple:
    """(seconds, value, error) of fn(*args, **kwargs): error is the line
    naming the exception it raised, with value None, else None."""
    t0 = time.perf_counter()
    try:
        value, error = fn(*args, **kwargs), None
    except Exception as exc:
        value, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, value, error


def run_task(task: tuple) -> tuple:
    """(seconds, failures, value, error) of the task (fn, label, *args):
    value = fn(failures, label, *args), which appends a line to failures for
    each check that does not hold; error is "<label>: " and the line naming
    the exception it raised, else None."""
    fn, label, *args = task
    failures: list = []
    seconds, value, error = _timed(fn, failures, label, *args)
    return seconds, failures, value, error and f"{label}: {error}"


def _build(plan) -> tuple:
    """(seconds, tasks, fold, error) of plan(), as _timed reports it; a plan
    that raised has no tasks and no fold."""
    seconds, built, error = _timed(plan)
    tasks, fold = built or ([], None)
    return seconds, tasks, fold, error


def criterion(suite: str, required: str, gate: Optional[float] = None):
    """Register plan() in CRITERIA under its name, and that name in SUITES
    under "all" and suite, run as the module docstring describes, with gate
    its wall-clock limit in seconds.
    Each task is (fn, label, *args), run by run_task. The runner keeps the
    plan as its `plan` attribute and takes `planned` and `done`, the _build
    and run_task results made elsewhere (run_suite)."""
    def register(plan):
        @functools.wraps(plan)
        def run(planned: Optional[tuple] = None, done: Optional[list] = None) -> CriterionResult:
            seconds, tasks, fold, error = planned or _build(plan)
            if done is None:
                done = [run_task(task) for task in tasks]
            summary = ""
            # the fold runs here, timed as one more task; a plan or a task
            # that raised leaves nothing to fold
            if error is None and all(task_error is None for *_, task_error in done):
                lines: list = []
                fold_seconds, summary, fold_error = _timed(
                    fold, lines, [value for _, _, value, _ in done])
                done = [*done, (fold_seconds, lines, summary, fold_error)]
            failures = [] if error is None else [error]
            for task_seconds, lines, _, task_error in done:
                seconds += task_seconds
                failures.extend(lines if task_error is None else [*lines, task_error])
            slow = gate is not None and seconds >= gate
            measured = "; ".join(failures[:4]) if failures else summary
            if slow and not failures:
                measured += f"; took {seconds:.2f}s"
            return CriterionResult(plan.__name__, not failures and not slow, measured,
                                   required, seconds)

        run.plan = plan
        CRITERIA[plan.__name__] = run
        for group in ("all", suite):
            SUITES[group] = (*SUITES.get(group, ()), plan.__name__)
        return run

    return register


def run_suite(names, map_tasks) -> list:
    """The CriterionResult of each criterion named, in order; map_tasks(run_task,
    tasks) returns the results of the tasks of every plan, in order."""
    runners = [CRITERIA[name] for name in names]
    plans = [_build(run.plan) for run in runners]
    tasks = [task for _, plan_tasks, _, _ in plans for task in plan_tasks]
    # criteria list their games shortest horizon first, so the map takes the list
    # from its end: the longest games start first and short ones fill in behind
    done = iter(map_tasks(run_task, tasks[::-1])[::-1])
    return [run(planned=planned, done=list(itertools.islice(done, len(planned[1]))))
            for run, planned in zip(runners, plans)]


def _within_bound(failures: list, label: str, spec: RunSpec, ledger: RegretLedger,
                  comparators=None) -> float:
    """Check regret <= the spec's stack bound at every comparator (by default
    those `run` reports for the spec), one failure per violation; returns the
    largest regret/bound over finite regrets under positive bounds (-inf when
    there is none)."""
    worst = -math.inf
    for i, (wc, _, r, b, ratio) in enumerate(spec.rows(ledger, comparators)):
        if not r <= b:
            failures.append(f"{label} comparator {comparator_label(wc, i)}: "
                            f"regret {r:.6g} > bound {b:.6g}")
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


def _summary(template: str, pick=max):
    """The fold that returns template.format(pick(values))."""
    return lambda failures, values: template.format(pick(values))


def _bettor_games():
    """(label, spec) of the nine games of the bettor hinted with the stream's bound."""
    for kind in ("constant", "alternating", "seeded_uniform"):
        for T in (100, 1000, 10_000):
            yield f"{kind} T={T}", RunSpec(algo="ons_hints", adversary=kind, seed=1, T=T)


def _bound_game(failures: list, label: str, spec: RunSpec, check_finite: bool = True) -> float:
    """The game's bound check at every comparator `run` reports for the spec,
    and its largest regret/bound."""
    return _within_bound(failures, label, spec, spec.play(check_finite))


def _wealth_game(failures: list, label: str, spec: RunSpec) -> float:
    """The leashed game's wealth and cap checks on its bettor, and the least
    wealth a bet from round 2 on was placed from."""
    adversary, leashed = spec.build()
    bettor = leashed.inner
    # the least wealth a bet from round 2 on is placed from; bets over the cap
    low, bad = None, 0

    def watch(t, w, g):
        nonlocal low, bad
        # builtin min's order: keep the first value, replace on a smaller one
        if t > 1 and (low is None or bettor.wealth < low):
            low = bettor.wealth
        if abs(bettor.v) > 0.5 / bettor.h:
            bad += 1

    run_game(leashed, adversary, spec.T, on_round=watch)
    # the wealth after each round: the next bet's, then the final one
    low = min(low, bettor.wealth)
    if not low > 0.0:
        failures.append(f"{label}: wealth reached {low}")
    if bad:
        failures.append(f"{label}: bet outside [-1/(2h), 1/(2h)] {bad} times")
    return low


@criterion(
    "coin",
    required="wealth > 0 and |v_t| <= 1/(2 h_t) exactly, every adversary kind, under 5 s",
    gate=5.0,
)
def wealth_positive_bets_clipped() -> tuple:
    """Wealth stays strictly positive and every bet respects the hint cap."""
    # only the seeded kinds consume the seed; the rest rerun identically
    tasks = [(_wealth_game, f"{kind}/seed{seed}", RunSpec(adversary=kind, seed=seed, T=10_000))
             for kind in KINDS for seed in (range(1, 11) if kind in SEEDED_KINDS else (1,))]
    return tasks, _summary(f"{len(tasks)} runs of T=10000: min wealth {{:.4g}}, 0 cap violations",
                           min)


@criterion("coin", required="regret <= guarantee with zero tolerance, T in {1e2,1e3,1e4}, comparators 0, +/-0.1, ..., +/-100")
def bettor_regret_within_bound() -> tuple:
    """Hinted bettor regret never exceeds its closed-form guarantee."""
    # the one-signed constant stream pushes wealth past float range near round
    # 1750; its late regrets are -inf and the comparison stays exact
    return ([(_bound_game, label, spec, False) for label, spec in _bettor_games()],
            _summary(f"{9 * len(SCALAR_COMPARATORS)} cells: max regret/bound = {{:.4g}}"))


def _log_wealth_game(failures: list, label: str, spec: RunSpec) -> float:
    """The game's betting-fraction regret check against the best fraction on
    the grid, and its regret minus the bound."""
    adversary, bettor = spec.build()
    bets = []  # (gradient, fraction wagered) of each round
    run_game(bettor, adversary, spec.T, check_finite=False,
             on_round=lambda t, w, g: bets.append((float(g), bettor.v)))
    gs, vs = zip(*bets)
    v_star = best_betting_fraction(gs, bettor.h, resolution=1e-4)
    reg = ons_inner_regret(gs, vs, v_star)
    cap = ons_regret_bound(spec.alpha, bettor.h, math.fsum(g * g for g in gs))
    if not reg <= cap + 1e-3:
        failures.append(f"{label}: log-loss regret {reg:.6g} > {cap:.6g} + 1e-3")
    return reg - cap


@criterion("coin", required="log-wealth regret vs best grid fraction <= alpha/(4 h^2) + 4.5 ln(1 + sum g^2/alpha) + 1e-3")
def inner_ons_within_log_bound() -> tuple:
    """Betting-fraction regret vs the best fixed fraction on an exhaustive grid."""
    return ([(_log_wealth_game, label, spec) for label, spec in _bettor_games()],
            _summary("max (regret - bound) = {:.4g} over 9 runs, grid step 1e-4"))


def _truncation_game(failures: list, label: str, spec: RunSpec, expect_finite: bool) -> float:
    """The game's truncation-overhead check at every comparator, and its
    largest finite overhead/range (-inf when there is none)."""
    worst = -math.inf
    adversary, wrapper = spec.build()
    wrapper.inner = inner = _SentRecorder(wrapper.inner)
    played = []
    ledger = run_game(wrapper, adversary, spec.T, check_finite=expect_finite,
                      on_round=lambda t, w, g: played.append((g, w)))
    if expect_finite and not math.isfinite(ledger.max_played_norm):
        failures.append(f"{label}: expected a finite run, played norm overflowed")
        return worst
    # exactly-zero truncation error charges nothing
    rows = [(g, sent, w) for (g, w), sent in zip(played, inner.sent) if g - sent != 0.0]
    for i, wc in enumerate(SCALAR_COMPARATORS):
        lhs = math.fsum((g - sent) * (w - wc) for g, sent, w in rows)
        rhs = ledger.max_norm * (ledger.max_played_norm + abs(wc))
        if not lhs <= rhs:
            failures.append(f"{label} comparator {comparator_label(wc, i)}: "
                            f"overhead {lhs} > {rhs}")
        elif math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0.0:
            worst = max(worst, lhs / rhs)
    return worst


@criterion("reductions", required="sum (g - g_sent)(w - comparator) <= max|g| * (max|w| + |comparator|), exactly")
def truncation_overhead_bounded() -> tuple:
    """Per-round truncation error, summed against any comparator, stays within range."""
    # one-signed streams at T=1e4 overflow wealth by design and are checked in
    # IEEE extended reals; the T=1500/5000 reruns keep both sides finite
    cells = (("spike", {}, 10_000, False), ("growing", {}, 10_000, False),
             ("spike", {"magnitude": 100.0}, 10_000, True), ("growing", {}, 1_500, True),
             ("spike", {}, 5_000, True))
    return ([(_truncation_game, f"{kind}{kw or ''} T={T}",
              RunSpec(algo="hintless", adversary=kind, T=T, **kw), expect_finite)
             for kind, kw, T, expect_finite in cells],
            _summary(f"max overhead/range = {{:.4g}} across {len(cells)} runs"))


@criterion(
    "reductions",
    required="regret <= composed guarantee, zero tolerance, every adversary kind, T in {1e3,1e4}, under 30 s",
    gate=30.0,
)
def leashed_regret_within_bound() -> tuple:
    """Full stack regret never exceeds the composed guarantee."""
    return ([(_bound_game, f"{kind} T={T}", RunSpec(adversary=kind, seed=1, T=T))
             for kind in KINDS for T in (1000, 10_000)],
            _summary(f"{len(KINDS) * 2 * len(SCALAR_COMPARATORS)} cells: "
                     "max regret/bound = {:.4g}"))


def _regret_at_one(failures: list, label: str, spec: RunSpec) -> float:
    """The game's regret at comparator 1."""
    return spec.play().regret(1.0)


@criterion("reductions", required="regret/T strictly decreasing through T = 1e2, 1e3, 1e4 and exponent <= 0.55 through 1e5")
def leashed_regret_sublinear() -> tuple:
    """Average regret shrinks with the horizon; growth exponent at most 0.55."""
    horizons = (100, 1000, 10_000, 100_000)

    def fold(failures: list, regrets: list) -> str:
        per_round = [r / T for r, T in zip(regrets, horizons)]
        decreasing = per_round[1] < per_round[0] and per_round[2] < per_round[1]
        slope = growth_exponent(horizons, regrets)
        summary = (f"regret/T = {per_round[0]:.4g}, {per_round[1]:.4g}, {per_round[2]:.4g} "
                   f"at T = 1e2, 1e3, 1e4; fitted exponent {slope:.3g}")
        if not (decreasing and slope <= 0.55):
            failures.append(summary)
        return summary

    return ([(_regret_at_one, f"constant T={T}", RunSpec(adversary="constant", T=T))
             for T in horizons], fold)


def _ball_game(failures: list, label: str, spec: RunSpec) -> float:
    """The game's bound check at 20 seeded unit comparators and the unit
    vector against the gradient sum, and its largest regret/bound."""
    ledger = spec.play()
    units = random_unit_vectors(spec.dim, 20, seed=7)
    gn = dual_norm(ledger.grad_sum)
    comps = units + [-ledger.grad_sum / gn] if gn > 0.0 else units
    return _within_bound(failures, label, spec, ledger, comps)


@criterion("ball", required="regret <= 2^{3/2} sqrt(sum ||g||^2), zero tolerance, d in {1,2,10}, T = 1e4")
def ball_regret_within_bound() -> tuple:
    """Unit-ball learner regret never exceeds its guarantee."""
    return ([(_ball_game, f"{kind} d={d}",
              RunSpec(algo="adagrad_ball", adversary=kind, dim=d, seed=2, T=10_000))
             for d in (1, 2, 10) for kind in ("seeded_uniform", "alternating", "adaptive_sign")],
            _summary("max regret/bound = {:.4g} over 9 runs x 21 comparators"))


def _lift_game(failures: list, label: str, spec: RunSpec) -> float:
    """The game's lift identity check at three comparators, and its largest
    identity gap."""
    worst = 0.0
    adversary, lift = spec.build()
    rows = []  # (g, w, x, y) of each round, as played
    run_game(lift, adversary, spec.T,
             on_round=lambda t, w, g: rows.append((g, w, lift.x, lift.y.copy())))
    g, w, x, y = (np.array(col) for col in zip(*rows))
    # s_t = <g_t, y_t>, the loss the lift hands its scalar learner
    s = row_dots(g, y)
    for m, u in zip((0.5, 3.0, 50.0), random_unit_vectors(spec.dim, 3, seed=11)):
        wc = m * u
        n = dual_norm(wc)
        un = wc / n
        lhs = math.fsum(row_dots(g, w - wc).tolist())
        scalar_part = math.fsum((s * (x - n)).tolist())
        direction_part = math.fsum(row_dots(g, y - un).tolist())
        gap = abs(lhs - (scalar_part + n * direction_part))
        worst = max(worst, gap)
        if gap > 1e-9:
            failures.append(f"{label} |comparator|={m:g}: identity gap {gap:.3g}")
    return worst


@criterion("reductions", required="regret = scalar regret at |comparator| + |comparator| * direction regret, to 1e-9 absolute")
def lift_identity_exact() -> tuple:
    """Dimension-lift regret splits exactly into scalar and direction parts."""
    return ([(_lift_game, f"{kind} d={d}",
              RunSpec(algo="leashed_dimfree", adversary=kind, dim=d, seed=3, T=1000))
             for d in (2, 10) for kind in ("seeded_uniform", "alternating")],
            _summary("max identity gap = {:.3g}"))


def _barrier_game(failures: list, kind: str, spec: RunSpec) -> None:
    """The game's barrier trace compared with that of its stream scaled by 1000."""
    adversary, learner = spec.build()
    b1, scaled = [], []

    def record(t, w, g):
        b1.append(learner.B)  # barrier in force for this round's projection
        scaled.append(1000.0 * g)

    run_game(learner, adversary, spec.T, on_round=record)
    b1.append(learner.B)
    # replay the recorded stream, not a rescaled adversary: adaptive_sign reads the point
    rescaled = spec.build()[1]
    b2 = []
    run_game(rescaled, SimpleNamespace(next_grad=lambda t, w: scaled[t - 1]), spec.T,
             on_round=lambda t, w, g: b2.append(rescaled.B))
    b2.append(rescaled.B)
    bad = sum(1 for x, y in zip(b1, b2) if x != y)
    if bad:
        failures.append(f"{kind}: {bad} of {len(b1)} barrier values differ")


@criterion("reductions", required="barrier traces for {g_t} and {1000 g_t} bit-identical, all adversary kinds, T = 1e3")
def barrier_scale_invariant() -> tuple:
    """Scaling a gradient stream by 1000 leaves the barrier trace bit-identical."""
    # generated magnitudes sit on the 2^-20 lattice, so the ledger sums and
    # maxima scale exactly and the barrier ratio divides out bit-for-bit
    T = 1000
    return ([(_barrier_game, kind, RunSpec(adversary=kind, seed=1, T=T)) for kind in KINDS],
            lambda *_: f"all {T + 1} barrier values bit-identical for every adversary kind")


def _conjugate_game(failures: list, label: str) -> float:
    """The brute-force conjugate of 20 seeded tuples checked against the
    closed-form cap, and the largest sup - cap."""
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
    return worst


@criterion("bounds", required="sup_x (theta x - f(x)) on a half-million-point grid <= closed form + 1e-6, 20 seeded tuples")
def conjugate_dominated() -> tuple:
    """Closed-form conjugate cap dominates the brute-force conjugate."""
    return [(_conjugate_game, "seeded tuples")], _summary(
        "max (brute-force sup - cap) = {:.4g} over 20 seeded tuples")


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


def _diameter_game(failures: list, label: str, spec: RunSpec) -> str:
    """The game's domain and bound checks, and the criterion's summary."""
    ledger = spec.play()
    reach = ledger.max_played_norm
    if not reach <= 1.0:
        failures.append(f"played point reached {reach!r} outside the unit diameter")
    worst = _within_bound(failures, label, spec, ledger)
    return f"max played point {reach:.6g} <= 1; max regret/bound = {worst:.4g}"


@criterion("reductions", required="max played point <= 1 exactly on the growing stream, T = 1e4; regret within the fixed-diameter guarantee")
def diameter_respected() -> tuple:
    """Fixed-diameter stack never leaves its domain and keeps its guarantee."""
    spec = RunSpec(algo="fixed_diameter", adversary="growing", D=1.0, T=10_000,
                   comparators="0,0.3,-0.3,1,-1")
    return [(_diameter_game, "growing", spec)], lambda failures, summaries: summaries[0]

