"""Executable acceptance checks for every guarantee the package makes.

Every criterion is a plan(), registered by `criterion`, that returns
(tasks, fold). A task is a (fn, label, *args) tuple whose module-level
fn(failures, label, *args) plays one independent game, appends one line to
`failures` for each check that does not hold and returns one small value;
fold(failures, values) gets those values in task order and returns the
summary that PASS reports. A check that plays no game of its own, such as a
brute-force oracle, is a plan of one task. A game lets what it raises
propagate. Each game is the pair `stacks.RunSpec.build` makes (epsilon =
alpha = k = g0 = 1 and p = 1/2 unless the spec sets them), played by
`RunSpec.play_through` (or `play`, its one-horizon case), or by `run_game`
where a check watches its rounds.

A task that checks a stream at its horizons is (fn, label, spec, horizons):
spec is the stream at its longest horizon and horizons increase (the
truncation check pairs each with whether the game must stay finite to it).
fn plays the stream once, by `RunSpec.play_through` or by `run_game`
continued from its ledger, checks each horizon as the game reaches it,
labelled "<label> T=<T>", and returns a list with a value per horizon: the
learners never see T, so that is the check of a separate game of each
horizon, bit for bit. The wealth, lift, barrier and diameter games, each
checked at its spec's T alone, are (fn, label, spec). Every bound criterion
scores the comparators `run` reports for its spec, through `RunSpec.rows`.

`run_suite` is the one runner, as its docstring describes; a registered
criterion called directly runs alone through it, its tasks in this process.
CRITERIA and SUITES, shared by the verify command and the tests, list the
criteria by name and by suite.

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
                          certified_window, linspace_points, random_unit_vectors)
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


def criterion(suite: str, required: str, gate: Optional[float] = None):
    """Register plan() in CRITERIA under its name, and that name in SUITES
    under "all" and suite, with gate its wall-clock limit in seconds. The
    registered callable, which replaces plan in the module, takes no
    arguments, runs the criterion alone through run_suite with its tasks in
    this process, and carries plan, required and gate as attributes."""
    def register(plan):
        name = plan.__name__

        @functools.wraps(plan)
        def run() -> CriterionResult:
            return run_suite((name,), lambda fn, tasks: list(map(fn, tasks)))[0]

        run.plan, run.required, run.gate = plan, required, gate
        CRITERIA[name] = run
        for group in ("all", suite):
            SUITES[group] = (*SUITES.get(group, ()), name)
        return run

    return register


def run_suite(names, map_tasks) -> list:
    """The CriterionResult of each criterion named, in order: the one path
    every criterion runs by. Each plan is built here, once; map_tasks(run_task,
    tasks) gets every plan's tasks in one list, last task first, and returns
    their results in that order. A criterion's results, back in plan order,
    fold here. Its failures are its tasks' lines, then the fold's; an
    exception a plan, task or fold raises is one line ("<label>: <Type>:
    <message>" for a task), and nothing folds after a plan or task raised.
    Its seconds sum its plan's, tasks' and fold's, wherever they ran. It
    reports its first four failures in place of the summary and fails when
    its seconds reach its gate, adding "; took X s" when every check held."""
    criteria = [CRITERIA[name] for name in names]
    # (seconds, (tasks, fold), error) of each plan; one that raised has neither
    plans = [(seconds, built or ((), None), error)
             for seconds, built, error in (_timed(run.plan) for run in criteria)]
    tasks = [task for _, (plan_tasks, _), _ in plans for task in plan_tasks]
    results = iter(map_tasks(run_task, tasks[::-1])[::-1])
    return [_result(name, run, plan, list(itertools.islice(results, len(plan[1][0]))))
            for name, run, plan in zip(names, criteria, plans)]


def _result(name: str, run, plan: tuple, task_results: list) -> CriterionResult:
    """The criterion's result from plan, the (seconds, (tasks, fold), error)
    of its plan(), and task_results, the run_task results of its tasks in
    plan order, as run_suite describes."""
    seconds, (_, fold), error = plan
    summary = ""
    if error is None and all(task_error is None for *_, task_error in task_results):
        lines: list = []
        fold_seconds, summary, fold_error = _timed(
            fold, lines, [value for _, _, value, _ in task_results])
        task_results = [*task_results, (fold_seconds, lines, summary, fold_error)]
    failures = [] if error is None else [error]
    for task_seconds, lines, _, task_error in task_results:
        seconds += task_seconds
        failures.extend(lines if task_error is None else [*lines, task_error])
    slow = run.gate is not None and seconds >= run.gate
    measured = "; ".join(failures[:4]) if failures else summary
    if slow and not failures:
        measured += f"; took {seconds:.2f}s"
    return CriterionResult(name, not failures and not slow, measured, run.required, seconds)


def _within_bound(failures: list, label: str, spec: RunSpec, ledger: RegretLedger) -> tuple:
    """Check regret <= the spec's stack bound at every comparator `run`
    reports for the spec, one failure per violation; returns the largest
    regret/bound over finite regrets under positive bounds (-inf when there
    is none) and the number of comparators scored."""
    worst, rows = -math.inf, list(spec.rows(ledger))
    for i, (wc, _, r, b, ratio) in enumerate(rows):
        if not r <= b:
            failures.append(f"{label} comparator {comparator_label(wc, i)}: "
                            f"regret {r:.6g} > bound {b:.6g}")
        elif math.isfinite(r) and ratio is not None:
            worst = max(worst, ratio)
    return worst, len(rows)


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


def _bound_games(failures: list, label: str, spec: RunSpec, horizons: tuple,
                 check_finite: bool = True) -> list:
    """The bound check at every comparator `run` reports, labelled "<label>
    T=<T>", at each of horizons of the one game spec.play_through plays:
    each horizon's largest regret/bound and number of comparators scored."""
    return [_within_bound(failures, f"{label} T={at.T}", at, ledger)
            for at, ledger in spec.play_through(horizons, check_finite)]


def _cells(failures: list, streams: list) -> str:
    """The bound criteria's fold over every stream's list of (worst ratio,
    comparators scored), as _bound_games returns it."""
    worsts, counts = zip(*itertools.chain.from_iterable(streams))
    return f"{sum(counts)} cells: max regret/bound = {max(worsts):.4g}"


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


# the coin criteria's streams of the bettor hinted with the stream's bound,
# each checked at every horizon
_COIN_KINDS = ("constant", "alternating", "seeded_uniform")
_COIN_HORIZONS = (100, 1000, 10_000)


def _coin_tasks(fn, *args) -> list:
    """(fn, kind, spec, horizons, *args) of each coin stream."""
    return [(fn, kind, RunSpec(algo="ons_hints", adversary=kind, seed=1, T=_COIN_HORIZONS[-1]),
             _COIN_HORIZONS, *args) for kind in _COIN_KINDS]


@criterion("coin", required="regret <= guarantee with zero tolerance, T in {1e2,1e3,1e4}, comparators 0, +/-0.1, ..., +/-100")
def bettor_regret_within_bound() -> tuple:
    """Hinted bettor regret never exceeds its closed-form guarantee."""
    # the one-signed constant stream pushes wealth past float range near round
    # 1750; its late regrets are -inf and the comparison stays exact
    return _coin_tasks(_bound_games, False), _cells


def _log_wealth_game(failures: list, label: str, spec: RunSpec, horizons: tuple) -> list:
    """The betting-fraction regret check against the best fraction on the
    grid at each of horizons, from one game continued from each to the next;
    its regret minus the bound at each."""
    adversary, bettor = spec.build()
    bets, ledger, gaps = [], None, []  # bets: (gradient, fraction wagered) of each round
    for T in horizons:
        ledger = run_game(bettor, adversary, T, check_finite=False, ledger=ledger,
                          on_round=lambda t, w, g: bets.append((float(g), bettor.v)))
        gs, vs = zip(*bets)
        v_star = best_betting_fraction(gs, bettor.h, resolution=1e-4)
        reg = ons_inner_regret(gs, vs, v_star)
        cap = ons_regret_bound(spec.alpha, bettor.h, math.fsum(g * g for g in gs))
        if not reg <= cap + 1e-3:
            failures.append(f"{label} T={T}: log-loss regret {reg:.6g} > {cap:.6g} + 1e-3")
        gaps.append(reg - cap)
    return gaps


@criterion("coin", required="log-wealth regret vs best grid fraction <= alpha/(4 h^2) + 4.5 ln(1 + sum g^2/alpha) + 1e-3")
def inner_ons_within_log_bound() -> tuple:
    """Betting-fraction regret vs the best fixed fraction on an exhaustive grid."""
    return (_coin_tasks(_log_wealth_game),
            _summary("max (regret - bound) = {:.4g} over 9 runs, grid step 1e-4",
                     lambda gaps: max(itertools.chain.from_iterable(gaps))))


def _truncation_game(failures: list, label: str, spec: RunSpec, segments: tuple) -> list:
    """The truncation-overhead check at every comparator after each (T,
    expect_finite) of segments, T increasing, of one game continued from each
    T to the next, checking finiteness where it is expected; the largest
    finite overhead/range at each T (-inf when there is none)."""
    adversary, wrapper = spec.build()
    wrapper.inner = inner = _SentRecorder(wrapper.inner)
    played, ledger, worsts = [], None, []
    for T, expect_finite in segments:
        ledger = run_game(wrapper, adversary, T, check_finite=expect_finite, ledger=ledger,
                          on_round=lambda t, w, g: played.append((g, w)))
        worsts.append(_overhead(failures, f"{label} T={T}", ledger, zip(played, inner.sent),
                                expect_finite))
    return worsts


def _overhead(failures: list, label: str, ledger: RegretLedger, rounds,
              expect_finite: bool) -> float:
    """The truncation-overhead check at every comparator of the game whose
    ((g, w), sent) rounds the ledger accounts for, and its largest finite
    overhead/range (-inf when there is none)."""
    worst = -math.inf
    if expect_finite and not math.isfinite(ledger.max_played_norm):
        failures.append(f"{label}: expected a finite run, played norm overflowed")
        return worst
    # exactly-zero truncation error charges nothing
    rows = [(g, sent, w) for (g, w), sent in rounds if g - sent != 0.0]
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
    # IEEE extended reals; their checks at T=1500/5000 keep both sides finite
    streams = (("spike", {}, ((5_000, True), (10_000, False))),
               ("growing", {}, ((1_500, True), (10_000, False))),
               ("spike", {"magnitude": 100.0}, ((10_000, True),)))
    runs = sum(len(segments) for *_, segments in streams)
    return ([(_truncation_game, f"{kind}{kw or ''}",
              RunSpec(algo="hintless", adversary=kind, T=segments[-1][0], **kw), segments)
             for kind, kw, segments in streams],
            _summary(f"max overhead/range = {{:.4g}} across {runs} runs",
                     lambda worsts: max(itertools.chain.from_iterable(worsts))))


@criterion(
    "reductions",
    required="regret <= composed guarantee, zero tolerance, every adversary kind, T in {1e3,1e4}, under 30 s",
    gate=30.0,
)
def leashed_regret_within_bound() -> tuple:
    """Full stack regret never exceeds the composed guarantee."""
    return ([(_bound_games, kind, RunSpec(adversary=kind, seed=1, T=10_000), (1000, 10_000))
             for kind in KINDS], _cells)


def _regret_at_one(failures: list, label: str, spec: RunSpec, horizons: tuple) -> list:
    """The game's regret at comparator 1 at each of horizons, increasing,
    from the one game RunSpec.play_through plays."""
    return [ledger.regret(1.0) for _, ledger in spec.play_through(horizons)]


@criterion("reductions", required="regret/T strictly decreasing through T = 1e2, 1e3, 1e4 and exponent <= 0.55 through 1e5")
def leashed_regret_sublinear() -> tuple:
    """Average regret shrinks with the horizon; growth exponent at most 0.55."""
    horizons = (100, 1000, 10_000, 100_000)

    def fold(failures: list, values: list) -> str:
        regrets, = values
        per_round = [r / T for r, T in zip(regrets, horizons)]
        decreasing = per_round[1] < per_round[0] and per_round[2] < per_round[1]
        slope = growth_exponent(horizons, regrets)
        summary = (f"regret/T = {per_round[0]:.4g}, {per_round[1]:.4g}, {per_round[2]:.4g} "
                   f"at T = 1e2, 1e3, 1e4; fitted exponent {slope:.3g}")
        if not (decreasing and slope <= 0.55):
            failures.append(summary)
        return summary

    return ([(_regret_at_one, "constant", RunSpec(adversary="constant", T=horizons[-1]),
              horizons)], fold)


@criterion("ball", required="regret <= 2^{3/2} sqrt(sum ||g||^2), zero tolerance, d in {1,2,10}, T = 1e4")
def ball_regret_within_bound() -> tuple:
    """Unit-ball learner regret never exceeds its guarantee."""
    # regret is affine in u and the bound does not depend on u, so the worst
    # comparator in the ball is -sum g / |sum g|, which the default set holds
    return ([(_bound_games, f"{kind} d={d}",
              RunSpec(algo="adagrad_ball", adversary=kind, dim=d, seed=2, T=10_000), (10_000,))
             for d in (1, 2, 10) for kind in ("seeded_uniform", "alternating", "adaptive_sign")],
            _cells)


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
    for i in range(20):
        a = 0.1 + 9.9 * float(gen.random())
        b = 0.1 + 9.9 * float(gen.random())
        c = 10.0 * float(gen.random())
        theta = -100.0 + 200.0 * float(gen.random())
        sup = _conjugate_sup(a, b, c, theta)
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


# the brute-force conjugate's grid, np.linspace(-_CONJ_X, _CONJ_X, _CONJ_N) at
# step 5e-4; [-120, 120] is wide enough to contain every maximizer in range
_CONJ_X, _CONJ_N = 120.0, 480_001


def _conjugate_sup(a: float, b: float, c: float, theta: float) -> float:
    """max of f(x) = theta x - a exp(b x^2 / (|x| + c)) over the grid, nan
    if f is nan anywhere on it, as one evaluation of the whole grid gives it.

    f is concave for a > 0, b >= 0, c >= 0, since x^2 / (|x| + c) is convex,
    so certified_window finds the maximum from a window of the grid, with
    the error bound E(v) = 2**-41 (|v| + |theta| X), X = 120, at a point
    that computes f = -v. Error model: a product, quotient, sum or
    difference rounds with relative error at most u = 2**-53 and exp with at
    most 4 ulp (relative 8u); _conjugate_scale keeps the inputs where no
    step underflows, and every nonzero grid point has |x| >= 5e-4.

    (i) The exponent y = b x^2 / (|x| + c) takes four roundings (|x| and the
    x = 0 branch are exact), so it computes y (1 + eta), |eta| <= gamma_4 =
    4u / (1 - 4u). Where exp(y) computes finite, y < 711, so exp(y eta) is
    within 3.16e-13 of 1, and the computed q = a exp(y) is Q (1 + rho),
    |rho| < 3.18e-13. p = theta x computes P (1 + d), f computes (p - q)(1
    + d'), so |computed - f| <= u |computed| / (1 - u) + u |P| + |rho| Q,
    and Q <= (1 + |rho|)(|P| + (1 + u) |computed|) with |P| <= |theta| X:
    |computed - f| <= 3.3e-13 (|computed| + |theta| X). A point where exp(y)
    or q overflows computes -inf, and E(inf) = inf.
    (ii) The same bound in the exact value is 3.3e-13 (1 + 4e-13)(|f| +
    |theta| X), and t + k |t| increases with t for k < 1, so a point whose
    exact f is below that of a point computing w computes at most w + 2.1 *
    3.3e-13 (|w| + |theta| X), within 2 E(-w): 2**-41 = 4.55e-13 leaves
    that slack.
    """
    def losses(idx: np.ndarray) -> np.ndarray:
        xs = linspace_points(-_CONJ_X, _CONJ_X, _CONJ_N, idx)
        absx = np.abs(xs)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            expo = b * np.where(absx > 0.0, xs * xs / (absx + c), 0.0)
            vals = theta * xs - a * np.exp(expo)
        return np.negative(vals, out=vals)

    scale = _conjugate_scale(a, b, c, theta)
    _, neg_f = certified_window(_CONJ_N, losses, lambda v: 2.0 ** -41 * (abs(v) + scale))
    return -float(neg_f.min())


def _conjugate_scale(a: float, b: float, c: float, theta: float) -> float:
    """|theta| X, the additive scale of the conjugate's error bound, where
    that bound holds: a in [2**-900, 2**900], b and c in [0, 2**900], theta 0
    or of magnitude in [2**-900, 2**900]; else inf, which no window's
    certificate clears, so the search falls back to the whole grid."""
    lo, hi = 2.0 ** -900, 2.0 ** 900
    if (lo <= a <= hi and 0.0 <= b <= hi and 0.0 <= c <= hi
            and (theta == 0.0 or lo <= abs(theta) <= hi)):
        return abs(theta) * _CONJ_X
    return math.inf


def _diameter_game(failures: list, label: str, spec: RunSpec) -> str:
    """The game's domain and bound checks, and the criterion's summary."""
    ledger = spec.play()
    reach = ledger.max_played_norm
    if not reach <= 1.0:
        failures.append(f"played point reached {reach!r} outside the unit diameter")
    worst, _ = _within_bound(failures, label, spec, ledger)
    return f"max played point {reach:.6g} <= 1; max regret/bound = {worst:.4g}"


@criterion("reductions", required="max played point <= 1 exactly on the growing stream, T = 1e4; regret within the fixed-diameter guarantee")
def diameter_respected() -> tuple:
    """Fixed-diameter stack never leaves its domain and keeps its guarantee."""
    spec = RunSpec(algo="fixed_diameter", adversary="growing", D=1.0, T=10_000,
                   comparators=(0.0, 0.3, -0.3, 1.0, -1.0))
    return [(_diameter_game, "growing", spec)], lambda failures, summaries: summaries[0]

