"""Executable acceptance criteria, one pass/fail line each.

Run with -s to see the formatted lines; each test also asserts the verdict.
"""
import math
import pickle
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from leashed import CRITERIA, KINDS, SUITES, acceptance, format_result, reductions, stacks
from leashed.coin_betting import ONS_STEP, CoinBettor
from leashed.acceptance import wealth_positive_bets_clipped

BOUND_CRITERIA = ("bettor_regret_within_bound", "leashed_regret_within_bound",
                  "ball_regret_within_bound", "diameter_respected")


# what each criterion measures; a change that keeps every game and oracle
# bit-identical keeps these strings
MEASURED = {
    "wealth_positive_bets_clipped": "26 runs of T=10000: min wealth 0.0008414, 0 cap violations",
    "bettor_regret_within_bound": "81 cells: max regret/bound = 0.9998",
    "inner_ons_within_log_bound": "max (regret - bound) = -15.2 over 9 runs, grid step 1e-4",
    "truncation_overhead_bounded": "max overhead/range = 5.961e-182 across 5 runs",
    "leashed_regret_within_bound": "144 cells: max regret/bound = 0.3979",
    "leashed_regret_sublinear": ("regret/T = -7.532, -22.06, -67.66 at T = 1e2, 1e3, 1e4; "
                                 "fitted exponent 0"),
    "ball_regret_within_bound": "99 cells: max regret/bound = 0.4964",
    "lift_identity_exact": "max identity gap = 2.63e-13",
    "barrier_scale_invariant": "all 1001 barrier values bit-identical for every adversary kind",
    "conjugate_dominated": "max (brute-force sup - cap) = -13.24 over 20 seeded tuples",
    "diameter_respected": "max played point 1 <= 1; max regret/bound = 2.721e-05",
}


@pytest.mark.parametrize("name", list(CRITERIA), ids=list(CRITERIA))
def test_criterion(name):
    result = CRITERIA[name]()
    print(format_result(result))
    assert result.name == name
    assert result.passed, result.measured
    assert result.measured == MEASURED[name]


def test_suites_reference_known_criteria():
    assert SUITES["all"] == tuple(CRITERIA)
    for names in SUITES.values():
        assert all(n in CRITERIA for n in names)
    # registration builds each suite, "all" first, names in registration order
    assert list(SUITES.items()) == [
        ("all", tuple(CRITERIA)),
        ("coin", ("wealth_positive_bets_clipped", "bettor_regret_within_bound",
                  "inner_ons_within_log_bound")),
        ("reductions", ("truncation_overhead_bounded", "leashed_regret_within_bound",
                        "leashed_regret_sublinear", "lift_identity_exact",
                        "barrier_scale_invariant", "diameter_respected")),
        ("ball", ("ball_regret_within_bound",)),
        ("bounds", ("conjugate_dominated",)),
    ]


class BrokenClip(CoinBettor):
    """Deliberately wrong bettor: the fraction cap is 10x too loose."""

    def update(self, g, h_next=None):
        g = float(g)
        h_next = self.h if h_next is None else float(h_next)
        if abs(g) > self.h:
            raise ValueError("gradient exceeds hint")
        if h_next < self.h:
            raise ValueError("hints must be nondecreasing")
        w = self.v * self.wealth
        self.wealth -= g * w
        z = g / (1.0 - g * self.v)
        self.A += z * z
        cap = 5.0 / h_next
        self.v = max(min(self.v - ONS_STEP * z / self.A, cap), -cap)
        self.h = h_next


def test_criterion_catches_broken_clip(monkeypatch):
    # sanity check that the first criterion has teeth: it must name the
    # loose cap, not fail for some other reason
    monkeypatch.setattr(stacks, "CoinBettor", BrokenClip)
    result = wealth_positive_bets_clipped()
    assert not result.passed
    assert "bet outside" in result.measured, result.measured


def test_barrier_criterion_catches_a_barrier_one_ulp_off(monkeypatch):
    # only the stream scaled by 1000 carries gradients of 1000 or more, from
    # round 1 on for the first four kinds, so every barrier after the first moves
    real = reductions.Leashed.update

    def update(self, g):
        real(self, g)
        if abs(g) >= 1000.0:
            self.B = math.nextafter(self.B, math.inf)

    monkeypatch.setattr(reductions.Leashed, "update", update)
    result = CRITERIA["barrier_scale_invariant"]()
    assert not result.passed
    assert result.measured == "; ".join(f"{kind}: 1000 of 1001 barrier values differ"
                                        for kind in KINDS[:4])


def test_truncation_criterion_catches_a_wrapper_that_sends_zero(monkeypatch):
    # the hint still rises to every magnitude seen, but the gradient sent is
    # 0, so the whole gradient counts as truncation error; Leashed has its own
    # update, so only the hintless stack is broken
    def update(self, g):
        self.h = max(self.h, abs(g))
        self.inner.update(0.0, self.h)

    monkeypatch.setattr(reductions.Truncation, "update", update)
    result = CRITERIA["truncation_overhead_bounded"]()
    assert not result.passed
    # the spike stream is checked at T = 5000, then played on to T = 10000
    assert result.measured.startswith(
        "spike T=5000 comparator -0.1: overhead 950.0 > 1.0"), result.measured


@pytest.fixture
def scratch_registry(monkeypatch):
    # criteria defined by a test register here, not in the shipped CRITERIA
    # and SUITES
    registry = {}
    monkeypatch.setattr(acceptance, "CRITERIA", registry)
    monkeypatch.setattr(acceptance, "SUITES", {})
    return registry


def test_runner_fails_a_criterion_past_its_gate(scratch_registry):
    @acceptance.criterion("scratch", required="anything", gate=0.0)
    def instant():
        return [], lambda failures, values: "every check held"

    result = instant()
    assert scratch_registry == {"instant": instant}
    assert acceptance.SUITES == {"all": ("instant",), "scratch": ("instant",)}
    assert not result.passed
    assert result.measured.startswith("every check held; took ")


def _echo_game(failures, label, value, *lines):
    failures.extend(lines)
    return value


def _sqrt_game(failures, label, x):
    return math.sqrt(x)


def test_runner_reports_the_first_four_failures(scratch_registry):
    def fold(failures, values):
        failures.extend(f"failure {i}" for i in range(3, 6))
        return "unused summary"

    @acceptance.criterion("scratch", required="anything")
    def six_failures():
        # the tasks' lines in task order, then the fold's
        return [(_echo_game, "one", 1.0, "failure 0", "failure 1"),
                (_echo_game, "two", 2.0, "failure 2")], fold

    result = six_failures()
    assert not result.passed
    assert result.measured == "failure 0; failure 1; failure 2; failure 3"
    assert (result.name, result.required) == ("six_failures", "anything")


def test_runner_adds_the_seconds_of_tasks_run_elsewhere(scratch_registry):
    @acceptance.criterion("scratch", required="anything", gate=1.0)
    def two_games():
        return ([(_echo_game, "one", 1.0), (_echo_game, "two", 2.0)],
                lambda failures, values: f"values {values}")

    assert (two_games.plan, two_games.required, two_games.gate) == (
        two_games.__wrapped__, "anything", 1.0)
    here = two_games()
    assert here.passed and here.measured == "values [1.0, 2.0]" and here.seconds < 1.0
    # results of tasks that ran in workers, as (seconds, failures, value, error),
    # in the order the map is handed the tasks: the last first
    [elsewhere] = acceptance.run_suite(
        ("two_games",), lambda fn, tasks: [(0.5, [], 4.0, None), (0.75, [], 3.0, None)])
    assert not elsewhere.passed and elsewhere.seconds >= 1.25
    assert elsewhere.measured.startswith("values [3.0, 4.0]; took ")


def test_run_suite_sends_one_task_list_last_task_first(scratch_registry):
    @acceptance.criterion("scratch", required="anything")
    def first():
        return ([(_echo_game, "a", 1.0), (_echo_game, "b", 2.0)],
                lambda failures, values: f"first folded {values}")

    @acceptance.criterion("scratch", required="anything")
    def second():
        return ([(_echo_game, "c", 3.0), (_echo_game, "d", 4.0), (_echo_game, "e", 5.0)],
                lambda failures, values: f"second folded {values}")

    handed = []

    def recording_map(fn, tasks):
        handed.append((fn, tasks))
        return list(map(fn, tasks))

    results = acceptance.run_suite(("first", "second"), recording_map)
    assert handed == [(acceptance.run_task, [(_echo_game, label, value) for label, value in
                                             zip("edcba", (5.0, 4.0, 3.0, 2.0, 1.0))])]
    # each criterion folds its own values, in plan order
    assert [(r.name, r.passed, r.measured) for r in results] == [
        ("first", True, "first folded [1.0, 2.0]"),
        ("second", True, "second folded [3.0, 4.0, 5.0]")]


def test_runner_counts_the_plan_build_toward_the_gate(scratch_registry):
    @acceptance.criterion("scratch", required="anything", gate=0.04)
    def slow_plan():
        time.sleep(0.05)
        return [(_echo_game, "one", 1.0)], lambda failures, values: "every check held"

    result = slow_plan()
    assert not result.passed and result.seconds >= 0.05
    assert result.measured.startswith("every check held; took ")


def test_runner_records_what_a_plan_task_or_fold_raises(scratch_registry):
    @acceptance.criterion("scratch", required="anything")
    def plan():
        raise ValueError("no fraction on the grid")

    def unreachable(failures, values):
        raise AssertionError("the fold runs only when every task returned")

    @acceptance.criterion("scratch", required="anything")
    def games():
        return [(_echo_game, "one", 1.0, "game 1 failed"), (_sqrt_game, "root", -1.0),
                (_echo_game, "two", 2.0)], unreachable

    @acceptance.criterion("scratch", required="anything")
    def fold():
        # no games: nothing to fit
        return [], lambda failures, xs: f"slope {np.polyfit(xs, xs, 1)[0]:g}"

    # a plan that raises has no tasks to send
    handed = []
    [raised] = acceptance.run_suite(("plan",), lambda fn, tasks: handed.append(tasks) or [])
    assert handed == [[]]
    assert raised.measured == "ValueError: no fraction on the grid"
    assert plan().measured == "ValueError: no fraction on the grid"
    # the raising task's line, labelled, follows the earlier tasks' lines
    assert games().measured == "game 1 failed; root: ValueError: math domain error"
    result = fold()
    assert not result.passed and result.measured.startswith("TypeError: ")


def test_runner_records_a_raising_game():
    spec = stacks.RunSpec(adversary="growing", rate=2000.0, T=5)
    _, failures, value, error = acceptance.run_task((acceptance._bound_games, "growing", spec,
                                                     (5,)))
    assert (failures, value) == ([], None)
    assert error == "growing: GameDivergence: adversary produced a non-finite gradient at round 2"


@pytest.mark.parametrize("name", list(CRITERIA), ids=list(CRITERIA))
def test_every_game_task_is_labelled_and_picklable(name):
    # the worker pool sends each task to a process, and run_task names a
    # raising task by its label
    tasks, fold = CRITERIA[name].plan()
    assert tasks and callable(fold)
    for task in tasks:
        fn, label, *_ = task
        assert callable(fn) and isinstance(label, str)
        pickle.dumps(task)


@pytest.mark.parametrize("name", ["bettor_regret_within_bound", "inner_ons_within_log_bound",
                                  "leashed_regret_within_bound", "leashed_regret_sublinear",
                                  "truncation_overhead_bounded"])
def test_each_stream_is_one_game(name, monkeypatch):
    # a task (fn, label, spec, horizons) checks its stream at every horizon
    # from one game continued from its ledger, and plays each round once
    calls = []  # (fresh game, first round, last round) of each run_game call

    def counted(real):
        def run(learner, adversary, T, *args, ledger=None, **kwargs):
            calls.append((ledger is None, 1 if ledger is None else len(ledger) + 1, T))
            return real(learner, adversary, T, *args, ledger=ledger, **kwargs)
        return run

    monkeypatch.setattr(stacks, "run_game", counted(stacks.run_game))
    monkeypatch.setattr(acceptance, "run_game", counted(acceptance.run_game))
    tasks, _ = CRITERIA[name].plan()
    for task in tasks:
        _, label, spec, horizons, *_ = task
        # the truncation check's horizons carry whether the game stays finite
        Ts = [h[0] if isinstance(h, tuple) else h for h in horizons]
        assert Ts == sorted(set(Ts)) and spec.T == Ts[-1], label
        calls.clear()
        _, failures, _, error = acceptance.run_task(task)
        assert (failures, error) == ([], None), label
        assert [fresh for fresh, *_ in calls].count(True) == 1, label
        assert sum(T - first + 1 for _, first, T in calls) == Ts[-1], label


@pytest.mark.parametrize("name", BOUND_CRITERIA)
def test_bound_criteria_have_teeth(name, monkeypatch):
    # every regret exceeds a bound of -inf, so the shared check must fail each cell
    monkeypatch.setattr(stacks, "stack_bound", lambda *args, **kwargs: -math.inf)
    result = CRITERIA[name]()
    assert not result.passed
    assert "> bound -inf" in result.measured
    if name == "ball_regret_within_bound":
        # a scalar comparator is named by its value, a vector one as sweep.csv names it
        assert result.measured.startswith("seeded_uniform d=1 T=10000 comparator 0: regret ")
        failures = []
        acceptance._bound_games(failures, "seeded_uniform d=2", stacks.RunSpec(
            algo="adagrad_ball", adversary="seeded_uniform", dim=2, seed=2, T=100), (100,))
        assert failures[0].startswith("seeded_uniform d=2 T=100 comparator |w|=0#0: regret ")
        assert failures[1].startswith("seeded_uniform d=2 T=100 comparator |w|=0.1#1: regret ")


def full_width_sup(a, b, c, theta):
    """The conjugate grid's sup as first evaluated, over all 480,001 points at once."""
    xs = np.linspace(-120.0, 120.0, 480_001)
    absx = np.abs(xs)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        expo = b * np.where(absx > 0.0, xs * xs / (absx + c), 0.0)
        vals = theta * xs - a * np.exp(expo)
    return float(np.max(vals))


def test_blocked_conjugate_sup_equals_the_full_width_grid():
    gen = np.random.default_rng(2024)
    # the criterion's ranges, the edge c = 0, and a NaN that must propagate
    tuples = [(0.1 + 9.9 * gen.random(), 0.1 + 9.9 * gen.random(), 10.0 * gen.random(),
               -100.0 + 200.0 * gen.random()) for _ in range(30)]
    tuples += [(1.0, 1.0, 0.0, 2.0), (1.0, 1.0, 1.0, math.nan)]
    for a, b, c, theta in tuples:
        got = acceptance._conjugate_sup(a, b, c, theta)
        want = full_width_sup(a, b, c, theta)
        assert got == want or (math.isnan(got) and math.isnan(want)), (a, b, c, theta)


@pytest.mark.parametrize("a, b, c, theta", [
    (1.0, 1e3, 0.0, 2.0),     # exp overflows to inf wherever |x| > 0.71
    (1.0, 1e3, 0.0, -60.0),
    (2.5, 1.5, 3.0, 0.0),
    (1.0, 1.0, 1.0, math.nan),
    (1e-310, 1.0, 1.0, 2.0),  # below the error model's range: the whole grid
])
def test_conjugate_sup_equals_the_full_width_grid_at_the_edges_of_its_model(a, b, c, theta):
    got, want = acceptance._conjugate_sup(a, b, c, theta), full_width_sup(a, b, c, theta)
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("a, b, c, theta", [(1.0, 1.0, 0.0, 2.0), (3.7, 0.4, 6.1, -42.0),
                                            (0.2, 9.5, 0.5, 99.0), (2.5, 1.5, 3.0, 0.0)])
def test_conjugate_error_bound_holds_against_a_50_digit_reference(a, b, c, theta):
    xs = np.linspace(-120.0, 120.0, 480_001)[::4_000]
    absx = np.abs(xs)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = theta * xs - a * np.exp(b * np.where(absx > 0.0, xs * xs / (absx + c), 0.0))
    scale = acceptance._conjugate_scale(a, b, c, theta)
    with localcontext() as ctx:
        ctx.prec = 50
        for x, val in zip(xs, vals):
            if not math.isfinite(val):
                continue
            x = Decimal(float(x))
            expo = Decimal(b) * x * x / (abs(x) + Decimal(c)) if x else Decimal(0)
            exact = Decimal(theta) * x - Decimal(a) * expo.exp()
            assert abs(Decimal(float(val)) - exact) <= Decimal(2.0 ** -41 * (abs(float(val)) + scale))


def test_conjugate_criterion_peaks_below_a_megabyte():
    # a first call in a process also imports what seeding PCG64 needs, about 1 MB
    CRITERIA["conjugate_dominated"]()
    tracemalloc.start()
    try:
        assert CRITERIA["conjugate_dominated"]().passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
