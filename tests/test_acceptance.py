"""Executable acceptance criteria, one pass/fail line each.

Run with -s to see the formatted lines; each test also asserts the verdict.
"""
import math

import pytest

from leashed import (CRITERIA, SUITES, AdversaryConfig, BoundParams, acceptance,
                     build_learner, format_result, run_suite)
from leashed.coin_betting import ONS_STEP, CoinBettor
from leashed.acceptance import wealth_positive_bets_clipped

BOUND_CRITERIA = ("bettor_regret_within_bound", "leashed_regret_within_bound",
                  "ball_regret_within_bound", "diameter_respected")


@pytest.mark.parametrize("name", list(CRITERIA), ids=list(CRITERIA))
def test_criterion(name):
    result = CRITERIA[name]()
    print(format_result(result))
    assert result.name == name
    assert result.passed, result.measured


def test_suites_reference_known_criteria():
    assert SUITES["all"] == tuple(CRITERIA)
    for names in SUITES.values():
        assert all(n in CRITERIA for n in names)


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("nope")


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
        self.t += 1


def test_criterion_catches_broken_clip():
    # sanity check that the first criterion has teeth: it must name the
    # loose cap, not fail for some other reason
    result = wealth_positive_bets_clipped(bettor_cls=BrokenClip)
    assert not result.passed
    assert "bet outside" in result.measured, result.measured


@pytest.fixture
def scratch_registry(monkeypatch):
    # criteria defined by a test register here, not in the shipped CRITERIA
    registry = {}
    monkeypatch.setattr(acceptance, "CRITERIA", registry)
    return registry


def test_runner_fails_a_criterion_past_its_gate(scratch_registry):
    @acceptance.criterion(required="anything", gate=0.0)
    def instant(failures):
        return "every check held"

    result = instant()
    assert scratch_registry == {"instant": instant}
    assert not result.passed
    assert result.measured.startswith("every check held; took ")


def test_runner_reports_the_first_four_failures(scratch_registry):
    @acceptance.criterion(required="anything", detail="six failures")
    def six_failures(failures):
        failures.extend(f"failure {i}" for i in range(6))
        return "unused summary"

    result = six_failures()
    assert not result.passed
    assert result.measured == "failure 0; failure 1; failure 2; failure 3"
    assert (result.name, result.required, result.detail) == ("six_failures", "anything",
                                                             "six failures")


def test_runner_records_a_raising_game():
    failures = []
    learner = build_learner("leashed", BoundParams())
    assert acceptance._play(failures, "growing", learner,
                            AdversaryConfig("growing", rate=2000.0), 5) is None
    assert failures == [
        "growing: GameDivergence: adversary produced a non-finite gradient at round 2"
    ]


@pytest.mark.parametrize("name", BOUND_CRITERIA)
def test_bound_criteria_have_teeth(name, monkeypatch):
    # every regret exceeds a bound of -inf, so the shared check must fail each cell
    monkeypatch.setattr(acceptance, "stack_bound", lambda *args, **kwargs: -math.inf)
    result = CRITERIA[name]()
    assert not result.passed
    assert "> bound -inf" in result.measured
