"""Named stack assembly and guarantee dispatch."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leashed
from leashed import (
    ALGOS,
    KINDS,
    AdaGradBall,
    BoundParams,
    CoinBettor,
    DimFreeLift,
    GameDivergence,
    Leashed,
    RegretLedger,
    StreamStats,
    Truncation,
    ball_regret_bound,
    bettor_bound,
    build_learner,
    fixed_diameter_bound,
    full_stack_bound,
    hintless_bound,
    stack_bound,
)
from leashed.core import dual_norm, holder, run_game
from leashed.stacks import RunSpec, growth_exponent

PARAMS = BoundParams(epsilon=2.0, alpha=3.0, k=0.5, p=1.0, g0=4.0)
STATS = StreamStats.from_norms([1.0, 2.0, 1.0])


def test_package_exports_are_intact():
    # every exported name exists, once, so `from leashed import *` works
    assert all(hasattr(leashed, name) for name in leashed.__all__)
    assert len(set(leashed.__all__)) == len(leashed.__all__)


def test_algos_roster():
    assert ALGOS == (
        "ons_hints", "hintless", "leashed", "leashed_dimfree",
        "fixed_diameter", "adagrad_ball",
    )


def test_build_learner_types_and_wiring():
    bettor = build_learner("ons_hints", PARAMS)
    assert isinstance(bettor, CoinBettor)
    assert (bettor.wealth, bettor.A, bettor.h) == (2.0, 12.0, 4.0)
    assert build_learner("ons_hints", PARAMS, hint=9.0).h == 9.0

    trunc = build_learner("hintless", PARAMS)
    assert isinstance(trunc, Truncation) and trunc.h == 4.0

    leash = build_learner("leashed", PARAMS)
    assert isinstance(leash, Leashed)
    assert (leash.k, leash.p, leash.h) == (0.5, 1.0, 4.0)
    assert leash.fixed_barrier is None

    lift = build_learner("leashed_dimfree", PARAMS, dim=3)
    assert isinstance(lift, DimFreeLift) and lift.dim == 3
    assert isinstance(lift.inner, Leashed) and isinstance(lift.ball, AdaGradBall)

    fd = build_learner("fixed_diameter", PARAMS, diameter=2.5)
    assert isinstance(fd, Leashed) and fd.fixed_barrier == 2.5

    ball = build_learner("adagrad_ball", PARAMS, dim=7)
    assert isinstance(ball, AdaGradBall) and ball.dim == 7


def _layers(learner):
    """learner and every layer reachable from it through `inner` and a lift's `ball`."""
    todo = [learner]
    while todo:
        layer = todo.pop()
        yield layer
        todo += [part for part in (getattr(layer, "inner", None), getattr(layer, "ball", None))
                 if part is not None]


def test_every_object_a_game_calls_each_round_keeps_only_declared_state():
    # the learner protocol is play/update alone, with no base class; each
    # class declares its state in __slots__, so no instance has a __dict__
    # and a typo or stray attribute is refused, not left for holder to find
    from leashed import acceptance, cli

    assert not {"Learner", "HintedLearner"} & (set(leashed.__all__) | set(vars(leashed)))
    objects = []
    for algo in ALGOS:
        vector = algo in ("leashed_dimfree", "adagrad_ball")
        adversary, learner = RunSpec(algo=algo, dim=3 if vector else 1,
                                     D=1.0 if algo == "fixed_diameter" else None).build()
        objects += [adversary, *_layers(learner), *_layers(cli.TraceRecorder(learner))]
    objects += [RegretLedger(), RegretLedger(keep_rows=True),
                *_layers(acceptance._SentRecorder(CoinBettor()))]
    assert {type(obj).__name__ for obj in objects} == {
        "StreamAdversary", "CoinBettor", "Truncation", "Leashed", "DimFreeLift", "AdaGradBall",
        "TraceRecorder", "RegretLedger", "_SentRecorder"}
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            obj.undeclared = 1


# the layer of each stack that holds the hint h, the barrier B and the wealth
HOLDERS = {
    "ons_hints": (CoinBettor, None, CoinBettor),
    "hintless": (Truncation, None, CoinBettor),
    "leashed": (Leashed, Leashed, CoinBettor),
    "leashed_dimfree": (Leashed, Leashed, CoinBettor),
    "fixed_diameter": (Leashed, Leashed, CoinBettor),
    "adagrad_ball": (None, None, None),
}


@pytest.mark.parametrize("algo", ALGOS)
def test_holder_finds_the_outermost_layer_with_the_field(algo):
    learner = build_learner(algo, PARAMS, dim=3 if algo in ("leashed_dimfree", "adagrad_ball")
                            else 1, diameter=2.5)
    found = [holder(learner, name) for name in ("h", "B", "wealth")]
    assert [None if layer is None else type(layer) for layer in found] == list(HOLDERS[algo])
    # outermost: the stack's own h, not its bettor's, where both hold one
    if isinstance(learner, Truncation):
        assert found[0] is learner


def test_build_learner_validation():
    with pytest.raises(ValueError):
        build_learner("bogus", PARAMS)
    with pytest.raises(ValueError):
        build_learner("leashed", PARAMS, dim=2)  # scalar stacks refuse dim > 1
    with pytest.raises(ValueError):
        build_learner("fixed_diameter", PARAMS)  # needs a diameter
    # dim 0 is refused by the pieces each stack is built from
    for algo in ("leashed", "adagrad_ball", "leashed_dimfree"):
        with pytest.raises(ValueError):
            build_learner(algo, PARAMS, dim=0)


@pytest.mark.parametrize("algo", [a for a in ALGOS if a != "ons_hints"])
def test_build_learner_ignores_the_hint_outside_ons_hints(algo):
    kw = {"dim": 3} if algo in ("leashed_dimfree", "adagrad_ball") else {}
    if algo == "fixed_diameter":
        kw["diameter"] = 2.5
    plain = build_learner(algo, PARAMS, **kw)
    hinted = build_learner(algo, PARAMS, hint=9.0, **kw)
    # a stack that holds no hint (adagrad_ball) reads None on both sides
    assert getattr(holder(hinted, "h"), "h", None) == getattr(holder(plain, "h"), "h", None)


def test_stack_bound_dispatch():
    w = 2.0
    assert stack_bound("ons_hints", PARAMS, STATS, w) == \
        bettor_bound(PARAMS, STATS, w)
    assert stack_bound("hintless", PARAMS, STATS, w, max_played=3.0) == \
        hintless_bound(PARAMS, STATS, w, 3.0)
    assert stack_bound("leashed", PARAMS, STATS, w) == \
        full_stack_bound(PARAMS, STATS, w)
    assert stack_bound("leashed_dimfree", PARAMS, STATS, w) == \
        full_stack_bound(PARAMS, STATS, w) + w * ball_regret_bound(STATS.sum_sq)
    assert stack_bound("fixed_diameter", PARAMS, STATS, w, diameter=1.0) == \
        fixed_diameter_bound(PARAMS, STATS, w, 1.0)
    assert stack_bound("adagrad_ball", PARAMS, STATS, w) == \
        ball_regret_bound(STATS.sum_sq)


def test_stack_bound_missing_arguments():
    with pytest.raises(ValueError):
        stack_bound("hintless", PARAMS, STATS, 1.0)
    with pytest.raises(ValueError):
        stack_bound("fixed_diameter", PARAMS, STATS, 1.0)
    with pytest.raises(ValueError):
        stack_bound("bogus", PARAMS, STATS, 1.0)


def _positive(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi)


@given(algo=st.sampled_from(ALGOS),
       params=st.builds(BoundParams, epsilon=_positive(1e-3, 1e3), alpha=_positive(1e-3, 1e3),
                        k=_positive(1e-3, 1e3), p=_positive(1e-2, 1.0), g0=_positive(1e-3, 1e3)),
       norms=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50),
       w1=st.floats(min_value=0.0, max_value=1e12), w2=st.floats(min_value=0.0, max_value=1e12),
       max_played=st.floats(min_value=0.0, max_value=1e6), diameter=_positive(1e-3, 1e3))
@settings(deadline=None, max_examples=300)
def test_every_stack_bound_is_nondecreasing_in_the_comparator_norm(algo, params, norms, w1, w2,
                                                                    max_played, diameter):
    # worst regret at norm r is affine in r, so a scan that brackets the worst
    # comparator between grid norms needs each bound not to fall as |u| grows
    stats = StreamStats.from_norms(norms)
    lo, hi = sorted((w1, w2))
    at_lo, at_hi = (stack_bound(algo, params, stats, w, diameter=diameter, max_played=max_played)
                    for w in (lo, hi))
    assert at_lo <= at_hi


def test_built_stacks_play_one_round():
    # every stack completes a play/update cycle in its natural dimension
    grads = {1: 1.0, 3: np.array([1.0, 0.0, 0.0])}
    for algo in ALGOS:
        dim = 3 if algo in ("leashed_dimfree", "adagrad_ball") else 1
        learner = build_learner(algo, PARAMS, dim=dim, diameter=1.0)
        learner.play()
        learner.update(grads[dim])


def test_growth_exponent_fits_a_power_law_and_clamps_profit():
    horizons = (100, 1000, 10_000, 100_000)
    assert growth_exponent(horizons, [3.0 * T ** 0.5 for T in horizons]) == pytest.approx(0.5)
    assert growth_exponent(horizons[:2], [T ** 1.5 for T in horizons[:2]]) == pytest.approx(1.5)
    # regret at or below 1, profit included, reads as flat growth
    assert growth_exponent(horizons, [1.0, 0.5, -22.06 * 1000, -math.inf]) == 0.0


@pytest.mark.parametrize("dim, seed, T", [(10, 2, 10_000), (1000, 0, 5)])
def test_default_ball_comparators_lie_in_the_unit_ball(dim, seed, T):
    # rounding leaves +-sum g / |sum g| at norm 1.0000000000000002 in these
    # games; the ball bound holds only for |u| <= 1
    spec = RunSpec(algo="adagrad_ball", adversary="seeded_uniform", dim=dim, seed=seed, T=T)
    (_, ledger), = spec.play_through((spec.T,))
    assert all(dual_norm(wc) <= 1.0 for wc, *_ in spec.rows(ledger))


@pytest.mark.parametrize("dim", [1, 2, 10])
@pytest.mark.parametrize("kind", ["seeded_uniform", "alternating", "adaptive_sign"])
def test_default_ball_comparators_attain_the_worst_in_the_ball(dim, kind):
    # regret is affine in u, so its supremum over the ball is
    # cum_loss + |sum g|, at -sum g / |sum g|; the ball bound does not depend
    # on u, so scoring the default set checks the whole ball
    spec = RunSpec(algo="adagrad_ball", adversary=kind, dim=dim, seed=2, T=1000)
    (_, ledger), = spec.play_through((spec.T,))
    worst = max(regret for _, _, regret, *_ in spec.rows(ledger))
    sup = ledger.cum_loss + dual_norm(ledger.grad_sum)
    assert worst == pytest.approx(sup, rel=1e-12, abs=0.0)



# every stack, the vector ones at d = 1 and d = 3
GAMES = [(algo, 1) for algo in ALGOS] + [("leashed_dimfree", 3), ("adagrad_ball", 3)]


def ledger_fields(ledger) -> tuple:
    """Every statistic of a ledger, floats by their bits (nan and -0.0 included)."""
    return (ledger.n_rounds, np.asarray(ledger.grad_sum, dtype=float).tobytes(),
            *(float(getattr(ledger, name)).hex() for name in
              ("cum_loss", "sum_norm", "sum_sq", "max_norm", "max_ratio", "max_played_norm")))


def outcome(play) -> tuple:
    """(the ledger play() returns or None, and its fields, or the type and
    message of what play() raised)."""
    try:
        ledger = play()
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return None, (type(exc), str(exc))
    return ledger, ledger_fields(ledger)


@given(game=st.sampled_from(GAMES), kind=st.sampled_from(KINDS),
       seed=st.integers(min_value=0, max_value=1000),
       horizons=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=4,
                         unique=True).map(sorted))
@settings(deadline=None, max_examples=150)
def test_a_continued_game_equals_a_fresh_game_of_each_horizon(game, kind, seed, horizons):
    # the learners never see T, so the game of horizon T is the first T rounds
    # of any longer one; alternating and spike read t, so a continued game
    # that numbered its rounds from 1 again would differ
    algo, dim = game
    spec = RunSpec(algo=algo, adversary=kind, dim=dim, seed=seed, D=1.0, T=horizons[-1])
    adversary, learner = spec.build()
    steps = spec.play_through(horizons, check_finite=False)
    ledger, seen = None, []

    def through(T):
        at, played = next(steps)
        assert at == T
        return played

    for T in horizons:
        _, fresh = outcome(lambda: next(dataclasses.replace(spec, T=T).play_through(
            (T,), check_finite=False))[1])
        ledger, got = outcome(lambda: run_game(learner, adversary, T, check_finite=False,
                                               on_round=lambda t, w, g: seen.append(t),
                                               ledger=ledger))
        assert got == fresh, T
        assert outcome(lambda: through(T))[1] == fresh, T
        if ledger is None:
            break  # the game raised, as the fresh one did; neither goes on
        assert seen == list(range(1, T + 1))
        # a horizon the ledger has reached plays nothing, and changes nothing
        for reached in (1, T):
            with pytest.raises(ValueError, match="already accounts for"):
                run_game(learner, adversary, reached, ledger=ledger)
        assert ledger_fields(ledger) == fresh


def test_play_through_stops_where_the_ledger_sums_leave_float_range():
    # at scale 1e307 the sum of |g| overflows at round 18, and so does the
    # gradient sum: a later regret at comparator 0 reads inf * 0 = nan
    spec = RunSpec(adversary="constant", scale=1e307, k=10.0, T=100)
    steps = spec.play_through((10, 100))
    at, ledger = next(steps)
    assert at == 10 and math.isfinite(ledger.regret(0.0))
    with pytest.raises(GameDivergence, match="^the ledger's sums left float range by round 100$"):
        next(steps)
    _, ledger = list(spec.play_through((10, 100), check_finite=False))[-1]
    assert len(ledger) == 100 and math.isnan(ledger.regret(0.0))


def test_play_through_builds_its_game_once(monkeypatch):
    # a horizon is a point of the one game, not a spec: no spec is made or
    # checked per horizon, and the spec's own T plays no part
    spec = RunSpec(adversary="seeded_uniform", seed=4, T=1000)
    real_build, builds = RunSpec.build, []

    def counted(self):
        builds.append(self)
        return real_build(self)

    monkeypatch.setattr(RunSpec, "build", counted)
    assert [T for T, _ in spec.play_through((1000, 10, 100))] == [10, 100, 1000]
    assert builds == [spec]
