"""Game loop and ledger accounting."""
import gc
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leashed import (
    GameDivergence,
    RegretLedger,
    dual_norm,
    run_game,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class FixedPlayer:
    """Plays a scripted sequence of points and ignores gradients."""

    def __init__(self, points):
        self.points = list(points)
        self.i = 0

    def play(self):
        w = self.points[self.i]
        self.i += 1
        return w

    def update(self, g):
        pass


class ListAdversary:
    def __init__(self, grads):
        self.grads = list(grads)

    def next_grad(self, t, w):
        return self.grads[t - 1]


def test_dual_norm():
    assert dual_norm(-3.0) == 3.0
    assert dual_norm(np.array([3.0, 4.0])) == 5.0


@pytest.mark.parametrize("d", (1, 2, 3, 10, 33, 1000))
def test_dual_norm_is_numpys_norm_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for _ in range(200):
        # entries spread over e^-15 to e^15, so the summation order shows
        x = rng.standard_normal(d) * np.exp(rng.uniform(-15.0, 15.0, d))
        assert dual_norm(x).hex() == float(np.linalg.norm(x)).hex()
    # the squares overflow, as they do in numpy's norm
    with np.errstate(over="ignore"):
        assert dual_norm(np.array([1e200, 1e200])) == np.linalg.norm([1e200, 1e200]) == math.inf


def account(ledger, w, g):
    """ledger.append(w, g) with the norms run_game hands it."""
    ledger.append(w, g, dual_norm(w), dual_norm(g))


def test_empty_ledger_regret_zero():
    ledger = RegretLedger()
    assert ledger.regret(0.0) == 0.0
    assert ledger.regret(123.0) == 0.0
    assert ledger.dim is None


def test_pinned_two_round_regret():
    ledger = RegretLedger()
    account(ledger, 2.0, 1.0)
    account(ledger, -1.0, 1.0)
    assert ledger.cum_loss == 1.0
    assert ledger.grad_sum == 2.0
    assert ledger.regret(0.0) == 1.0
    assert ledger.regret(3.0) == -5.0


def test_comparator_dimension_checked():
    ledger = RegretLedger()
    account(ledger, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ledger.regret(np.array([1.0, 0.0, 0.0]))
    scalar = RegretLedger()
    account(scalar, 1.0, 1.0)
    with pytest.raises(ValueError):
        scalar.regret(np.array([1.0, 2.0]))
    # a size-1 array comparator is accepted in the scalar game
    assert scalar.regret(np.array([2.0])) == scalar.regret(2.0)


def test_vector_ledger_statistics():
    ledger = RegretLedger()
    account(ledger, np.array([1.0, 0.0]), np.array([3.0, 4.0]))
    account(ledger, np.array([0.0, 2.0]), np.array([0.0, -4.0]))
    assert ledger.dim == 2
    assert ledger.max_norm == 5.0
    assert ledger.max_played_norm == 2.0
    assert ledger.sum_sq == 41.0
    assert np.array_equal(ledger.grad_sum, np.array([3.0, 0.0]))
    assert ledger.regret(np.zeros(2)) == ledger.cum_loss


def affine_slack(ledger, u, v):
    """Bound on |regret(mid) - avg| from rounding alone.

    With C = cum_loss, S = grad_sum and eps = 2^-53, every regret is
    C - S * c, exact in the stored C and S, so the two sides agree exactly
    before rounding. Rounding u + v, S * mid and C - S * mid puts mid within
    eps * (|C| + 1.5 |S| (|u| + |v|)) of the exact value; rounding S * u,
    S * v, the two differences and their sum puts avg within
    eps * (2 |C| + 1.5 |S| (|u| + |v|)). Their sum, 3 eps (|C| + |S| (|u| +
    |v|)) plus second-order terms, is below the factor 8 used here.

    Near zero a product also underflows, by at most 2^-1075 each: the
    halving of u + v (scaled by |S| in S * mid), S * mid, S * u, S * v and
    the final halving, at most 2^-1075 (|S| + 3) in all. The second term
    covers that, so a subnormal comparator is held to the same standard.
    """
    C, S = abs(ledger.cum_loss), abs(ledger.grad_sum)
    return 8 * 2.0 ** -53 * (C + S * (abs(u) + abs(v))) + 2.0 ** -1074 * (S + 2)


@given(st.lists(st.tuples(finite_floats, finite_floats), max_size=60),
       finite_floats, finite_floats)
# terms near 1e10 cancel: regret(mid) is exactly 0 and avg is 1.43e-6
@example(rounds=[(0.0, 68041.2843385362), (126247.28125, 68041.2843385362)],
         u=13344.0, v=112903.28125)
# mid rounds 2^-1075 to 0; avg keeps S * 2^-1075, below any relative slack
@example(rounds=[(0.0, 1e6)], u=5e-324, v=0.0)
def test_regret_affine_in_comparator(rounds, u, v):
    ledger = RegretLedger()
    for w, g in rounds:
        account(ledger, w, g)
    mid = ledger.regret(0.5 * (u + v))
    avg = 0.5 * (ledger.regret(u) + ledger.regret(v))
    assert mid == pytest.approx(avg, rel=1e-9, abs=affine_slack(ledger, u, v))


def recompute(pairs) -> dict:
    """The summary statistics of the scalar (point, gradient) pairs of a
    game, computed from scratch with exact summation."""
    norms = [abs(g) for _, g in pairs]
    return {
        "cum_loss": math.fsum(g * w for w, g in pairs),
        "grad_sum": math.fsum(g for _, g in pairs),
        "sum_norm": math.fsum(norms),
        "sum_sq": math.fsum(n * n for n in norms),
        "max_norm": max(norms, default=0.0),
        "max_played_norm": max((abs(w) for w, _ in pairs), default=0.0),
    }


def summation_slack(terms):
    """Bound on |recursive sum - exact sum| of the n rounded terms.

    Summing n terms one at a time is within gamma_{n-1} * sum |term| of
    their exact sum, gamma_k = k eps / (1 - k eps) with eps = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2).
    Rounding each term, a product, puts it within eps |term| of its exact
    value, and fsum of the absolute terms is within eps of the exact total;
    gamma_{n+1} covers all three. A product that underflows is off by up to
    2^-1075 instead, so the second term covers n of them, as in
    affine_slack.
    """
    k = (len(terms) + 1) * 2.0 ** -53
    return k / (1.0 - k) * math.fsum(abs(x) for x in terms) + len(terms) * 2.0 ** -1074


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=60))
# the signed sum cancels: grad_sum is 16.900000000023283 against an exact 16.9
@example(rounds=[(0.0, -998761.0), (0.0, 1.9), (0.0, 998776.0)])
@settings(deadline=None)
def test_recompute_matches_incremental(rounds):
    ledger = RegretLedger()
    for w, g in rounds:
        account(ledger, w, g)
    exact = recompute(rounds)
    assert ledger.max_norm == exact["max_norm"]
    assert ledger.max_played_norm == exact["max_played_norm"]
    # signed sums may cancel, so they are held to the error of the summation itself
    assert abs(ledger.cum_loss - exact["cum_loss"]) <= summation_slack([g * w for w, g in rounds])
    assert abs(ledger.grad_sum - exact["grad_sum"]) <= summation_slack([g for _, g in rounds])
    for inc, ex in ((ledger.sum_norm, exact["sum_norm"]), (ledger.sum_sq, exact["sum_sq"])):
        assert inc == pytest.approx(ex, rel=1e-12, abs=1e-12)


def test_run_game_records_protocol():
    player = FixedPlayer([1.0, -2.0, 0.5])
    seen = []
    ledger = run_game(player, ListAdversary([1.0, 0.0, -1.0]), 3,
                      on_round=lambda t, w, g: seen.append((t, w, g)),
                      ledger=RegretLedger(keep_rows=True))
    assert seen == [(1, 1.0, 1.0), (2, -2.0, 0.0), (3, 0.5, -1.0)]
    assert len(ledger) == 3
    assert [r.w_norm for r in ledger.rounds] == [1.0, 2.0, 0.5]
    assert [r.g_norm for r in ledger.rounds] == [1.0, 0.0, 1.0]
    assert [r.cum_loss for r in ledger.rounds] == [1.0, 1.0, 0.5]
    assert ledger.cum_loss == 0.5


def test_run_game_validates_horizon():
    with pytest.raises(ValueError):
        run_game(FixedPlayer([0.0]), ListAdversary([0.0]), 0)


def vec(x):
    return np.array([x, 0.0])


def test_run_game_aborts_on_nonfinite_point():
    for point in (float, vec):
        for bad in (math.nan, math.inf, -math.inf):
            player = FixedPlayer([point(0.0), point(0.0), point(bad), point(0.0)])
            with pytest.raises(GameDivergence) as info:
                run_game(player, ListAdversary([point(0.0)] * 4), 4)
            assert str(info.value) == "learner produced a non-finite point at round 3"


def test_run_game_names_wealth_overflow():
    for point in (float, vec):
        player = FixedPlayer([point(0.0), point(-math.inf)])
        player.wealth = -math.inf
        with pytest.raises(GameDivergence) as info:
            run_game(player, ListAdversary([point(1.0)] * 2), 2)
        assert str(info.value) == ("learner produced a non-finite point at round 2: "
                                   "its wealth left float range")


def test_run_game_aborts_on_nonfinite_gradient():
    for point in (float, vec):
        for bad in (math.nan, math.inf):
            with pytest.raises(GameDivergence) as info:
                run_game(FixedPlayer([point(0.0)] * 3),
                         ListAdversary([point(0.0), point(bad), point(0.0)]), 3)
            assert str(info.value) == "adversary produced a non-finite gradient at round 2"


def test_run_game_accepts_finite_vectors_whose_square_overflows():
    big = np.array([1e200, 1e200])
    with np.errstate(over="ignore"):
        ledger = run_game(FixedPlayer([big, big]), ListAdversary([big, big]), 2)
    assert len(ledger) == 2
    assert ledger.max_played_norm == math.inf  # sqrt(w . w), as numpy's norm has it


def test_run_game_allows_nonfinite_when_unchecked():
    ledger = run_game(
        FixedPlayer([1.0, 1.0]), ListAdversary([math.inf, 1.0]), 2, check_finite=False
    )
    assert ledger.cum_loss == math.inf


def test_run_game_coerces_size_one_gradient():
    seen = []
    ledger = run_game(FixedPlayer([1.0]), ListAdversary([np.array([2.0])]), 1,
                      on_round=lambda t, w, g: seen.append(g))
    assert len(seen) == 1 and isinstance(seen[0], float) and seen[0] == 2.0
    assert ledger.dim == 1 and ledger.cum_loss == 2.0


def test_run_game_rejects_dimension_mismatch():
    # each direction, named at the round it happens
    for points, grads, message in (
        ([np.zeros(3)] * 2, [np.zeros(3), np.zeros(2)],
         "gradient dimension (2,) does not match point dimension (3,) at round 2"),
        ([np.zeros(3)] * 2, [np.zeros(3), 1.0],
         "gradient dimension (1,) does not match point dimension (3,) at round 2"),
        ([0.0] * 2, [0.0, np.zeros(2)],
         "gradient dimension 2 does not match point dimension 1 at round 2"),
    ):
        with pytest.raises(ValueError) as info:
            run_game(FixedPlayer(points), ListAdversary(grads), 2)
        assert str(info.value) == message


def counted(monkeypatch, name: str) -> list:
    """Patch core.<name> with a wrapper that logs every gradient it checks."""
    from leashed import core

    real, calls = getattr(core, name), []

    def check(g, w, t):
        calls.append(t)
        return real(g, w, t)

    monkeypatch.setattr(core, name, check)
    return calls


def test_run_game_checks_every_gradient_that_is_not_a_python_float(monkeypatch):
    # a scalar game passes a float through unchecked, and checks anything else
    checked = counted(monkeypatch, "_scalar_grad")
    seen = []
    grads = [1.0, np.float64(2.0), np.array([3.0]), 4.0, np.array([[5.0]])]
    ledger = run_game(FixedPlayer([1.0] * 5), ListAdversary(grads), 5,
                      on_round=lambda t, w, g: seen.append(g))
    assert checked == [2, 3, 5]
    assert [type(g) for g in seen] == [float] * 5
    assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert ledger.cum_loss == 15.0
    with pytest.raises(ValueError) as info:
        run_game(FixedPlayer([0.0] * 3), ListAdversary([0.0, 1.0, np.zeros(2)]), 3)
    assert str(info.value) == "gradient dimension 2 does not match point dimension 1 at round 3"


def _stack_fields(learner):
    """(layer, field, value) of every slot of each layer of a scalar stack."""
    layer = learner
    while layer is not None:
        for cls in type(layer).__mro__:
            for name in vars(cls).get("__slots__", ()):
                yield type(layer).__name__, name, getattr(layer, name)
        layer = getattr(layer, "inner", None)


@pytest.mark.parametrize("algo", ["ons_hints", "hintless", "leashed", "fixed_diameter"])
@pytest.mark.parametrize("kind", [np.float64, int, lambda x: np.array([x])],
                         ids=["float64", "int", "size1_array"])
def test_run_game_hands_scalar_learners_python_floats(algo, kind, monkeypatch):
    # the scalar learners convert nothing: whatever real number the adversary
    # answers with, run_game hands on a Python float, so every field stays one
    from leashed import core
    from leashed.bounds import BoundParams
    from leashed.stacks import build_learner

    ledgers = []

    class SeenLedger(RegretLedger):
        __slots__ = ()

        def __init__(self, keep_rows=False):
            super().__init__(keep_rows)
            ledgers.append(self)

    monkeypatch.setattr(core, "RegretLedger", SeenLedger)
    learner = build_learner(algo, BoundParams(), diameter=1.0)
    grads = [kind(x) for x in (1, -1, 0, 1, 1, -1, 0, -1)] * 5
    seen = []

    def assert_floats():
        fields = list(_stack_fields(learner))
        assert fields and all(type(v) is float for _, name, v in fields
                              if name != "inner" and v is not None), fields

    def on_round(t, w, g):
        seen.append((t, len(ledgers[-1]), type(w), type(g)))
        assert_floats()

    ledger = run_game(learner, ListAdversary(grads), len(grads), on_round=on_round)
    assert_floats()
    assert ledgers == [ledger]
    assert seen == [(t, t, float, float) for t in range(1, len(grads) + 1)]
    assert type(ledger.cum_loss) is float and type(ledger.grad_sum) is float


@pytest.mark.parametrize("algo", ["adagrad_ball", "leashed_dimfree"])
@pytest.mark.parametrize("dim", [1, 3])
def test_run_game_hands_vector_learners_the_array_on_round_sees(algo, dim, monkeypatch):
    # the vector learners convert nothing: run_game casts each gradient once,
    # and every update receives that very array; the lift plays the objects
    # its parts' plays return, and hands its scalar stack Python floats
    from leashed import AdaGradBall, DimFreeLift, Truncation
    from leashed.bounds import BoundParams
    from leashed.stacks import build_learner

    learner = build_learner(algo, BoundParams(), dim)
    lift = isinstance(learner, DimFreeLift)
    received, played = [], {}

    def spy(cls, name):
        real = getattr(cls, name)

        def play(self):
            played[cls.__name__] = out = real(self)
            return out

        def update(self, g, *rest):
            received.append((cls.__name__, g))
            return real(self, g, *rest)

        monkeypatch.setattr(cls, name, play if name == "play" else update)

    spy(AdaGradBall, "update")
    if lift:
        scalar = type(learner.inner)
        assert issubclass(scalar, Truncation)
        for cls in (DimFreeLift, scalar):
            spy(cls, "update")
        for cls in (AdaGradBall, scalar):
            spy(cls, "play")
    # float64 arrays, and what run_game casts: float32 arrays, lists and, at
    # d = 1, Python floats
    kinds = [lambda v: v, lambda v: v.astype(np.float32), list]
    if dim == 1:
        kinds.append(lambda v: float(v[0]))
    rows = np.random.default_rng(dim).standard_normal((24, dim))
    grads = [kinds[i % len(kinds)](v) for i, v in enumerate(rows)]
    seen = []

    def on_round(t, w, g):
        assert type(g) is np.ndarray and g.dtype == np.float64 and g.shape == (dim,)
        seen.append(g)
        if lift:
            assert learner.x is played[scalar.__name__]
            assert learner.y is played["AdaGradBall"]

    run_game(learner, ListAdversary(grads), len(grads), on_round=on_round)
    assert len(seen) == len(grads)
    for name in ("AdaGradBall", "DimFreeLift") if lift else ("AdaGradBall",):
        got = [g for who, g in received if who == name]
        assert len(got) == len(seen) and all(map(operator.is_, got, seen)), name
    if lift:
        sent = [g for who, g in received if who == scalar.__name__]
        assert len(sent) == len(seen) and all(type(s) is float for s in sent)


def test_run_game_checks_every_gradient_of_a_vector_game(monkeypatch):
    from leashed.stacks import RunSpec

    # adagrad_ball at d = 1 plays arrays of shape (1,), and alternating hands
    # it Python floats: each is made an array
    checked = counted(monkeypatch, "_vector_grad")
    adversary, learner = RunSpec(algo="adagrad_ball", adversary="alternating", dim=1).build()
    seen = []
    ledger = run_game(learner, adversary, 6, on_round=lambda t, w, g: seen.append(g))
    assert checked == [1, 2, 3, 4, 5, 6]
    assert all(type(g) is np.ndarray and g.shape == (1,) for g in seen)
    assert type(ledger.cum_loss) is float
    assert type(ledger.grad_sum) is np.ndarray and ledger.grad_sum.shape == (1,)
    assert ledger.dim == 1


def test_a_vector_game_plays_a_float32_stream_as_its_float64_cast():
    from leashed import AdaGradBall

    def play(g):
        seen = []
        ledger = run_game(AdaGradBall(2), ListAdversary([g] * 3), 3,
                          ledger=RegretLedger(keep_rows=True),
                          on_round=lambda t, w, g: seen.append(g))
        return ledger, seen

    g32 = np.array([0.1, 0.2], dtype=np.float32)
    got, got_seen = play(g32)
    want, want_seen = play(g32.astype(float))
    assert got.grad_sum.dtype == np.float64
    assert got.grad_sum.tobytes() == want.grad_sum.tobytes()
    assert [g.dtype for g in got_seen] == [np.float64] * 3
    assert [g.tobytes() for g in got_seen] == [g.tobytes() for g in want_seen]
    assert got.rounds == want.rounds
    for field in ("cum_loss", "sum_norm", "sum_sq", "max_norm", "max_ratio", "max_played_norm"):
        assert getattr(got, field) == getattr(want, field), field
    assert got.regret(np.ones(2)) == want.regret(np.ones(2))


def test_run_game_snapshots_points():
    # the ledger reads each point before the update that mutates its buffer,
    # so every row holds the point as played
    w = np.array([3.0, 4.0])

    class Mutator:
        def play(self):
            return w

        def update(self, g):
            w[0] += 100.0 * g[0]

    seen = []
    ledger = run_game(Mutator(), ListAdversary([np.array([1.0, 0.0]), np.array([0.0, 2.0])]), 2,
                      on_round=lambda t, w, g: seen.append(float(w[0])),
                      ledger=RegretLedger(keep_rows=True))
    assert seen == [3.0, 103.0]
    assert [r.w_norm for r in ledger.rounds] == [5.0, dual_norm(np.array([103.0, 4.0]))]
    # round 1 loses 1 * 3, round 2 loses 2 * 4 at the mutated point [103, 4]
    assert [r.cum_loss for r in ledger.rounds] == [3.0, 11.0]
    assert ledger.max_played_norm == ledger.rounds[1].w_norm


def kept_bytes(algo: str, dim: int, T: int, keep_rows: bool = False) -> int:
    """Bytes allocated during a game of algo on seeded_uniform and still
    held, with the ledger and the learner alive, once it is over."""
    from leashed import AdversaryConfig, BoundParams, StreamAdversary, build_learner

    learner = build_learner(algo, BoundParams(), dim=dim)
    adversary = StreamAdversary(AdversaryConfig("seeded_uniform", dim=dim, seed=0))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ledger = run_game(learner, adversary, T, ledger=RegretLedger(keep_rows))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ledger) == T
    assert (ledger.rounds is not None) == keep_rows
    return kept


def test_game_memory_per_round_does_not_grow_with_dimension():
    T = 500
    small = kept_bytes("leashed_dimfree", 10, T, keep_rows=True)
    large = kept_bytes("leashed_dimfree", 1000, T, keep_rows=True)
    longer = kept_bytes("leashed_dimfree", 1000, 2 * T, keep_rows=True)
    # a round keeps a norm-only row whatever d; keeping the point or the
    # gradient would cost 8 KB a round at d = 1000. Two horizons, so the
    # state fixed in T (the seeded stream's last block) is not counted
    assert (longer - large) / T < 1024, (large, longer)
    # what d adds is the learners' fixed state, a few d-vectors, not d per round
    assert large - small < 8 * 8 * 1000, (small, large)


def test_game_memory_does_not_grow_with_rounds_unless_rows_are_kept():
    short, long = kept_bytes("leashed", 1, 2_000), kept_bytes("leashed", 1, 20_000)
    # the ledger's running sums and the learners' current state, whatever T
    assert long - short < 4096, (short, long)
    short, long = (kept_bytes("leashed", 1, T, keep_rows=True) for T in (2_000, 20_000))
    # a RoundRecord of four fields is well over 32 bytes a round
    assert long - short > 32 * 18_000, (short, long)


def test_run_keeps_a_spike_past_float_range_finite_until_the_trace(tmp_path, capsys):
    # the spike [1e200, 0] is a finite gradient; its norm is not, and the
    # trace writer names the round
    from leashed.cli import main

    argv = ["run", "--algo", "adagrad_ball", "--dim", "2", "--adversary", "spike",
            "--magnitude", "1e200"]
    spiked, before = tmp_path / "spiked", tmp_path / "before"
    spiked.mkdir(); before.mkdir()
    with np.errstate(over="ignore"):
        rc = main(argv + ["--T", "20", "--out", str(spiked)])
    assert rc == 1
    assert capsys.readouterr().err == "run aborted: non-finite trace value at round 10\n"
    # the trace holds the header and rows 1-9: the whole trace of a 9-round game
    assert main(argv + ["--T", "9", "--out", str(before)]) == 0
    trace = (spiked / "trace.csv").read_bytes()
    assert trace.count(b"\r\n") == 10
    assert trace == (before / "trace.csv").read_bytes()
