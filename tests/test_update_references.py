"""The per-round plays and updates of Leashed, Truncation and CoinBettor,
pinned bit for bit to the reference helpers they stand for: leash_project,
truncate, surrogate_grad, max for the running hint and max(min(v, cap), -cap)
for the fraction."""
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from leashed import (
    ONS_STEP,
    CoinBettor,
    Leashed,
    Truncation,
    leash_project,
    surrogate_grad,
    truncate,
)

MIN_NORMAL = 2.2250738585072014e-308
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, MIN_NORMAL, -MIN_NORMAL)

# a move is ("scaled", x), the gradient x * h for the hint h in force, which
# lies below, at or above the hint; or ("raw", g), a gradient as it stands
scaled = st.floats(min_value=-4.0, max_value=4.0).map(lambda x: ("scaled", x))
at_hint = st.sampled_from([("scaled", 1.0), ("scaled", -1.0)])
raw = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=-1e8, max_value=1e8),
).map(lambda g: ("raw", g))
moves = st.one_of(scaled, at_hint, raw)
# the first hint; 5e-324 makes the bettor's first cap 0.5 / h infinite
g0s = st.sampled_from([1.0, 3.0, 1e-300, 5e-324])


def gradient(move, h: float) -> float:
    kind, x = move
    return x * h if kind == "scaled" else x


def same(a, b) -> bool:
    """a and b are the same float: equal and of the same sign, or both nan."""
    if a != a:
        return b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class Sent:
    """Inner learner that passes everything through to the one it wraps and
    keeps what it plays and every (gradient, hint) a wrapper sends it."""

    def __init__(self, inner):
        self.inner, self.played, self.sent = inner, [], []

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def play(self):
        w = self.inner.play()
        self.played.append(w)
        return w

    def update(self, g, h_next=None) -> None:
        self.sent.append((g, h_next))
        self.inner.update(g, h_next)


@given(st.lists(moves, min_size=1, max_size=60), g0s, st.sampled_from([None, 0.5]),
       st.sampled_from([1.0, 0.25, 0.01]))
@settings(deadline=None)
# the second play, about -0.26, lies between the barrier in force (0.25) and
# the next one (0.25 * sqrt(2)): the hinge is charged at the barrier in force
@example(moves=[("scaled", 1.0)] * 2, g0=1.0, fixed=None, k=0.25)
def test_leashed_sends_the_surrogate_of_the_truncated_gradient(moves, g0, fixed, k):
    inner = Sent(CoinBettor(1.0, 1.0, g0))
    stack = Leashed(inner, k=k, g0=g0, fixed_barrier=fixed)
    for move in moves:
        stack.play()
        old_h, barrier = stack.h, stack.B
        g = gradient(move, old_h)
        stack.update(g)
        sent, h_sent = inner.sent[-1]
        assert same(sent, surrogate_grad(truncate(g, old_h), float(inner.played[-1]), barrier))
        assert same(h_sent, max(old_h, abs(g)))
        assert same(stack.h, h_sent)


class Scripted:
    """Inner learner that plays a scripted point each round and ignores its
    updates. A point is ("raw", w), played as it stands, or ("scaled", x),
    played as x times the barrier of `stack` in force."""

    def __init__(self, g0: float, points):
        self.h = g0
        self.points = iter(points)
        self.stack = None

    def play(self) -> float:
        kind, x = next(self.points)
        return x * self.stack.B if kind == "scaled" else x

    def update(self, g, h_next=None) -> None:
        pass


# at, inside and outside the barrier, and every special float
points = st.one_of(
    st.sampled_from([("scaled", x) for x in (1.0, -1.0, 0.5, -0.5, 2.0, -2.0)]),
    st.floats(min_value=-4.0, max_value=4.0).map(lambda x: ("scaled", x)),
    st.one_of(st.sampled_from(SPECIALS + (math.inf, -math.inf, math.nan)),
              st.floats(min_value=-1e-300, max_value=1e-300), st.floats()).map(
        lambda w: ("raw", w)),
)


@given(st.lists(st.tuples(points, moves), min_size=1, max_size=60), g0s,
       st.sampled_from([None, 0.5, 5e-324]), st.sampled_from([1.0, 0.25]))
@settings(deadline=None)
# the barrier is 0 until the first nonzero gradient: a positive point plays
# +0.0, and so does -0.0, which copysign(0.0, w) alone would play as -0.0
@example(rounds=[(("raw", 0.5), ("raw", 0.0)), (("raw", -0.0), ("raw", -0.0)),
                 (("raw", -1e-310), ("raw", 1.0)), (("scaled", -1.0), ("scaled", 1.0))],
         g0=1.0, fixed=None, k=1.0)
def test_leashed_plays_the_projection_onto_the_barrier(rounds, g0, fixed, k):
    inner = Sent(Scripted(g0, [point for point, _ in rounds]))
    stack = Leashed(inner, k=k, g0=g0, fixed_barrier=fixed)
    inner.inner.stack = stack
    for _, move in rounds:
        barrier = stack.B
        w = stack.play()
        assert same(w, leash_project(inner.played[-1], barrier))
        stack.update(gradient(move, stack.h))


@given(st.lists(moves, min_size=1, max_size=60), g0s)
@settings(deadline=None)
def test_truncation_sends_the_truncated_gradient(moves, g0):
    inner = Sent(CoinBettor(1.0, 1.0, g0))
    stack = Truncation(inner, g0=g0)
    for move in moves:
        stack.play()
        h = stack.h
        g = gradient(move, h)
        stack.update(g)
        sent, h_sent = inner.sent[-1]
        assert same(sent, truncate(g, h))
        assert same(h_sent, max(h, abs(g)))


bettor_moves = st.lists(
    st.tuples(
        st.one_of(st.floats(min_value=-1.0, max_value=1.0).map(lambda x: ("scaled", x)),
                  at_hint, st.sampled_from(SPECIALS).map(lambda g: ("raw", g))),
        st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=8.0)),  # hint growth
    ),
    min_size=1,
    max_size=80,
)


@given(bettor_moves, g0s)
@settings(deadline=None)
# a one-signed stream at the hint drives the fraction onto each end of the cap
@example(moves=[(("scaled", 1.0), 1.0)] * 6, h1=1.0)
@example(moves=[(("scaled", -1.0), 1.0)] * 6, h1=1.0)
def test_bettor_fraction_is_the_clamped_newton_step(moves, h1):
    b = CoinBettor(1.0, 1.0, h1)
    for move, growth in moves:
        h = b.h
        g = gradient(move, h)
        if abs(g) > h:
            g = math.copysign(h, g)
        h_next = h * growth
        v, A = b.v, b.A
        b.update(g, h_next)
        z = g / (1.0 - g * v)
        v_new = v - ONS_STEP * z / (A + z * z)
        cap = 0.5 / h_next
        assert same(b.v, max(min(v_new, cap), -cap))
