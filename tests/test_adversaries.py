"""Stream generators, their promises, and the brute-force betting oracle."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leashed import (
    KINDS,
    AdversaryConfig,
    RegretLedger,
    StreamAdversary,
    adversaries,
    best_betting_fraction,
    comparator_sweep,
    dual_norm,
    quantize_magnitude,
)


def stream(config, T, w=0.0):
    adv = StreamAdversary(config)
    return [adv.next_grad(t, w) for t in range(1, T + 1)]


def test_config_validation():
    with pytest.raises(ValueError):
        AdversaryConfig("bogus")
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            AdversaryConfig("constant", scale=bad)
        with pytest.raises(ValueError):
            AdversaryConfig("spike", magnitude=bad)
        with pytest.raises(ValueError):
            AdversaryConfig("seeded_uniform", envelope=bad)
    with pytest.raises(ValueError):
        AdversaryConfig("constant", dim=0)
    with pytest.raises(ValueError):
        AdversaryConfig("spike", period=0)
    with pytest.raises(ValueError):
        AdversaryConfig("growing", rate=math.inf)
    # magnitudes are snapped onto the 2**-20 lattice, so x * 2**20 must stay finite
    for bad in (2.0 ** 1004, 1e305):
        with pytest.raises(ValueError):
            AdversaryConfig("spike", magnitude=bad)
        with pytest.raises(ValueError):
            AdversaryConfig("seeded_uniform", envelope=bad)
    top = math.nextafter(2.0 ** 1004, 0.0)
    assert StreamAdversary(AdversaryConfig("spike", magnitude=top)).bound() == top


def test_quantize_pins():
    assert quantize_magnitude(0.0) == 0.0
    assert quantize_magnitude(1.0) == 1.0
    assert quantize_magnitude(10.0) == 10.0
    assert quantize_magnitude(2.0 ** -20) == 2.0 ** -20
    # past 2**1004 every float is on the lattice already
    assert quantize_magnitude(2.0 ** 1010) == 2.0 ** 1010
    assert quantize_magnitude(math.inf) == math.inf


def test_growing_overflow_is_an_infinite_gradient():
    adv = StreamAdversary(AdversaryConfig("growing", rate=2000.0))
    assert adv.next_grad(1, 0.0) == 1.0
    assert adv.next_grad(2, 0.0) == math.inf


@given(st.floats(min_value=0.0, max_value=1e7))
def test_quantize_snaps_down_to_lattice(x):
    q = quantize_magnitude(x)
    assert q <= x
    assert x - q < 2.0 ** -20
    assert q * 2.0 ** 20 == math.floor(q * 2.0 ** 20)


def test_deterministic_kind_pins():
    assert stream(AdversaryConfig("constant"), 3) == [1.0, 1.0, 1.0]
    assert stream(AdversaryConfig("alternating"), 4) == [-1.0, 1.0, -1.0, 1.0]
    g = StreamAdversary(AdversaryConfig("growing"))
    assert g.next_grad(1, 0.0) == 1.0
    assert g.next_grad(4, 0.0) == 2.0  # 4 ** 0.5 is exact on the lattice
    sp = StreamAdversary(AdversaryConfig("spike", period=10, magnitude=10.0))
    assert sp.next_grad(9, 0.0) == 1.0
    assert sp.next_grad(10, 0.0) == 10.0
    assert stream(AdversaryConfig("zero"), 2) == [0.0, 0.0]


@pytest.mark.parametrize("dim", (1, 3))
@pytest.mark.parametrize("scale, magnitude", ((1.0, 10.0), (0.3, 7.123456789), (1e300, 1e10)))
def test_spike_plays_the_scaled_lattice_magnitude_every_round(dim, scale, magnitude):
    # off the lattice, rounded by the scale, and (1e300 * 1e10) past float range
    config = AdversaryConfig("spike", scale=scale, dim=dim, period=4, magnitude=magnitude)
    adv = StreamAdversary(config)
    w = 0.0 if dim == 1 else np.zeros(dim)
    for t in range(1, 2 * config.period + 1):
        raw = magnitude if t % config.period == 0 else 1.0
        g = adv.next_grad(t, w)
        if dim == 1:
            assert type(g) is float
        else:
            assert not g[1:].any()
            g = float(g[0])
        assert g.hex() == (scale * quantize_magnitude(raw)).hex()


def test_adaptive_sign_follows_play():
    adv = StreamAdversary(AdversaryConfig("adaptive_sign"))
    assert adv.next_grad(1, 0.0) == 1.0   # sign of zero counts as positive
    assert adv.next_grad(2, -3.0) == -1.0
    assert adv.next_grad(3, 0.25) == 1.0
    d2 = StreamAdversary(AdversaryConfig("adaptive_sign", dim=2))
    g = d2.next_grad(1, np.array([-1.0, 5.0]))  # leads with the first component
    assert np.array_equal(g, np.array([-1.0, 0.0]))


def test_scale_applies_to_everything():
    assert stream(AdversaryConfig("constant", scale=3.0), 2) == [3.0, 3.0]
    assert stream(AdversaryConfig("alternating", scale=2.0), 2) == [-2.0, 2.0]
    sp = StreamAdversary(AdversaryConfig("spike", scale=2.0))
    assert sp.next_grad(10, 0.0) == 20.0


@pytest.mark.parametrize("kind", KINDS)
def test_bound_dominates_stream_exactly(kind, T=2000):
    cfg = AdversaryConfig(kind, seed=3)
    adv = StreamAdversary(cfg)
    cap = adv.bound()
    if kind == "growing":
        assert cap is None
        return
    if kind == "zero":
        assert cap == 0.0
    for t in range(1, T + 1):
        g = adv.next_grad(t, 0.0)
        assert abs(g) <= cap


@pytest.mark.parametrize("kind", ("seeded_uniform", "seeded_signs"))
def test_bound_dominates_vector_norms(kind):
    adv = StreamAdversary(AdversaryConfig(kind, dim=5, seed=9))
    cap = adv.bound()
    for t in range(1, 3000):
        assert dual_norm(adv.next_grad(t, np.zeros(5))) <= cap


@pytest.mark.parametrize("kind", ("seeded_uniform", "seeded_signs"))
def test_seeded_streams_reproducible(kind):
    a = stream(AdversaryConfig(kind, seed=11), 500)
    b = stream(AdversaryConfig(kind, seed=11), 500)
    assert a == b
    c = stream(AdversaryConfig(kind, seed=12), 500)
    assert a != c
    # vector streams too, bit for bit
    va = stream(AdversaryConfig(kind, dim=4, seed=11), 200, w=np.zeros(4))
    vb = stream(AdversaryConfig(kind, dim=4, seed=11), 200, w=np.zeros(4))
    assert all(np.array_equal(x, y) for x, y in zip(va, vb))


class OneDrawAtATime:
    """The seeded kinds drawn one round at a time, as StreamAdversary drew
    them before it drew blocks: one word per round, and in a vector game one
    standard_normal(d) draw per round, normalized by its dual_norm. The
    reference for the block fill; `shaved` counts the rounds whose unit
    direction took the 2**-50 shave."""

    def __init__(self, config):
        self.c = config
        words, dirs = np.random.SeedSequence(config.seed).spawn(2)
        self.words = np.random.Generator(np.random.PCG64(words))
        self.dirs = np.random.Generator(np.random.PCG64(dirs))
        self.shaved = 0

    def direction(self):
        d = self.c.dim
        x = self.dirs.standard_normal(d)
        n = dual_norm(x)
        if n == 0.0:
            x = np.zeros(d)
            x[0] = 1.0
            return x
        u = x / n
        if dual_norm(u) > 1.0:
            self.shaved += 1
            u = u * (1.0 - 2.0 ** -50)
        return u

    def next_grad(self):
        c = self.c
        u = int(self.words.integers(0, 2 ** 64, dtype=np.uint64))
        sign = 1.0 if u & 1 else -1.0
        if c.kind == "seeded_uniform":
            mag = quantize_magnitude((u >> 11) * 2.0 ** -53 * c.envelope)
        else:
            mag = quantize_magnitude(c.envelope)
        value = sign * (c.scale * mag)
        return value if c.dim == 1 else value * self.direction()


def rows_per_block(d):
    return adversaries._SCALAR_BLOCK if d == 1 else max(1, adversaries._VECTOR_BLOCK // d)


def assert_same_stream(config, T):
    """StreamAdversary(config) gives OneDrawAtATime(config)'s T gradients
    bit for bit; returns the reference."""
    ref = OneDrawAtATime(config)
    adv = StreamAdversary(config)
    w = 0.0 if config.dim == 1 else np.zeros(config.dim)
    for t in range(1, T + 1):
        want, got = ref.next_grad(), adv.next_grad(t, w)
        if config.dim == 1:
            assert type(got) is float
            assert got.hex() == want.hex(), t
        else:
            assert got.shape == (config.dim,)
            assert got.tobytes() == want.tobytes(), t
    return ref


# (entries per vector block, dimensions played at it): the shipped size, with
# the scalar stream; 8,192; and a size that divides none of its dimensions,
# one of which is past it, so that block is a single row. Each size's
# dimensions have few enough rows a block that the one-at-a-time reference
# reaches the third boundary quickly.
BLOCK_SIZES = (
    (adversaries._VECTOR_BLOCK, (1, 10, 1000)),
    (8192, (3, 10, 1000)),
    (1001, (2, 3, 10, 1000, 1500)),
)


@pytest.mark.parametrize("block, dims", BLOCK_SIZES, ids=[str(b) for b, _ in BLOCK_SIZES])
@pytest.mark.parametrize("kind", adversaries.SEEDED_KINDS)
def test_blocks_draw_the_one_at_a_time_stream(kind, block, dims, monkeypatch):
    monkeypatch.setattr(adversaries, "_VECTOR_BLOCK", block)
    shaved = 0
    for d in dims:
        config = AdversaryConfig(kind, dim=d, seed=7, envelope=3.5, scale=0.75)
        # past the third block boundary
        shaved += assert_same_stream(config, 3 * rows_per_block(d) + 5).shaved
    # the shave path runs in the vector streams (on 0.4-5% of rows)
    assert shaved > 0


@pytest.mark.parametrize("kind", adversaries.SEEDED_KINDS)
@pytest.mark.parametrize("dim", (1, 3))
def test_blocks_overflow_to_infinite_gradients_silently(kind, dim):
    config = AdversaryConfig(kind, dim=dim, seed=2, envelope=2.0 ** 1003, scale=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_stream(config, rows_per_block(dim) + 5)
        g = StreamAdversary(config).next_grad(1, 0.0 if dim == 1 else np.zeros(dim))
    assert np.isinf(g).all()


def test_seeded_uniform_spans_the_envelope():
    gs = stream(AdversaryConfig("seeded_uniform", envelope=2.0, seed=1), 2000)
    mags = [abs(g) for g in gs]
    assert max(mags) <= 2.0
    assert max(mags) > 1.5 and min(mags) < 0.5  # spread, not stuck at one value
    assert any(g < 0.0 for g in gs) and any(g > 0.0 for g in gs)


def test_seeded_signs_is_constant_magnitude():
    gs = stream(AdversaryConfig("seeded_signs", seed=4), 300)
    assert set(abs(g) for g in gs) == {1.0}
    assert any(g < 0.0 for g in gs) and any(g > 0.0 for g in gs)


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "zero"])
def test_thousandfold_scaling_is_exact(kind):
    gs = stream(AdversaryConfig(kind, seed=2), 400)
    for g in gs:
        assert Fraction(1000.0 * g) == 1000 * Fraction(g)


def test_vector_deterministic_kinds_use_first_axis():
    g = StreamAdversary(AdversaryConfig("constant", dim=3)).next_grad(1, np.zeros(3))
    assert np.array_equal(g, np.array([1.0, 0.0, 0.0]))


def test_vector_seeded_norm_matches_scalar_magnitude():
    cfg = AdversaryConfig("seeded_uniform", dim=6, seed=5)
    adv = StreamAdversary(cfg)
    for t in range(1, 200):
        g = adv.next_grad(t, np.zeros(6))
        assert g.shape == (6,)
        assert dual_norm(g) <= adv.bound()


def test_best_fraction_pins():
    assert best_betting_fraction([1.0], 1.0) == -0.5
    assert best_betting_fraction([1.0, -1.0], 1.0) == 0.0
    assert best_betting_fraction([0.0, 0.0], 1.0) == 0.0
    assert best_betting_fraction([], 1.0) == 0.0


def test_best_fraction_finds_interior_optimum():
    # two wins and a loss: the exact minimizer of the betting loss is -1/3
    v = best_betting_fraction([1.0, 1.0, -1.0], 1.0, resolution=1e-4)
    assert v == pytest.approx(-1.0 / 3.0, abs=1e-4)


def test_best_fraction_chunks_match_one_block():
    # 25_000 distinct values leave 10 grid rows per chunk: 11 chunks of 101 rows
    gs = np.random.default_rng(5).uniform(-1.0, 1.0, 25_000)
    h, res = float(np.max(np.abs(gs))), 1e-2
    cap = 0.5 / h
    n = int(math.ceil(2.0 * cap / res)) + 1
    n += n % 2 == 0
    grid = np.linspace(-cap, cap, n)
    grid[n // 2] = 0.0
    vals, counts = np.unique(gs, return_counts=True)
    assert n > 3 * (250_000 // vals.size)
    losses = -np.log1p(-np.outer(grid, vals)) @ counts.astype(float)
    ties = np.flatnonzero(losses == losses.min())
    assert best_betting_fraction(gs, h, res) == float(grid[ties[np.argmin(np.abs(grid[ties]))]])


def out_of_place_losses(grid, gs):
    """The betting losses as the oracle first evaluated them: a fresh
    negated outer product, its log1p and its negation, block by block."""
    vals, counts = np.unique(gs, return_counts=True)
    weights = counts.astype(float)
    losses = np.empty(grid.size)
    chunk = max(1, 250_000 // vals.size)
    for lo in range(0, grid.size, chunk):
        block = grid[lo:lo + chunk]
        losses[lo:lo + block.size] = -np.log1p(-np.outer(block, vals)) @ weights
    return losses


@pytest.mark.parametrize("kind, T, distinct, resolution", [
    ("constant", 1000, 1, 1e-4),
    ("alternating", 1000, 2, 1e-4),
    ("seeded_uniform", 10_000, 9_968, 1e-3),  # 25 grid rows a block
])
def test_in_place_losses_equal_the_out_of_place_expression(kind, T, distinct, resolution):
    config = AdversaryConfig(kind, seed=1)
    gs = np.array(stream(config, T))
    assert np.unique(gs).size == distinct
    cap = 0.5 / StreamAdversary(config).bound()
    n = 2 * int(math.ceil(cap / resolution)) + 1
    grid = np.linspace(-cap, cap, n)
    grid[n // 2] = 0.0
    assert np.array_equal(adversaries._betting_losses(grid, gs), out_of_place_losses(grid, gs))


def test_best_fraction_validation():
    with pytest.raises(ValueError):
        best_betting_fraction([2.0], 1.0)  # stream violates the hint
    with pytest.raises(ValueError):
        best_betting_fraction([1.0], 0.0)
    with pytest.raises(ValueError):
        best_betting_fraction([1.0], 1.0, resolution=0.0)


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=30))
@settings(deadline=None, max_examples=30)
def test_best_fraction_beats_zero_and_stays_in_domain(gs):
    v = best_betting_fraction(gs, 1.0, resolution=1e-3)
    assert abs(v) <= 0.5
    loss_v = -math.fsum(math.log1p(-g * v) for g in gs)
    assert loss_v <= 0.0 + 1e-12  # never worse than not betting


def scalar_ledger(plays_and_grads):
    ledger = RegretLedger()
    for w, g in plays_and_grads:
        ledger.append(w, g, abs(w), abs(g))
    return ledger


def test_comparator_sweep_scalar():
    ledger = scalar_ledger([(0.0, 1.0)])
    out = comparator_sweep(ledger)
    assert out == [0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0]
    assert comparator_sweep(RegretLedger()) == out  # empty ledger counts as scalar


def test_comparator_sweep_vector():
    ledger = RegretLedger()
    ledger.append(np.zeros(3), np.array([2.0, 0.0, 0.0]), 0.0, 2.0)
    out = comparator_sweep(ledger, seed=0)
    assert len(out) == 1 + 4 * 6
    assert np.array_equal(out[0], np.zeros(3))
    # two aligned comparators per magnitude point along the gradient sum
    assert np.allclose(out[1], [0.1, 0.0, 0.0])
    assert np.allclose(out[2], [-0.1, 0.0, 0.0])
    for w in out[1:]:
        # every nonzero comparator sits at one of the standard magnitudes
        assert min(abs(dual_norm(w) - m) for m in (0.1, 1.0, 10.0, 100.0)) < 1e-9
    again = comparator_sweep(ledger, seed=0)
    assert all(np.array_equal(x, y) for x, y in zip(out, again))
