"""Gradient-stream generators and brute-force oracles for tests.

All generated magnitudes are snapped down to the lattice of multiples of
2**-20 before the configured scale is applied. That makes streams exactly
scalable: multiplying the scale by any factor up to ~10^6 multiplies every
gradient exactly, with no rounding, and running magnitude sums stay exact
well past the horizons used in tests. Seeded kinds draw from PCG64; two
independent child streams (spawned from a SeedSequence over the seed) supply
magnitude/sign words and direction vectors, so traces are reproducible
bit-for-bit from (config, seed) alone. A seeded stream is drawn a block of
rounds at a time, with the operations of one draw per round applied
elementwise; the size of a block never changes the stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import RegretLedger, Vector, row_dots

KINDS = (
    "constant",
    "alternating",
    "growing",
    "spike",
    "seeded_uniform",
    "seeded_signs",
    "zero",
    "adaptive_sign",
)

SEEDED_KINDS = ("seeded_uniform", "seeded_signs")

# comparator_sweep's one-dimensional comparators; the positive ones are its magnitudes
SCALAR_COMPARATORS = (0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0)

_GRID = float(2 ** 20)
# from here on x * 2**20 overflows; every float this large is an integer
_LATTICE_TOP = 2.0 ** 1004
# seeded random directions per magnitude in comparator_sweep
_N_RANDOM = 4
# rounds per block of a scalar seeded stream; entries per block of a vector
# one (max(1, _VECTOR_BLOCK // d) rows, 256 KB), so its memory does not grow
# with d up to d = _VECTOR_BLOCK; past that a block is one row of d entries
_SCALAR_BLOCK = 1024
_VECTOR_BLOCK = 32768
# unit roundoff of a float64 operation
_U = 2.0 ** -53


def quantize_magnitude(x: float) -> float:
    """Largest multiple of 2**-20 not exceeding x; x must be nonnegative.

    x at or above 2**1004 (inf included) is already on the lattice and comes
    back unchanged.
    """
    return math.floor(x * _GRID) / _GRID if x < _LATTICE_TOP else x


@dataclass(frozen=True)
class AdversaryConfig:
    kind: str
    scale: float = 1.0
    dim: int = 1
    seed: int = 0
    rate: float = 0.5        # growing: magnitude t**rate
    period: int = 10         # spike: every period-th round is a spike
    magnitude: float = 10.0  # spike: spike size, in units of scale
    envelope: float = 1.0    # seeded kinds: magnitude cap, in units of scale

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.period < 1:
            raise ValueError(f"spike period must be >= 1, got {self.period}")
        # magnitude and envelope are snapped onto the lattice, which needs x * 2**20 finite
        if not 0.0 < self.magnitude < _LATTICE_TOP:
            raise ValueError(f"spike magnitude must lie in (0, 2**1004), got {self.magnitude}")
        if not 0.0 < self.envelope < _LATTICE_TOP:
            raise ValueError(f"envelope must lie in (0, 2**1004), got {self.envelope}")
        if not math.isfinite(self.rate):
            raise ValueError(f"growth rate must be finite, got {self.rate}")


class StreamAdversary:
    """Stateful gradient source; next_grad may inspect the played point."""

    __slots__ = ("config", "_block", "_words", "_dirs", "_i", "_spike")

    def __init__(self, config: AdversaryConfig):
        self.config = config
        # a seeded stream's gradients, a block at a time; None for other kinds
        self._block: Union[list, np.ndarray, None] = None
        if config.kind in SEEDED_KINDS:
            words, dirs = np.random.SeedSequence(config.seed).spawn(2)
            self._words = np.random.Generator(np.random.PCG64(words))
            self._dirs = np.random.Generator(np.random.PCG64(dirs))
            self._block = []
            self._i = 0
        if config.kind == "spike":
            # a spike round's gradient and every other round's, as next_grad plays them
            self._spike = (config.scale * quantize_magnitude(config.magnitude),
                           config.scale * quantize_magnitude(1.0))

    def bound(self) -> Union[float, None]:
        """A-priori cap on gradient norms, None when the stream is unbounded.

        Exceeds every generated norm exactly (not merely to rounding) in the
        one-dimensional game, so it is safe to hand out as a constant hint.
        """
        c = self.config
        if c.kind == "zero":
            return 0.0
        if c.kind == "growing":
            return None
        if c.kind == "spike":
            return c.scale * quantize_magnitude(max(1.0, c.magnitude))
        if c.kind in SEEDED_KINDS:
            return c.scale * quantize_magnitude(c.envelope)
        return c.scale * quantize_magnitude(1.0)

    def _fill(self) -> None:
        """Draw the next block of a seeded stream: Python floats in the
        one-dimensional game, else an array with a round's gradient per row.
        Each value takes the IEEE operations, in order, of one draw per
        round: a word (low bit the sign, top 53 bits the uniform fraction),
        the magnitude snapped to the lattice, times the scale, times a unit
        direction that rounding left above norm 1 shaved by 2**-50."""
        c = self.config
        n = _SCALAR_BLOCK if c.dim == 1 else max(1, _VECTOR_BLOCK // c.dim)
        u = self._words.integers(0, 2 ** 64, size=n, dtype=np.uint64)
        sign = np.where(u & 1, 1.0, -1.0)
        # scale * mag may overflow to inf, as a Python float product does silently
        with np.errstate(over="ignore"):
            if c.kind == "seeded_uniform":
                # the fraction is below 1, so frac * envelope stays under _LATTICE_TOP
                frac = (u >> 11).astype(float) * 2.0 ** -53
                mag = np.floor(frac * c.envelope * _GRID) / _GRID
            else:
                mag = quantize_magnitude(c.envelope)
            values = sign * (c.scale * mag)
        if c.dim == 1:
            self._block = values.tolist()
        else:
            block = _unit_rows(self._dirs.standard_normal((n, c.dim)))
            over = _row_norms(block) > 1.0
            if over.any():
                block[over] *= 1.0 - 2.0 ** -50
            self._block = np.multiply(values[:, None], block, out=block)
        self._i = 0

    def next_grad(self, t: int, w: Vector) -> Vector:
        """Gradient for round t (1-based); w is the point just played."""
        if self._block is not None:
            i = self._i
            if i == len(self._block):
                self._fill()
                i = 0
            self._i = i + 1
            return self._block[i]
        c = self.config
        kind = c.kind
        if kind == "zero":
            return np.zeros(c.dim) if c.dim > 1 else 0.0
        if kind == "constant":
            value = c.scale * 1.0
        elif kind == "alternating":
            value = c.scale if t % 2 == 0 else -c.scale
        elif kind == "growing":
            try:
                raw = float(t) ** c.rate
            except OverflowError:  # past float range: the game sees a non-finite gradient
                raw = math.inf
            value = c.scale * quantize_magnitude(raw)
        elif kind == "spike":
            value = self._spike[0] if t % c.period == 0 else self._spike[1]
        else:  # adaptive_sign
            lead = float(w[0]) if isinstance(w, np.ndarray) else float(w)
            sign = 1.0 if lead >= 0.0 else -1.0
            value = sign * (c.scale * 1.0)
        if c.dim == 1:
            return value
        g = np.zeros(c.dim)
        g[0] = value
        return g


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """x with each row divided by its dual_norm, in place: row for row, bit
    for bit, row / dual_norm(row). A row whose norm is not positive (zero,
    or nan) becomes the first axis."""
    norms = _row_norms(x)
    flat = ~(norms > 0.0)
    if flat.any():
        x[flat] = 0.0
        x[flat, 0] = 1.0
        norms[flat] = 1.0
    x /= norms[:, None]
    return x


def _row_norms(x: np.ndarray) -> np.ndarray:
    """dual_norm of every row, bit for bit."""
    return np.sqrt(row_dots(x, x))


def best_betting_fraction(gs, h_final: float, resolution: float = 1e-4) -> float:
    """Exhaustive-grid minimizer of the betting loss sum(-ln(1 - g*v)).

    Searches v over np.linspace(-1/(2 h_final), 1/(2 h_final), n), n odd
    and its centre set to 0.0, at the given step; ties break toward the
    smallest |v|. Requires finite gradients with max|g| <= h_final, so the
    whole grid stays inside the loss domain, and a step count numpy can
    index. The loss is convex in v, so certified_window finds the
    exhaustive scan's answer, ties included, from a window of the grid.
    """
    if not h_final > 0.0:
        raise ValueError(f"final hint must be positive, got {h_final}")
    if not resolution > 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    gs = np.asarray(list(gs), dtype=float)
    if gs.size == 0:
        return 0.0
    cap = 0.5 / h_final
    top = float(np.max(np.abs(gs)))
    if math.isnan(top):
        raise ValueError("gradient stream contains NaN")
    if top > h_final:
        raise ValueError("stream does not respect the final hint")
    if math.isinf(top):
        raise ValueError("gradient stream contains an infinite gradient")
    steps = 2.0 * cap / resolution
    if not steps <= np.iinfo(np.intp).max:
        raise ValueError(f"betting grid too large: 2 * (0.5 / h_final) / resolution = "
                         f"{steps:.3g} steps for h_final={h_final!r}, resolution={resolution!r}")
    n = int(math.ceil(steps)) + 1
    if n % 2 == 0:
        n += 1

    def points(idx: np.ndarray) -> np.ndarray:
        v = linspace_points(-cap, cap, n, idx)
        v[idx == n // 2] = 0.0
        return v

    vals, counts = np.unique(gs, return_counts=True)
    neg, weights = -vals, counts.astype(float)
    err = _betting_error(vals, weights, cap)
    # windows of whole blocks make every row's arithmetic the exhaustive scan's
    idx, losses = certified_window(n, lambda i: _grid_losses(points(i), neg, weights),
                                   lambda loss: err, align=_block_rows(vals.size))
    v = points(idx[losses == losses.min()])
    return float(v[np.argmin(np.abs(v))])


def _betting_error(vals: np.ndarray, weights: np.ndarray, cap: float) -> float:
    """E, a bound on |computed - exact| betting loss at every point of a grid
    with |v| <= cap, for the distinct gradients vals (|g| <= h, cap =
    fl(0.5 / h)) with their counts as weights.

    Error model: a product or a sum rounds with relative error at most
    u = 2**-53, log1p with at most 4 ulp (relative 8u), a result below
    2**-1022 with absolute error at most 4 * 2**-1074, and a weighted sum of
    m terms, in any order, with at most gamma_m = m u / (1 - m u) times the
    sum of |term * weight| (Higham, Accuracy and Stability of Numerical
    Algorithms, eq. 3.5).

    Each row computes y = fl(v * -g) = z (1 + d1), z = -g v, with |z| <=
    h cap <= (1 + u) / 2, so 1 / (1 - |z|) < 2.0001. Then |log1p(z)| <=
    2.0001 |z|, |log1p(y) - log1p(z)| <= 2.0001 u |z|, and the computed
    term fl(log1p(y)) is within 8u * 2.0002 |z| + 2.0001 u |z| <= 18.01 u |z|
    of log1p(z) and at most 2.01 |z| in size. The weighted sum over the m
    distinct values adds gamma_m * 2.01 * sum_j w_j |z_j|; the negation is
    exact. With sum_j w_j |z_j| <= cap * sum_j w_j |g_j|,

        |computed - exact| <= (18.01 u + 2.01 gamma_m) cap sum_j w_j |g_j|

    plus at most 8 * 2**-1074 per round where results underflow. E takes
    20u + 3 gamma_m and 64 * 2**-1074 per round, whose slack covers the
    rounding of E's own arithmetic."""
    m = vals.size
    gamma = m * _U / (1.0 - m * _U)
    rounds = float(weights.sum())
    return ((20.0 * _U + 3.0 * gamma) * cap * float(np.abs(vals) @ weights)
            + rounds * 2.0 ** -1068)


def linspace_points(start: float, stop: float, n: int, idx: np.ndarray) -> np.ndarray:
    """np.linspace(start, stop, n)[idx] bit for bit, without the other
    points: i * step + start with step = (stop - start) / (n - 1), and stop
    at i = n - 1 when n > 1, as linspace computes them. Needs a step that
    does not underflow to 0."""
    pts = idx * ((stop - start) / max(n - 1, 1))
    pts += start
    if n > 1:
        pts[idx == n - 1] = stop
    return pts


def certified_window(n: int, losses, error, align: int = 1) -> tuple:
    """(idx, losses(idx)) for a window idx of consecutive indices of an
    n-point grid on which the computed losses certify that every point
    outside the window computes a loss strictly above the window's least:
    the window's least loss and the indices that tie it are the whole grid's.

    losses(idx) computes the loss at an array of grid indices; a point's
    loss must not depend on which other points share the call, at least in
    windows that start at a multiple of align. The exact loss L must be
    convex along the grid (points in increasing order), and error(x) must
    (i) bound |computed - exact| at every point that computes x, and (ii)
    let a point whose exact loss exceeds that of a point computing x compute
    at least x - 2 error(x). A constant error bound E has both: the point
    computes at least its L - E, above the other's L - E >= x - 2E.

    A pass at stride s = isqrt(n - 1) + 1 picks a centre; the window spans
    s points either side of it, rounded out to multiples of align, and
    doubles until the certificate holds at each edge that is not an end of
    the grid: the edge's loss exceeds the window's least by more than twice
    the larger of their two error bounds. By (i) L(edge) > L(best); by
    convexity L(x) > L(edge) at every x past the edge; by (ii) x computes at
    least edge - 2 error(edge) > least. A window that never certifies grows
    to the whole grid, the exhaustive scan. The certificate is tested in
    Python floats, where inf - inf is a quiet nan that fails it, as does any
    nan loss or error bound.
    """
    stride = math.isqrt(max(n - 1, 0)) + 1
    coarse = np.arange(0, n, stride)
    centre = int(coarse[np.argmin(losses(coarse))])
    half = stride
    while True:
        lo = max(0, centre - half) // align * align
        hi = min(n, -(-(centre + half + 1) // align) * align)
        idx = np.arange(lo, hi)
        vals = losses(idx)
        if lo == 0 and hi == n:
            return idx, vals
        least = float(vals.min())
        if ((lo == 0 or _clears(float(vals[0]), least, error))
                and (hi == n or _clears(float(vals[-1]), least, error))):
            return idx, vals
        half *= 2


def _clears(edge: float, least: float, error) -> bool:
    """The certificate at one window edge."""
    return edge - least > 2.0 * max(error(edge), error(least))


def _block_rows(distinct: int) -> int:
    """Grid rows per block of _grid_losses: about 250k loss terms."""
    return max(1, 250_000 // distinct)


def _grid_losses(grid: np.ndarray, neg: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * -ln(1 + neg[j] * v) at every v of the grid. Rows
    of the grid go in blocks of _block_rows(neg.size), counted from the
    grid's first row, each evaluated in place; negating the values first and
    the sums last is exact, so the losses equal -log1p(outer(grid, neg)) @
    weights bit for bit."""
    losses = np.empty(grid.size)
    chunk = _block_rows(neg.size)
    for lo in range(0, grid.size, chunk):
        m = np.outer(grid[lo:lo + chunk], neg)
        np.log1p(m, out=m)
        losses[lo:lo + m.shape[0]] = m @ weights
    return np.negative(losses, out=losses)


def comparator_sweep(ledger: RegretLedger, seed: int = 0) -> list:
    """Standard comparator set for bound reports, scored by `run`, `sweep`
    and `verify`.

    One-dimensional games get SCALAR_COMPARATORS: 0, +/-0.1, +/-1, +/-10,
    +/-100. Higher dimensions get the zero vector plus those magnitudes
    along +/- the normalized gradient sum (first axis when the sum is zero)
    and along four seeded random unit directions per magnitude.
    """
    d = ledger.dim
    if d is None or d == 1:
        return list(SCALAR_COMPARATORS)
    magnitudes = SCALAR_COMPARATORS[1::2]
    lead = _unit_rows(np.array(ledger.grad_sum, dtype=float, ndmin=2))[0]
    dirs = random_unit_vectors(d, _N_RANDOM, seed)
    out = [np.zeros(d)]
    for m in magnitudes:
        out.append(m * lead)
        out.append(-m * lead)
        for u in dirs:
            out.append(m * u)
    return out


def random_unit_vectors(d: int, n: int, seed: int) -> list:
    """n unit vectors in R^d from normal draws of PCG64(seed), in draw order;
    a draw of exactly zero is replaced by the first axis."""
    gen = np.random.Generator(np.random.PCG64(seed))
    return list(_unit_rows(gen.standard_normal((n, d))))
