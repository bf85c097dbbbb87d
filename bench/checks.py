"""Correctness checks on the files `leashed` writes.

Each check reads a command's outputs with the standard library alone and
compares them against values recomputed here, apart from the program, or
against properties the method must have. None calls back into `leashed`.
Every check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

U = 2.0 ** -53  # unit roundoff of binary64
LATTICE = 2 ** 20  # generated gradient magnitudes are multiples of 2^-20


def read_trace(path: Path) -> dict:
    """trace.csv as columns of floats; empty cells become None."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                cols[name].append(float(cell) if cell else None)
    return cols


def stream_stats(norms: list, g0: float) -> dict:
    """T, G, h_T, sum_abs and max_ratio by the running sums a reader of the
    trace would write down, in trace order."""
    sum_abs = g_max = max_ratio = 0.0
    for n in norms:
        sum_abs += n
        if n > g_max:
            g_max = n
        if g_max > 0.0:
            max_ratio = max(max_ratio, sum_abs / g_max)
    return {"T": len(norms), "G": g_max, "h_T": max(g0, g_max),
            "sum_abs": sum_abs, "max_ratio": max_ratio}


def check_stats(stats: dict, norms: list, g0: float, scalar: bool) -> list:
    problems = []
    for key, want in stream_stats(norms, g0).items():
        if stats[key] != want:
            problems.append(f"stats.{key} = {stats[key]!r}, recomputed {want!r}")
    if scalar:
        # on the lattice every running sum is exact, so sum_abs is the exact sum
        if any(n * LATTICE != math.floor(n * LATTICE) for n in norms):
            problems.append("a scalar gradient magnitude is off the 2^-20 lattice")
        elif stats["sum_abs"] != float(sum(Fraction(n) for n in norms)):
            problems.append("stats.sum_abs differs from the exact sum of |g|")
    exact = sum(Fraction(n) ** 2 for n in norms)
    # a running sum of T rounded squares is off by at most gamma_{T+1} * sum
    m = (len(norms) + 1) * U
    if abs(Fraction(stats["sum_sq"]) - exact) > exact * Fraction(m / (1.0 - m)):
        problems.append(f"stats.sum_sq = {stats['sum_sq']!r}, exact {float(exact)!r}")
    return problems


def check_hints(hints: list, norms: list) -> list:
    """The hint in force never decreases and covers every earlier magnitude."""
    if all(h is None for h in hints):
        return []
    seen = 0.0
    prev = -math.inf
    for t, (h, n) in enumerate(zip(hints, norms), start=1):
        if h is None or h < prev:
            return [f"hint decreases at round {t}: {h!r} after {prev!r}"]
        if h < seen:
            return [f"hint {h!r} at round {t} is below an earlier |g| = {seen!r}"]
        prev = h
        seen = max(seen, n)
    return []


def check_barrier(trace: dict, algo: str, k: float, p: float,
                  diameter: float | None) -> list:
    """Played points stay inside the barrier, and the leash's barrier is
    k * (sum |g| / G)^p over the rounds before it."""
    sum_abs = g_max = b = 0.0
    for t, (w, n, barrier) in enumerate(
            zip(trace["w_norm"], trace["g_norm"], trace["barrier"]), start=1):
        want = diameter if algo == "fixed_diameter" else b
        if barrier != want:
            return [f"barrier {barrier!r} at round {t}, recomputed {want!r}"]
        if not w <= barrier:
            return [f"played |w| = {w!r} outside the barrier {barrier!r} at round {t}"]
        sum_abs += n
        g_max = max(g_max, n)
        if g_max > 0.0:
            b = k * (sum_abs / g_max) ** p
    return []


def check_wealth(trace: dict, eps: float) -> list:
    """The bettor's wealth stays positive and equals eps - cum_loss up to the
    rounding of two running sums over the same terms."""
    mass = eps
    for t, (wealth, cum, w, n) in enumerate(
            zip(trace["wealth"], trace["cum_loss"], trace["w_norm"], trace["g_norm"]),
            start=1):
        if not wealth > 0.0:
            return [f"wealth {wealth!r} at round {t}"]
        mass += w * n
        if abs(wealth - (eps - cum)) > 4 * (t + 1) * U * mass:
            return [f"wealth {wealth!r} at round {t} is not eps - cum_loss = {eps - cum!r}"]
    return []


def check_comparators(rows: list, final_cum: float, scalar: bool) -> list:
    """Regret never exceeds the stack's bound; regret is affine in the
    comparator, so regret(0) is the cumulative loss and, for scalars,
    regret(u) + regret(-u) = 2 regret(0)."""
    problems = [
        f"regret {r['regret']!r} above its bound {r['stack_bound']!r}"
        f" at |u| = {r['comparator_norm']!r}"
        for r in rows if not r["regret"] <= r["stack_bound"]
    ]
    zero = [r["regret"] for r in rows if r["comparator_norm"] == 0.0]
    if zero != [final_cum]:
        problems.append(f"regret at the origin {zero!r} is not the final cum_loss {final_cum!r}")
    if scalar and zero:
        r0 = Fraction(zero[0])
        by_u = {r["comparator"]: r["regret"] for r in rows}
        for u, r_pos in by_u.items():
            if u > 0.0 and -u in by_u:
                r_neg = by_u[-u]
                gap = abs(Fraction(r_pos) + Fraction(r_neg) - 2 * r0)
                if gap > 4 * U * (abs(r_pos) + abs(r_neg)):
                    problems.append(f"regret({u}) + regret({-u}) is not 2 regret(0)")
    return problems


def check_run(out_dir: Path, algo: str, T: int, dim: int, diameter: float | None,
              k: float = 1.0, p: float = 0.5, eps: float = 1.0, g0: float = 1.0) -> list:
    """All checks on one `leashed run` output directory."""
    trace = read_trace(out_dir / "trace.csv")
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    norms = trace["g_norm"]
    if len(norms) != T or summary["T"] != T or summary["stats"]["T"] != T:
        return [f"expected {T} rounds, trace has {len(norms)}, summary says {summary['T']}"]
    want = {"epsilon": eps, "k": k, "p": p, "g0": g0}
    if {key: summary["params"][key] for key in want} != want or summary["dim"] != dim:
        return [f"summary settings {summary['params']} dim {summary['dim']} are not the inputs"]
    scalar = dim == 1
    problems = check_stats(summary["stats"], norms, g0, scalar)
    if summary["stats"]["max_played_norm"] != max(trace["w_norm"]):
        problems.append("stats.max_played_norm is not the largest w_norm")
    problems += check_hints(trace["hint"], norms)
    if algo in ("leashed", "fixed_diameter"):
        problems += check_barrier(trace, algo, k, p, diameter)
    if algo == "ons_hints":
        problems += check_wealth(trace, eps)
    problems += check_comparators(summary["comparators"], trace["cum_loss"][-1], scalar)
    return problems


def ls_slope(xs: list, ys: list) -> float:
    """Closed-form least-squares slope of ys against xs."""
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def check_sweep(out_dir: Path, cells: int, comparators: int) -> list:
    """Every row within its bound, one row per cell and comparator, and every
    growth exponent equal to the least-squares slope of its rows."""
    with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != cells * comparators:
        problems.append(f"{len(rows)} sweep rows, expected {cells} x {comparators}")
    groups: dict = {}
    for r in rows:
        regret, bound = float(r["regret"]), float(r["bound"])
        if not regret <= bound:
            problems.append(f"regret {regret!r} above its bound {bound!r} in {r}")
        key = (float(r["k"]), float(r["p"]), r["adversary"], r["comparator"])
        groups.setdefault(key, []).append((int(r["T"]), regret))
    with open(out_dir / "exponents.csv", newline="", encoding="utf-8") as fh:
        fitted = {
            (float(r["k"]), float(r["p"]), r["adversary"], r["comparator"]): float(r["exponent"])
            for r in csv.DictReader(fh)
        }
    if set(fitted) != set(groups):
        problems.append(f"{len(fitted)} exponent rows for {len(groups)} sweep groups")
    for key, pts in groups.items():
        xs = [math.log10(T) for T, _ in pts]
        ys = [math.log10(max(r, 1.0)) for _, r in pts]
        want = ls_slope(xs, ys)
        if key in fitted and not abs(fitted[key] - want) <= 1e-9:
            problems.append(f"exponent {fitted[key]!r} for {key}, least squares gives {want!r}")
    return problems


def check_verify(output: str, criteria: tuple) -> list:
    """Every named criterion reports PASS exactly once, and the tally agrees."""
    lines = output.splitlines()
    problems = []
    for name in criteria:
        mine = [ln for ln in lines if ln.split(":", 1)[0].split(" ", 1)[-1] == name]
        if len(mine) != 1 or not mine[0].startswith("PASS "):
            problems.append(f"criterion {name}: {mine!r}")
    tally = f"{len(criteria)}/{len(criteria)} criteria passed"
    if not lines or lines[-1] != tally:
        problems.append(f"last line {lines[-1] if lines else ''!r}, expected {tally!r}")
    return problems
