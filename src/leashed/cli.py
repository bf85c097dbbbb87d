"""Command-line harness: single runs with traces, acceptance checks, sweeps.

A game's settings form one frozen `stacks.RunSpec`, the record `verify`
builds its games from too. Each field resolves in precedence order: flag,
then the environment variable LEASHED_<FIELD> (e.g. LEASHED_T), then the
JSON file given via --config, where null counts as unset, then the field's
default; building the spec checks it before any game runs. `verify` hands
`acceptance.run_suite` the worker pool and prints the results it returns.
Trace and summary files land in the existing directory named by --out.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .adversaries import KINDS
from .bounds import StreamStats, bettor_bound
from .core import GameDivergence, Learner, RegretLedger, dual_norm, run_game
from .stacks import ALGOS, RunSpec, _parse_listish
from . import acceptance

ENV_PREFIX = "LEASHED_"

# the settings `sweep` takes as comma-separated grids
GRID_KEYS = ("k", "p", "adversary", "T")

TRACE_COLUMNS = ("t", "w_norm", "g_norm", "hint", "barrier", "wealth", "cum_loss")


class TraceRecorder(Learner):
    """Pass-through learner that snapshots introspection fields each round."""

    def __init__(self, inner: Learner):
        self.inner = inner
        self.hints: list = []
        self.barriers: list = []
        self.wealths: list = []

    @property
    def wealth(self):
        return self.inner.wealth

    def play(self):
        w = self.inner.play()
        self.hints.append(self.inner.current_hint)
        self.barriers.append(self.inner.barrier)
        return w

    def update(self, g) -> None:
        self.inner.update(g)
        self.wealths.append(self.inner.wealth)


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _strict(cast):
    """cast, refusing what it would change without a word: a bool (a JSON
    true is not the number 1) and, for int, a number with a fraction."""
    def convert(v):
        if isinstance(v, bool) or (cast is int and isinstance(v, float) and not v.is_integer()):
            raise ValueError(f"{v!r} is not a valid {cast.__name__}")
        return cast(v)
    return convert


def _settings(args: argparse.Namespace, grid=()) -> dict:
    """Every RunSpec field from its flag, else LEASHED_<FIELD>, else the
    config file, else its default, cast strictly to the type of that default
    (D is a float). The fields named in `grid` resolve to lists."""
    file_cfg = _load_config(args.config)
    out = {}
    for f in dataclasses.fields(RunSpec):
        raw = next((v for v in (getattr(args, f.name, None),
                                os.environ.get(ENV_PREFIX + f.name.upper()),
                                file_cfg.get(f.name)) if v is not None), None)
        cast = _strict(float if f.default is None else type(f.default))
        if f.name in grid:
            out[f.name] = [f.default] if raw is None else _parse_listish(raw, cast)
        else:
            out[f.name] = f.default if raw is None else cast(raw)
    return out


def _fmt(x: Union[float, None]) -> str:
    return "" if x is None else format(float(x), ".17g")


def _strict_json(x):
    """x with every non-finite float replaced by its %.17g spelling ("inf",
    "-inf", "nan"), which float() reads back."""
    if isinstance(x, dict):
        return {key: _strict_json(v) for key, v in x.items()}
    if isinstance(x, list):
        return [_strict_json(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return _fmt(x)
    return x


def _comparator_label(wc, i: int) -> str:
    """A scalar's value; a vector's norm and index i in RunSpec.comparators_for."""
    if isinstance(wc, np.ndarray):
        return f"|w|={dual_norm(wc):.6g}#{i}"
    return format(float(wc), ".12g")


def _write_trace(path: Path, ledger: RegretLedger, recorder: TraceRecorder) -> Optional[int]:
    """Stream trace.csv a row per round, in the bytes csv.writer writes:
    floats in %.17g, a column the learner reports as None left empty, CRLF
    line ends. The norms and cum_loss are the ledger's, the other columns
    the recorder's. Stops at the first round holding a non-finite value and
    returns that round; returns None once every row is written."""
    extras = (recorder.hints, recorder.barriers, recorder.wealths)
    known = [col for col in extras if col[0] is not None]
    fields = ["%.17g" if col[0] is not None else "" for col in extras]
    row_fmt = ",".join(["%d", "%.17g", "%.17g", *fields, "%.17g"]) + "\r\n"
    isfinite = math.isfinite
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write = fh.write
        write(",".join(TRACE_COLUMNS) + "\r\n")
        for r, *values in zip(ledger.rounds, *known):
            row = (r.t, r.w_norm, r.g_norm, *values, r.cum_loss)
            if not all(map(isfinite, row)):
                return r.t
            write(row_fmt % row)
    return None


def cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = RunSpec(**_settings(args))
    except (OSError, OverflowError, TypeError, ValueError) as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(spec.out)
    if not out_dir.is_dir():
        print(f"output directory {out_dir} does not exist", file=sys.stderr)
        return 1
    adv_cfg, adversary, learner = spec.build()
    recorder = TraceRecorder(learner)
    try:
        ledger = run_game(recorder, adversary, spec.T, keep_rows=True)
    except (GameDivergence, ValueError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1

    trace_path = out_dir / "trace.csv"
    bad_round = _write_trace(trace_path, ledger, recorder)
    if bad_round is not None:
        print(f"non-finite trace value at round {bad_round}", file=sys.stderr)
        return 1

    stats = StreamStats.from_ledger(ledger, g0=spec.g0)
    params = spec.params
    rows = spec.rows(ledger, stats, spec.comparators_for(ledger))
    summary = {
        "algo": spec.algo,
        "adversary": dataclasses.asdict(adv_cfg),
        "T": spec.T,
        "dim": spec.dim,
        "params": dataclasses.asdict(params),
        "diameter": spec.D,
        "stats": {**dataclasses.asdict(stats), "max_played_norm": ledger.max_played_norm},
        "comparators": [
            {
                "comparator": [float(x) for x in wc] if isinstance(wc, np.ndarray) else float(wc),
                "comparator_norm": w_abs,
                "regret": regret,
                "bettor_bound": bettor_bound(params, stats, w_abs),
                "stack_bound": bound,
                "ratio": ratio,
            }
            for wc, w_abs, regret, bound, ratio in rows
        ],
    }
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(_strict_json(summary), fh, indent=2, allow_nan=False)
        fh.write("\n")
    print(f"wrote {trace_path.name} and {summary_path.name}")
    return 0


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], spread over min(jobs, len(items)) forked
    worker processes when that is two or more, else run in this process.
    Every worker has exited when it returns or raises."""
    workers = min(jobs, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def cmd_verify(args: argparse.Namespace) -> int:
    results = acceptance.run_suite(acceptance.SUITES[args.suite],
                                   lambda fn, tasks: _map(fn, tasks, _usable_cores()))
    for r in results:
        print(acceptance.format_result(r))
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if n_pass == len(results) else 1


def _sweep_cell(spec: RunSpec) -> list:
    _, adversary, learner = spec.build()
    ledger = run_game(learner, adversary, spec.T)
    stats = StreamStats.from_ledger(ledger, g0=spec.g0)
    rows = spec.rows(ledger, stats, spec.comparators_for(ledger))
    return [
        (spec.k, spec.p, spec.adversary, spec.T, _comparator_label(wc, i), regret, bound, ratio)
        for i, (wc, _, regret, bound, ratio) in enumerate(rows)
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        settings = _settings(args, grid=GRID_KEYS)
        grids = {key: settings.pop(key) for key in GRID_KEYS}
        empty = [key for key, values in grids.items() if not values]
        if empty:
            raise ValueError(f"empty sweep grid for {', '.join(empty)}")
        base = RunSpec(**settings)
        cells = [
            dataclasses.replace(base, k=k, p=p, adversary=kind, T=T)
            for k in grids["k"]
            for p in grids["p"]
            for kind in grids["adversary"]
            for T in grids["T"]
        ]
    except (OSError, OverflowError, TypeError, ValueError) as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(base.out)
    if not out_dir.is_dir():
        print(f"output directory {out_dir} does not exist", file=sys.stderr)
        return 1
    try:
        chunks = _map(_sweep_cell, cells, base.jobs)
    except (GameDivergence, ValueError) as exc:
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return 1
    rows = [row for chunk in chunks for row in chunk]

    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("k", "p", "adversary", "T", "comparator", "regret", "bound", "ratio"))
        for k, p, kind, T, label, regret, bound, ratio in rows:
            writer.writerow((_fmt(k), _fmt(p), kind, T, label, _fmt(regret), _fmt(bound),
                             _fmt(ratio)))
    written = [sweep_path.name]

    if len(set(grids["T"])) >= 2:
        # growth exponent of clamped regret across the horizon grid
        groups = {}
        for k, p, kind, T, label, regret, _, _ in rows:
            groups.setdefault((k, p, kind, label), []).append((T, regret))
        exp_path = out_dir / "exponents.csv"
        with open(exp_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("k", "p", "adversary", "comparator", "exponent"))
            for (k, p, kind, label), pts in sorted(groups.items()):
                pts = sorted(pts)
                if len({t for t, _ in pts}) < 2:
                    continue
                xs = [math.log10(t) for t, _ in pts]
                ys = [math.log10(max(r, 1.0)) for _, r in pts]
                slope = float(np.polyfit(xs, ys, 1)[0])
                writer.writerow((_fmt(k), _fmt(p), kind, label, _fmt(slope)))
        written.append(exp_path.name)
    print("wrote " + " and ".join(written))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leashed",
        description="Parameter-free online linear optimization with adaptive constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, listy: bool) -> None:
        if listy:
            p.add_argument("--k", help="comma-separated barrier scales")
            p.add_argument("--p", help="comma-separated barrier exponents")
            p.add_argument("--adversary", help="comma-separated adversary kinds")
            p.add_argument("--T", help="comma-separated horizons")
        else:
            p.add_argument("--k", type=float, help="barrier scale")
            p.add_argument("--p", type=float, help="barrier exponent in (0, 1]")
            p.add_argument("--adversary", choices=KINDS, help="gradient stream kind")
            p.add_argument("--T", type=int, help="number of rounds")
        p.add_argument("--algo", choices=ALGOS, help="learner stack")
        p.add_argument("--dim", type=int, help="game dimension")
        p.add_argument("--eps", type=float, help="initial wealth")
        p.add_argument("--alpha", type=float, help="curvature seed for the betting update")
        p.add_argument("--g0", type=float, help="initial magnitude guess")
        p.add_argument("--D", type=float, help="diameter for the fixed_diameter stack")
        p.add_argument("--seed", type=int, help="seed for adversaries and comparators")
        p.add_argument("--comparators", help='"auto" or comma-separated scalars')
        p.add_argument("--out", help="existing output directory")
        p.add_argument("--scale", type=float, help="gradient scale")
        p.add_argument("--rate", type=float, help="growth rate for the growing kind")
        p.add_argument("--period", type=int, help="spike period")
        p.add_argument("--magnitude", type=float, help="spike magnitude")
        p.add_argument("--envelope", type=float, help="magnitude cap for seeded kinds")
        p.add_argument("--config", help="JSON file with default settings")

    run_p = sub.add_parser("run", help="play one game; write trace.csv and summary.json")
    add_common(run_p, listy=False)
    run_p.set_defaults(func=cmd_run)

    verify_p = sub.add_parser("verify", help="run acceptance criteria")
    verify_p.add_argument(
        "suite", nargs="?", default="all", choices=tuple(acceptance.SUITES),
        help="criterion group to run",
    )
    verify_p.set_defaults(func=cmd_verify)

    sweep_p = sub.add_parser("sweep", help="grid of games; write sweep.csv and exponents.csv")
    add_common(sweep_p, listy=True)
    sweep_p.add_argument("--jobs", type=int, help="parallel worker processes")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenProcessPool as exc:  # a worker was killed, for example for memory
        print(f"{args.command} aborted: a worker process died: {exc}", file=sys.stderr)
        return 1
