"""Command-line harness: single runs with traces, acceptance checks, sweeps.

A game's settings form one frozen `stacks.RunSpec`, the record `verify`
builds its games from too. Each field is a flag --<field> with the help
text the field carries (sweep's grid fields take comma-separated lists;
`run` has no --jobs) and resolves in precedence order: flag, then the
environment variable LEASHED_<FIELD> (e.g. LEASHED_T), then the JSON file
given via --config, where null counts as unset, then the field's default.
`_settings` is the one cast and building the spec the one check, both
before any game runs. `verify` hands `acceptance.run_suite` the worker pool
and prints the results it returns. Trace and summary files land in the
existing directory named by --out, and each file a command will write is
checked before its first game, creating and truncating nothing. `sweep`
plays one game per (k, p, adversary) cell and scores it at each horizon of
the grid as the game reaches it. A setting's value may start with "-"
(`--comparators -1,2`). A game that diverges, breaks a learner's contract
or leaves a non-finite value for trace.csv, or an output write that fails,
ends the command in `main`, which prints "<command> aborted: <message>" and
returns 1.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .bounds import StreamStats, bettor_bound
from .core import GameDivergence, RegretLedger, holder, run_game
from .stacks import RunSpec, comparator_label, growth_exponent
from . import acceptance

ENV_PREFIX = "LEASHED_"

# the settings `sweep` takes as comma-separated grids
GRID_KEYS = ("k", "p", "adversary", "T")

TRACE_COLUMNS = ("t", "w_norm", "g_norm", "hint", "barrier", "wealth", "cum_loss")


class TraceRecorder:
    """Pass-through learner that records, each round, the hint h and the
    barrier B the point is played under and the wealth after the update,
    each read from the layer of the stack that holds it, found once by
    `holder`; a stack with no such layer records None."""

    __slots__ = ("inner", "hints", "barriers", "wealths", "_hint", "_barrier", "_bettor")

    def __init__(self, inner):
        self.inner = inner
        self.hints: list = []
        self.barriers: list = []
        self.wealths: list = []
        self._hint, self._barrier, self._bettor = (holder(inner, name)
                                                   for name in ("h", "B", "wealth"))

    def play(self):
        w = self.inner.play()
        hint, barrier = self._hint, self._barrier
        self.hints.append(None if hint is None else hint.h)
        self.barriers.append(None if barrier is None else barrier.B)
        return w

    def update(self, g) -> None:
        self.inner.update(g)
        bettor = self._bettor
        self.wealths.append(None if bettor is None else bettor.wealth)


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


def _parse_listish(raw, cast) -> list:
    """cast of each entry of a JSON list, or of each comma-separated part of text."""
    if isinstance(raw, list):
        return [cast(v) for v in raw]
    return [cast(p.strip()) for p in str(raw).split(",") if p.strip()]


def _settings(args: argparse.Namespace, grid=()) -> dict:
    """Every RunSpec field from its flag, else LEASHED_<FIELD>, else the
    config file, else its default, cast strictly to the type of that default
    (D is a float). The fields named in `grid` resolve to lists, and
    comparators, unless unset or "auto" (None), to a tuple of floats: text
    or a JSON list, each cast as the grids are. A config key that names no
    field, or a value that does not cast, is a ValueError; the latter's
    message starts with the field's name."""
    file_cfg = _load_config(args.config)
    fields = dataclasses.fields(RunSpec)
    unknown = sorted(set(file_cfg) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"config file names no setting: {', '.join(unknown)}")
    out = {}
    for f in fields:
        raw = next((v for v in (getattr(args, f.name, None),
                                os.environ.get(ENV_PREFIX + f.name.upper()),
                                file_cfg.get(f.name)) if v is not None), None)
        cast = _strict(float if f.default is None else type(f.default))
        try:
            if f.name in grid:
                out[f.name] = [f.default] if raw is None else _parse_listish(raw, cast)
            elif f.name == "comparators":
                out[f.name] = (None if raw in (None, "auto")
                               else tuple(_parse_listish(raw, cast)))
            else:
                out[f.name] = f.default if raw is None else cast(raw)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"{f.name}: {exc}") from None
    return out


def _fmt(x: Union[float, None]) -> str:
    return "" if x is None else format(float(x), ".17g")


def _json_chunks(x, pad: str = "\n"):
    """The text json.dump(x, fh, indent=2) writes, in pieces, for x made of
    dicts with str keys, lists, tuples and scalars, except that a non-finite
    float is written as the string of its %.17g spelling ("inf", "-inf",
    "nan"), which float() reads back, so the text is strict JSON. A list of
    finite floats, such as a comparator, is one piece, formatted in one join."""
    inner = pad + "  "
    if isinstance(x, dict) and x:
        sep = "{" + inner
        for key, v in x.items():
            yield sep + json.dumps(key) + ": "
            yield from _json_chunks(v, inner)
            sep = "," + inner
        yield pad + "}"
    elif isinstance(x, (list, tuple)) and x:
        if all(type(v) is float for v in x) and all(map(math.isfinite, x)):
            yield "[" + inner + ("," + inner).join(map(float.__repr__, x)) + pad + "]"
            return
        sep = "[" + inner
        for v in x:
            yield sep
            yield from _json_chunks(v, inner)
            sep = "," + inner
        yield pad + "]"
    elif isinstance(x, float):
        yield float.__repr__(x) if math.isfinite(x) else json.dumps(_fmt(x))
    else:
        yield json.dumps(x)


def _write_trace(path: Path, ledger: RegretLedger, recorder: TraceRecorder) -> Optional[int]:
    """Write trace.csv in the bytes csv.writer writes: floats in %.17g, a
    column no layer of the stack holds (None) left empty, CRLF line ends.
    The norms and cum_loss are the ledger's, t is a row's position, the
    other columns the recorder's. A column that holds one nonzero finite
    value in every round goes into the row template as text (not 0.0, which
    == does not tell from -0.0), and the rows are formatted and written with
    no Python loop. Stops before the first round holding a non-finite value
    and returns that round; returns None once every row is written."""
    rows = ledger.rounds
    w_norm, g_norm, cum_loss = (list(map(attrgetter(name), rows))
                                for name in ("w_norm", "g_norm", "cum_loss"))
    values = (w_norm, g_norm, recorder.hints, recorder.barriers, recorder.wealths, cum_loss)
    n = len(rows)
    for col in values:
        if col[0] is not None and not all(map(math.isfinite, col)):
            n = min(n, list(map(math.isfinite, col)).index(False))
    fields, varying = ["%d"], [range(1, len(rows) + 1)]
    for col in values:
        if col[0] is None:
            fields.append("")
        elif col[0] and math.isfinite(col[0]) and col.count(col[0]) == len(col):
            fields.append("%.17g" % col[0])
        else:
            fields.append("%.17g")
            varying.append(col)
    row_fmt = ",".join(fields) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.writelines(map(row_fmt.__mod__, islice(zip(*varying), n)))
    return None if n == len(rows) else n + 1


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
    trace_path, summary_path = out_dir / "trace.csv", out_dir / "summary.json"
    _check_writable([trace_path, summary_path])
    adversary, learner = spec.build()
    recorder = TraceRecorder(learner)
    ledger = run_game(recorder, adversary, spec.T, ledger=RegretLedger(keep_rows=True))
    bad_round = _write_trace(trace_path, ledger, recorder)
    if bad_round is not None:
        raise GameDivergence(f"non-finite trace value at round {bad_round}")

    stats = StreamStats.from_ledger(ledger)
    params = spec.params
    summary = {
        "algo": spec.algo,
        "adversary": dataclasses.asdict(adversary.config),
        "T": spec.T,
        "dim": spec.dim,
        "params": dataclasses.asdict(params),
        "diameter": spec.D,
        "stats": {"T": stats.T, "sum_sq": stats.sum_sq, "sum_abs": stats.sum_abs,
                  "G": stats.G, "h_T": max(params.g0, stats.G), "max_ratio": stats.max_ratio,
                  "max_played_norm": ledger.max_played_norm},
        "comparators": [
            {
                "comparator": wc.tolist() if isinstance(wc, np.ndarray) else float(wc),
                "comparator_norm": w_abs,
                "regret": regret,
                "bettor_bound": bettor_bound(params, stats, w_abs),
                "stack_bound": bound,
                "ratio": ratio,
            }
            for wc, w_abs, regret, bound, ratio in spec.rows(ledger, stats=stats)
        ],
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(summary))
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


def _sweep_cell(cell) -> list:
    """The rows of a cell's next horizon: cell is (spec, the spec's
    RunSpec.play_through), whose game this call plays on to that horizon."""
    spec, game = cell
    T, ledger = next(game)
    return [
        (spec.k, spec.p, spec.adversary, T, comparator_label(wc, i), regret, bound, ratio)
        for i, (wc, _, regret, bound, ratio) in enumerate(spec.rows(ledger))
    ]


def _sweep_task(task: tuple) -> list:
    """The rows of one (k, p, adversary) cell, task = (spec, horizons): the
    spec's one game, scored at each distinct horizon as it is reached, each
    horizon's rows in its places in the grid order of horizons."""
    spec, horizons = task
    game = spec.play_through(horizons)
    rows = {T: _sweep_cell((spec, game)) for T in sorted(set(horizons))}
    return [row for T in horizons for row in rows[T]]


def _check_writable(paths) -> None:
    """Raise the OSError that opening the first of paths that cannot be
    written would raise, without creating or truncating any of them."""
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if not os.access(path if path.exists() else path.parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        settings = _settings(args, grid=GRID_KEYS)
        grids = {key: settings.pop(key) for key in GRID_KEYS}
        empty = [key for key, values in grids.items() if not values]
        if empty:
            raise ValueError(f"empty sweep grid for {', '.join(empty)}")
        # a horizon's one check is T >= 1, so the smallest checks them all;
        # each cell's spec is at the largest, where its one game ends
        base = RunSpec(**settings, T=min(grids["T"]))
        tasks = [
            (dataclasses.replace(base, k=k, p=p, adversary=kind, T=max(grids["T"])),
             tuple(grids["T"]))
            for k in grids["k"]
            for p in grids["p"]
            for kind in grids["adversary"]
        ]
    except (OSError, OverflowError, TypeError, ValueError) as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(base.out)
    if not out_dir.is_dir():
        print(f"output directory {out_dir} does not exist", file=sys.stderr)
        return 1
    sweep_path, exp_path = out_dir / "sweep.csv", out_dir / "exponents.csv"
    fit = len(set(grids["T"])) >= 2
    _check_writable([sweep_path, exp_path] if fit else [sweep_path])
    rows = [row for chunk in _map(_sweep_task, tasks, base.jobs) for row in chunk]

    with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("k", "p", "adversary", "T", "comparator", "regret", "bound", "ratio"))
        for k, p, kind, T, label, regret, bound, ratio in rows:
            writer.writerow((_fmt(k), _fmt(p), kind, T, label, _fmt(regret), _fmt(bound),
                             _fmt(ratio)))
    written = [sweep_path.name]

    if fit:
        # growth exponent of clamped regret across the horizon grid; every cell
        # is scored at every horizon, so each group holds all of them
        groups = {}
        for k, p, kind, T, label, regret, _, _ in rows:
            groups.setdefault((k, p, kind, label), []).append((T, regret))
        with open(exp_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("k", "p", "adversary", "comparator", "exponent"))
            for (k, p, kind, label), pts in sorted(groups.items()):
                pts = sorted(pts)
                slope = growth_exponent([t for t, _ in pts], [r for _, r in pts])
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

    def add_settings(p: argparse.ArgumentParser, skip=(), grid=()) -> None:
        """A --<field> flag per RunSpec field not in skip, those in grid
        taking comma-separated lists, and --config."""
        for f in dataclasses.fields(RunSpec):
            if f.name not in skip:
                help_text = f.metadata["help"]
                p.add_argument(f"--{f.name}", help=(f"comma-separated grid; {help_text}"
                                                    if f.name in grid else help_text))
        p.add_argument("--config", help="JSON file with default settings")

    run_p = sub.add_parser("run", help="play one game; write trace.csv and summary.json")
    add_settings(run_p, skip=("jobs",))
    run_p.set_defaults(func=cmd_run)

    verify_p = sub.add_parser("verify", help="run acceptance criteria")
    verify_p.add_argument(
        "suite", nargs="?", default="all", choices=tuple(acceptance.SUITES),
        help="criterion group to run",
    )
    verify_p.set_defaults(func=cmd_verify)

    sweep_p = sub.add_parser("sweep", help="grid of games; write sweep.csv and exponents.csv")
    add_settings(sweep_p, grid=GRID_KEYS)
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def _join_dash_values(argv: list) -> list:
    """argv with each setting's flag joined to a following word that starts
    with one "-" (--comparators -1,2 -> --comparators=-1,2): argparse reads
    such a word as an option unless it is a plain number."""
    flags = {f"--{f.name}" for f in dataclasses.fields(RunSpec)}
    out = []
    for word in argv:
        if out and out[-1] in flags and word.startswith("-") and not word.startswith("--"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except BrokenProcessPool as exc:  # a worker was killed, for example for memory
        print(f"{args.command} aborted: a worker process died: {exc}", file=sys.stderr)
    except (GameDivergence, OSError, ValueError) as exc:  # a game failed, or an output write did
        print(f"{args.command} aborted: {exc}", file=sys.stderr)
    return 1
