"""Per-layer spans for the traced benchmark run.

The tracer wraps the public functions and methods of each `leashed` layer
from outside the package; the program's files are not touched. A wrapped
module-level function is replaced under its name in every module that
imported it, so calls through `from .core import run_game` are seen too.

Spans are aggregated as they close, per name: calls, total time, and self
time (the span minus the time its child spans cover). The closed-form
evaluators share one grouped span; an evaluator called from inside another
(hintless_bound calls bettor_bound) folds into the outer call, so each
outermost call counts once.

The calls made once per round are wrapped on every workload, with one
exception: `leashed verify` keeps wall-clock gates, and with every
per-round call wrapped `wealth_positive_bets_clipped` comes within a tenth
of its 5 s gate. While a criterion in GATED runs, the per-round wrappers are
taken out and `run_game` only counts its games, so the layers' times come
from the games of the other criteria and the counts from every game.

`leashed sweep --jobs 2` runs its cells in forked worker processes, which
inherit the wrappers. A worker resets the aggregates it inherited on its
first cell and writes its own to `<spool>/worker-<pid>.json` after every
cell; `merge_workers` folds those files into the parent's aggregates.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# criteria that run with the per-round wrappers taken out (see above)
GATED = ("wealth_positive_bets_clipped",)
# spans whose self time is the cli layer's own: argument handling, the
# trace and summary writing of `run`, the printing of `verify`, the grid,
# CSV writing and exponent fit of `sweep` and its cells' set-up in the workers
CLI_SPANS = ("cli.main", "cli.TraceRecorder", "cli._sweep_cell")


def ledger_bytes(ledger) -> int:
    """Bytes the ledger keeps for its rounds: the list and, per round, a
    record and its fields, sized from the last record (every record of a
    game holds the same types and shapes)."""
    rounds = getattr(ledger, "rounds", None)
    if not rounds:
        return 0
    last = rounds[-1]
    per_round = sys.getsizeof(last) + sum(sys.getsizeof(getattr(last, f.name))
                                          for f in dataclasses.fields(last))
    return sys.getsizeof(rounds) + len(rounds) * per_round


def _set(owner, attr: str, value) -> None:
    """owner.attr = value, or owner[attr] = value for a dict."""
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self, spool: Path):
        self.spool = spool
        self.pid = os.getpid()
        self.forked = False
        self.spans: dict = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
        self.counts: dict = defaultdict(int)
        self._open: list = []  # seconds covered by child spans, per open span
        self._depth: dict = {}  # open spans per grouped name
        self._patches: list = []  # [owner, attr, original, traced, suspended]

    def reset(self) -> None:
        for rec in self.spans.values():  # wrappers hold their record; zero it in place
            rec[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self._open.clear()
        for depth in self._depth.values():
            depth[0] = 0

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items() if v[0]},
                "counts": dict(self.counts)}

    def wrap(self, name: str, func, on_return=None, grouped: bool = False):
        """func timed as span `name`. A grouped span called from inside a span
        of its own group folds into the outer one."""
        stack, clock, rec = self._open, time.perf_counter, self.spans[name]
        depth = self._depth.setdefault(name, [0]) if grouped else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if depth is not None:
                if depth[0]:
                    return func(*args, **kwargs)
                depth[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
                if depth is not None:
                    depth[0] -= 1
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _patch(self, owner, attr: str, new, per_round: bool = False, suspended=None) -> None:
        """Set owner.attr to new. A per-round patch is set back to the
        original, or to `suspended`, while a GATED criterion runs."""
        old = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        if per_round and suspended is None:
            suspended = old
        self._patches.append([owner, attr, old, new, suspended if per_round else new])
        _set(owner, attr, new)

    def patch_method(self, cls, attr: str, name: str, per_round: bool = False) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)), per_round)
        else:
            self._patch(cls, attr, self.wrap(name, raw), per_round)

    def patch_function(self, module, attr: str, new, per_round: bool = False,
                       suspended=None) -> None:
        """Replace module.attr by new in every module that holds the original."""
        orig = vars(module)[attr]
        for mod in list(sys.modules.values()):
            if getattr(mod, "__dict__", {}).get(attr) is orig:
                self._patch(mod, attr, new, per_round, suspended)

    def trace_function(self, module, attr: str, name: str, **kw) -> None:
        self.patch_function(module, attr, self.wrap(name, vars(module)[attr], **kw))

    def _set_per_round(self, on: bool) -> None:
        for owner, attr, _old, traced, suspended in self._patches:
            _set(owner, attr, traced if on else suspended)

    def suspended(self, func):
        """func run with the per-round wrappers taken out."""
        @functools.wraps(func)
        def call(*args, **kwargs):
            self._set_per_round(False)
            try:
                return func(*args, **kwargs)
            finally:
                self._set_per_round(True)

        return call

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old, _traced, _suspended = self._patches.pop()
            _set(owner, attr, old)

    def merge_workers(self) -> int:
        """Fold the aggregates written by forked workers into this process."""
        files = sorted(self.spool.glob("worker-*.json"))
        for path in files:
            data = json.loads(path.read_text(encoding="utf-8"))
            for name, (calls, total, own) in data["spans"].items():
                rec = self.spans[name]
                rec[0] += calls
                rec[1] += total
                rec[2] += own
            for name, n in data["counts"].items():
                self.counts[name] += n
            path.unlink()
        return len(files)

    def _count_game(self, ledger) -> None:
        self.counts["core.run_game.calls"] += 1
        self.counts["core.run_game.rounds"] += len(ledger)
        self.counts["core.RegretLedger.bytes"] += ledger_bytes(ledger)

    def _count_traced_game(self, ledger) -> None:
        self._count_game(ledger)
        self.counts["core.run_game.traced_rounds"] += len(ledger)

    def install(self) -> None:
        """Wrap every layer the per-layer metrics name, and the calls whose
        time would otherwise land in the self time of those layers."""
        from leashed import (acceptance, adversaries, bounds, cli, coin_betting, core,
                             reductions, unit_ball)

        real_game = vars(core)["run_game"]

        @functools.wraps(real_game)
        def counted_game(*args, **kwargs):
            ledger = real_game(*args, **kwargs)
            self._count_game(ledger)
            return ledger

        self.patch_function(core, "run_game",
                            self.wrap("core.run_game", real_game,
                                      on_return=self._count_traced_game),
                            per_round=True, suspended=counted_game)
        self.patch_method(core.RegretLedger, "append", "core.RegretLedger.append", True)
        self.patch_method(adversaries.StreamAdversary, "next_grad",
                          "adversaries.StreamAdversary.next_grad", True)
        for cls in (coin_betting.CoinBettor, reductions.Truncation, reductions.Leashed,
                    reductions.DimFreeLift, unit_ball.AdaGradBall):
            for meth in ("play", "update"):
                module = cls.__module__.rsplit(".", 1)[-1]
                self.patch_method(cls, meth, f"{module}.{cls.__name__}.{meth}", True)
        self.patch_function(unit_ball, "project_unit_ball",
                            self.wrap("unit_ball.project_unit_ball",
                                      vars(unit_ball)["project_unit_ball"]), per_round=True)
        for fn in ("best_betting_fraction", "comparator_sweep"):
            self.trace_function(adversaries, fn, f"adversaries.{fn}")
        self.patch_method(bounds.StreamStats, "from_ledger", "bounds.StreamStats.from_ledger")
        # the closed-form evaluators that stacks.stack_bound reaches
        for module, fn in ((bounds, "bettor_bound"), (bounds, "hintless_bound"),
                           (bounds, "full_stack_bound"), (bounds, "fixed_diameter_bound"),
                           (unit_ball, "ball_regret_bound")):
            self.trace_function(module, fn, "bounds.evaluator", grouped=True)
        for crit, fn in list(acceptance.CRITERIA.items()):
            traced = self.wrap(f"acceptance.{crit}", self.suspended(fn) if crit in GATED else fn)
            self.patch_function(acceptance, crit, traced)
            self._patch(acceptance.CRITERIA, crit, traced)
        self.trace_function(cli, "main", "cli.main")
        for meth in ("play", "update"):
            self.patch_method(cli.TraceRecorder, meth, "cli.TraceRecorder", True)
        self.patch_function(cli, "_sweep_cell", self._worker_cell(vars(cli)["_sweep_cell"]))
        self._patch(cli, "ProcessPoolExecutor", self._timed_pool(vars(cli)["ProcessPoolExecutor"]))

    def _worker_cell(self, cell_fn):
        traced_cell = self.wrap("cli._sweep_cell", cell_fn)

        @functools.wraps(cell_fn)
        def cell(spec):
            if os.getpid() != self.pid:  # first cell in a forked worker
                self.pid = os.getpid()
                self.reset()
                self.forked = True
            rows = traced_cell(spec)
            if self.forked:
                path = self.spool / f"worker-{self.pid}.json"
                path.write_text(json.dumps(self.snapshot()), encoding="utf-8")
            return rows

        return cell

    def _timed_pool(self, base):
        """The pool class with the parent's wait on its workers as a span."""
        wait = self.wrap("pool.wait", lambda thunk: thunk())

        class TimedPool(base):
            def map(self, fn, *iterables, **kwargs):
                return iter(wait(lambda: list(base.map(self, fn, *iterables, **kwargs))))

            def shutdown(self, *args, **kwargs):
                return wait(lambda: base.shutdown(self, *args, **kwargs))

        return TimedPool


# (metric, what, unit): how a pass's aggregates become the value. `what` is
# a span name with the kind of value after a colon, or a count.
LAYER_METRICS = (
    ("core.run_game.calls", "count:core.run_game.calls", "count"),
    ("core.run_game.rounds", "count:core.run_game.rounds", "count"),
    ("core.run_game.us_per_round", "per_round:core.run_game", "us"),
    ("core.run_game.self_us_per_round", "self_per_round:core.run_game", "us"),
    ("core.RegretLedger.append.us_per_call", "per_call:core.RegretLedger.append", "us"),
    ("core.RegretLedger.bytes_per_round", "bytes_per_round", "bytes"),
    ("adversaries.StreamAdversary.next_grad.us_per_call",
     "per_call:adversaries.StreamAdversary.next_grad", "us"),
    ("coin_betting.CoinBettor.play.us_per_call", "per_call:coin_betting.CoinBettor.play", "us"),
    ("coin_betting.CoinBettor.update.us_per_call", "per_call:coin_betting.CoinBettor.update",
     "us"),
    ("reductions.Leashed.play.self_us_per_call", "self_per_call:reductions.Leashed.play", "us"),
    ("reductions.Leashed.update.self_us_per_call", "self_per_call:reductions.Leashed.update",
     "us"),
    ("reductions.self_us_per_round", "layer_self_per_round:reductions.", "us"),
    ("bounds.StreamStats.from_ledger.ms_per_call",
     "per_call_ms:bounds.StreamStats.from_ledger", "ms"),
    ("bounds.evaluator.us_per_call", "per_call:bounds.evaluator", "us"),
    ("bounds.evaluator.calls", "calls:bounds.evaluator", "count"),
    ("cli.self_s", "cli_self", "s"),
    ("cli.output_bytes", "count:cli.output_bytes", "bytes"),
)
UNITS = {metric: unit for metric, _what, unit in LAYER_METRICS}


def layer_values(delta: dict) -> dict:
    """Every per-layer metric of one pass, from that pass's aggregates. A
    time whose layer did not run in the pass reads 0."""
    spans, counts = delta["spans"], delta["counts"]
    traced_rounds = counts.get("core.run_game.traced_rounds", 0)

    def per(x: float, n: int) -> float:
        return x / n if n else 0.0

    out = {}
    for metric, what, _unit in LAYER_METRICS:
        kind, _, span = what.partition(":")
        calls, total, own = spans.get(span, (0, 0.0, 0.0))
        if kind == "count":
            out[metric] = counts.get(span, 0)
        elif kind == "calls":
            out[metric] = calls
        elif kind == "bytes_per_round":
            out[metric] = per(counts.get("core.RegretLedger.bytes", 0),
                              counts.get("core.run_game.rounds", 0))
        elif kind == "cli_self":
            out[metric] = sum(spans.get(name, (0, 0.0, 0.0))[2] for name in CLI_SPANS)
        elif kind == "layer_self_per_round":
            layer = sum(v[2] for name, v in spans.items() if name.startswith(span))
            out[metric] = per(layer, traced_rounds) * 1e6
        else:
            out[metric] = {
                "per_call": per(total, calls) * 1e6,
                "per_call_ms": per(total, calls) * 1e3,
                "self_per_call": per(own, calls) * 1e6,
                "per_round": per(total, traced_rounds) * 1e6,
                "self_per_round": per(own, traced_rounds) * 1e6,
            }[kind]
    return out


def span_table(delta: dict) -> dict:
    """Every span of one pass: calls, total seconds and self seconds."""
    return {name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in sorted(delta["spans"].items())}


def diff(after: dict, before: dict) -> dict:
    """Aggregates accumulated between two snapshots."""
    spans = {}
    for name, (calls, total, own) in after["spans"].items():
        c0, t0, s0 = before["spans"].get(name, (0, 0.0, 0.0))
        if calls - c0:
            spans[name] = (calls - c0, total - t0, own - s0)
    counts = {name: n - before["counts"].get(name, 0) for name, n in after["counts"].items()}
    return {"spans": spans, "counts": counts}
