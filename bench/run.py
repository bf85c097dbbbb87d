"""Benchmark of the `leashed` command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of run_scalar, run_vector, verify and sweep; `all` runs each in
its own process, one after another. A run repeats whole passes of its
workload until S seconds have gone, checks the outputs, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are every end-to-end one, timed
with no wrappers installed; with --trace 1 every layer is wrapped and the
metrics are every per-layer one. Every workload reports the same metrics.
The line before it records the Python and numpy
versions, the CPU model and the number of usable cores. Each run also
writes its result to bench/out/results/. See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("run_scalar", "run_vector", "verify", "sweep")
SETUP_PROBES = 5  # before the passes, and as many again after them


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import leashed, build the inputs, print 'ready' and exit")
    return ap.parse_args(argv)


def import_leashed() -> None:
    """The package from this checkout's src, never an installed copy."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import leashed.cli  # noqa: F401  (the workloads call leashed.cli.main)
    if Path(leashed.__file__).resolve().parent != SRC / "leashed":
        raise SystemExit(f"imported leashed from {leashed.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def setup_seconds(args: argparse.Namespace) -> tuple:
    """Set-up times of fresh processes, raw and at the reference speed.

    A probe is a fresh process that imports leashed, builds the workload's
    inputs and reports ready; probes run one at a time. A fresh start is
    mostly process creation and module loading, which the in-process kernels
    do not track, so each probe is scaled by the start kernel instead, read
    right before and right after it (calibration.start_slowness)."""
    import calibration
    probe = (sys.executable, __file__, "--workload", args.workload, "--seed",
             str(args.seed), "--setup-probe")
    raw, scaled = [], []
    before = calibration.start_slowness()
    for _ in range(SETUP_PROBES):
        raw.append(calibration.time_to_ready(probe))
        after = calibration.start_slowness()
        scaled.append(raw[-1] / statistics.mean((before, after)))
        before = after
    return raw, scaled


class WorkerMemory:
    """Highest memory of each child process that it does not share, sampled
    while a command runs (one use as a context manager).

    The sweep's workers are forked, so the interpreter, numpy and leashed
    pages they share with this process are already in its own peak; a
    worker adds only its private pages (Private_Clean + Private_Dirty in
    /proc/<pid>/smaps_rollup), which are the pages it wrote or loaded itself."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak_kb: dict = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _children(self) -> list:
        pids = []
        for task in Path("/proc/self/task").iterdir():
            try:
                pids += (task / "children").read_text().split()
            except OSError:
                pass
        return pids

    def _poll(self) -> None:
        while not self._stop.wait(self.interval):
            for pid in self._children():
                try:
                    rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
                except OSError:
                    continue
                kb = sum(int(ln.split()[1]) for ln in rollup.splitlines()
                         if ln.startswith(("Private_Clean:", "Private_Dirty:")))
                self.peak_kb[pid] = max(self.peak_kb.get(pid, 0), kb)

    def __enter__(self) -> "WorkerMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def measure(args: argparse.Namespace, work_dir: Path) -> dict:
    import spans
    import workloads

    cmds = workloads.build(args.workload, args.seed, work_dir)
    tracer = None
    if args.trace:
        tracer = spans.Tracer(work_dir)
        tracer.install()
    mix = workloads.SCALE.get(args.workload)
    passes, layer, prints, problems = [], [], None, []
    table = {}
    workers_kb = 0  # the largest sum over one pass's workers of their peaks
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            gc.collect()
            before = tracer.snapshot() if tracer else None
            # around the commands only, not the calibration's forked readings
            mem = WorkerMemory() if args.workload == "sweep" else None
            p = workloads.run_pass(cmds, mix, around=mem)
            if mem:
                workers_kb = max(workers_kb, sum(mem.peak_kb.values()))
            passes.append(p)
            if tracer:
                tracer.merge_workers()
                delta = spans.diff(tracer.snapshot(), before)
                if p.ok:
                    delta["counts"]["cli.output_bytes"] = workloads.output_bytes(p)
                # the pass's own scaling carries over to its layers' times
                factor = sum(p.scaled) / sum(p.seconds)
                layer.append({k: v * factor if spans.UNITS[k] in TIME_UNITS else v
                              for k, v in spans.layer_values(delta).items()})
                table = spans.span_table(delta)
            if not p.ok:
                break
            fp = workloads.fingerprint(p)
            if prints is None:
                prints = fp
            elif fp != prints and not problems:
                problems.append(f"pass {len(passes)} wrote other outputs than pass 1")
            if time.perf_counter() >= deadline:
                break
    finally:
        if tracer:
            tracer.uninstall()
    peak_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers_kb) / 1024.0
    problems += workloads.check(args.workload, passes[-1])
    if tracer:
        metrics = median_of(layer)
        units = dict(spans.UNITS)
    else:
        # each command's median over the passes, so one slow command in a
        # pass does not move the other commands' share
        metrics = workloads.end_to_end(median_by_command(passes, "scaled"))
        units = {"pass_s": "s"}
    labels = [f"{i}-{cmd.label}" for i, cmd in enumerate(cmds)]
    return {"passes": len(passes), "problems": problems, "metrics": metrics,
            "units": units,
            "commands": {"scaled": dict(zip(labels, median_by_command(passes, "scaled"))),
                         "seconds": dict(zip(labels, median_by_command(passes, "seconds")))},
            "spans": table,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(len(p.failed) for p in passes),
            "slowness": [x for p in passes for x in p.slowness],
            "per_pass": [sum(p.scaled) for p in passes], "peak_rss_mb": peak_mb}


def median_by_command(passes: list, field: str) -> list:
    """Each command's median over the passes of its seconds or scaled seconds."""
    return [statistics.median(getattr(p, field)[i] for p in passes)
            for i in range(len(passes[0].seconds))]


def median_of(rows: list) -> dict:
    """Per-key median over passes; counts stay whole."""
    out = {}
    for k in rows[0]:
        vals = [r[k] for r in rows]
        whole = all(isinstance(v, int) for v in vals)
        out[k] = statistics.median_low(vals) if whole else statistics.median(vals)
    return out


TIME_UNITS = ("us", "ms", "s")


def run_one(args: argparse.Namespace) -> int:
    if args.setup_probe:
        import_leashed()
        import workloads
        probe_dir = OUT / f"probe-{os.getpid()}"
        try:
            workloads.build(args.workload, args.seed, probe_dir)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        print("ready", flush=True)
        return 0
    # probes before and after the passes, so set-up is read across the run
    setup = None if args.trace else setup_seconds(args)
    import_leashed()
    env = environment()
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        res = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    values, units = res["metrics"], res["units"]
    if setup:
        raw, scaled = setup_seconds(args)
        setup = (setup[0] + raw, setup[1] + scaled)
        values.update(setup_s=statistics.median(setup[1]), peak_rss_mb=res["peak_rss_mb"])
        units.update(setup_s="s", peak_rss_mb="MB")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for msg in res["problems"]:
        print(f"incorrect output: {msg}", file=sys.stderr)
    line = {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
    slowness = statistics.median(res["slowness"]) if res["slowness"] else None
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=res["passes"], slowness=slowness,
                  commands=res["commands"], per_pass=res["per_pass"],
                  spans=res["spans"],
                  setup=setup and {"seconds": setup[0], "scaled": setup[1]},
                  environment=env)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env, "passes": res["passes"], "slowness": slowness}))
    print(json.dumps(line))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<52} {v['value']:>14.6g} {v['unit']}")
            merged["metrics"][f"{name}.{metric}"] = v
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "leashed" / "__init__.py").is_file():
        print(f"no leashed package under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
