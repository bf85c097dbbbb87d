"""The benchmark's four workloads.

A workload builds its inputs from the seed (the `leashed` command lines and
their output directories), runs them as one pass through `leashed.cli.main`
in this process, and checks what the pass wrote. An operation is one
`leashed` command; it fails when it raises or exits nonzero.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from leashed import cli
from leashed.acceptance import SUITES

import calibration
import checks

RUN_T = {"run_scalar": 10_000, "run_vector": 4_000}
SWEEP_T = (100, 1_000, 10_000)
SWEEP_K = (0.5, 1.0, 2.0)
SWEEP_P = (0.5, 1.0 / 3.0)
SWEEP_KINDS = ("seeded_uniform", "spike", "alternating")
SCALAR_COMPARATORS = 9  # comparator_sweep on a one-dimensional game
# The calibration mix each workload's times are scaled by (calibration.py).
# A `leashed run` is interpreted Python with small numpy calls; `leashed
# verify` also spends a good share in large vectorised numpy; `sweep` keeps
# both cores busy with its two workers.
SCALE = {"run_scalar": "python", "run_vector": "python", "verify": "mixed",
         "sweep": "both_cores"}
# `leashed verify` group by group, so the machine is read between groups;
# together the groups hold every criterion once
VERIFY_GROUPS = ("coin", "reductions", "ball", "bounds")

# (label, algo, adversary, extra flags). The unprotected bettors run only
# on seeded_uniform: their linear-space wealth overflows on spike near round 8400.
STACKS = {
    "run_scalar": (
        ("ons_hints", "ons_hints", "seeded_uniform", ()),
        ("hintless", "hintless", "seeded_uniform", ()),
        ("leashed", "leashed", "seeded_uniform", ()),
        ("fixed_diameter", "fixed_diameter", "seeded_uniform", ("--D", "1")),
        ("leashed", "leashed", "spike", ()),
    ),
    "run_vector": (
        ("adagrad_ball_d10", "adagrad_ball", "seeded_uniform", ("--dim", "10")),
        ("leashed_dimfree_d10", "leashed_dimfree", "seeded_uniform", ("--dim", "10")),
        ("leashed_dimfree_d1000", "leashed_dimfree", "seeded_uniform", ("--dim", "1000")),
    ),
}


@dataclass(frozen=True)
class Command:
    label: str
    algo: str
    argv: tuple
    out: Path
    rounds: int = 0
    dim: int = 1
    diameter: float | None = None


@dataclass
class Pass:
    seconds: list      # wall seconds of each command, in order
    scaled: list       # the same at the reference machine speed
    attempted: int
    failed: list       # commands that failed
    ok: list           # commands that succeeded
    slowness: list     # machine slowness before each command and after the last


def call_cli(argv) -> tuple:
    """Run one `leashed` command in this process: (exit code, stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the operation fails; the benchmark goes on and counts it
        traceback.print_exc()
        rc = -1
    return rc, buf.getvalue(), time.perf_counter() - t0


def build(name: str, seed: int, out_root: Path, T: int | None = None,
          horizons: tuple = SWEEP_T, suite: str = "all") -> list:
    """The workload's commands, with their output directories made."""
    if name in STACKS:
        T = T or RUN_T[name]
        cmds = []
        for i, (label, algo, kind, extra) in enumerate(STACKS[name]):
            out = out_root / f"{i}-{label}-{kind}"
            out.mkdir(parents=True, exist_ok=True)
            flags = dict(zip(extra[::2], extra[1::2]))
            argv = ("run", "--algo", algo, "--adversary", kind, "--T", str(T),
                    "--seed", str(seed), "--out", str(out)) + tuple(extra)
            cmds.append(Command(label, algo, argv, out, T, int(flags.get("--dim", 1)),
                                float(flags["--D"]) if "--D" in flags else None))
        return cmds
    if name == "verify":
        groups = VERIFY_GROUPS if suite == "all" else (suite,)
        held = sorted(name for g in groups for name in SUITES[g])
        if suite == "all" and held != sorted(SUITES["all"]):
            raise RuntimeError(f"the groups {groups} do not hold every criterion once")
        return [Command("verify", "", ("verify", g), out_root) for g in groups]
    if name == "sweep":
        out_root.mkdir(parents=True, exist_ok=True)
        argv = ("sweep", "--algo", "leashed", "--jobs", "2",
                "--k", ",".join(map(repr, SWEEP_K)), "--p", ",".join(map(repr, SWEEP_P)),
                "--adversary", ",".join(SWEEP_KINDS), "--T", ",".join(map(str, horizons)),
                "--seed", str(seed), "--out", str(out_root))
        return [Command("sweep", "leashed", argv, out_root)]
    raise ValueError(f"unknown workload {name!r}")


def run_pass(cmds: list, mix: str | None, around=None) -> Pass:
    """Every command once. With a calibration mix, each command is bracketed
    by two readings of the machine's slowness and its scaled time is its
    wall time over their mean; without, the scaled time is the wall time.
    `around`, if given, is a context manager entered around the commands
    and not around the readings."""
    result = Pass([], [], 0, [], [], [calibration.slowness(mix)] if mix else [])
    for cmd in cmds:
        with around or contextlib.nullcontext():
            rc, out, dt = call_cli(cmd.argv)
        if mix:
            result.slowness.append(calibration.slowness(mix))
            scaled = dt / statistics.mean(result.slowness[-2:])
        else:
            scaled = dt
        result.seconds.append(dt)
        result.scaled.append(scaled)
        result.attempted += 1
        (result.ok if rc == 0 else result.failed).append((cmd, out))
        if rc != 0:
            print(f"operation failed with exit code {rc}: leashed {' '.join(cmd.argv)}",
                  file=sys.stderr)
    return result


def end_to_end(seconds: list) -> dict:
    """End-to-end values other than set-up and memory, from the seconds of
    each command: the time of the whole pass."""
    return {"pass_s": sum(seconds)}


def output_files(cmd: Command) -> list:
    if cmd.argv[0] == "run":
        return [cmd.out / "trace.csv", cmd.out / "summary.json"]
    if cmd.argv[0] == "sweep":
        return [cmd.out / "sweep.csv", cmd.out / "exponents.csv"]
    return []


def fingerprint(p: Pass) -> dict:
    """sha256 of every file the pass wrote, and verify's printed verdicts."""
    out = {}
    for cmd, text in p.ok:
        if cmd.argv[0] == "verify":
            verdicts = [ln.split(" [", 1)[0].split(":", 1)[0] for ln in text.splitlines()]
            out[cmd.argv] = "\n".join(verdicts)
        for path in output_files(cmd):
            out[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def output_bytes(p: Pass) -> int:
    """Bytes the pass's commands wrote to their files and to standard output."""
    return sum(len(text.encode()) + sum(path.stat().st_size for path in output_files(cmd))
               for cmd, text in p.ok)


def check(name: str, p: Pass) -> list:
    """Problems in the outputs of a pass's successful commands."""
    problems = []
    for cmd, text in p.ok:
        if name in STACKS:
            found = checks.check_run(cmd.out, cmd.algo, cmd.rounds, cmd.dim, cmd.diameter)
        elif name == "verify":
            found = checks.check_verify(text, SUITES[cmd.argv[1]])
        else:
            horizons = cmd.argv[cmd.argv.index("--T") + 1].split(",")
            cells = len(SWEEP_K) * len(SWEEP_P) * len(SWEEP_KINDS) * len(horizons)
            found = checks.check_sweep(cmd.out, cells, SCALAR_COMPARATORS)
        problems += [f"{' '.join(cmd.argv[:5])}: {msg}" for msg in found]
    return problems
