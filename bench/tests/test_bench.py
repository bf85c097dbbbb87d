"""The benchmark's own tests: each workload at a tiny size, the traced pass,
and each output check fed a deliberately corrupted output."""
import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_T = 300
TINY_HORIZONS = (20, 200)


@pytest.fixture(scope="module")
def scalar_pass(tmp_path_factory):
    cmds = workloads.build("run_scalar", 3, tmp_path_factory.mktemp("scalar"), T=TINY_T)
    return cmds, workloads.run_pass(cmds, mix="python")


@pytest.fixture(scope="module")
def sweep_pass(tmp_path_factory):
    cmds = workloads.build("sweep", 3, tmp_path_factory.mktemp("sweep"), horizons=TINY_HORIZONS)
    return cmds, workloads.run_pass(cmds, mix="both_cores")


def copy_run(scalar_pass, label, tmp_path):
    cmds, _ = scalar_pass
    cmd = next(c for c in cmds if c.label == label)
    shutil.copytree(cmd.out, tmp_path, dirs_exist_ok=True)
    return cmd


def problems(cmd, out):
    return checks.check_run(out, cmd.algo, cmd.rounds, cmd.dim, cmd.diameter)


def test_run_scalar_tiny(scalar_pass):
    cmds, p = scalar_pass
    assert p.attempted == len(cmds) == 5 and not p.failed
    assert workloads.check("run_scalar", p) == []
    assert workloads.end_to_end(p.scaled) == {"pass_s": sum(p.scaled)}


def test_run_vector_tiny(tmp_path):
    cmds = workloads.build("run_vector", 3, tmp_path, T=TINY_T)
    p = workloads.run_pass(cmds, mix="python")
    assert p.attempted == 3 and not p.failed
    assert workloads.check("run_vector", p) == []


def test_verify_tiny(tmp_path):
    cmds = workloads.build("verify", 0, tmp_path, suite="bounds")
    p = workloads.run_pass(cmds, mix="mixed")
    assert not p.failed
    assert workloads.check("verify", p) == []
    assert set(workloads.end_to_end(p.scaled)) == {"pass_s"}


def test_sweep_tiny(sweep_pass):
    cmds, p = sweep_pass
    assert not p.failed
    assert workloads.check("sweep", p) == []
    # read on both cores before and after the one command
    assert len(p.slowness) == 2 and all(0 < x < math.inf for x in p.slowness)


def test_regret_above_bound_is_caught(scalar_pass, tmp_path):
    cmd = copy_run(scalar_pass, "leashed", tmp_path)
    assert problems(cmd, tmp_path) == []
    summary = json.loads((tmp_path / "summary.json").read_text())
    row = summary["comparators"][3]
    row["regret"] = math.nextafter(row["stack_bound"], math.inf)
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert any("above its bound" in msg for msg in problems(cmd, tmp_path))


def rewrite_trace(path, round_index, column, value):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[round_index + 1][rows[0].index(column)] = repr(value)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("label", ["leashed", "fixed_diameter"])
def test_point_outside_barrier_is_caught(scalar_pass, tmp_path, label):
    cmd = copy_run(scalar_pass, label, tmp_path)
    trace = checks.read_trace(tmp_path / "trace.csv")
    t = len(trace["barrier"]) // 2
    rewrite_trace(tmp_path / "trace.csv", t, "w_norm",
                  math.nextafter(trace["barrier"][t], math.inf))
    assert any("outside the barrier" in msg for msg in problems(cmd, tmp_path))


def test_wrong_barrier_is_caught(scalar_pass, tmp_path):
    cmd = copy_run(scalar_pass, "leashed", tmp_path)
    trace = checks.read_trace(tmp_path / "trace.csv")
    rewrite_trace(tmp_path / "trace.csv", 10, "barrier",
                  math.nextafter(trace["barrier"][10], math.inf))
    assert any("recomputed" in msg for msg in problems(cmd, tmp_path))


@pytest.mark.parametrize("key", ["sum_abs", "max_ratio", "G", "h_T"])
def test_statistic_off_by_last_bit_is_caught(scalar_pass, tmp_path, key):
    cmd = copy_run(scalar_pass, "hintless", tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    summary["stats"][key] = math.nextafter(summary["stats"][key], math.inf)
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert any(f"stats.{key}" in msg for msg in problems(cmd, tmp_path))


def test_wealth_drift_is_caught(scalar_pass, tmp_path):
    cmd = copy_run(scalar_pass, "ons_hints", tmp_path)
    trace = checks.read_trace(tmp_path / "trace.csv")
    rewrite_trace(tmp_path / "trace.csv", 50, "wealth", trace["wealth"][50] * (1 + 1e-9))
    assert any("eps - cum_loss" in msg for msg in problems(cmd, tmp_path))


def test_wrong_exponent_is_caught(sweep_pass, tmp_path):
    cmds, _ = sweep_pass
    shutil.copytree(cmds[0].out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "exponents.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][-1] = repr(float(rows[5][-1]) + 1e-6)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    cells = len(workloads.SWEEP_K) * len(workloads.SWEEP_P) * len(workloads.SWEEP_KINDS) * 2
    found = checks.check_sweep(tmp_path, cells, workloads.SCALAR_COMPARATORS)
    assert len(found) == 1 and "least squares" in found[0]


def test_failed_criterion_is_caught():
    names = ("conjugate_dominated",)
    good = "PASS conjugate_dominated: ok; required: x [0.10s]\n1/1 criteria passed\n"
    assert checks.check_verify(good, names) == []
    bad = good.replace("PASS", "FAIL").replace("1/1", "0/1")
    assert len(checks.check_verify(bad, names)) == 2


def test_traced_pass_reports_layers_and_restores(tmp_path):
    from leashed import acceptance, cli, core, unit_ball
    def current():
        return (core.run_game, cli.run_game, cli.main, core.RegretLedger.append,
                unit_ball.AdaGradBall.update, cli.ProcessPoolExecutor,
                dict(acceptance.CRITERIA))
    original = current()
    cmds = workloads.build("run_vector", 3, tmp_path / "run", T=TINY_T)
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        before = tracer.snapshot()
        p = workloads.run_pass(cmds, mix="python")
        delta = spans.diff(tracer.snapshot(), before)
        values = spans.layer_values(delta)
    finally:
        tracer.uninstall()
    assert not p.failed
    assert current() == original
    assert values["core.run_game.rounds"] == 3 * TINY_T
    assert values["core.run_game.calls"] == 3
    assert values["bounds.evaluator.calls"] > 0
    # every per-layer metric but the output size, which the runner adds
    assert set(values) == set(spans.UNITS)
    assert all(v > 0 for k, v in values.items() if k != "cli.output_bytes")
    for name in ("unit_ball.AdaGradBall.update", "reductions.DimFreeLift.update",
                 "cli.TraceRecorder", "cli.main"):
        assert delta["spans"][name][0] > 0


def test_gated_criterion_runs_without_per_round_wrappers(tmp_path):
    from leashed import acceptance, adversaries, core, reductions, stacks
    from leashed.bounds import BoundParams
    real_append = core.RegretLedger.append
    tracer = spans.Tracer(tmp_path)
    tracer.install()

    def game():
        adv = adversaries.StreamAdversary(adversaries.AdversaryConfig("seeded_uniform", seed=1))
        learner = stacks.build_learner("leashed", BoundParams())
        return acceptance.run_game(learner, adv, 50), core.RegretLedger.append, \
            reductions.Leashed.update

    try:
        inside = tracer.suspended(game)()
        traced = game()
    finally:
        tracer.uninstall()
    assert spans.GATED and set(spans.GATED) <= set(acceptance.CRITERIA)
    assert inside[1] is real_append and traced[1] is not real_append
    assert inside[2] is not traced[2]
    assert tracer.counts["core.run_game.calls"] == 2
    assert tracer.counts["core.run_game.rounds"] == 100
    assert tracer.counts["core.run_game.traced_rounds"] == 50
    assert tracer.spans["core.RegretLedger.append"][0] == 50


def test_traced_sweep_gathers_worker_spans(tmp_path):
    cmds = workloads.build("sweep", 3, tmp_path / "sweep", horizons=TINY_HORIZONS)
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        before = tracer.snapshot()
        p = workloads.run_pass(cmds, mix="python")
        assert tracer.merge_workers() >= 1
        delta = spans.diff(tracer.snapshot(), before)
        values = spans.layer_values(delta)
    finally:
        tracer.uninstall()
    assert not p.failed
    cells = len(workloads.SWEEP_K) * len(workloads.SWEEP_P) * len(workloads.SWEEP_KINDS) * 2
    assert values["core.run_game.calls"] == cells
    assert values["core.run_game.rounds"] == cells // 2 * sum(TINY_HORIZONS)
    assert values["bounds.evaluator.calls"] == cells * workloads.SCALAR_COMPARATORS
    assert delta["spans"]["cli._sweep_cell"][0] == cells
    assert delta["spans"]["pool.wait"][1] > 0.0


def test_setup_probes_are_scaled_by_the_start_kernel():
    import run
    raw, scaled = run.setup_seconds(run.parse_args(["--workload", "verify"]))
    assert len(raw) == len(scaled) == run.SETUP_PROBES
    assert all(0 < x < 60 for x in raw + scaled)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "run_scalar",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
