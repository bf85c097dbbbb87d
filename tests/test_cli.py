"""Command-line harness: runs, verification, sweeps, and settings precedence."""
import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import leashed
from leashed import (BoundParams, RegretLedger, RoundRecord, StreamStats, acceptance,
                     bettor_bound, cli, full_stack_bound, stacks)
from leashed.cli import TRACE_COLUMNS, main
from test_acceptance import MEASURED


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    # keep ambient LEASHED_* variables out of precedence tests
    for key in list(os.environ):
        if key.startswith("LEASHED_"):
            monkeypatch.delenv(key)
    yield


@pytest.fixture
def built_specs(monkeypatch):
    # every RunSpec built from here on, in order
    specs = []
    check = stacks.RunSpec.__post_init__

    def record(spec):
        check(spec)
        specs.append(spec)

    monkeypatch.setattr(stacks.RunSpec, "__post_init__", record)
    return specs


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def read_summary(path):
    with open(path) as fh:
        return json.load(fh)


def test_run_zero_adversary(tmp_path):
    rc = main(["run", "--adversary", "zero", "--T", "50", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_trace(tmp_path / "trace.csv")
    assert len(rows) == 50
    assert tuple(rows[0]) == TRACE_COLUMNS
    assert all(float(r["w_norm"]) == 0.0 for r in rows)
    assert all(float(r["cum_loss"]) == 0.0 for r in rows)
    assert [int(r["t"]) for r in rows] == list(range(1, 51))
    summary = read_summary(tmp_path / "summary.json")
    assert summary["algo"] == "leashed"
    assert summary["T"] == 50
    assert summary["stats"]["G"] == 0.0
    assert all(row["regret"] == 0.0 for row in summary["comparators"])


def test_run_trace_is_reproducible(tmp_path):
    argv = ["run", "--adversary", "seeded_uniform", "--seed", "5", "--T", "200"]
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(); b.mkdir()
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_trace_floats_round_trip(tmp_path):
    assert main(["run", "--adversary", "seeded_uniform", "--T", "100",
                 "--out", str(tmp_path)]) == 0
    for row in read_trace(tmp_path / "trace.csv"):
        for col in TRACE_COLUMNS[1:]:
            if row[col] != "":
                # %.17g prints doubles losslessly
                assert format(float(row[col]), ".17g") == row[col]


# the trace columns the ledger fills, which are never None
LEDGER_COLUMNS = ("w_norm", "g_norm", "cum_loss")
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
               1.7976931348623157e308, -1.7976931348623157e308)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


def write_columns(path, columns):
    """cli._write_trace over a game whose trace columns (all but t) are
    `columns`, a dict from column name to its list of values."""
    ledger = RegretLedger(keep_rows=True)
    ledger.rounds = [RoundRecord(*row) for row in
                     zip(*(columns[name] for name in LEDGER_COLUMNS))]
    recorder = cli.TraceRecorder(None)
    recorder.hints, recorder.barriers, recorder.wealths = (
        columns["hint"], columns["barrier"], columns["wealth"])
    return cli._write_trace(path, ledger, recorder)


def reference_trace(columns, n_rows):
    """The header and the first n_rows rows as csv.writer writes them, a row
    at a time, with every value through cli._fmt."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(TRACE_COLUMNS)
    rows = zip(*(columns[name] for name in TRACE_COLUMNS[1:]))
    for t, row in zip(range(1, n_rows + 1), rows):
        writer.writerow([t, *map(cli._fmt, row)])
    return buf.getvalue().encode()


@st.composite
def trace_columns(draw, max_rows=30):
    """Columns of one game: each varies, holds one value in every round, mixes
    0.0 and -0.0 (which == does not tell apart) or, for the recorder's
    columns, is None throughout."""
    n = draw(st.integers(1, max_rows))
    columns = {}
    for name in TRACE_COLUMNS[1:]:
        kinds = [st.lists(finite_floats, min_size=n, max_size=n),
                 finite_floats.map(lambda x: [x] * n),
                 st.lists(st.sampled_from((0.0, -0.0)), min_size=n, max_size=n)]
        if name not in LEDGER_COLUMNS:
            kinds.append(st.just([None] * n))
        columns[name] = draw(st.one_of(kinds))
    return columns


@given(trace_columns())
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_trace_writer_writes_the_bytes_of_a_row_at_a_time_csv_writer(tmp_path, columns):
    path = tmp_path / "trace.csv"
    assert write_columns(path, columns) is None
    assert path.read_bytes() == reference_trace(columns, len(columns["w_norm"]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", TRACE_COLUMNS[1:])
@given(data=st.data())
@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_trace_writer_stops_before_the_first_non_finite_round(tmp_path, name, bad, data):
    columns = data.draw(trace_columns(), label="columns")
    n = len(columns["w_norm"])
    k = data.draw(st.integers(1, n), label="k")
    if columns[name][0] is None:
        columns[name] = [0.5] * n
    columns[name] = columns[name][:k - 1] + [bad] + columns[name][k:]
    # a later non-finite value in another column does not move the round
    other = "cum_loss" if name != "cum_loss" else "w_norm"
    columns[other] = columns[other][:k] + [math.nan] * (n - k)
    path = tmp_path / "trace.csv"
    assert write_columns(path, columns) == k
    assert path.read_bytes() == reference_trace(columns, k - 1)


def strict_json_text(x) -> str:
    """json.dump(x, indent=2) with every non-finite float replaced by its
    %.17g spelling first."""
    def strict(x):
        if isinstance(x, dict):
            return {key: strict(v) for key, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [strict(v) for v in x]
        if isinstance(x, float) and not math.isfinite(x):
            return format(x, ".17g")
        return x

    buf = io.StringIO()
    json.dump(strict(x), buf, indent=2, allow_nan=False)
    return buf.getvalue()


any_floats = finite_floats | st.sampled_from((math.inf, -math.inf, math.nan))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | any_floats | st.text(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)
                      # a comparator: finite floats, one of them maybe not
                      | st.lists(finite_floats, min_size=1)
                      | st.lists(any_floats, min_size=1)),
    max_leaves=40)


@given(json_values)
@settings(deadline=None)
def test_summary_writer_writes_the_text_of_json_dump(x):
    assert "".join(cli._json_chunks(x)) == strict_json_text(x)


def test_summary_bounds_recomputable_from_trace(tmp_path):
    assert main(["run", "--algo", "leashed", "--adversary", "constant",
                 "--T", "300", "--out", str(tmp_path)]) == 0
    rows = read_trace(tmp_path / "trace.csv")
    summary = read_summary(tmp_path / "summary.json")
    norms = [float(r["g_norm"]) for r in rows]
    stats = StreamStats.from_norms(norms)
    assert stats.sum_sq == summary["stats"]["sum_sq"]
    assert stats.max_ratio == summary["stats"]["max_ratio"]
    params = BoundParams(**{k: summary["params"][k]
                            for k in ("epsilon", "alpha", "k", "p", "g0")})
    assert summary["stats"]["h_T"] == max(params.g0, stats.G)
    grad_sum = 0.0
    for n in norms:
        grad_sum += n  # constant stream: every gradient equals its norm
    cum_loss = float(rows[-1]["cum_loss"])
    for row in summary["comparators"]:
        w = row["comparator_norm"]
        assert row["stack_bound"] == full_stack_bound(params, stats, w)
        assert row["bettor_bound"] == bettor_bound(params, stats, w)
        assert row["regret"] == cum_loss - grad_sum * row["comparator"]
        if row["stack_bound"] > 0.0:
            assert row["ratio"] == row["regret"] / row["stack_bound"]


@pytest.mark.parametrize("algo", stacks.ALGOS)
def test_run_scores_inf_bounds_where_the_hint_squares_to_zero(algo, tmp_path):
    # 4 g0^2 underflows to 0 at g0 = 1e-170: the bounds read inf, the run completes
    assert main(["run", "--algo", algo, "--adversary", "zero", "--g0", "1e-170", "--T", "3",
                 "--D", "1", "--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "summary.json")
    assert summary["stats"]["h_T"] == 1e-170
    for row in summary["comparators"]:
        assert row["bettor_bound"] == ("inf" if row["comparator_norm"] else 1.0)


def test_sweep_scores_inf_bounds_where_the_hint_squares_to_zero(tmp_path):
    assert main(["sweep", "--adversary", "zero", "--g0", "1e-170", "--T", "3,5",
                 "--out", str(tmp_path)]) == 0
    rows = read_trace(tmp_path / "sweep.csv")
    assert len(rows) == 18
    assert {r["bound"] for r in rows if r["comparator"] != "0"} == {"inf"}


def test_run_scores_adagrad_ball_at_its_unit_ball_comparators(tmp_path):
    # at dim 1 with no comparators given, the unit ball's seven scalars
    assert main(["run", "--algo", "adagrad_ball", "--adversary", "seeded_uniform",
                 "--seed", "3", "--T", "200", "--out", str(tmp_path)]) == 0
    rows = read_summary(tmp_path / "summary.json")["comparators"]
    assert [row["comparator"] for row in rows] == [0.0, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0]
    assert all(row["regret"] <= row["stack_bound"] for row in rows)
    assert any(row["regret"] != 0.0 for row in rows)


def test_run_explicit_comparators(tmp_path):
    assert main(["run", "--adversary", "constant", "--T", "20",
                 "--comparators", "0,2.5,-1", "--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "summary.json")
    assert [row["comparator"] for row in summary["comparators"]] == [0.0, 2.5, -1.0]


def test_run_fixed_diameter_uses_flag(tmp_path):
    assert main(["run", "--algo", "fixed_diameter", "--D", "0.5",
                 "--adversary", "growing", "--T", "100", "--out", str(tmp_path)]) == 0
    rows = read_trace(tmp_path / "trace.csv")
    assert max(float(r["w_norm"]) for r in rows) <= 0.5
    assert read_summary(tmp_path / "summary.json")["diameter"] == 0.5


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_comparator_list_may_start_with_a_negative_value(command, tmp_path, capsys,
                                                           built_specs):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"comparators": [-1, 2]}))
    for flags in (["--comparators=-1,2"], ["--comparators", "-1,2"], ["--config", str(cfg)]):
        assert main([command, "--adversary", "constant", "--T", "20",
                     "--out", str(tmp_path)] + flags) == 0, flags
        assert built_specs[-1].comparators == (-1.0, 2.0), flags
        if command == "run":
            scored = [row["comparator"] for row in read_summary(tmp_path / "summary.json")
                      ["comparators"]]
        else:
            scored = [float(row["comparator"]) for row in read_trace(tmp_path / "sweep.csv")]
        assert scored == [-1.0, 2.0], flags
    capsys.readouterr()
    for flags in (["--comparators", "-1,x"], ["--comparators=-1,x"], ["--comparators", "-inf,1"],
                  ["--comparators", "-1,nan"], ["--comparators", "-"], ["--comparators", ","],
                  ["--comparators", "-1,2", "--dim", "2", "--algo", "leashed_dimfree"]):
        assert main([command, "--T", "20", "--out", str(tmp_path)] + flags) == 2, flags
        assert capsys.readouterr().err.startswith("bad configuration: "), flags
    assert main([command, "--comparators", ",", "--T", "20", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "bad configuration: empty comparator list\n"
    # a flag after a flag still lacks its value
    with pytest.raises(SystemExit) as exc:
        main([command, "--comparators", "--T", "20", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_run_missing_out_dir(tmp_path):
    assert main(["run", "--out", str(tmp_path / "nope")]) == 1


def _no_game(*args, **kwargs):
    raise AssertionError("rejected settings started a game")


def _forbid_games(monkeypatch, no_game=_no_game) -> None:
    """Make every game raise: run plays through cli.run_game, sweep's cells
    through RunSpec.play_through, which calls stacks.run_game."""
    monkeypatch.setattr(cli, "run_game", no_game)
    monkeypatch.setattr(stacks, "run_game", no_game)


def test_run_rejects_unknown_names(tmp_path, monkeypatch, capsys):
    # RunSpec is the one check of a name: the flag takes any string
    _forbid_games(monkeypatch)
    for flag, line in (("--algo", "unknown algorithm 'bogus'"),
                       ("--adversary", "unknown adversary kind 'bogus'")):
        assert main(["run", flag, "bogus", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bad configuration: {line}, expected one of (")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_every_setting_is_a_flag_with_help():
    parser = cli.build_parser()
    commands, = (a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    names = [f.name for f in dataclasses.fields(stacks.RunSpec)]
    for command, expected in (("run", [n for n in names if n != "jobs"]), ("sweep", names)):
        flags = [a for a in commands[command]._actions if a.dest in names]
        assert [a.dest for a in flags] == expected
        for a in flags:
            # _settings is the one cast and RunSpec the one check
            assert a.option_strings == [f"--{a.dest}"] and a.help
            assert a.type is None and a.choices is None
        grids = [a.dest for a in flags if a.help.startswith("comma-separated grid; ")]
        assert grids == ([] if command == "run" else [n for n in names if n in cli.GRID_KEYS])


def test_run_has_no_jobs_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--jobs", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_value_that_does_not_cast_names_its_setting(tmp_path, monkeypatch, capsys):
    _forbid_games(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    not_int = "invalid literal for int() with base 10:"
    assert main(["run", "--T", "1.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"bad configuration: T: {not_int} '1.5'\n"
    assert main(["sweep", "--T", "10,1.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"bad configuration: T: {not_int} '1.5'\n"
    monkeypatch.setenv("LEASHED_SEED", "x")
    assert main(["run", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"bad configuration: seed: {not_int} 'x'\n"
    monkeypatch.delenv("LEASHED_SEED")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": [1, 2]}))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad configuration: k: float() argument ") and err.endswith(" not 'list'\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_bad_comparator_list_names_its_setting(command, tmp_path, monkeypatch, capsys):
    _forbid_games(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    not_float = "could not convert string to float:"
    assert main([command, "--comparators", "1,x", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"bad configuration: comparators: {not_float} 'x'\n"
    # a JSON list is cast entry by entry, strictly: a JSON true is not 1
    cfg = tmp_path / "cfg.json"
    for entries, message in (([-1, "x"], f"comparators: {not_float} 'x'"),
                             ([True], "comparators: True is not a valid float"),
                             ([[1]], "comparators: float() argument must be a string or a "
                                     "real number, not 'list'"),
                             ([], "empty comparator list")):
        cfg.write_text(json.dumps({"comparators": entries}))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, entries
        assert capsys.readouterr().err == f"bad configuration: {message}\n", entries
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_adagrad_ball_comparators_stay_in_the_unit_ball(command, tmp_path, monkeypatch, capsys):
    # its bound holds only for |u| <= 1: 100 and -100 would score regret 4951
    # against a bound of 20 on the constant stream at T = 50
    base = [command, "--algo", "adagrad_ball", "--adversary", "constant", "--T", "50",
            "--out", str(tmp_path)]
    assert main(base + ["--comparators", "1,-1,0.5,0"]) == 0
    capsys.readouterr()
    _forbid_games(monkeypatch)
    for comparators in ("100,-100", "0.5,1.0000000000000002", "-1.5"):
        assert main(base + ["--comparators", comparators]) == 2, comparators
        err = capsys.readouterr().err
        assert err.startswith("bad configuration: adagrad_ball's bound holds only in the unit "
                              "ball: comparators must satisfy |u| <= 1, got "), comparators


def test_run_bad_settings(tmp_path):
    assert main(["run", "--k", "-1", "--out", str(tmp_path)]) == 2
    assert main(["run", "--dim", "2", "--algo", "leashed", "--out", str(tmp_path)]) == 2
    assert main(["run", "--T", "0", "--out", str(tmp_path)]) == 2
    assert main(["run", "--comparators", "", "--out", str(tmp_path)]) == 2
    # non-finite settings and comparators are rejected before the game
    for flags in (["--k", "nan"], ["--eps", "nan"], ["--scale", "nan"], ["--g0", "inf"],
                  ["--algo", "fixed_diameter", "--D", "nan"], ["--alpha", "inf"],
                  ["--adversary", "seeded_uniform", "--envelope", "inf"],
                  ["--adversary", "spike", "--magnitude", "inf"],
                  ["--adversary", "spike", "--magnitude", "1e305"],
                  ["--adversary", "seeded_uniform", "--envelope", "1e305"],
                  ["--comparators", "nan"], ["--comparators", "0,inf"],
                  ["--algo", "adagrad_ball", "--dim", "3", "--comparators", "1"]):
        assert main(["run", "--T", "10", "--out", str(tmp_path)] + flags) == 2, flags
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    # config values that int() or float() would change without a word: a
    # bool anywhere, a fraction for an int field, an int past float range;
    # and keys that name no setting, which would play the default
    for cfg in ({"T": 10.7}, {"seed": True}, {"T": 10.7, "seed": True}, {"k": True},
                {"algo": True}, {"T": math.inf}, {"k": 10 ** 400}, {"Tt": 5, "kk": 3},
                {"epsilon": 2}):
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2, cfg
    for cfg in ({"T": 10}, {"T": 10.0}):
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 0, cfg
        assert read_summary(tmp_path / "summary.json")["T"] == 10


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unknown_config_key_is_rejected_before_any_game(command, tmp_path, monkeypatch, capsys):
    # a misspelt key, or summary.json's "epsilon" for the setting eps, would
    # otherwise play the default instead
    def no_game(*args, **kwargs):
        raise AssertionError("an unknown config key started a game")

    _forbid_games(monkeypatch, no_game)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    out.mkdir()
    for keys, named in (({"Tt": 5, "kk": 3}, "Tt, kk"), ({"epsilon": 2}, "epsilon"),
                        ({"T": 10, "epsilon": 2}, "epsilon")):
        cfg.write_text(json.dumps(keys))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, keys
        err = capsys.readouterr().err
        assert err == f"bad configuration: config file names no setting: {named}\n"
    assert list(out.iterdir()) == []


def test_run_aborts_on_contract_violation(tmp_path, capsys):
    # the growing stream eventually exceeds any fixed hint
    assert main(["run", "--algo", "ons_hints", "--adversary", "growing",
                 "--T", "100", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run aborted: gradient magnitude ")
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err


@pytest.mark.parametrize("command, blocked", [("run", "trace.csv"), ("run", "summary.json"),
                                              ("sweep", "sweep.csv"), ("sweep", "exponents.csv")])
def test_an_output_that_cannot_be_written_aborts_the_command(command, blocked, tmp_path,
                                                             monkeypatch, capsys):
    # a directory in the way of any file the command would write ends it as a
    # diverging game does, before its first game, and the check creates and
    # truncates nothing; a config file that cannot be read is still a bad
    # configuration
    outputs = {"run": ("trace.csv", "summary.json"), "sweep": ("sweep.csv", "exponents.csv")}
    for name in outputs[command]:
        if name != blocked:
            (tmp_path / name).write_text("kept")
    (tmp_path / blocked).mkdir()
    _forbid_games(monkeypatch)
    horizons = "10" if command == "run" else "10,20"
    assert main([command, "--T", horizons, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{command} aborted: ") and repr(str(tmp_path / blocked)) in err
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(outputs[command])
    assert all((tmp_path / name).read_text() == "kept"
               for name in outputs[command] if name != blocked)
    assert main([command, "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("bad configuration: ")
    if blocked == "exponents.csv":
        # a sweep of one horizon writes no exponents.csv, so nothing is in its way
        monkeypatch.undo()
        assert main(["sweep", "--T", "10", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "sweep.csv").read_text() != "kept"


def test_run_aborts_on_divergence(tmp_path, capsys):
    # one-signed stream against the bare bettor overflows wealth by design
    assert main(["run", "--algo", "ons_hints", "--adversary", "constant",
                 "--T", "3000", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "non-finite point at round 1753: its wealth left float range" in err


def test_settings_precedence(tmp_path, monkeypatch, built_specs):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5}))
    base = ["run", "--adversary", "zero", "--T", "5",
            "--config", str(cfg), "--out", str(tmp_path)]

    monkeypatch.setenv("LEASHED_K", "3")
    assert main(base + ["--k", "2"]) == 0
    assert read_summary(tmp_path / "summary.json")["params"]["k"] == 2.0

    assert main(base) == 0
    assert read_summary(tmp_path / "summary.json")["params"]["k"] == 3.0

    monkeypatch.delenv("LEASHED_K")
    assert main(base) == 0
    assert read_summary(tmp_path / "summary.json")["params"]["k"] == 5.0

    assert main(["run", "--adversary", "zero", "--T", "5",
                 "--out", str(tmp_path)]) == 0
    assert read_summary(tmp_path / "summary.json")["params"]["k"] == 1.0

    # the flag, LEASHED_COMPARATORS and a config string or JSON list all
    # build one tuple of floats
    base = ["run", "--adversary", "zero", "--T", "5", "--out", str(tmp_path)]
    text, listed = tmp_path / "text.json", tmp_path / "list.json"
    text.write_text(json.dumps({"comparators": "-1, 0.5"}))
    listed.write_text(json.dumps({"comparators": [-1, 0.5]}))
    for flags in (["--comparators", "-1,0.5"], ["--config", str(text)],
                  ["--config", str(listed)]):
        assert main(base + flags) == 0, flags
        assert built_specs[-1].comparators == (-1.0, 0.5), flags
    monkeypatch.setenv("LEASHED_COMPARATORS", "-1,0.5")
    assert main(base) == 0
    assert built_specs[-1].comparators == (-1.0, 0.5)
    # "auto" and unset both give None: rows picks its default set
    assert main(base + ["--comparators", "auto"]) == 0
    assert built_specs[-1].comparators is None
    monkeypatch.delenv("LEASHED_COMPARATORS")
    assert main(base) == 0
    assert built_specs[-1].comparators is None


def test_verify_single_suite(capsys):
    assert main(["verify", "bounds"]) == 0
    out = capsys.readouterr().out
    assert "PASS conjugate_dominated" in out
    assert "1/1 criteria passed" in out


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


def _outcome_game(failures, label, outcome):
    if outcome == "exit":
        os._exit(3)
    if outcome == "fail":
        failures.append(f"failed in {os.getpid()}")
    if outcome == "raise":
        raise ValueError("no fraction on the grid")
    return os.getpid()


def _scratch_criterion(name, outcome="pass"):
    """A criterion of one game task that reports the process it ran in."""
    def plan():
        return [(_outcome_game, "only game", outcome)], lambda failures, pids: f"ran in {pids[0]}"

    plan.__name__ = name
    return acceptance.criterion("scratch", required="anything")(plan)


def _sleep_game(failures, label, seconds):
    time.sleep(seconds)
    return os.getpid()


def _raising_game(failures, label):
    raise ValueError("the game broke")


def _exiting_game(failures, label):
    os._exit(3)


def _game_criterion(builds, name, tasks, gate=None, raises=None, plan_seconds=0.0):
    """A criterion whose game tasks report their pids; raises: "plan" or
    "fold", where it raises. Its plan takes plan_seconds to build and
    records the pid of each build in builds[name]."""
    def fold(failures, pids):
        if raises == "fold":
            raise ValueError("the fit needs two points")
        return "games ran in " + " ".join(str(pid) for pid in sorted(set(pids)))

    def plan():
        builds.setdefault(name, []).append(os.getpid())
        time.sleep(plan_seconds)
        if raises == "plan":
            raise ValueError("no games to play")
        return tasks, fold

    plan.__name__ = name
    return acceptance.criterion("scratch", required="anything", gate=gate)(plan)


@pytest.fixture
def scratch_suites(monkeypatch):
    # quick criteria that report the process they ran in, in place of the shipped
    # ones; the fixture's value maps each game criterion to the pids of its plan builds
    monkeypatch.setattr(acceptance, "CRITERIA", {})
    monkeypatch.setattr(acceptance, "SUITES", {})
    builds = {}
    for name in ("first", "second", "third"):
        _scratch_criterion(name)
    _scratch_criterion("fails", "fail")
    _scratch_criterion("exits", "exit")
    _scratch_criterion("raises", "raise")
    nap = (_sleep_game, "nap", 0.0)
    _game_criterion(builds, "games", [(_sleep_game, "nap", 0.05)] * 4, gate=0.0)
    _game_criterion(builds, "raising_game", [nap, (_raising_game, "broken")])
    _game_criterion(builds, "plan_raises", [], raises="plan")
    _game_criterion(builds, "fold_raises", [nap] * 2, raises="fold")
    _game_criterion(builds, "exiting_game", [nap, (_exiting_game, "exit")])
    _game_criterion(builds, "slow_plan", [nap] * 2, gate=0.04, plan_seconds=0.05)
    _game_criterion(builds, "quick", [nap] * 3)
    monkeypatch.setattr(acceptance, "SUITES", {
        "trio": ("third", "first", "second"), "solo": ("second",),
        "failing": ("first", "fails", "second"), "dying": ("first", "exits", "second"),
        "games": ("games",),
        "raising": ("first", "raises", "raising_game", "plan_raises", "fold_raises", "second"),
        "dying_game": ("first", "exiting_game", "second"),
        "planned": ("quick", "slow_plan", "games", "plan_raises", "fold_raises")})
    return builds


def _cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _pids(out):
    """The criterion names in the order printed, and the pids they ran in."""
    lines = out.splitlines()[:-1]
    return ([line.split(":")[0].split()[1] for line in lines],
            {int(line.split("ran in ")[1].split(";")[0]) for line in lines})


def test_verify_runs_criteria_in_workers_in_suite_order(scratch_suites, monkeypatch, capsys):
    _cores(monkeypatch, 2)
    assert main(["verify", "trio"]) == 0
    out = capsys.readouterr().out
    names, pids = _pids(out)
    assert names == ["third", "first", "second"]
    assert os.getpid() not in pids
    assert out.endswith("3/3 criteria passed\n")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("suite, cores", [("trio", 1), ("solo", 2), ("trio", None)])
def test_verify_runs_in_process_on_one_core_or_criterion(suite, cores, scratch_suites,
                                                         monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("verify built a worker pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    if cores is None:  # no affinity call: the core count decides
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    else:
        _cores(monkeypatch, cores)
    assert main(["verify", suite]) == 0
    names, pids = _pids(capsys.readouterr().out)
    assert names == list(acceptance.SUITES[suite])
    assert pids == {os.getpid()}


def test_verify_reports_a_criterion_failing_in_a_worker(scratch_suites, monkeypatch, capsys):
    _cores(monkeypatch, 2)
    assert main(["verify", "failing"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["PASS first", "FAIL fails",
                                                           "PASS second"]
    assert f"failed in {os.getpid()}" not in lines[1]
    assert lines[-1] == "2/3 criteria passed"


def test_verify_names_a_dead_worker(scratch_suites, monkeypatch, capsys):
    _cores(monkeypatch, 2)
    # a worker dies running a criterion's only game task, then one of several
    for suite in ("dying", "dying_game"):
        assert main(["verify", suite]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verify aborted: a worker process died: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert multiprocessing.active_children() == []


def test_verify_gates_game_tasks_on_the_sum_of_their_seconds(scratch_suites, monkeypatch,
                                                              capsys):
    _cores(monkeypatch, 2)
    assert main(["verify", "games"]) == 1
    line, tally = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL games: games ran in ") and "; took " in line
    pids = {int(pid) for pid in line.split("games ran in ")[1].split(";")[0].split()}
    assert os.getpid() not in pids
    # four games of 0.05 s each on two workers: the sum, not the wall time
    assert float(line.rsplit("[", 1)[1].rstrip("s]")) >= 4 * 0.05
    assert tally == "0/1 criteria passed"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores", [2, 1])
def test_verify_records_what_a_criterion_raises(cores, scratch_suites, monkeypatch, capsys):
    _cores(monkeypatch, cores)
    assert main(["verify", "raising"]) == 1
    captured = capsys.readouterr()
    lines = [line.rsplit("; required: ", 1)[0] for line in captured.out.splitlines()]
    # a raising task's line names the task; a raising plan or fold's does not
    assert lines[1:-2] == ["FAIL raises: only game: ValueError: no fraction on the grid",
                           "FAIL raising_game: broken: ValueError: the game broke",
                           "FAIL plan_raises: ValueError: no games to play",
                           "FAIL fold_raises: ValueError: the fit needs two points"]
    assert [line.split(":")[0] for line in (lines[0], lines[-2])] == ["PASS first",
                                                                      "PASS second"]
    assert lines[-1] == "2/6 criteria passed"
    assert captured.err == ""


@pytest.mark.parametrize("cores", [1, 2])
def test_verify_builds_each_plan_once(cores, scratch_suites, monkeypatch, capsys):
    _cores(monkeypatch, cores)
    assert main(["verify", "planned"]) == 1
    capsys.readouterr()
    names = acceptance.SUITES["planned"]
    assert scratch_suites == {name: [os.getpid()] for name in names}


@pytest.mark.parametrize("cores", [1, 2])
def test_verify_gates_a_plan_on_its_build_time(cores, scratch_suites, monkeypatch, capsys):
    _cores(monkeypatch, cores)
    # two quick games under a 0.04 s gate: only the plan's 0.05 s passes it
    assert main(["verify", "planned"]) == 1
    line = capsys.readouterr().out.splitlines()[1]
    assert line.startswith("FAIL slow_plan: games ran in ") and "; took " in line
    assert float(line.rsplit("[", 1)[1].rstrip("s]")) >= 0.05


_BOUND_GAMES = acceptance._bound_games


def _logged_bound_games(log, failures, label, spec, *args):
    if spec.algo == "adagrad_ball":
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
    return _BOUND_GAMES(failures, label, spec, *args)


@pytest.mark.parametrize("cores", [2, 1])
def test_every_suite_prints_the_pinned_measurements(cores, tmp_path, monkeypatch, capsys):
    _cores(monkeypatch, cores)
    log = tmp_path / "ball_game_pids"
    monkeypatch.setattr(acceptance, "_bound_games", functools.partial(_logged_bound_games, log))
    folds = []
    real_plan = acceptance.CRITERIA["ball_regret_within_bound"].plan

    def plan():
        tasks, real_fold = real_plan()

        def fold(*args):
            folds.append(os.getpid())
            return real_fold(*args)

        return tasks, fold

    monkeypatch.setattr(acceptance.CRITERIA["ball_regret_within_bound"], "plan", plan)
    for suite in ("coin", "reductions", "ball", "bounds"):
        names = acceptance.SUITES[suite]
        assert main(["verify", suite]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(names) + 1
        for n, line in zip(names, lines):
            assert line.startswith(f"PASS {n}: {MEASURED[n]}; required: "), line
        assert lines[-1] == f"{len(names)}/{len(names)} criteria passed"
        assert multiprocessing.active_children() == []
    pids = [int(pid) for pid in log.read_text(encoding="utf-8").split()]
    assert len(pids) == 9 and folds == [os.getpid()]
    if cores == 1:
        assert set(pids) == {os.getpid()}
    else:
        assert os.getpid() not in pids


def _exit_worker(spec):
    os._exit(3)


def test_sweep_names_a_dead_worker(tmp_path, monkeypatch, capsys):
    # two cells, so that the cells go to worker processes: a sweep of one
    # cell plays it in this process, which _exit_worker would end
    monkeypatch.setattr(cli, "_sweep_cell", _exit_worker)
    assert main(["sweep", "--k", "1,2", "--p", "0.5", "--adversary", "zero", "--T", "10,20",
                 "--jobs", "2", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sweep aborted: a worker process died: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "sweep.csv").exists()
    assert multiprocessing.active_children() == []


def test_sweep_grid(tmp_path):
    rc = main(["sweep", "--k", "0.5,2", "--p", "0.5",
               "--adversary", "constant,zero", "--T", "50,100",
               "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 k x 1 p x 2 kinds x 2 horizons x 9 comparators
    assert len(rows) == 72
    assert set(r["k"] for r in rows) == {"0.5", "2"}
    assert all(r["bound"] != "" for r in rows)
    with open(tmp_path / "exponents.csv", newline="") as fh:
        exp_rows = list(csv.DictReader(fh))
    assert len(exp_rows) == 36  # one per (k, p, kind, comparator) group
    assert set(exp_rows[0]) == {"k", "p", "adversary", "comparator", "exponent"}
    for r in exp_rows:
        assert math.isfinite(float(r["exponent"]))


def test_sweep_single_horizon_skips_exponents(tmp_path):
    assert main(["sweep", "--k", "1", "--p", "0.5", "--adversary", "zero",
                 "--T", "20", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").exists()
    assert not (tmp_path / "exponents.csv").exists()


def test_sweep_parallel_matches_serial(tmp_path):
    argv = ["sweep", "--k", "1", "--p", "0.5", "--adversary", "constant",
            "--T", "50,100"]
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(); b.mkdir()
    assert main(argv + ["--out", str(a), "--jobs", "1"]) == 0
    assert main(argv + ["--out", str(b), "--jobs", "2"]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_scores_repeated_and_unsorted_horizons_in_grid_order(tmp_path, monkeypatch):
    # each cell is one game scored at 100 and 1000; its rows come in the
    # grid's order of horizons, repeats included, as separate games give them
    grid = ["sweep", "--k", "1,2", "--p", "0.5", "--adversary", "alternating,spike"]

    def sweep(name, horizons, jobs="1"):
        out = tmp_path / name
        out.mkdir()
        assert main(grid + ["--T", horizons, "--jobs", jobs, "--out", str(out)]) == 0
        return out

    serial, parallel = sweep("serial", "1000,100,1000"), sweep("parallel", "1000,100,1000", "2")
    for name in ("sweep.csv", "exponents.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name

    def by_cell(rows):
        return [list(cell) for _, cell in
                itertools.groupby(rows, lambda r: (r["k"], r["p"], r["adversary"]))]

    alone = {T: by_cell(read_trace(sweep(f"T{T}", T) / "sweep.csv")) for T in ("100", "1000")}
    want = [row for i in range(4) for T in ("1000", "100", "1000") for row in alone[T][i]]
    assert read_trace(serial / "sweep.csv") == want
    # every horizon is checked before any game
    _forbid_games(monkeypatch)
    assert main(grid + ["--T", "10,0", "--out", str(serial)]) == 2


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_fewer_than_one_job(jobs, tmp_path, monkeypatch, capsys):
    def no_worker(*args, **kwargs):
        raise AssertionError("a rejected sweep started a worker")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_worker)
    monkeypatch.setattr(cli, "_sweep_cell", no_worker)
    argv = ["sweep", "--k", "1", "--p", "0.5", "--adversary", "zero", "--T", "10",
            "--out", str(tmp_path)]
    assert main(argv + ["--jobs", jobs]) == 2
    monkeypatch.setenv("LEASHED_JOBS", jobs)
    assert main(argv) == 2
    assert "bad configuration: number of worker processes must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_written_files_are_named_relative_to_out(tmp_path, capsys):
    # what run and sweep print does not depend on where --out sits
    assert main(["run", "--adversary", "zero", "--T", "5", "--out", str(tmp_path)]) == 0
    assert main(["sweep", "--k", "1", "--p", "0.5", "--adversary", "zero",
                 "--T", "10,20", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == "wrote trace.csv and summary.json\nwrote sweep.csv and exponents.csv\n"
    assert str(tmp_path) not in out


def test_sweep_bad_grids(tmp_path):
    assert main(["sweep", "--k", "", "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--adversary", "constant,bogus",
                 "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--out", str(tmp_path / "nope")]) == 1
    for flags in (["--k", "nan"], ["--k", "1,inf"], ["--T", "0"], ["--T", "10,0"],
                  ["--eps", "nan"], ["--alpha", "inf"], ["--comparators", "nan"],
                  ["--adversary", "spike", "--magnitude", "inf"],
                  ["--adversary", "spike", "--magnitude", "1e305"]):
        assert main(["sweep", "--T", "10", "--out", str(tmp_path)] + flags) == 2, flags
    cfg = tmp_path / "cfg.json"
    for grids in ({"T": [100.5, 1000]}, {"k": [1, True]}, {"adversary": [True]},
                  {"seed": True}, {"Tt": [5, 10]}, {"epsilon": 2}):
        cfg.write_text(json.dumps(grids))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2, grids


@pytest.mark.parametrize("command, algo", [("run", "leashed_dimfree"), ("sweep", "adagrad_ball")])
def test_negative_seed_is_rejected_before_any_game(command, algo, tmp_path, monkeypatch, capsys):
    # the constant stream takes no seed; the comparator draws would refuse it
    # only after the game
    def no_game(*args, **kwargs):
        raise AssertionError("a rejected seed started a game")

    _forbid_games(monkeypatch, no_game)
    assert main([command, "--algo", algo, "--dim", "3", "--adversary", "constant",
                 "--seed", "-1", "--T", "10", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "bad configuration: seed must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flags, knob", [
    (["--adversary", "spike", "--scale", "1e308"], "magnitude"),
    (["--adversary", "seeded_uniform", "--envelope", "1e300", "--scale", "1e10"], "envelope"),
])
def test_stream_whose_gradient_cap_overflows_is_rejected_before_any_game(
        command, flags, knob, tmp_path, monkeypatch, capsys):
    # the leashed stack takes no a-priori cap, so the game itself would meet
    # the first gradient past float range and abort with exit 1
    _forbid_games(monkeypatch)
    assert main([command] + flags + ["--T", "20", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad configuration: ") and err.count("\n") == 1
    assert f"scale * {knob}" in err and "not finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_overflowing_stream_aborts_the_game(command, tmp_path, capsys):
    # 2.0 ** 2000 is past float range: the gradient of round 2 is infinite
    assert main([command, "--adversary", "growing", "--rate", "2000", "--T", "5",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (f"{command} aborted: adversary produced a non-finite "
                                       "gradient at round 2\n")


def test_sweep_aborts_where_the_ledger_sums_leave_float_range(tmp_path, capsys):
    # at scale 1e307 the sum of |g| overflows at round 18: the leash's barrier
    # and the gradient sum go inf, so regret at comparator 0 would be inf * 0.
    # sweep aborts at the horizon past it and writes nothing; run aborts at
    # the first non-finite value of its trace
    flags = ["--scale", "1e307", "--adversary", "constant", "--k", "10", "--out", str(tmp_path)]
    assert main(["sweep", "--T", "10,100"] + flags) == 1
    assert capsys.readouterr().err == ("sweep aborted: the ledger's sums left float range "
                                       "by round 100\n")
    assert list(tmp_path.iterdir()) == []
    assert main(["run", "--T", "100"] + flags) == 1
    assert capsys.readouterr().err == "run aborted: non-finite trace value at round 19\n"


def test_summary_is_strict_json(tmp_path):
    # the squared-gradient mass overflows, so stats and bounds hold inf
    assert main(["run", "--scale", "1e200", "--T", "10", "--out", str(tmp_path)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    text = (tmp_path / "summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)
    assert summary["stats"]["sum_sq"] == "inf"
    assert float(summary["stats"]["sum_sq"]) == math.inf


def test_run_scores_through_the_stack_bound_verify_uses(tmp_path, monkeypatch):
    # the patch test_bound_criteria_have_teeth makes to fail every verify cell
    monkeypatch.setattr(stacks, "stack_bound", lambda *args, **kwargs: -math.inf)
    assert main(["run", "--T", "10", "--out", str(tmp_path)]) == 0
    rows = read_summary(tmp_path / "summary.json")["comparators"]
    assert rows and all(row["stack_bound"] == "-inf" and row["ratio"] is None for row in rows)


def test_run_takes_the_stream_statistics_once(tmp_path, monkeypatch):
    calls = []
    real = StreamStats.from_ledger.__func__
    monkeypatch.setattr(StreamStats, "from_ledger",
                        classmethod(lambda cls, ledger: calls.append(ledger) or real(cls, ledger)))
    assert main(["run", "--T", "10", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_run_huge_comparator_has_a_finite_bound(tmp_path):
    # the leash penalty's powers overflow at q = 0, with k = 1e200 both of them
    for k in ("1", "1e200"):
        assert main(["run", "--k", k, "--comparators", "1e120", "--T", "10",
                     "--out", str(tmp_path)]) == 0
        row, = read_summary(tmp_path / "summary.json")["comparators"]
        assert math.isfinite(row["stack_bound"]) and row["regret"] <= row["stack_bound"]


def test_run_small_barrier_has_a_finite_bound(tmp_path):
    # k^(1/p) = 1e-500 underflows to zero in the leash penalty's q = 0 term
    assert main(["run", "--k", "1e-5", "--p", "0.01", "--T", "100", "--out", str(tmp_path)]) == 0
    rows = read_summary(tmp_path / "summary.json")["comparators"]
    assert rows and all(math.isfinite(row["stack_bound"]) and row["regret"] <= row["stack_bound"]
                        for row in rows)


def test_sweep_ball_comparators_stay_in_the_ball(tmp_path):
    assert main(["sweep", "--algo", "adagrad_ball", "--dim", "10", "--T", "2000",
                 "--adversary", "seeded_uniform", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for r in rows:
        assert float(r["regret"]) <= float(r["bound"])
        norm, _, index = r["comparator"].removeprefix("|w|=").partition("#")
        assert float(norm) <= 1.0 and index.isdigit()


@pytest.mark.parametrize("algo", ["adagrad_ball", "leashed_dimfree"])
def test_sweep_labels_each_vector_comparator_apart(algo, tmp_path):
    assert main(["sweep", "--algo", algo, "--dim", "3", "--T", "100,1000",
                 "--adversary", "seeded_uniform,alternating", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = {}
    for r in rows:
        cells.setdefault((r["adversary"], r["T"]), []).append(r["comparator"])
    assert len(cells) == 4
    for labels in cells.values():
        assert len(set(labels)) == len(labels)
    # the same labels at every horizon, so each exponent fits one comparator
    assert len({tuple(labels) for labels in cells.values()}) == 1
    with open(tmp_path / "exponents.csv", newline="") as fh:
        fits = [(r["k"], r["p"], r["adversary"], r["comparator"]) for r in csv.DictReader(fh)]
    assert len(fits) == len(set(fits)) == len(rows) // 2


def test_null_config_value_counts_as_unset(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": None}))
    common = ["--adversary", "zero", "--T", "5", "--config", str(cfg), "--out", str(tmp_path)]
    assert main(["run"] + common) == 0
    assert read_summary(tmp_path / "summary.json")["params"]["k"] == 1.0
    assert main(["sweep"] + common) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        assert {r["k"] for r in csv.DictReader(fh)} == {"1"}


def test_module_entry_point():
    # the child imports the package from this checkout's src, installed or not
    src = str(Path(leashed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "leashed", "verify", "bounds"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0
    assert "criteria passed" in proc.stdout
