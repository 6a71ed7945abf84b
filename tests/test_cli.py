import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from subsetci.cli import main


@pytest.fixture
def data_csv(tmp_path, rng):
    n = 40
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = 2.0 * x1 + 0.4 * rng.standard_normal(n)
    path = tmp_path / "data.csv"
    with open(path, "w") as fh:
        fh.write("y,x1,x2\n")
        for i in range(n):
            fh.write(f"{float(y[i])!r},{float(x1[i])!r},{float(x2[i])!r}\n")
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(
        "n = 15\np = 3\nbeta = 2,1,0\nrho = 0.3\nsigma = 1.0\nreps = 12\n"
        "alpha = 0.05\ncriterion = aic\nsigma_strategies = known:1.0\n"
        "n_new_points = 2\nmaster_seed = 5\n")
    return str(path)


def test_select_writes_json(data_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["select", data_csv, "--response", "y",
                 "--out", str(out), "--format", "json"])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    # the true support is always kept; noise columns may tag along
    assert "x1" in doc["selected_model"]["names"]
    assert len(doc["scores"]) == 3


def test_select_stdout_default(data_csv, capsys):
    code = main(["select", data_csv, "--response", "y"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "x1" in doc["selected_model"]["names"]


def test_ci_coefficient_target(data_csv, capsys):
    code = main(["ci", data_csv, "--response", "y",
                 "--target", "coefficient:x1",
                 "--sigma", "mse-aic", "--sigma", "known:0.4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    rows = doc["targets"]
    assert {r["method"] for r in rows} >= {"corrected"}
    assert all(r["name"] == "x1" for r in rows)
    corrected = [r for r in rows if r["method"] == "corrected"]
    assert len(corrected) == 2  # one per sigma strategy
    for r in corrected:
        assert r["lower"] < r["point"] < r["upper"]


def test_ci_prediction_target(data_csv, capsys):
    code = main(["ci", data_csv, "--response", "y",
                 "--target", "prediction:1.0,0.0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["targets"]


def test_simulate_from_config(config_file, tmp_path):
    out = tmp_path / "simout"
    code = main(["simulate", config_file, "--out", str(out),
                 "--format", "plotdata"])
    assert code == 0
    assert (out / "coverage_vs_point.csv").exists()
    assert (out / "size_histogram.csv").exists()


def test_simulate_rep_override(config_file, capsys):
    code = main(["simulate", config_file, "--reps", "6"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reps_completed"] + len(doc["failures"]) == 6


def test_duplicate_config_key_is_input_error(config_file, capsys):
    with open(config_file, "a") as fh:
        fh.write("reps = 7\n")
    assert main(["simulate", config_file]) == 2
    assert "duplicate config key 'reps' at row 12" in capsys.readouterr().err


def test_analyze_csv_format(data_csv, tmp_path):
    out = tmp_path / "an"
    code = main(["analyze", data_csv, "--response", "y",
                 "--sigma", "mse-full", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0].startswith("target,strategy,method")


def test_missing_file_is_input_error(capsys):
    code = main(["analyze", "/nonexistent/file.csv", "--response", "y"])
    assert code == 2


@pytest.mark.parametrize("command", [["analyze"], ["ci", "--target", "coefficient:x1"]])
def test_arguments_are_checked_before_the_csv_is_read(command, capsys):
    # select, ci and analyze share one path: a bad --sigma is reported
    # before a missing CSV
    argv = [command[0], "/nonexistent/file.csv", "--response", "y", *command[1:],
            "--sigma", "known:abc"]
    assert main(argv) == 2
    assert "cannot parse the sigma value" in capsys.readouterr().err


def test_bad_target_is_input_error(data_csv):
    code = main(["ci", data_csv, "--response", "y", "--target", "huh:1"])
    assert code == 2


@pytest.mark.parametrize("argv, config_line", [
    (["analyze", "{csv}", "--sigma", "known:abc"], None),
    (["analyze", "{csv}", "--sigma", "known:inf"], None),
    (["ci", "{csv}", "--target", "prediction:1,inf"], None),
    (["ci", "{csv}", "--target", "prediction:1,abc"], None),
    (["simulate", "{cfg}"], "n_new_points = -1"),
    (["simulate", "{cfg}"], "master_seed = -5"),
    (["simulate", "{cfg}"], "sigma = inf"),
    (["simulate", "{cfg}", "--seed", "-5"], None),
], ids=["sigma-text", "sigma-inf", "target-inf", "target-text",
        "new-points", "config-seed", "config-sigma", "seed-flag"])
def test_bad_number_is_input_error(data_csv, config_file, capsys, argv,
                                   config_line):
    if config_line is not None:  # in place of the fixture's line for its key
        key = config_line.split("=")[0]
        path = pathlib.Path(config_file)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([ln for ln in lines if not ln.startswith(key)]
                                  + [config_line]) + "\n")
    argv = [a.format(csv=data_csv, cfg=config_file) for a in argv]
    if argv[0] != "simulate":
        argv[2:2] = ["--response", "y"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_bad_response_is_input_error(data_csv):
    code = main(["select", data_csv, "--response", "nope"])
    assert code == 2


def _csv_with_cell(tmp_path, column, value):
    rng = np.random.default_rng(5)
    rows = ["y,a,b"]
    for i in range(12):
        cells = {c: repr(float(v)) for c, v in zip("yab", rng.standard_normal(3))}
        if i == 4:
            cells[column] = value
        rows.append(",".join(cells[c] for c in "yab"))
    path = tmp_path / "cells.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("column, value", [
    ("a", "inf"), ("b", "-inf"), ("y", "inf"), ("a", "nan"), ("y", "nan")])
def test_non_finite_cell_is_input_error(tmp_path, capsys, column, value):
    path = _csv_with_cell(tmp_path, column, value)
    code = main(["analyze", path, "--response", "y"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if column != "y" or value == "nan":
        assert repr(column) in err


def test_rank_deficient_is_numerical_error(tmp_path):
    path = tmp_path / "collinear.csv"
    rows = ["y,a,b"]
    rng = np.random.default_rng(3)
    for _ in range(12):
        a = float(rng.standard_normal())
        rows.append(f"{float(rng.standard_normal())!r},{a!r},{2 * a!r}")
    path.write_text("\n".join(rows) + "\n")
    code = main(["select", str(path), "--response", "y"])
    assert code == 3


def test_no_residual_df_is_numerical_error(tmp_path, capsys):
    # n = p + 1 without an intercept: the full model's sigma has df = 0
    rng = np.random.default_rng(4)
    rows = ["y,a,b,c,d"] + [",".join(repr(float(v)) for v in rng.standard_normal(5))
                            for _ in range(5)]
    path = tmp_path / "square.csv"
    path.write_text("\n".join(rows) + "\n")
    code = main(["analyze", str(path), "--response", "y", "--sigma", "mse-full"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure: model {1,2,3,4} leaves no residual degrees of " \
        "freedom (df=0)" in err
    assert "Traceback" not in err


def test_console_script_entry_point(data_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "subsetci.cli", "select", data_csv,
         "--response", "y"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "x1" in json.loads(proc.stdout)["selected_model"]["names"]


def test_empty_strategy_list_is_input_error(tmp_path, capsys):
    path = tmp_path / "empty.cfg"
    path.write_text("n = 15\np = 3\nbeta = 2,1,0\nrho = 0.3\nsigma = 1.0\n"
                    "reps = 4\nsigma_strategies =\n")
    code = main(["simulate", str(path), "--format", "plotdata",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "sigma_strategies" in err


@pytest.mark.parametrize("alpha", ["7", "0", "1", "-0.5"])
def test_alpha_outside_unit_interval_is_input_error(data_csv, capsys, alpha):
    # refused before the search, even by select, which builds no interval
    code = main(["select", data_csv, "--response", "y", "--alpha", alpha])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: alpha must be in (0,1)")


@pytest.mark.parametrize("argv", [
    ["analyze", "{csv}", "--response", "y", "--format", "csv"],
    ["select", "{csv}", "--response", "y", "--format", "plotdata"],
    ["simulate", "{cfg}", "--format", "csv"],
])
def test_file_format_without_out_is_input_error(data_csv, config_file, capsys,
                                                argv):
    argv = [a.format(csv=data_csv, cfg=config_file) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--out" in captured.err


def test_retired_skip_supersets_flag_is_refused(data_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", data_csv, "--response", "y", "--skip-supersets", "off"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--skip-supersets" in err and "Traceback" not in err


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_stdout_is_input_error(data_csv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["analyze", data_csv, "--response", "y"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write to standard output")
    assert err.count("\n") == 1


@pytest.mark.parametrize("out", [False, True], ids=["report", "paths"])
def test_closed_stdout_pipe_exits_without_traceback(data_csv, tmp_path, out):
    # as in `subsetci select ... | head -1`: the reader is gone before the
    # report (or the short list of written paths) goes out, and buffered
    # output does not fail again when the interpreter flushes it at exit
    argv = ["select", data_csv, "--response", "y"]
    if out:
        argv += ["--out", str(tmp_path / "out")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "subsetci.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to standard output")
    assert proc.stderr.count("\n") == 1
