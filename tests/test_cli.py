import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import grasspack.cli as cli
import grasspack.harness as harness
from grasspack.cli import main
from grasspack.geometry import Configuration, Field, Metric, write_configuration
from grasspack.harness import ExperimentSpec, read_results_csv

SRC = Path(__file__).resolve().parent.parent / "src"


def test_bound_chordal_complex(capsys):
    code = main(["bound", "--space", "grassmann", "--field", "C",
                 "--metric", "chordal", "-d", "4", "-K", "2", "-N", "6"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["bound_value"] == pytest.approx(1.2)
    assert out[0]["attainable"] is True


def test_bound_projective_degrees(capsys):
    code = main(["bound", "--space", "projective", "--field", "R",
                 "-d", "3", "-N", "4"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["degrees"] == pytest.approx(70.5288, abs=1e-3)


def test_bound_takes_the_cells_solve_takes(capsys):
    # A grassmann cell with K >= d is dropped, as solve drops it, and the
    # kept cells come out sorted.
    args = ["--space", "grassmann", "-d", "5,3,4", "-K", "3", "-N", "4"]
    assert main(["bound", *args]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [(e["d"], e["K"], e["N"]) for e in out] == [(4, 3, 4), (5, 3, 4)]
    assert harness._cells("grassmann", (5, 3, 4), (3,), (4,)) == [(4, 3, 4), (5, 3, 4)]
    assert main(["bound", "--space", "grassmann", "-d", "3", "-K", "3", "-N", "4"]) == 1
    assert "no cell to solve" in capsys.readouterr().err


def test_repeated_values_give_each_cell_once(tmp_path, capsys):
    shape = ["--space", "projective", "-d", "3,3", "-K", "1,1", "-N", "4,3,4"]
    assert harness._cells("projective", (3, 3), (1, 1), (4, 3, 4)) == [(3, 1, 3), (3, 1, 4)]
    assert main(["bound", *shape]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [(e["d"], e["K"], e["N"]) for e in out] == [(3, 1, 3), (3, 1, 4)]
    out_path = tmp_path / "results.csv"
    assert main(["solve", *shape, "--mu-from-bound", "--trials", "1", "--max-iter", "50",
                 "--out", str(out_path)]) == 0
    assert [(r.d, r.K, r.N) for r in read_results_csv(out_path)] == [(3, 1, 3), (3, 1, 4)]


def test_bound_empty_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bound", "--space", "projective", "-d", "3", "-N", "5..4"])
    assert err.value.code == 1
    assert "empty range" in capsys.readouterr().err


def test_closed_stdout_is_not_a_failed_run():
    # About 0.8 MB of JSON: far more than a pipe holds, so the writer meets
    # the closed pipe while it is still printing.
    with subprocess.Popen(
        [sys.executable, "-m", "grasspack", "bound", "--space", "projective",
         "-d", "3..60", "-N", "4..60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize("args", [
    ["solve", "--space", "projective", "--metric", "spectral"],
    ["solve", "--space", "sphere", "--metric", "chordal"],
    ["bound", "--space", "projective", "-K", "2"],
])
def test_cell_the_space_does_not_take_is_usage_error(monkeypatch, tmp_path, capsys, args):
    chunks = []
    monkeypatch.setattr(harness, "_run_chunk", lambda *a: chunks.append(a) or [])
    solve_args = ["--mu", "0.5", "--trials", "1", "--out", str(tmp_path / "r.csv")]
    code = main([*args, "-d", "3", "-N", "4", *(solve_args if args[0] == "solve" else [])])
    assert code == 1
    assert "usage error" in capsys.readouterr().err
    assert chunks == []
    assert list(tmp_path.iterdir()) == []


def test_solve_settings_come_from_experiment_spec(monkeypatch, tmp_path):
    specs = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
    base = ["solve", "--space", "projective", "-d", "3", "-N", "4", "--mu-from-bound",
            "--out", str(tmp_path / "r.csv")]
    settings = {"--trials": ("trials", 3), "--max-iter": ("max_iterations", 77),
                "--stop-slack": ("stop_slack", 1e-3), "--tau": ("tau", 0.7),
                "--max-draws": ("max_draws", 55), "--seed": ("seed", 9),
                "--workers": ("workers", 2)}
    assert main(base) == 0
    assert main(base + [a for flag, (_, v) in settings.items() for a in (flag, str(v))]) == 0
    defaults = ExperimentSpec(space="projective", field=Field.REAL, metric=Metric.CHORDAL,
                              d_values=(3,), N_values=(4,))
    assert specs == [defaults, replace(defaults, **dict(settings.values()))]


def test_solve_writes_results(tmp_path, capsys):
    out_path = tmp_path / "results.csv"
    code = main([
        "solve", "--space", "projective", "--field", "R",
        "-d", "3", "-N", "3..4", "--mu-from-bound",
        "--trials", "2", "--max-iter", "150", "--seed", "11",
        "--out", str(out_path), "--no-timestamp",
    ])
    assert code == 0
    rows = read_results_csv(out_path)
    assert [(r.d, r.N) for r in rows] == [(3, 3), (3, 4)]
    assert all(math.isfinite(r.best_diameter) for r in rows)


def test_solve_empty_range_is_usage_error(tmp_path, capsys):
    out_path = tmp_path / "results.csv"
    with pytest.raises(SystemExit) as err:
        main(["solve", "--space", "projective", "-d", "3", "-N", "5..4", "--mu-from-bound",
              "--trials", "1", "--out", str(out_path)])
    assert err.value.code == 1
    assert "empty range" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("args, message", [
    (["--stop-slack", "nan"], "stop_slack"),
    (["--sweep", "1:inf:2"], "bad sweep specification"),
])
def test_solve_non_finite_setting_is_usage_error(tmp_path, capsys, args, message):
    out_path = tmp_path / "results.csv"
    code = main(["solve", "--space", "projective", "-d", "3", "-N", "4", "--mu", "0.5",
                 "--trials", "1", "--out", str(out_path), *args])
    assert code == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not out_path.exists()


def test_solve_without_cells_is_usage_error(tmp_path, capsys):
    out_path = tmp_path / "results.csv"
    code = main(["solve", "--space", "grassmann", "-d", "2", "-K", "2", "-N", "3",
                 "--mu", "0.5", "--trials", "1", "--out", str(out_path)])
    assert code == 1
    assert "usage error: no cell to solve" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("out", ["missing/r.csv", "."])  # no such directory; a directory
def test_solve_unwritable_out_fails_before_any_trial(monkeypatch, tmp_path, capsys, out):
    chunks = []
    monkeypatch.setattr(harness, "_run_chunk", lambda *args: chunks.append(args) or [])
    code = main(["solve", "--space", "projective", "-d", "3", "-N", "4..6", "--mu-from-bound",
                 "--trials", "3", "--max-iter", "200", "--out", str(tmp_path / out)])
    assert code == 1
    assert "--out" in capsys.readouterr().err
    assert chunks == []
    assert list(tmp_path.iterdir()) == []


def test_solve_reproducible_bytes(tmp_path):
    args = [
        "solve", "--space", "projective", "--field", "R",
        "-d", "3", "-N", "4", "--mu-from-bound",
        "--trials", "2", "--max-iter", "100", "--seed", "5", "--no-timestamp",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_missing_reference_exit_2(tmp_path, capsys):
    ref = tmp_path / "refs.csv"
    ref.write_text("3,1,4,70.529,degrees\n")
    code = main([
        "solve", "--space", "projective", "--field", "R",
        "-d", "3", "-N", "4..5", "--mu-from-ref", str(ref),
        "--trials", "1", "--max-iter", "50", "--seed", "1",
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("command", ["export", "solve"])
def test_non_utf8_csv_is_a_parse_error(tmp_path, capsys, command):
    # A results file (export --in) or reference file (--mu-from-ref) whose
    # first byte is 0xff fails with exit code 2 and a message, not a traceback.
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff3,1,4,70.529,degrees\n")
    if command == "export":
        args = ["export", "--format", "plot_data", "--in", str(bad), "--out-dir", str(tmp_path)]
    else:
        args = ["solve", "--space", "projective", "-d", "3", "-N", "4", "--mu-from-ref", str(bad),
                "--trials", "1", "--max-iter", "50", "--out", str(tmp_path / "r.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and "not UTF-8" in err
    assert not (tmp_path / "r.csv").exists()


def test_solve_reads_the_reference_file_once(monkeypatch, tmp_path):
    ref = tmp_path / "refs.csv"
    ref.write_text("3,1,4,70.529,degrees\n")
    loads = []
    load = harness.ReferenceTable.load
    monkeypatch.setattr(harness.ReferenceTable, "load",
                        staticmethod(lambda path: loads.append(path) or load(path)))
    out_path = tmp_path / "r.csv"
    code = main([
        "solve", "--space", "projective", "-d", "3", "-N", "4", "--mu-from-ref", str(ref),
        "--trials", "1", "--max-iter", "50", "--seed", "1", "--out", str(out_path),
    ])
    assert code == 0
    assert loads == [str(ref)]
    (row,) = read_results_csv(out_path)
    assert row.error_vs_reference == 70.529 - row.best_diameter


def test_solve_requires_single_mu_source(tmp_path):
    code = main([
        "solve", "--space", "projective", "--field", "R",
        "-d", "3", "-N", "4",
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 1


def test_solve_explicit_mu_zero(tmp_path):
    # Three mutually orthogonal lines in R^3 meet mu = 0 exactly.
    out_path = tmp_path / "r.csv"
    code = main([
        "solve", "--space", "projective", "--field", "R", "-d", "3", "-N", "3",
        "--mu", "0", "--trials", "1", "--max-iter", "50", "--seed", "2",
        "--out", str(out_path), "--no-timestamp",
    ])
    assert code == 0
    (row,) = read_results_csv(out_path)
    assert row.mu_target == 0.0
    assert row.trials_failed == 0


def test_solve_mu_zero_with_another_source_is_usage_error(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    code = main([
        "solve", "--space", "projective", "--field", "R", "-d", "3", "-N", "3",
        "--mu", "0", "--mu-from-bound", "--trials", "1", "--out", str(out_path),
    ])
    assert code == 1
    assert "choose exactly one" in capsys.readouterr().err
    assert not out_path.exists()


def test_solve_spectral_sweep(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = main([
        "solve", "--space", "grassmann", "--field", "C", "--metric", "spectral",
        "-d", "4", "-K", "2", "-N", "4", "--mu-from-bound", "--sweep", "1.0:2.0:8",
        "--trials", "1", "--max-iter", "40", "--seed", "3",
        "--out", str(out_path), "--no-timestamp",
    ])
    assert code == 0
    rows = read_results_csv(out_path)
    assert rows[0].trials_failed == 0
    assert math.isfinite(rows[0].best_diameter)


def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--space", "nowhere", "-d", "3", "-N", "4", "--mu-from-bound"])
    assert err.value.code == 1


def test_eval_command(tmp_path, capsys):
    config = Configuration(field=Field.REAL, blocks=np.eye(3).reshape(3, 3, 1))
    path = tmp_path / "c.json"
    write_configuration(config, path)
    code = main(["eval", str(path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["min_angle_degrees"] == pytest.approx(90.0)
    assert main(["eval", str(tmp_path / "missing.json")]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_export_command(tmp_path, capsys):
    out_csv = tmp_path / "results.csv"
    assert main([
        "solve", "--space", "grassmann", "--field", "C", "--metric", "chordal",
        "-d", "4", "-K", "2", "-N", "3..5", "--mu-from-bound",
        "--trials", "1", "--max-iter", "50", "--seed", "2",
        "--out", str(out_csv), "--no-timestamp",
    ]) == 0
    code = main(["export", "--format", "plot_data", "--in", str(out_csv),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    series = tmp_path / "plot_chordal_d4_K2.csv"
    assert series.exists()
    lines = series.read_text().strip().split("\n")
    assert len(lines) == 4  # header + N=3,4,5
