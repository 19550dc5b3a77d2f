import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import grasspack.harness as harness
import grasspack.projections as projections
import grasspack.solver as solver
from grasspack.bounds import mu_from_rho, rankin_projective
from grasspack.cli import main
from grasspack.errors import InvalidInput, NotPSD, NumericalFailure, ParseError, RankDeficient
from grasspack.geometry import Field, Metric, write_configuration
from grasspack.harness import (
    ExperimentSpec,
    ReferenceTable,
    ResultRow,
    compare_reference,
    evaluate_file,
    export,
    read_results_csv,
    run_experiment,
    write_results_csv,
)
from grasspack.solver import SolveParams, alternate
from grasspack.starts import InitParams, initial_configuration
from grasspack.geometry import Configuration, gram

from tests.test_solver import assert_same_report


def _row(**kw):
    base = dict(
        d=3, K=1, N=4, field="real", metric="chordal",
        mu_target=0.5, best_diameter=70.0, avg_diameter=69.0,
        error_vs_reference=math.nan, avg_iterations=100.0, trials_failed=0,
    )
    base.update(kw)
    return ResultRow(**base)


def test_reference_table_load(tmp_path):
    path = tmp_path / "refs.csv"
    body = "d,K,N,value,unit\n3,1,4,70.529,degrees\n4,2,5,1.25,squared_diameter\n"
    for text in (body, "# best known packings\n" + body):
        path.write_text(text)
        ref = ReferenceTable.load(path)
        assert ref.get(3, 1, 4) == (70.529, "degrees")
        assert ref.get(4, 2, 5) == (1.25, "squared_diameter")
        assert ref.get(9, 9, 9) is None


def test_reference_table_duplicate_key(tmp_path):
    path = tmp_path / "refs.csv"
    path.write_text("3,1,4,70.5,degrees\n3,1,4,70.6,degrees\n")
    with pytest.raises(ParseError):
        ReferenceTable.load(path)


def test_reference_table_bad_unit(tmp_path):
    path = tmp_path / "refs.csv"
    path.write_text("3,1,4,70.5,radians\n")
    with pytest.raises(ParseError):
        ReferenceTable.load(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_reference_table_rejects_non_finite_value(tmp_path, value):
    path = tmp_path / "refs.csv"
    path.write_text(f"3,1,4,70.5,degrees\n3,1,5,{value},degrees\n")
    with pytest.raises(ParseError, match=r"refs\.csv:2: "):
        ReferenceTable.load(path)


def test_run_experiment_small_projective():
    spec = ExperimentSpec(
        space="projective", field=Field.REAL, metric=Metric.CHORDAL,
        d_values=(3,), N_values=(3, 4), trials=3,
        mu_source="rankin_bound", max_iterations=300, seed=1,
    )
    rows = run_experiment(spec)
    assert [(r.d, r.N) for r in rows] == [(3, 3), (3, 4)]
    for row in rows:
        assert row.trials_failed == 0
        assert row.avg_diameter <= row.best_diameter + 1e-12
        bound_deg = rankin_projective(row.d, row.N, Field.REAL).degrees
        assert row.best_diameter <= bound_deg + 1e-3
        assert math.isfinite(row.avg_iterations)


def test_run_experiment_rejects_spec_without_cells(monkeypatch):
    # Every grassmann cell needs K < d; a spec that leaves none is a usage
    # error, not an empty run.
    spec = ExperimentSpec(
        space="grassmann", field=Field.REAL, metric=Metric.CHORDAL,
        d_values=(2, 3), K_values=(3,), N_values=(3,), trials=1,
        mu_source="explicit", mu_explicit=0.5,
    )
    chunks = []
    monkeypatch.setattr(harness, "_run_chunk", lambda *args: chunks.append(args) or [])
    with pytest.raises(InvalidInput, match="K < d"):
        run_experiment(spec)
    assert chunks == []


def test_run_experiment_missing_reference_row(tmp_path):
    path = tmp_path / "refs.csv"
    path.write_text("3,1,4,70.529,degrees\n")
    # A solved cell attempts trials x sweep steps solves, so a cell without a
    # reference row counts that many failures.
    for sweep, steps in ((None, 1), ((1.0, 1.2, 3), 3)):
        spec = ExperimentSpec(
            space="projective", field=Field.REAL, metric=Metric.CHORDAL,
            d_values=(3,), N_values=(4, 5), trials=2, sweep=sweep,
            mu_source="reference_file", reference_path=str(path),
            max_iterations=100, seed=2,
        )
        rows = run_experiment(spec)
        ok = {r.N: r for r in rows}
        assert math.isfinite(ok[4].best_diameter)
        assert math.isnan(ok[5].best_diameter)
        assert ok[5].trials_failed == spec.trials * steps


def test_run_experiment_rejects_degrees_reference_for_subspaces(tmp_path):
    path = tmp_path / "refs.csv"
    path.write_text("4,2,3,70.0,degrees\n")
    spec = ExperimentSpec(
        space="grassmann", field=Field.COMPLEX, metric=Metric.CHORDAL,
        d_values=(4,), K_values=(2,), N_values=(3,), trials=1,
        mu_source="reference_file", reference_path=str(path),
        max_iterations=10, seed=0,
    )
    with pytest.raises(InvalidInput):
        run_experiment(spec)
    # The cell's own unit is read as a squared diameter.
    path.write_text("4,2,3,1.4,squared_diameter\n")
    (row,) = run_experiment(spec)
    assert row.mu_target == mu_from_rho(math.sqrt(1.4), Metric.CHORDAL, 2)
    assert row.error_vs_reference == 1.4 - row.best_diameter


def test_run_experiment_sweep_clamps_mu():
    spec = ExperimentSpec(
        space="grassmann", field=Field.COMPLEX, metric=Metric.SPECTRAL,
        d_values=(4,), K_values=(2,), N_values=(3,), trials=1,
        mu_source="rankin_bound", sweep=(1.0, 2.0, 3),
        max_iterations=50, seed=3,
    )
    rows = run_experiment(spec)
    assert len(rows) == 1
    assert math.isfinite(rows[0].best_diameter)


def test_run_experiment_reproducible_and_worker_independent():
    spec = ExperimentSpec(
        space="projective", field=Field.REAL, metric=Metric.CHORDAL,
        d_values=(3,), N_values=(4,), trials=4,
        mu_source="rankin_bound", max_iterations=120, seed=7,
    )
    rows1 = run_experiment(spec)
    rows2 = run_experiment(spec)
    assert rows1 == rows2
    assert run_experiment(replace(spec, workers=4)) == rows1


def test_workers_below_one_is_a_usage_error(monkeypatch, tmp_path):
    with pytest.raises(InvalidInput, match="workers"):
        ExperimentSpec(
            space="projective", field=Field.REAL, metric=Metric.CHORDAL,
            d_values=(3,), N_values=(4,), workers=0,
        )
    chunks = []
    monkeypatch.setattr(harness, "_run_chunk", lambda *args: chunks.append(args) or [])
    code = main(["solve", "--space", "projective", "-d", "3", "-N", "4", "--mu-from-bound",
                 "--trials", "1", "--workers", "0", "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert chunks == []


def test_factorization_error_counts_as_failed_trial(monkeypatch):
    import grasspack.solver as solver

    real_factor_stack = solver._factor_stack
    singles = []

    def flaky_factor_stack(A, d, K, N):
        # The three trials share one stack: fail it, then the second trial
        # when the stack is redone trial by trial.
        if len(A) > 1:
            raise NotPSD("injected")
        singles.append(1)
        if len(singles) == 2:
            raise NotPSD("injected")
        return real_factor_stack(A, d, K, N)

    monkeypatch.setattr(solver, "_factor_stack", flaky_factor_stack)
    spec = ExperimentSpec(
        space="projective", field=Field.REAL, metric=Metric.CHORDAL,
        d_values=(3,), N_values=(4,), trials=3,
        mu_source="rankin_bound", max_iterations=100, seed=1,
    )
    (row,) = run_experiment(spec)
    assert row.trials_failed == 1
    assert math.isfinite(row.best_diameter) and math.isfinite(row.avg_diameter)

    def invalid_factor_stack(A, d, K, N):
        raise InvalidInput("injected")

    monkeypatch.setattr(solver, "_factor_stack", invalid_factor_stack)
    with pytest.raises(InvalidInput):
        run_experiment(spec)

    # A one-trial cell is solved alone, and counts the same failures: a
    # start that cannot be drawn, and a solve that raises.
    (row,) = run_experiment(replace(spec, trials=1, tau=1e-6, max_draws=2))
    assert row.trials_failed == 1 and math.isnan(row.best_diameter)

    def failing_factor_stack(A, d, K, N):
        raise NotPSD("injected")

    monkeypatch.setattr(solver, "_factor_stack", failing_factor_stack)
    (row,) = run_experiment(replace(spec, trials=1))
    assert row.trials_failed == 1 and math.isnan(row.best_diameter)


def _grassmann_lines(**kw):
    base = dict(
        space="grassmann", field=Field.REAL, metric=Metric.CHORDAL,
        d_values=(3,), K_values=(1,), N_values=(4,), trials=2,
        max_iterations=300, seed=4,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_grassmann_k1_cells_report_degrees(tmp_path):
    bound_deg = rankin_projective(3, 4, Field.REAL).degrees
    (row,) = run_experiment(_grassmann_lines(mu_source="rankin_bound"))
    assert 60.0 < row.best_diameter <= bound_deg + 1e-3

    path = tmp_path / "refs.csv"
    path.write_text("3,1,4,70.529,degrees\n")
    # A reference run fills error_vs_reference itself, as compare_reference would.
    (row,) = run_experiment(_grassmann_lines(mu_source="reference_file", reference_path=str(path)))
    assert abs(row.error_vs_reference) < 0.5  # degrees minus degrees
    (again,) = compare_reference([row], ReferenceTable.load(path))
    assert again.error_vs_reference == row.error_vs_reference

    (series,) = export([row], "plot_data", tmp_path, timestamp=False)
    n, achieved, bound, reference = Path(series).read_text().strip().split("\n")[1].split(",")
    assert float(achieved) == row.best_diameter
    assert float(bound) == pytest.approx(bound_deg)
    assert float(reference) == pytest.approx(70.529)


def test_reference_unit_mismatch_fails_before_any_trial(monkeypatch, tmp_path):
    path = tmp_path / "refs.csv"
    path.write_text("3,1,4,70.529,degrees\n3,1,5,0.8889,squared_diameter\n")
    trials = []
    monkeypatch.setattr(harness, "_run_trial", lambda *args: trials.append(args))
    spec = _grassmann_lines(N_values=(4, 5), mu_source="reference_file", reference_path=str(path))
    with pytest.raises(InvalidInput):
        run_experiment(spec)
    assert trials == []


def _sphere_sweep(**kw):
    base = dict(
        space="sphere", field=Field.REAL, metric=Metric.SPHERE,
        d_values=(3,), N_values=(5,), trials=2, mu_source="explicit",
        mu_explicit=-0.6, sweep=(1.0, 2.0, 3), max_iterations=10,
    )
    base.update(kw)
    return ExperimentSpec(**base)


@pytest.mark.parametrize(
    "sweep, want", [((1.0, 2.0, 3), [-0.6, -0.3, 0.0]), ((1.0, 3.0, 3), [-0.6, 0.0, 0.6])]
)
def test_sphere_sweep_relaxes_negative_mu(monkeypatch, sweep, want):
    solved = []
    run_chunk = harness._run_chunk

    def record(spec, params, indices):
        solved.append(params.mu)
        return run_chunk(spec, params, indices)

    monkeypatch.setattr(harness, "_run_chunk", record)
    (row,) = run_experiment(_sphere_sweep(sweep=sweep))
    assert solved == pytest.approx(want, abs=1e-15)
    assert math.isfinite(row.best_diameter)
    # A nonnegative mu is still scaled by the factors.
    spec = _sphere_sweep(mu_explicit=0.25, sweep=(1.0, 2.0, 3))
    assert harness._mu_values(spec, 1, 0.25) == [0.25 * f for f in (1.0, 1.5, 2.0)]


@pytest.mark.parametrize("metric, K", [
    *((m, K) for m in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY) for K in (1, 2, 3)),
    (Metric.SPHERE, 1),  # sphere cells are K = 1 points
])
def test_sweep_cap_is_the_largest_structural_mu(metric, K):
    space = "sphere" if metric is Metric.SPHERE else "grassmann"
    spec = ExperimentSpec(
        space=space, field=Field.REAL, metric=metric, d_values=(K + 1,), K_values=(K,),
        N_values=(3,), mu_source="explicit", mu_explicit=0.5, sweep=(1.0, 100.0, 2),
    )
    cap = harness._mu_values(spec, K, 0.5)[-1]
    projections.StructuralSetSpec(metric=metric, mu=cap, K=K, N=3)
    with pytest.raises(InvalidInput, match="outside the valid range"):
        projections.StructuralSetSpec(metric=metric, mu=cap + 1e-9, K=K, N=3)


def test_run_experiment_builds_one_solve_params_per_cell_and_mu(monkeypatch):
    built = []

    class CountedParams(SolveParams):
        def __post_init__(self):
            built.append((self.N, self.mu))
            super().__post_init__()

    monkeypatch.setattr(harness, "SolveParams", CountedParams)
    spec = ExperimentSpec(
        space="grassmann", field=Field.COMPLEX, metric=Metric.SPECTRAL,
        d_values=(4,), K_values=(2,), N_values=(3, 4), trials=3,
        mu_source="rankin_bound", sweep=(1.0, 1.2, 3), max_iterations=20,
    )
    rows = run_experiment(spec)
    assert len(built) == len(set(built)) == 6
    assert all(row.trials_failed == 0 for row in rows)


def test_out_of_range_mu_fails_before_any_chunk(monkeypatch, tmp_path):
    path = tmp_path / "refs.csv"
    # 120 degrees is mu = cos(120 deg) = -0.5, below the chordal range [0, 1].
    path.write_text("3,1,4,70.529,degrees\n3,1,5,120,degrees\n")
    lines = _grassmann_lines(N_values=(4, 5), mu_source="reference_file", reference_path=str(path))
    # The sweep relaxes mu = -1.2 into range, but its first value is below [-1, 1].
    sphere = _sphere_sweep(mu_explicit=-1.2)
    chunks = []
    monkeypatch.setattr(harness, "_run_chunk", lambda *args: chunks.append(args) or [])
    for spec in (lines, sphere):
        with pytest.raises(InvalidInput):
            run_experiment(spec)
    assert chunks == []


def test_compare_reference_exact_and_subtraction():
    ref = ReferenceTable(rows={(3, 1, 4): (70.0, "degrees"), (3, 1, 14): (38.682, "degrees")})
    rows = [
        _row(N=4, best_diameter=70.0),
        _row(N=14, best_diameter=38.462),
    ]
    out = compare_reference(rows, ref)
    assert out[0].error_vs_reference == pytest.approx(0.0, abs=1e-15)
    assert out[1].error_vs_reference == pytest.approx(38.682 - 38.462, abs=1e-12)
    assert out[1].error_vs_reference == pytest.approx(0.221, abs=2e-3)


def test_compare_reference_unit_mismatch():
    ref = ReferenceTable(rows={(3, 1, 4): (1.5, "squared_diameter")})
    with pytest.raises(InvalidInput):
        compare_reference([_row(N=4)], ref)


def test_evaluate_file_orthonormal_lines(tmp_path):
    config = Configuration(field=Field.REAL, blocks=np.eye(3).reshape(3, 3, 1))
    path = tmp_path / "lines.json"
    write_configuration(config, path)
    out = evaluate_file(path)
    assert out["min_angle_degrees"] == pytest.approx(90.0, abs=1e-9)
    assert out["sphere_min_angle_degrees"] == pytest.approx(90.0, abs=1e-9)
    assert out["packing_diameters"]["chordal"] == pytest.approx(1.0, abs=1e-12)


def test_evaluate_file_roundtrip_matches_report(tmp_path):
    # A stored packing evaluates to the numbers its solve reported.
    cases = [
        (Metric.CHORDAL, Field.COMPLEX, 4, 2, 4, 0.8),
        (Metric.SPECTRAL, Field.COMPLEX, 4, 2, 5, 0.75),
        (Metric.FUBINI_STUDY, Field.COMPLEX, 4, 2, 4, 0.3),
        (Metric.CHORDAL, Field.REAL, 3, 1, 7, math.cos(math.radians(54.5))),
    ]
    path = tmp_path / "solved.json"
    for metric, field, d, K, N, mu in cases:
        tau = 0.9 if K == 1 else math.sqrt(K)
        config = initial_configuration(d, K, N, field, InitParams(tau=tau, seed=5))
        rep = alternate(
            gram(config), SolveParams(metric=metric, mu=mu, d=d, K=K, N=N, max_iterations=150),
        )
        write_configuration(rep.final_config, path)
        out = evaluate_file(path)
        assert out["max_block_magnitudes"][metric.value] == rep.mu_achieved
        assert out["packing_diameters"][metric.value] == rep.final_diameter
        if K == 1:
            assert out["min_angle_degrees"] == harness._report_value(metric, K, rep)


def test_evaluate_file_parse_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{{{{")
    with pytest.raises(ParseError):
        evaluate_file(path)


def test_export_csv_two_lines(tmp_path):
    rows = [_row()]
    paths = export(rows, "csv", tmp_path, timestamp=False)
    text = Path(paths[0]).read_text().strip().split("\n")
    assert len(text) == 2
    assert text[0].startswith("d,K,N,field,metric,mu_target")


def test_results_csv_roundtrip_17_digits(tmp_path):
    rows = [
        _row(mu_target=1 / 3, best_diameter=math.sqrt(2), avg_diameter=math.pi / 7,
             avg_iterations=1234.5, error_vs_reference=1e-17),
        _row(N=5, best_diameter=math.nan, avg_diameter=math.nan,
             mu_target=math.nan, avg_iterations=math.nan, trials_failed=3),
    ]
    path = tmp_path / "results.csv"
    write_results_csv(rows, path, timestamp=False)
    back = read_results_csv(path)
    for a, b in zip(back, rows):
        for name in ("mu_target", "best_diameter", "avg_diameter", "avg_iterations"):
            x, y = getattr(a, name), getattr(b, name)
            assert (math.isnan(x) and math.isnan(y)) or x == y
        assert a.trials_failed == b.trials_failed


def test_failed_writes_leave_existing_files_intact(monkeypatch, tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv([_row()], path, timestamp=False)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        write_results_csv([_row(N=5), object()], path, timestamp=False)
    assert path.read_bytes() == before

    rows = [_row(d=4, K=2, N=n, field="complex") for n in (3, 4)]
    (series,) = export(rows, "plot_data", tmp_path, timestamp=False)
    before_series = Path(series).read_bytes()
    bounds = []

    def failing_bound(row):
        bounds.append(row)
        if len(bounds) == 2:
            raise RuntimeError("disk full")
        return 1.5

    monkeypatch.setattr(harness, "_plot_bound", failing_bound)
    with pytest.raises(RuntimeError):
        export([_row(d=4, K=2, N=n, field="complex", best_diameter=1.1) for n in (3, 4)],
               "plot_data", tmp_path, timestamp=False)
    assert Path(series).read_bytes() == before_series

    config_path = tmp_path / "config.json"
    config = Configuration(field=Field.REAL, blocks=np.eye(3).reshape(3, 3, 1))
    write_configuration(config, config_path)
    before_config = config_path.read_bytes()

    def failing_dump(obj, fh):
        fh.write('{"field": "re')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError):
        write_configuration(config, config_path)
    assert config_path.read_bytes() == before_config
    assert sorted(os.listdir(tmp_path)) == ["config.json", "plot_chordal_d4_K2.csv", "results.csv"]


def test_read_results_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "results.csv"
    rows = [_row(error_vs_reference=0.25), _row(N=5, error_vs_reference=0.5)]
    write_results_csv(rows, path, header_note="note", timestamp=False)
    lines = path.read_text().splitlines()
    # Blank lines around the header, between rows, and a trailing one, and
    # an indented comment.
    path.write_text("\n".join(["", *lines[:3], "  ", lines[3], "  # note", lines[4], "", ""]))
    assert read_results_csv(path) == rows


def test_read_results_csv_missing_file_is_a_parse_error(tmp_path):
    path = tmp_path / "missing.csv"
    with pytest.raises(ParseError, match="missing.csv"):
        read_results_csv(path)


def test_read_results_csv_rejects_malformed_rows(tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv([_row()], path, timestamp=False)
    good = path.read_text()
    for bad in (good.replace(",chordal,", ",bogus,"), good.replace(",70,", ",x,")):
        path.write_text(bad)
        with pytest.raises(ParseError):
            read_results_csv(path)


def test_export_plot_data_series(tmp_path):
    rows = [
        _row(d=4, K=2, N=n, field="complex", metric="chordal",
             best_diameter=1.0 + 1.0 / n, error_vs_reference=0.01)
        for n in range(3, 21)
    ]
    paths = export(rows, "plot_data", tmp_path, timestamp=False)
    assert len(paths) == 1
    lines = Path(paths[0]).read_text().strip().split("\n")
    assert lines[0] == "N,achieved,bound,reference"
    assert len(lines) == 1 + 18
    first = lines[1].split(",")
    assert int(first[0]) == 3
    assert float(first[2]) == pytest.approx(1.5)  # chordal bound (4,2,3)
    assert float(first[3]) == pytest.approx(float(first[1]) + 0.01)


def test_export_nothing():
    with pytest.raises(InvalidInput):
        export([], "csv", ".")


def test_spec_validation():
    with pytest.raises(InvalidInput):
        ExperimentSpec(space="orbit", field=Field.REAL, metric=Metric.CHORDAL,
                       d_values=(3,), N_values=(4,))
    with pytest.raises(InvalidInput):
        ExperimentSpec(space="sphere", field=Field.REAL, metric=Metric.CHORDAL,
                       d_values=(3,), N_values=(4,))
    with pytest.raises(InvalidInput):
        ExperimentSpec(space="grassmann", field=Field.REAL, metric=Metric.GEODESIC,
                       d_values=(3,), K_values=(2,), N_values=(4,))
    with pytest.raises(InvalidInput):
        ExperimentSpec(space="grassmann", field=Field.COMPLEX, metric=Metric.FUBINI_STUDY,
                       d_values=(4,), K_values=(2,), N_values=(4,),
                       mu_source="explicit")  # missing mu_explicit


LINES = dict(space="projective", field=Field.REAL, metric=Metric.CHORDAL,
             d_values=(3,), N_values=(4,))


@pytest.mark.parametrize("inputs, field", [
    (dict(mu_source="rankin_bound", mu_explicit=0.3), "mu_explicit"),
    (dict(mu_source="reference_file", reference_path="ref.csv", mu_explicit=0.3), "mu_explicit"),
    (dict(mu_source="explicit", mu_explicit=0.3, reference_path="ref.csv"), "reference_path"),
    (dict(mu_source="rankin_bound", reference_path="ref.csv"), "reference_path"),
])
def test_spec_rejects_a_mu_input_its_source_does_not_read(inputs, field):
    with pytest.raises(InvalidInput, match=field):
        ExperimentSpec(**LINES, **inputs)


@pytest.mark.parametrize("sweep", [
    (1.0, math.inf, 2), (1.0, math.nan, 2), (math.nan, 2.0, 2), (0.0, 2.0, 2), (2.0, 1.0, 2),
    (1.0, 2.0, 0),
])
def test_spec_rejects_a_bad_sweep(sweep):
    with pytest.raises(InvalidInput, match="bad sweep specification"):
        ExperimentSpec(**LINES, sweep=sweep)


@pytest.mark.parametrize("field", ["d_values", "K_values", "N_values"])
def test_spec_rejects_empty_values(field):
    with pytest.raises(InvalidInput, match=f"{field} is empty"):
        ExperimentSpec(**{**LINES, field: ()})


def test_sweep_cell_reports_match_solo_solves():
    spec = ExperimentSpec(
        space="grassmann", field=Field.COMPLEX, metric=Metric.SPECTRAL,
        d_values=(4,), K_values=(2,), N_values=(5,), trials=5,
        mu_source="rankin_bound", sweep=(1.0, 1.3, 3), max_iterations=200, seed=2,
    )
    mu_base = harness._derive_mu(spec, None, 4, 2, 5)
    sweep = [
        SolveParams(metric=Metric.SPECTRAL, mu=min(mu_base * f, 1.0), d=4, K=2, N=5,
                    max_iterations=200)
        for f in np.linspace(1.0, 1.3, 3)
    ]
    assert [params.mu for params in sweep] == harness._mu_values(spec, 2, mu_base)
    reports = harness._solve_cell(spec, sweep)
    solo = [
        harness._run_trial(spec, params, s * spec.trials + k)
        for s, params in enumerate(sweep)
        for k in range(spec.trials)
    ]
    assert len({r.iterations_used for r in reports}) > 1
    for got, want in zip(reports, solo, strict=True):
        assert_same_report(got, want)


FS_SPEC = ExperimentSpec(
    space="grassmann", field=Field.COMPLEX, metric=Metric.FUBINI_STUDY,
    d_values=(4,), K_values=(2,), N_values=(4,), trials=6,
    mu_source="explicit", mu_explicit=math.cos(0.9995 * math.pi / 2),
    max_iterations=100, seed=5,
)
FS_PARAMS = SolveParams(
    metric=Metric.FUBINI_STUDY, mu=FS_SPEC.mu_explicit, d=4, K=2, N=4, max_iterations=100,
)


@pytest.mark.parametrize("site, error", [
    ("solve_fs_block", NumericalFailure("injected")),  # the batched block solve raises
    ("solve_fs_block", None),  # it returns NaN: a non-finite structural iterate
    ("hermitian_eig", np.linalg.LinAlgError("injected")),  # the stacked eigh raises
    ("_split_blocks", np.linalg.LinAlgError("injected")),  # the stop check's block SVD raises
    ("_factor_stack", RankDeficient("injected")),  # the finish's QR rank check raises
])
def test_one_failing_trial_fails_alone(monkeypatch, site, error):
    bad = 3
    solo = [harness._run_trial(FS_SPEC, FS_PARAMS, k) for k in range(FS_SPEC.trials)]
    item_dims = 1 if site == "solve_fs_block" else 2  # rows of singular values, or matrices
    module = solver if site in ("_split_blocks", "_factor_stack") else projections

    def items(x):
        return x.reshape(-1, *x.shape[x.ndim - item_dims:])

    # The items trial `bad` hands to the site first mark it inside any stack.
    real = getattr(module, site)
    first = []
    monkeypatch.setattr(module, site, lambda x, *a: first.append(x.copy()) or real(x, *a))
    harness._run_trial(FS_SPEC, FS_PARAMS, bad)
    marked = {item.tobytes() for item in items(first[0])}

    def faulty(x, *args):
        hit = np.array([item.tobytes() in marked for item in items(x)])
        if hit.any() and error is not None:
            raise error
        out = real(x, *args)
        if error is None:
            out[hit] = np.nan
        return out

    monkeypatch.setattr(module, site, faulty)
    reports = harness._solve_cell(FS_SPEC, [FS_PARAMS])
    assert reports[bad] is None
    for k in range(FS_SPEC.trials):
        if k != bad:
            assert_same_report(reports[k], solo[k])
    (row,) = run_experiment(FS_SPEC)
    assert row.trials_failed == 1
