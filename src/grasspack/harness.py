"""Experiment runner: multi-trial solves, mu sweeps, references, and tables.

Reproduces the standard experimental protocol: for each problem cell derive
a feasibility parameter (from a reference file, from the applicable bound,
from an explicit value, or a sweep over multiples of the bound value), run
independent seeded trials, and aggregate best/average packing diameters and
iteration counts into result rows.

Reporting conventions match the usual packing tables: line (K = 1, in any
space and under any metric) and sphere packings are reported as the minimum
angle in degrees, subspace packings under the chordal and spectral metrics
as squared diameters, and Fubini-Study packings scaled by 2/pi into [0, 1].
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from .bounds import cell_bound
from .errors import InitFailure, InvalidInput, ParseError
from .geometry import (
    Field,
    Metric,
    _atomic_text,
    _mu_range,
    _open_text,
    gram,
    max_block_magnitude,
    min_angle,
    mu_from_rho,
    packing_diameter,
    read_configuration,
    rho_from_mu,
)
from .solver import TRIAL_FAILURES, SolveParams, _alternate_stack, _stack_trials, alternate
from .starts import InitParams, _initial_configurations

# Not called here, since starts are drawn a chunk at a time, but the
# benchmark's tracer (perfbench/tracer.py) still wraps it.
from .starts import initial_configuration  # noqa: F401

__all__ = [
    "ExperimentSpec",
    "ReferenceTable",
    "ResultRow",
    "run_experiment",
    "compare_reference",
    "evaluate_file",
    "export",
    "write_results_csv",
    "read_results_csv",
]

# The metrics each space takes, the first its default.  Only grassmann cells
# may have K != 1, and sphere points are real (see _check_space).
_SPACE_METRICS = {
    "projective": (Metric.CHORDAL,),
    "grassmann": (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY),
    "sphere": (Metric.SPHERE,),
}
_UNITS = ("degrees", "squared_diameter")


def _check_space(space: str, metric: Metric, field: Field, K_values) -> None:
    """Raise InvalidInput unless the space takes this metric, field and K."""
    if space not in _SPACE_METRICS:
        raise InvalidInput(f"space must be one of {tuple(_SPACE_METRICS)}, got {space!r}")
    metrics = _SPACE_METRICS[space]
    if metric not in metrics:
        names = ", ".join(m.value for m in metrics)
        got = getattr(metric, "value", metric)
        raise InvalidInput(f"{space} experiments take the metrics ({names}), got {got}")
    if space != "grassmann" and set(K_values) != {1}:
        raise InvalidInput(f"{space} experiments require K=1, got K={list(K_values)}")
    if space == "sphere" and field is not Field.REAL:
        raise InvalidInput("sphere experiments are real-valued")


@dataclass(frozen=True)
class ResultRow:
    """One aggregated experiment cell, in table reporting units."""

    d: int
    K: int
    N: int
    field: str
    metric: str
    mu_target: float
    best_diameter: float
    avg_diameter: float
    error_vs_reference: float
    avg_iterations: float
    trials_failed: int


RESULT_FIELDS = tuple(f.name for f in fields(ResultRow))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce a batch of packing experiments."""

    space: str
    field: Field
    metric: Metric
    d_values: tuple
    N_values: tuple
    K_values: tuple = (1,)
    trials: int = 10
    mu_source: str = "rankin_bound"  # reference_file | rankin_bound | explicit
    reference_path: str | None = None
    mu_explicit: float | None = None
    sweep: tuple | None = None  # (min_factor, max_factor, steps)
    max_iterations: int = 5000
    stop_slack: float = 1e-5
    tau: float | None = None
    max_draws: int = 10000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for name in ("d_values", "K_values", "N_values"):
            if not len(getattr(self, name)):
                raise InvalidInput(f"{name} is empty")
        _check_space(self.space, self.metric, self.field, self.K_values)
        if self.mu_source not in ("reference_file", "rankin_bound", "explicit"):
            raise InvalidInput(f"unknown mu_source {self.mu_source!r}")
        if self.mu_source == "reference_file" and not self.reference_path:
            raise InvalidInput("mu_source=reference_file needs reference_path")
        if self.mu_source == "explicit" and self.mu_explicit is None:
            raise InvalidInput("mu_source=explicit needs mu_explicit")
        # A mu input its source does not read would be silently ignored.
        for name, source in (("reference_path", "reference_file"), ("mu_explicit", "explicit")):
            if getattr(self, name) is not None and self.mu_source != source:
                raise InvalidInput(f"{name} is read only with mu_source={source}, "
                                   f"not {self.mu_source}")
        if self.sweep is not None:
            lo, hi, steps = self.sweep
            if not (0 < lo <= hi < math.inf and int(steps) >= 1):
                raise InvalidInput(f"bad sweep specification {self.sweep}")
        if self.trials < 1:
            raise InvalidInput("trials must be >= 1")
        if self.workers < 1:
            raise InvalidInput("workers must be >= 1")


def _data_lines(path, what: str) -> list:
    """(line number, stripped text) of each line of a text table that is
    neither blank nor a ``#`` comment."""
    with _open_text(path, what) as fh:
        try:
            stripped = [(lineno, line.strip()) for lineno, line in enumerate(fh, start=1)]
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {what} is not UTF-8 text ({exc})") from exc
    return [(lineno, text) for lineno, text in stripped if text and not text.startswith("#")]


@dataclass(frozen=True)
class ReferenceTable:
    """Best-known packing values, keyed by (d, K, N)."""

    rows: dict

    @classmethod
    def load(cls, path) -> "ReferenceTable":
        rows = {}
        for i, (lineno, text) in enumerate(_data_lines(path, "reference file")):
            if i == 0 and text.lower().startswith("d,"):
                continue  # optional header
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != 5:
                raise ParseError(f"{path}:{lineno}: expected 'd,K,N,value,unit'")
            try:
                key = (int(parts[0]), int(parts[1]), int(parts[2]))
                value = float(parts[3])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(value):
                raise ParseError(f"{path}:{lineno}: value {parts[3]!r} is not finite")
            unit = parts[4]
            if unit not in _UNITS:
                raise ParseError(f"{path}:{lineno}: unknown unit {unit!r}")
            if key in rows:
                raise ParseError(f"{path}:{lineno}: duplicate key {key}")
            rows[key] = (value, unit)
        return cls(rows=rows)

    def get(self, d: int, K: int, N: int):
        return self.rows.get((d, K, N))


def _derive_trial_seed(base_seed: int, trial_index: int) -> int:
    words = np.random.SeedSequence([base_seed % 2**63, trial_index]).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def _default_tau(spec: ExperimentSpec, K: int) -> float:
    if spec.tau is not None:
        return spec.tau
    return 0.9 if spec.space in ("projective", "sphere") else math.sqrt(K)


def _report_unit(metric: Metric, K: int) -> str:
    """The unit a cell is reported, referenced, and bounded in."""
    if metric is Metric.SPHERE or K == 1:
        return "degrees"
    if metric is Metric.FUBINI_STUDY:
        return "scaled"  # no reference tables exist in this unit
    return "squared_diameter"


def _reference_value(ref: ReferenceTable, metric: Metric, d: int, K: int, N: int):
    """A cell's reference value, or None when the table has no row for it;
    a row in another unit than the cell's reporting unit is an InvalidInput."""
    row = ref.get(d, K, N)
    if row is None:
        return None
    value, ref_unit = row
    unit = _report_unit(metric, K)
    if ref_unit != unit:
        raise InvalidInput(
            f"reference unit {ref_unit!r} does not match the unit {unit!r} of cell ({d},{K},{N})"
        )
    return value


def _derive_mu(spec: ExperimentSpec, ref: ReferenceTable | None, d: int, K: int, N: int):
    """Feasibility parameter for one cell, or None when a reference row is missing."""
    if spec.mu_source == "explicit":
        return float(spec.mu_explicit)
    if spec.mu_source == "reference_file":
        value = _reference_value(ref, spec.metric, d, K, N)
        if value is None:
            return None
        if _report_unit(spec.metric, K) == "degrees":
            return math.cos(math.radians(value))
        return mu_from_rho(math.sqrt(value), spec.metric, K)
    bound = cell_bound(spec.space, spec.metric, spec.field, d, K, N).bound_value
    # K = 1 magnitudes are |<x, y>| under every metric, so every line cell
    # takes the chordal conversion.
    return mu_from_rho(math.sqrt(bound), Metric.CHORDAL if K == 1 else spec.metric, K)


def _report_value(metric: Metric, K: int, report) -> float:
    unit = _report_unit(metric, K)
    if unit == "degrees":
        return math.degrees(min_angle(report.mu_achieved, metric))
    if unit == "scaled":
        return report.final_diameter * 2.0 / math.pi
    return report.final_diameter**2


def _starts(spec: ExperimentSpec, params: SolveParams, indices) -> dict:
    """Start Gram matrices of the trials in ``indices`` whose starts were drawn."""
    tau = _default_tau(spec, params.K)
    inits = [InitParams(tau=tau, max_draws=spec.max_draws, seed=_derive_trial_seed(spec.seed, i))
             for i in indices]
    configs = _initial_configurations(
        params.d, params.K, params.N, spec.field, inits, spec.space == "sphere"
    )
    return {i: gram(c) for i, c in zip(indices, configs) if not isinstance(c, InitFailure)}


def _run_trial(spec: ExperimentSpec, params: SolveParams, trial_index: int):
    start = _starts(spec, params, [trial_index]).get(trial_index)
    try:
        return None if start is None else alternate(start, params)
    except TRIAL_FAILURES:
        return None


def _run_chunk(spec: ExperimentSpec, params: SolveParams, indices) -> list:
    """Reports (None where a trial failed) of trials solved as one stack.

    The drawn starts' entries are stacked and their ``GramMatrix`` objects
    dropped before the solve, so the stack is the only copy of the starts.
    """
    if len(indices) == 1:
        return [_run_trial(spec, params, indices[0])]
    starts = _starts(spec, params, indices)
    solved = {}
    if starts:
        G0s = np.stack([g.entries for g in starts.values()])
        drawn = list(starts)
        del starts
        solved = dict(zip(drawn, _alternate_stack(G0s, params)))
    return [None if isinstance(r, Exception) else r for r in map(solved.get, indices)]


def _mu_values(spec: ExperimentSpec, K: int, mu_base: float) -> list:
    """The mu values a cell is solved at: mu_base, or its sweep.

    A sweep factor f relaxes the cap to mu_base + (f - 1) |mu_base|, which is
    mu_base * f when mu_base >= 0, capped at the metric's largest mu.
    """
    if spec.sweep is None:
        return [mu_base]
    lo, hi, steps = spec.sweep
    relaxed = [
        mu_base * f if mu_base >= 0 else mu_base + (f - 1) * abs(mu_base)
        for f in np.linspace(lo, hi, int(steps))
    ]
    cap = _mu_range(spec.metric, K)[1]
    return [min(mu, cap) for mu in relaxed]


def _solve_cell(spec: ExperimentSpec, sweep: list) -> Iterator:
    """Solve reports (None where a trial failed) over a cell's trials, for
    each ``SolveParams`` of its sweep in turn.

    Each mu value's trials are solved in stacks of ``_stack_trials`` trials,
    and a stack's reports are yielded as soon as it is solved, so with one
    worker a caller that keeps none of them holds one stack's matrices at a
    time, whatever the trial and sweep counts.  A pool of ``spec.workers``
    workers maps over the same stacks, so the reports do not depend on the
    worker count, but it may hold every stack's reports until they are read.
    """
    size = _stack_trials(spec.metric, sweep[0].K, sweep[0].N)
    chunks = [
        (params, range(s * spec.trials + k, s * spec.trials + min(k + size, spec.trials)))
        for s, params in enumerate(sweep)
        for k in range(0, spec.trials, size)
    ]
    if spec.workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs these
        from itertools import chain

        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            yield from chain.from_iterable(pool.map(lambda c: _run_chunk(spec, *c), chunks))
    else:
        for params, indices in chunks:
            yield from _run_chunk(spec, params, indices)


def _cells(space: str, d_values, K_values, N_values) -> list:
    """The distinct (d, K, N) cells of a run, sorted.  A grassmann run keeps
    only its cells with K < d, and one that keeps none raises InvalidInput."""
    cells = sorted({
        (d, K, N)
        for d in d_values
        for K in K_values
        for N in N_values
        if K < d or space != "grassmann"
    })
    if not cells:
        raise InvalidInput(
            f"no cell to solve: a grassmann cell needs K < d, got d={list(d_values)}, "
            f"K={list(K_values)}"
        )
    return cells


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run every cell of the spec (:func:`_cells`) and aggregate per-cell rows.

    Cells whose reference row is missing are reported as warning rows with
    NaN values and every solve (trials x sweep steps) counted failed.  A
    reference run fills ``error_vs_reference`` from the table that gave mu.
    Aggregation is independent of trial completion order.  Each stack's
    reports are folded into the cell's values, iteration counts and failure
    count as soon as it is solved, and dropped before the next stack is
    solved, so with one worker a cell holds one stack's matrices at a time,
    whatever its trial and sweep counts.
    """
    ref = ReferenceTable.load(spec.reference_path) if spec.mu_source == "reference_file" else None
    cells = _cells(spec.space, spec.d_values, spec.K_values, spec.N_values)
    # Every cell's mu values and solve parameters first, one SolveParams per
    # (cell, mu), so a bad reference, bound or swept mu fails before any trial.
    mus = [_derive_mu(spec, ref, d, K, N) for d, K, N in cells]
    sweeps = [
        None if mu_base is None else [
            SolveParams(
                metric=spec.metric, mu=mu, d=d, K=K, N=N,
                max_iterations=spec.max_iterations, stop_slack=spec.stop_slack,
            )
            for mu in _mu_values(spec, K, mu_base)
        ]
        for (d, K, N), mu_base in zip(cells, mus)
    ]
    rows = []
    for (d, K, N), mu_base, sweep in zip(cells, mus, sweeps):
        values, iterations, failed = [], [], 0
        if sweep is None:  # no reference row: every solve of the cell fails
            failed = spec.trials * (1 if spec.sweep is None else int(spec.sweep[2]))
        else:
            for report in _solve_cell(spec, sweep):
                if report is None:
                    failed += 1
                else:
                    values.append(_report_value(spec.metric, K, report))
                    iterations.append(report.iterations_used)
                del report  # else a stack's last report outlives the next stack's solve
        rows.append(
            ResultRow(
                d=d, K=K, N=N,
                field=spec.field.value, metric=spec.metric.value,
                mu_target=math.nan if mu_base is None else float(mu_base),
                best_diameter=max(values) if values else math.nan,
                avg_diameter=float(np.mean(values)) if values else math.nan,
                error_vs_reference=math.nan,
                avg_iterations=float(np.mean(iterations)) if iterations else math.nan,
                trials_failed=failed,
            )
        )
    return rows if ref is None else compare_reference(rows, ref)


def compare_reference(results: list[ResultRow], ref: ReferenceTable) -> list[ResultRow]:
    """Annotate rows with (reference - achieved) in the row's reporting unit."""
    annotated = []
    for row in results:
        value = _reference_value(ref, Metric(row.metric), row.d, row.K, row.N)
        if value is not None:
            row = replace(row, error_vs_reference=value - row.best_diameter)
        annotated.append(row)
    return annotated


def evaluate_file(path) -> dict:
    """Diameters, block magnitudes, and Gram spectrum of a stored configuration."""
    config = read_configuration(path)
    g = gram(config)
    magnitudes = {
        m.value: max_block_magnitude(g, m)
        for m in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY)
    }
    diameters = {m: rho_from_mu(mu, Metric(m), config.K) for m, mu in magnitudes.items()}
    diameters[Metric.GEODESIC.value] = packing_diameter(config, Metric.GEODESIC)
    eigenvalues = np.linalg.eigvalsh(g.entries)
    out = {
        "d": config.d,
        "K": config.K,
        "N": config.N,
        "field": config.field.value,
        "packing_diameters": diameters,
        "max_block_magnitudes": magnitudes,
        "gram_eigenvalues": {"min": float(eigenvalues[0]), "max": float(eigenvalues[-1])},
    }
    if _report_unit(Metric.CHORDAL, config.K) == "degrees":
        out["min_angle_degrees"] = math.degrees(min_angle(magnitudes["chordal"], Metric.CHORDAL))
        if config.field is Field.REAL:
            signed = max_block_magnitude(g, Metric.SPHERE)
            out["max_block_magnitudes"]["sphere"] = signed
            out["sphere_min_angle_degrees"] = math.degrees(min_angle(signed, Metric.SPHERE))
    return out


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_results_csv(results: list[ResultRow], path, *, header_note: str = "",
                      timestamp: bool = True) -> None:
    """Write rows at 17 significant digits, with optional commented metadata.

    The file is replaced atomically: a failed write leaves the old one intact.
    """
    with _atomic_text(path) as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        if header_note:
            fh.write(f"# {header_note}\n")
            fh.write("# avg_iterations counts the step each trial actually stopped at\n")
        writer = csv.writer(fh)
        writer.writerow(RESULT_FIELDS)
        for row in results:
            writer.writerow([_fmt(getattr(row, name)) for name in RESULT_FIELDS])


def read_results_csv(path) -> list[ResultRow]:
    """Rows of a results file; blank lines and ``#`` comments are skipped."""
    rows = []
    reader = csv.reader(text for _, text in _data_lines(path, "results file"))
    header = next(reader, None)
    if header is None or tuple(header) != RESULT_FIELDS:
        raise ParseError(f"{path}: unexpected results header {header}")
    for parts in reader:
        if len(parts) != len(RESULT_FIELDS):
            raise ParseError(f"{path}: malformed row {parts}")
        try:
            row = ResultRow(
                d=int(parts[0]), K=int(parts[1]), N=int(parts[2]),
                field=Field(parts[3]).value, metric=Metric(parts[4]).value,
                mu_target=float(parts[5]), best_diameter=float(parts[6]),
                avg_diameter=float(parts[7]), error_vs_reference=float(parts[8]),
                avg_iterations=float(parts[9]), trials_failed=int(parts[10]),
            )
        except ValueError as exc:
            raise ParseError(f"{path}: malformed row {parts}: {exc}") from exc
        rows.append(row)
    return rows


def _plot_bound(row: ResultRow) -> float:
    """The row's Rankin bound in the row's unit, or NaN when none applies."""
    metric = Metric(row.metric)
    space = "sphere" if metric is Metric.SPHERE else "grassmann"
    try:
        report = cell_bound(space, metric, Field(row.field), row.d, row.K, row.N)
    except InvalidInput:
        return math.nan
    return report.degrees if _report_unit(metric, row.K) == "degrees" else report.bound_value


def export(results: list[ResultRow], fmt: str, out_dir=".", *, timestamp: bool = True) -> list:
    """Write results as a CSV table or as per-(d, K) plot-ready series files.

    Plot series carry (N, achieved, bound, reference) with the reference
    reconstructed from the stored error column when present.
    """
    if not results:
        raise InvalidInput("nothing to export")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt == "csv":
        path = os.path.join(out_dir, "results.csv")
        write_results_csv(results, path, timestamp=timestamp)
        written.append(path)
    elif fmt == "plot_data":
        groups: dict = {}
        for row in results:
            groups.setdefault((row.metric, row.d, row.K), []).append(row)
        for (metric, d, K), rows in sorted(groups.items()):
            path = os.path.join(out_dir, f"plot_{metric}_d{d}_K{K}.csv")
            with _atomic_text(path) as fh:
                writer = csv.writer(fh)
                writer.writerow(["N", "achieved", "bound", "reference"])
                for row in sorted(rows, key=lambda r: r.N):
                    reference = (
                        row.best_diameter + row.error_vs_reference
                        if math.isfinite(row.error_vs_reference)
                        else math.nan
                    )
                    writer.writerow(
                        [row.N, _fmt(row.best_diameter), _fmt(_plot_bound(row)), _fmt(reference)]
                    )
            written.append(path)
    else:
        raise InvalidInput(f"unknown export format {fmt!r}")
    return written
