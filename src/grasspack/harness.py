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
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from .bounds import cell_bound, mu_from_rho
from .errors import InitFailure, InvalidInput, ParseError
from .geometry import (
    Field,
    Metric,
    block_cosines,
    cosine_distances,
    cosine_magnitudes,
    gram,
    max_block_magnitude,
    min_angle,
    read_configuration,
)
from .solver import TRIAL_FAILURES, SolveParams, _alternate_stack, _stack_trials, alternate
from .starts import InitParams, initial_configuration

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

_SPACES = ("projective", "grassmann", "sphere")
_UNITS = ("degrees", "squared_diameter")

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
        if self.space not in _SPACES:
            raise InvalidInput(f"space must be one of {_SPACES}, got {self.space!r}")
        if self.space == "sphere":
            if self.metric is not Metric.SPHERE or tuple(self.K_values) != (1,):
                raise InvalidInput("sphere experiments require metric=sphere and K=1")
            if self.field is not Field.REAL:
                raise InvalidInput("sphere experiments are real-valued")
        elif self.space == "projective":
            if tuple(self.K_values) != (1,):
                raise InvalidInput("projective experiments require K=1")
            if self.metric is not Metric.CHORDAL:
                raise InvalidInput("projective experiments use the chordal metric")
        else:
            if self.metric not in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY):
                raise InvalidInput(f"unsupported grassmann metric {self.metric}")
        if self.mu_source not in ("reference_file", "rankin_bound", "explicit"):
            raise InvalidInput(f"unknown mu_source {self.mu_source!r}")
        if self.mu_source == "reference_file" and not self.reference_path:
            raise InvalidInput("mu_source=reference_file needs reference_path")
        if self.mu_source == "explicit" and self.mu_explicit is None:
            raise InvalidInput("mu_source=explicit needs mu_explicit")
        if self.sweep is not None:
            lo, hi, steps = self.sweep
            if not (lo > 0 and hi >= lo and int(steps) >= 1):
                raise InvalidInput(f"bad sweep specification {self.sweep}")
        if self.trials < 1:
            raise InvalidInput("trials must be >= 1")


@dataclass(frozen=True)
class ReferenceTable:
    """Best-known packing values, keyed by (d, K, N)."""

    rows: dict

    @classmethod
    def load(cls, path) -> "ReferenceTable":
        rows = {}
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot open reference file {path}: {exc}") from exc
        with fh:
            first = True
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if first:
                    first = False
                    if text.lower().startswith("d,"):
                        continue  # optional header
                parts = [p.strip() for p in text.split(",")]
                if len(parts) != 5:
                    raise ParseError(f"{path}:{lineno}: expected 'd,K,N,value,unit'")
                try:
                    key = (int(parts[0]), int(parts[1]), int(parts[2]))
                    value = float(parts[3])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
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


def _mu_cap(metric: Metric, K: int) -> float:
    return math.sqrt(K) if metric is Metric.CHORDAL else 1.0


def _report_unit(metric: Metric, K: int) -> str:
    """The unit a cell is reported, referenced, and bounded in."""
    if metric is Metric.SPHERE or K == 1:
        return "degrees"
    if metric is Metric.FUBINI_STUDY:
        return "scaled"  # no reference tables exist in this unit
    return "squared_diameter"


def _derive_mu(spec: ExperimentSpec, ref: ReferenceTable | None, d: int, K: int, N: int):
    """Feasibility parameter for one cell, or None when a reference row is missing."""
    if spec.mu_source == "explicit":
        return float(spec.mu_explicit)
    unit = _report_unit(spec.metric, K)
    if spec.mu_source == "reference_file":
        row = ref.get(d, K, N)
        if row is None:
            return None
        value, ref_unit = row
        if ref_unit != unit:
            raise InvalidInput(
                f"reference unit {ref_unit!r} does not match the unit {unit!r} "
                f"of cell ({d},{K},{N})"
            )
        if unit == "degrees":
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


def _trial_start(spec: ExperimentSpec, d: int, K: int, N: int, trial_index: int):
    seed = _derive_trial_seed(spec.seed, trial_index)
    init = InitParams(tau=_default_tau(spec, K), max_draws=spec.max_draws, seed=seed)
    config = initial_configuration(
        d, K, N, spec.field, init, signed_similarity=(spec.space == "sphere")
    )
    return gram(config)


def _solve_params(spec: ExperimentSpec, d: int, K: int, N: int, mu: float) -> SolveParams:
    return SolveParams(
        metric=spec.metric,
        mu=mu,
        d=d,
        K=K,
        N=N,
        max_iterations=spec.max_iterations,
        stop_slack=spec.stop_slack,
    )


def _run_trial(spec: ExperimentSpec, d: int, K: int, N: int, mu: float, trial_index: int):
    params = _solve_params(spec, d, K, N, mu)
    try:
        return alternate(_trial_start(spec, d, K, N, trial_index), params)
    except (InitFailure, *TRIAL_FAILURES):
        return None


def _run_chunk(spec: ExperimentSpec, d: int, K: int, N: int, mu: float, indices) -> list:
    """Reports (None where a trial failed) of trials solved as one stack."""
    if len(indices) == 1:
        return [_run_trial(spec, d, K, N, mu, indices[0])]
    params = _solve_params(spec, d, K, N, mu)
    starts = {}
    for idx in indices:
        try:
            starts[idx] = _trial_start(spec, d, K, N, idx).entries
        except InitFailure:
            pass
    solved = {}
    if starts:
        solved = dict(zip(starts, _alternate_stack(np.stack(list(starts.values())), params)))
    return [None if isinstance(r, Exception) else r for r in map(solved.get, indices)]


def _effective_workers(requested: int) -> int:
    cap = os.environ.get("GRASSPACK_WORKERS", "")
    workers = max(1, requested)
    if cap.strip():
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise InvalidInput(f"GRASSPACK_WORKERS must be an integer, got {cap!r}") from None
    return workers


def _solve_cell(spec: ExperimentSpec, d: int, K: int, N: int, mu_base: float, workers: int):
    """Solve reports (None where a trial failed) over the cell's trials and sweep.

    Each mu value's trials are solved in stacks of ``_stack_trials`` trials;
    a pool of workers maps over the same stacks, so the reports do not
    depend on the worker count.
    """
    if spec.sweep is not None:
        lo, hi, steps = spec.sweep
        factors = np.linspace(lo, hi, int(steps))
        mu_values = [min(mu_base * f, _mu_cap(spec.metric, K)) for f in factors]
    else:
        mu_values = [mu_base]
    size = _stack_trials(spec.metric, K, N)
    chunks = [
        (mu, range(s * spec.trials + k, s * spec.trials + min(k + size, spec.trials)))
        for s, mu in enumerate(mu_values)
        for k in range(0, spec.trials, size)
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(lambda c: _run_chunk(spec, d, K, N, *c), chunks))
    else:
        solved = [_run_chunk(spec, d, K, N, mu, indices) for mu, indices in chunks]
    return [report for chunk in solved for report in chunk]


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run every (d, K, N) cell of the spec and aggregate per-cell rows.

    Cells whose reference row is missing are reported as warning rows with
    NaN values and every trial counted failed.  Aggregation is independent
    of trial completion order; rows come back sorted by (d, K, N).
    """
    ref = ReferenceTable.load(spec.reference_path) if spec.mu_source == "reference_file" else None
    cells = sorted(
        (d, K, N)
        for d in spec.d_values
        for K in spec.K_values
        for N in spec.N_values
        if K < d or spec.space != "grassmann"
    )
    rows = []
    workers = _effective_workers(spec.workers)
    # Every cell's mu first, so a bad reference or bound fails before any trial.
    mus = [_derive_mu(spec, ref, d, K, N) for d, K, N in cells]
    for (d, K, N), mu_base in zip(cells, mus):
        if mu_base is None:
            reports = [None] * spec.trials  # no reference row: every trial failed
        else:
            reports = _solve_cell(spec, d, K, N, mu_base, workers)
        values = [_report_value(spec.metric, K, r) for r in reports if r is not None]
        iterations = [r.iterations_used for r in reports if r is not None]
        failed = sum(1 for r in reports if r is None)
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
    return rows


def compare_reference(results: list[ResultRow], ref: ReferenceTable) -> list[ResultRow]:
    """Annotate rows with (reference - achieved) in the row's reporting unit."""
    annotated = []
    for row in results:
        entry = ref.get(row.d, row.K, row.N)
        if entry is None:
            annotated.append(row)
            continue
        value, unit = entry
        row_unit = _report_unit(Metric(row.metric), row.K)
        if unit != row_unit:
            raise InvalidInput(
                f"reference unit {unit!r} does not match row unit "
                f"{row_unit!r} for cell ({row.d},{row.K},{row.N})"
            )
        annotated.append(replace(row, error_vs_reference=value - row.best_diameter))
    return annotated


def evaluate_file(path) -> dict:
    """Diameters, block magnitudes, and Gram spectrum of a stored configuration."""
    config = read_configuration(path)
    g = gram(config)
    c = block_cosines(g)
    diameters = {
        m.value: float(np.min(cosine_distances(c, m)))
        for m in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY, Metric.GEODESIC)
    }
    magnitudes = {
        m.value: float(np.max(cosine_magnitudes(c, m)))
        for m in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY)
    }
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


@contextmanager
def _atomic_text(path):
    """Write a text file through a temporary file in the same directory.

    The temporary file replaces ``path`` only once the block completes, so a
    write that fails partway leaves any existing file at ``path`` intact.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
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
