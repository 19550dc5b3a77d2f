"""Workload definitions: the packing-table cells each workload solves.

Every cell is one ``run_experiment`` call on a single (d, K, N), so a cell
that raises fails alone.  Trial seeds depend only on (seed, trial index),
so splitting a table into cells does not change its rows.

Each workload is a fixed list of cells; one pass over the list is the unit
the benchmark times.  A pass takes 20-30 s on a 2-core VM: as many trials
as fit in one run, because how many iterations a trial needs depends on its
seed, and only averaging over many trials keeps a pass's work nearly the
same from one benchmark seed to the next.  Iteration caps and targets are
the acceptance criteria's own.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path

from grasspack.bounds import rankin_chordal, rankin_spectral
from grasspack.geometry import Field, Metric
from grasspack.harness import ExperimentSpec, ReferenceTable

REFS_CSV = Path("tests/data/real_projective_refs.csv")
FS_MU = math.cos(0.9995 * math.pi / 2)


@dataclass(frozen=True)
class Cell:
    """One experiment cell and the target its best diameter is judged by."""

    spec: ExperimentSpec
    target: float
    at_bound: bool  # target is a Rankin bound the diameter may not exceed

    @property
    def label(self) -> str:
        s = self.spec
        return f"{s.metric.value}/{s.field.value}/d{s.d_values[0]}K{s.K_values[0]}N{s.N_values[0]}"


def _lines_rp(seed: int, trials: int = 6):
    ref = ReferenceTable.load(REFS_CSV)
    cells = []
    for d, N in [(3, n) for n in range(4, 13)] + [(5, 19)]:
        spec = ExperimentSpec(
            space="projective", field=Field.REAL, metric=Metric.CHORDAL,
            d_values=(d,), N_values=(N,), trials=trials,
            mu_source="reference_file", reference_path=str(REFS_CSV),
            max_iterations=5000, stop_slack=1e-5, seed=seed,
        )
        cells.append(Cell(spec, ref.get(d, 1, N)[0], at_bound=False))
    return cells


def _at_bound(metric: Metric, d: int, N_values, trials: int, cap: int, seed: int):
    bound = rankin_chordal if metric is Metric.CHORDAL else rankin_spectral
    return [
        Cell(
            ExperimentSpec(
                space="grassmann", field=Field.COMPLEX, metric=metric,
                d_values=(d,), K_values=(2,), N_values=(N,), trials=trials,
                mu_source="rankin_bound", max_iterations=cap, seed=seed,
            ),
            bound(d, 2, N, Field.COMPLEX).bound_value,
            at_bound=True,
        )
        for N in N_values
    ]


def _grass_c4_bound(seed: int):
    # Spectral N=4 and N=5 stop early on some seeds and not others, which
    # would make the pass's work depend on the seed; N=3 always runs to the
    # cap and N=6 always stops within a few hundred iterations.
    return (_at_bound(Metric.CHORDAL, 4, range(3, 11), 1, 5000, seed)
            + _at_bound(Metric.SPECTRAL, 4, (3,), 6, 5000, seed)
            + _at_bound(Metric.SPECTRAL, 4, (6,), 6, 5000, seed))


def _fs_c4(seed: int):
    # N=6 is left out: its iterations to feasibility vary tenfold between
    # seeds, so its time would measure the seed rather than the code.
    return [
        Cell(
            ExperimentSpec(
                space="grassmann", field=Field.COMPLEX, metric=Metric.FUBINI_STUDY,
                d_values=(4,), K_values=(2,), N_values=(N,), trials=90,
                mu_source="explicit", mu_explicit=FS_MU, max_iterations=500, seed=seed,
            ),
            math.acos(FS_MU) * 2.0 / math.pi,
            at_bound=False,
        )
        for N in (3, 4, 5)
    ]


def _grass_c8_scale(seed: int):
    return _at_bound(Metric.CHORDAL, 8, (24, 48, 96), 4, 300, seed)


WORKLOADS = {
    "lines_rp": _lines_rp,
    "grass_c4_bound": _grass_c4_bound,
    "fs_c4": _fs_c4,
    "grass_c8_scale": _grass_c8_scale,
}


def build(name: str, seed: int) -> list[Cell]:
    return WORKLOADS[name](seed)


def fingerprint(rows) -> tuple:
    """Bit-exact identity of result rows (NaN-safe: floats compare by hex)."""
    return tuple(
        None if row is None else tuple(v.hex() if isinstance(v, float) else v for v in astuple(row))
        for row in rows
    )
