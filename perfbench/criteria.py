"""Acceptance criteria 1, 3, 5 and 8 at their own settings and tolerances.

These tolerances are stated for seed 20 only, so the suite applies them
only at that seed.  Each cell is its own ``run_experiment`` call, which
leaves the rows unchanged because trial seeds depend only on (seed, trial
index).  Takes about 1.5 minutes on a 2-core VM.
"""

from __future__ import annotations

import math

import grasspack.harness as harness
from grasspack.bounds import rankin_chordal
from grasspack.geometry import Field, Metric
from grasspack.harness import ExperimentSpec, ReferenceTable

from workloads import FS_MU, REFS_CSV

CRITERIA_SEED = 20

# Best-of-10 diameters (degrees) that criterion 1 expects for d=3, from the
# published line-packing table.
BEST10_D3 = {4: 70.528, 5: 63.434, 6: 63.435, 7: 54.735, 8: 49.639,
             9: 47.981, 10: 46.674, 11: 44.402, 12: 41.881}


def _rows(seed: int, Ns, **kwargs):
    return [harness.run_experiment(ExperimentSpec(N_values=(N,), seed=seed, **kwargs))[0] for N in Ns]


def check(seed: int = CRITERIA_SEED) -> list:
    """[(name, ok, detail)] for each criterion."""
    out = []
    lines = dict(space="projective", field=Field.REAL, metric=Metric.CHORDAL, trials=10,
                 mu_source="reference_file", reference_path=str(REFS_CSV),
                 max_iterations=5000, stop_slack=1e-5)

    rows = _rows(seed, range(4, 13), d_values=(3,), **lines)
    diffs = [abs(r.best_diameter - BEST10_D3[r.N]) for r in rows]
    hits = sum(x <= 0.05 for x in diffs)
    out.append(("criterion 1", hits >= 7, f"{hits}/9 cells within 0.05 deg, worst {max(diffs):.4f} deg"))

    rows = _rows(seed, range(3, 11), space="grassmann", field=Field.COMPLEX,
                 metric=Metric.CHORDAL, d_values=(4,), K_values=(2,), trials=4,
                 mu_source="rankin_bound", max_iterations=5000)
    worst = max(abs(r.best_diameter - rankin_chordal(4, 2, r.N, Field.COMPLEX).bound_value)
                for r in rows)
    out.append(("criterion 3", worst <= 1e-3, f"worst |best - bound| {worst:.2e}"))

    rows = _rows(seed, (3, 4, 5, 6), space="grassmann", field=Field.COMPLEX,
                 metric=Metric.FUBINI_STUDY, d_values=(4,), K_values=(2,), trials=10,
                 mu_source="explicit", mu_explicit=FS_MU, max_iterations=500)
    lowest = min(r.best_diameter for r in rows)
    out.append(("criterion 5", lowest >= 0.999, f"lowest scaled best {lowest:.5f}"))

    (row,) = _rows(seed, (19,), d_values=(5,), **lines)
    ref = ReferenceTable.load(REFS_CSV).get(5, 1, 19)[0]
    gap = ref - row.best_diameter
    out.append(("criterion 8", math.isfinite(gap) and gap > 0.5, f"gap {gap:.3f} deg to reference {ref}"))
    return out
