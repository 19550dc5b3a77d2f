"""Smoke test of the benchmark's contract with the library.

The benchmark in ``perfbench/`` builds ``ExperimentSpec``s, solves them
through ``run_experiment`` and traces the library's public names.  This
test runs that path at the smallest size, so a change that breaks the
benchmark's imports, spec fields or traced names fails here first.
"""

import sys
from pathlib import Path

from grasspack.geometry import Field, Metric
from grasspack.harness import ExperimentSpec, run_experiment

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import criteria  # noqa: E402,F401
import sweep  # noqa: E402,F401
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_workloads_build_and_trace_one_tiny_cell(monkeypatch):
    monkeypatch.chdir(ROOT)  # workloads read the reference CSV relative to the root
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 0)

    spec = ExperimentSpec(
        space="projective", field=Field.REAL, metric=Metric.CHORDAL,
        d_values=(3,), N_values=(4,), trials=1,
        mu_source="rankin_bound", max_iterations=20, seed=0,
    )
    untraced = run_experiment(spec)
    with tracer.Tracer() as t:
        traced = run_experiment(spec)
    assert workloads.fingerprint(traced) == workloads.fingerprint(untraced)
    assert t.absent == []
    assert t.calls["solver.alternate"] == 1
