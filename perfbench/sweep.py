"""Primitive sweep and thread-pool probe for the traced run.

The sweep times single calls of the solve-path primitives on seeded random
inputs at KN in {12, 24, 48, 96, 192}, so per-call costs can be compared
across sizes independently of any workload's iteration count.  Fubini-Study
points stop at KN = 24: a call costs one scalar root-find per infeasible
block, and larger sizes would take most of the run.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

import grasspack.geometry as geometry
import grasspack.harness as harness
import grasspack.projections as projections
import grasspack.solver as solver
from grasspack.bounds import mu_from_rho, rankin_chordal
from grasspack.geometry import Configuration, Field, Metric
from grasspack.harness import ExperimentSpec
from grasspack.starts import random_subspace

from workloads import fingerprint

KN_VALUES = (12, 24, 48, 96, 192)
FS_KN_VALUES = (12, 24)
D = 8  # ambient dimension of every sweep input
K = 2  # block size, except for the sphere metric (K = 1)

STRUCTURAL = (
    (Metric.CHORDAL, Field.REAL, "chordal_r"),
    (Metric.CHORDAL, Field.COMPLEX, "chordal_c"),
    (Metric.SPECTRAL, Field.REAL, "spectral_r"),
    (Metric.SPECTRAL, Field.COMPLEX, "spectral_c"),
    (Metric.FUBINI_STUDY, Field.REAL, "fs_r"),
    (Metric.FUBINI_STUDY, Field.COMPLEX, "fs_c"),
    (Metric.SPHERE, Field.REAL, "sphere_r"),
)


def _per_call_us(fn, reps: int = 5, min_s: float = 0.02) -> float:
    """Median single-call time in microseconds, after one warm-up call."""
    fn()
    times = []
    start = perf_counter()
    while len(times) < reps or perf_counter() - start < min_s:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e6 * statistics.median(times)


def _random_gram(rng, field: Field, k: int, n: int):
    blocks = np.stack([random_subspace(D, k, field, rng) for _ in range(n)])
    return geometry.gram(Configuration(field=field, blocks=blocks))


def _median_magnitude(G, metric: Metric) -> float:
    """Median off-diagonal block magnitude, so about half the blocks are capped."""
    k, n = G.K, G.N
    mags = []
    for i in range(n):
        for j in range(i + 1, n):
            block = G.block(i, j)
            if metric is Metric.CHORDAL:
                mags.append(np.linalg.norm(block))
            elif metric is Metric.SPECTRAL:
                mags.append(np.linalg.norm(block, 2))
            elif metric is Metric.FUBINI_STUDY:
                mags.append(abs(np.linalg.det(block)))
            else:
                mags.append(float(np.real(block[0, 0])))
    return float(np.median(mags))


def primitive_sweep(seed: int) -> dict:
    """{name: (microseconds per call, "us")} for every sweep point."""
    rng = np.random.default_rng([seed, 7])
    out = {}
    for metric, field, tag in STRUCTURAL:
        k = 1 if metric is Metric.SPHERE else K
        for kn in FS_KN_VALUES if metric is Metric.FUBINI_STUDY else KN_VALUES:
            G = _random_gram(rng, field, k, kn // k)
            spec = projections.StructuralSetSpec(
                metric=metric, mu=_median_magnitude(G, metric), K=k, N=kn // k
            )
            out[f"projections.project_structural.{tag}.kn{kn}"] = (
                _per_call_us(lambda: projections.project_structural(G, spec)), "us"
            )
    for kn in KN_VALUES:
        n = kn // K
        G = _random_gram(rng, Field.COMPLEX, K, n)
        H = projections.project_structural(
            G, projections.StructuralSetSpec(Metric.CHORDAL, _median_magnitude(G, Metric.CHORDAL), K, n)
        )
        spectral = projections.SpectralSetSpec(d=D, trace_target=float(kn))
        out[f"projections.project_spectral.kn{kn}"] = (
            _per_call_us(lambda: projections.project_spectral(H, spectral)), "us"
        )
        if hasattr(projections, "hermitian_eig"):
            out[f"linalg.hermitian_eig.kn{kn}"] = (
                _per_call_us(lambda: projections.hermitian_eig(H.entries)), "us"
            )
        else:
            out[f"linalg.hermitian_eig.kn{kn}"] = (0.0, "us")
        out[f"geometry.factor.kn{kn}"] = (_per_call_us(lambda: geometry.factor(G, D)), "us")
        out[f"solver.us_per_iter.kn{kn}"] = (_iteration_us(G, n), "us")
    return out


def _iteration_us(G, n: int) -> float:
    """Cost of one iteration of ``alternate`` at the chordal Rankin bound.

    Timing solves of two lengths and dividing the difference by the extra
    iterations cancels the fixed cost of normalizing, factoring and
    measuring the result.  A random start is never feasible at the bound,
    so both solves run to their caps.
    """
    bound = rankin_chordal(D, K, n, Field.COMPLEX).bound_value
    mu = mu_from_rho(math.sqrt(bound), Metric.CHORDAL, K)
    short, long = 2, 12

    def solve(iters):
        params = solver.SolveParams(metric=Metric.CHORDAL, mu=mu, d=D, K=K, N=n, max_iterations=iters)
        return lambda: solver.alternate(G, params)

    return (_per_call_us(solve(long), reps=3) - _per_call_us(solve(short), reps=3)) / (long - short)


def workers2_speedup(seed: int):
    """(serial over two-worker wall time, rows equal) for one line-packing cell."""
    times, rows = [], []
    for workers in (1, 2):
        spec = ExperimentSpec(
            space="projective", field=Field.REAL, metric=Metric.CHORDAL,
            d_values=(5,), N_values=(19,), trials=4, mu_source="explicit",
            mu_explicit=math.cos(math.radians(60.0)), max_iterations=1000,
            seed=seed, workers=workers,
        )
        t0 = perf_counter()
        rows.append(harness.run_experiment(spec))
        times.append(perf_counter() - t0)
    return times[0] / times[1], fingerprint(rows[0]) == fingerprint(rows[1])
