"""Per-layer tracing by wrapping grasspack's public names from outside.

Each site is a (module, attribute) pair that callers look up at call time,
such as ``grasspack.solver.project_spectral``; the wrapper replaces the
attribute, records one span per call and restores the original on exit.
A span's self time is its duration minus the time of wrapped calls made
inside it.  The library itself is not edited.

A site whose attribute no longer exists (a later refactor deleted or
inlined it) is listed in ``Tracer.absent`` and its metrics read zero, so
the traced run still succeeds.

Spans are kept on one stack, so only single-threaded runs are traced.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, layer label).  The label names the module that
# defines the function; the module is where callers look it up.
SITES = (
    ("grasspack.harness", "run_experiment", "harness.run_experiment"),
    ("grasspack.harness", "initial_configuration", "starts.initial_configuration"),
    ("grasspack.harness", "gram", "geometry.gram"),
    ("grasspack.harness", "alternate", "solver.alternate"),
    ("grasspack.starts", "random_subspace", "starts.random_subspace"),
    ("grasspack.solver", "max_block_magnitude", "geometry.max_block_magnitude"),
    ("grasspack.solver", "project_structural", "projections.project_structural"),
    ("grasspack.solver", "project_spectral", "projections.project_spectral"),
    ("grasspack.solver", "normalize_diagonal", "solver.normalize_diagonal"),
    ("grasspack.solver", "factor", "geometry.factor"),
    ("grasspack.solver", "packing_diameter", "geometry.packing_diameter"),
    ("grasspack.projections", "hermitian_eig", "linalg.hermitian_eig"),
    ("grasspack.projections", "solve_fs_block", "projections.solve_fs_block"),
    ("grasspack.geometry", "GramMatrix.__post_init__", "geometry.GramMatrix"),
)

# Exceptions leaving these labels are per-trial failures.
TRIAL_LABELS = ("starts.initial_configuration", "solver.alternate")
FAILURE_TYPES = ("InitFailure", "NumericalFailure", "SingularBlock", "NotPSD", "RankExceeded")
# Post-loop work inside ``alternate``, excluded from the per-iteration cost.
SOLVE_TAIL = ("solver.normalize_diagonal", "geometry.factor", "geometry.packing_diameter")


def _resolve(module_name: str, path: str):
    *parents, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.metrics()`` afterwards."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.failures = Counter()
        self.solves = []  # (iterations_used, stopped_early) per alternate call
        self.accepted = 0  # subspaces returned by initial_configuration
        self.absent = []
        self._stack = []
        self._undo = []

    def __enter__(self):
        for module_name, path, label in SITES:
            owner, attr = _resolve(module_name, path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(label)
                continue
            setattr(owner, attr, self._wrap(fn, label))
            self._undo.append((owner, attr, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()
        return False

    def _wrap(self, fn, label):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if label in TRIAL_LABELS:
                    self.failures[type(exc).__name__] += 1
                raise
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self.calls[label] += 1
                self.total[label] += dur
                self.self_time[label] += dur - child
            if label == "solver.alternate":
                self.solves.append((out.iterations_used, out.stopped_early))
            elif label == "starts.initial_configuration":
                self.accepted += out.N
            return out

        return traced

    def counts(self) -> dict:
        """Call counts and iterations: these must repeat exactly for one seed."""
        out = {label: self.calls[label] for _, _, label in SITES}
        out["solver.iterations"] = sum(i for i, _ in self.solves)
        out["failures"] = dict(sorted(self.failures.items()))
        return out

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; a layer never called reads 0."""
        m = {}
        for _, _, label in SITES:
            calls = self.calls[label]
            m[f"{label}.calls"] = (calls, "count")
            m[f"{label}.total_s"] = (self.total[label], "s")
            m[f"{label}.self_s"] = (self.self_time[label], "s")
            m[f"{label}.us_per_call"] = (1e6 * self.total[label] / calls if calls else 0.0, "us")

        iters = [i for i, _ in self.solves]
        n_iter = sum(iters)
        loop_s = self.total["solver.alternate"] - sum(self.total[t] for t in SOLVE_TAIL)
        if iters:
            p50 = statistics.median(iters)
            p90 = statistics.quantiles(iters, n=10, method="inclusive")[-1] if len(iters) > 1 else iters[0]
        else:
            p50 = p90 = 0
        m["solver.iterations"] = (n_iter, "count")
        m["solver.iters_per_solve.p50"] = (p50, "count")
        m["solver.iters_per_solve.p90"] = (p90, "count")
        m["solver.stopped_early_frac"] = (
            sum(1 for _, early in self.solves if early) / len(self.solves) if self.solves else 0.0,
            "ratio",
        )
        m["solver.us_per_iter"] = (1e6 * loop_s / n_iter if n_iter else 0.0, "us")
        m["geometry.GramMatrix.per_iter"] = (
            self.calls["geometry.GramMatrix"] / n_iter if n_iter else 0.0, "count"
        )
        draws = self.calls["starts.random_subspace"]
        m["starts.accept_frac"] = (self.accepted / draws if draws else 0.0, "ratio")
        for name in FAILURE_TYPES:
            m[f"harness.trials_failed.{name}"] = (self.failures[name], "count")
        m["harness.trials_failed.other"] = (
            sum(n for name, n in self.failures.items() if name not in FAILURE_TYPES), "count"
        )
        return m
