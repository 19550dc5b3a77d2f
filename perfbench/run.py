"""Layered benchmark for grasspack's packing tables.

Run from the repository root:

    python3 perfbench/run.py --workload lines_rp --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --suite --out results.json   # all workloads, seed 20
    python3 perfbench/run.py --compare perfbench/BENCH_baseline.json results.json

With ``--trace 0`` the workload's cells are solved through
``grasspack.harness.run_experiment`` in repeated passes until ``--seconds``
is spent, and the last line of output is one JSON object with the
end-to-end metrics.  With ``--trace 1`` one untraced and one traced pass
give the per-layer metrics (see tracer.py), followed by the primitive sweep
and the thread-pool probe (see sweep.py).  Every run applies the
correctness gate and exits 1 when it fails.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
STATE = HERE / ".state"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("lines_rp", "grass_c4_bound", "fs_c4", "grass_c8_scale")


# --------------------------------------------------------------------------
# machine record


def _blas_threads():
    """Thread count reported by the BLAS numpy loaded, or None if unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def code_hash() -> str:
    """Digest of the library and benchmark sources, keying the count record."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "grasspack").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# running cells


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from a fresh interpreter to the first solve call."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return statistics.median(times)


def run_pass(cells):
    """Solve every cell once: ([row or None], [seconds], [raised type or None])."""
    import grasspack.harness as harness
    from grasspack.errors import GrasspackError

    rows, times, raised = [], [], []
    for cell in cells:
        t0 = perf_counter()
        try:
            row, err = harness.run_experiment(cell.spec)[0], None
        except GrasspackError as exc:
            row, err = None, type(exc).__name__
        times.append(perf_counter() - t0)
        rows.append(row)
        raised.append(err)
    return rows, times, raised


def gate(cells, rows, raised) -> list:
    """Seed-independent invariants; returns the violated checks."""
    problems = []
    for cell, row, err in zip(cells, rows, raised):
        if err is not None:
            problems.append(f"{cell.label}: run_experiment raised {err}")
            continue
        if not math.isfinite(row.best_diameter):
            problems.append(f"{cell.label}: best diameter is not finite")
        if not row.avg_iterations <= cell.spec.max_iterations:
            problems.append(f"{cell.label}: avg_iterations {row.avg_iterations} above cap")
        if cell.at_bound and not row.best_diameter <= cell.target + 1e-6:
            problems.append(f"{cell.label}: best {row.best_diameter!r} exceeds bound {cell.target!r}")
    return problems


def trial_counts(cells, rows, raised):
    """(attempted, failed) trials; a cell that raised fails all its trials."""
    attempted = sum(c.spec.trials for c in cells)
    failed = sum(c.spec.trials if err else row.trials_failed for c, row, err in zip(cells, rows, raised))
    return attempted, failed


def check_counts(key: str, record: dict) -> list:
    """Compare with the record of an earlier run of the same code and seed."""
    STATE.mkdir(exist_ok=True)
    path = STATE / "counts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    earlier = known.setdefault(key, {})
    problems = [f"count metrics differ from an earlier run of the same code and seed: {name}"
                for name in sorted(set(earlier) & set(record)) if earlier[name] != record[name]]
    if not set(record) <= set(earlier):
        earlier.update({k: v for k, v in record.items() if k not in earlier})
        with tempfile.NamedTemporaryFile("w", dir=STATE, delete=False) as tmp:
            json.dump(known, tmp, indent=1, sort_keys=True)
        os.replace(tmp.name, path)
    return problems


def rows_digest(rows) -> str:
    from workloads import fingerprint

    return hashlib.sha256(repr(fingerprint(rows)).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    setup = None if trace else setup_seconds(name, seed)
    cells = workloads.build(name, seed)
    problems = []
    rows, times, raised = run_pass(cells)
    attempted, failed = trial_counts(cells, rows, raised)
    pass_times = [sum(times)]
    cell_times = [times]
    counts = {"rows": rows_digest(rows)}
    absent = []

    if not trace:
        start = perf_counter() - pass_times[0]
        while perf_counter() - start + statistics.median(pass_times) <= seconds:
            again, times, _ = run_pass(cells)
            pass_times.append(sum(times))
            cell_times.append(times)
            if workloads.fingerprint(again) != workloads.fingerprint(rows):
                problems.append("a repeated pass gave different rows for the same seed")
        metrics = end_to_end(cells, rows, setup, statistics.median(pass_times))
    else:
        from sweep import primitive_sweep, workers2_speedup
        from tracer import Tracer

        t0 = perf_counter()
        with Tracer() as tracer:
            traced, _, _ = run_pass(cells)
        traced_s = perf_counter() - t0
        if workloads.fingerprint(traced) != workloads.fingerprint(rows):
            problems.append("traced rows differ from untraced rows")
        absent = tracer.absent
        counts.update(tracer.counts())
        metrics = tracer.metrics()
        metrics["harness.trials_failed"] = (failed, "count")
        metrics["harness.cells_raised"] = (sum(e is not None for e in raised), "count")
        metrics["trace_overhead"] = (traced_s / pass_times[0] - 1.0, "ratio")
        speedup, same_rows = workers2_speedup(seed)
        if not same_rows:
            problems.append("workers=2 changed the rows of the pool-probe cell")
        metrics["harness.workers2_speedup"] = (speedup, "ratio")
        metrics.update(primitive_sweep(seed))

    digest = code_hash()
    problems += gate(cells, rows, raised)
    problems += check_counts(f"{name} seed={seed} code={digest}", counts)
    passes = len(pass_times)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(),
        "code_hash": digest,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted * passes,
        "failed": failed * passes,
        "absent": absent,
        "pass_seconds": pass_times,
        "counts": counts,
        "cells": [
            {
                "cell": cell.label,
                "raised": err,
                "target": cell.target,
                "best_diameter": row.best_diameter if row else None,
                "avg_iterations": row.avg_iterations if row else None,
                "trials_failed": row.trials_failed if row else cell.spec.trials,
                "median_s": statistics.median(t[i] for t in cell_times),
            }
            for i, (cell, row, err) in enumerate(zip(cells, rows, raised))
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def end_to_end(cells, rows, setup_s, wall_s) -> dict:
    ratios = [row.best_diameter / cell.target if row else 0.0 for cell, row in zip(cells, rows)]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "quality_min": (min(ratios), "ratio"),
        "quality_mean": (statistics.fmean(ratios), "ratio"),
    }


def print_report(rec: dict):
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']} code {rec['code_hash']}")
    print("machine " + json.dumps(rec["machine"], sort_keys=True))
    for c in rec["cells"]:
        print(f"  cell {c['cell']:<28} best {c['best_diameter']!s:<22} target {c['target']:<20.12g} "
              f"iters {c['avg_iterations']!s:<8} failed {c['trials_failed']} raised {c['raised']} "
              f"{c['median_s']:.3f}s")
    print(f"  passes {len(rec['pass_seconds'])}: " + " ".join(f"{t:.3f}" for t in rec["pass_seconds"]))
    for name, m in rec["metrics"].items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    if rec["absent"]:
        print("  absent (name not found, metrics read 0): " + ", ".join(rec["absent"]))
    for p in rec["problems"]:
        print(f"  GATE FAILED: {p}")
    print(f"  gate {'passed' if rec['correct'] else 'FAILED'}")


# --------------------------------------------------------------------------
# suite and compare


def run_suite(seed: int, seconds: float, out) -> int:
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        entry = {}
        for trace in (0, 1):
            STATE.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=STATE) as tmp:
                record = Path(tmp) / "record.json"
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)]
                code = subprocess.run(cmd, cwd=ROOT, check=False).returncode
                if not record.exists():
                    print(f"perfbench: {name} trace {trace} exited {code} without a record")
                    return 1
                rec = json.loads(record.read_text())
            ok &= rec["correct"]
            results.setdefault("machine", rec["machine"])
            results["code_hash"] = rec["code_hash"]
            key = "per_layer" if trace else "end_to_end"
            entry[key] = rec["metrics"]
            entry[f"{key}_counts"] = rec["counts"]
            entry[f"{key}_problems"] = rec["problems"]
            if not trace:
                entry["cells"] = rec["cells"]
                entry["attempted"], entry["failed"] = rec["attempted"], rec["failed"]
        results["workloads"][name] = entry

    if seed == 20:
        from criteria import check

        results["criteria"] = [{"name": n, "ok": c, "detail": d} for n, c, d in check(seed)]
        ok &= all(c["ok"] for c in results["criteria"])

    print("\nend-to-end metrics (tracing off)")
    for name, entry in results["workloads"].items():
        frac = entry["failed"] / entry["attempted"]
        print(f"  {name}: " + ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in entry["end_to_end"].items())
              + f", failed_frac {frac:.6g} ratio, trace_overhead {entry['per_layer']['trace_overhead']['value']:.4g}")
    for c in results.get("criteria", []):
        print(f"  {c['name']}: {'PASS' if c['ok'] else 'FAIL'} ({c['detail']})")
    print(f"gate {'passed' if ok else 'FAILED'}")
    if out:
        Path(out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    same_code = old.get("code_hash") == new.get("code_hash")
    print(f"compare {old_path} (code {old.get('code_hash')}) -> {new_path} (code {new.get('code_hash')})")
    for name in sorted(set(old["workloads"]) | set(new["workloads"])):
        print(f"{name}:")
        a, b = old["workloads"].get(name, {}), new["workloads"].get(name, {})
        for key in ("end_to_end", "per_layer"):
            ma, mb = a.get(key, {}), b.get(key, {})
            for metric in sorted(set(ma) | set(mb)):
                va = ma.get(metric, {}).get("value")
                vb = mb.get(metric, {}).get("value")
                if va is None or vb is None:
                    print(f"  {metric:<52} {va!s:>14} -> {vb!s:<14} (only one side)")
                    continue
                change = (vb - va) / abs(va) if va else math.nan
                note = ""
                info = bounds.get(metric)
                if info and "bound" in info and math.isfinite(change):
                    worse = change if info["better"] == "lower" else -change
                    note = "  WORSE THAN BOUND" if worse > info["bound"] else ""
                print(f"  {metric:<52} {va:>14.6g} -> {vb:<14.6g} {change:+8.2%}{note}")
            counts_a, counts_b = a.get(f"{key}_counts"), b.get(f"{key}_counts")
            if same_code and counts_a is not None and counts_a != counts_b:
                print(f"  COUNTS DIFFER between runs of the same code ({key})")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=20)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="write the full run record (cells, counts, machine) here")
    p.add_argument("--suite", action="store_true", help="run every workload, traced and untraced")
    p.add_argument("--out", help="results file written by --suite")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="diff two results files")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "grasspack" / "__init__.py").is_file():
        print("perfbench: run from the repository root: src/grasspack is missing", file=sys.stderr)
        return 2
    # One BLAS thread: the machine has 2 cores, and threaded BLAS on matrices
    # of KN <= 192 adds noise, not speed.  Set before numpy is first imported;
    # child processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    if args.compare:
        return compare(*args.compare)
    if args.suite:
        return run_suite(args.seed, args.seconds, args.out)
    if not args.workload:
        p.error("one of --workload, --suite or --compare is required")
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.record:
        Path(args.record).write_text(json.dumps(rec, indent=1) + "\n")
    print_report(rec)
    print(json.dumps({key: rec[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
