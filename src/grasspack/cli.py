"""Command-line interface: bound, solve, eval, and export subcommands.

Exit codes: 0 on success, 1 on usage errors, 2 when any experiment cell
failed (missing reference row or no successful trial).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bounds import cell_bound
from .errors import GrasspackError, InvalidInput
from .geometry import Field, Metric
from .harness import (
    ExperimentSpec,
    ReferenceTable,
    compare_reference,
    evaluate_file,
    export,
    read_results_csv,
    run_experiment,
    write_results_csv,
)

_METRIC_ALIASES = {
    "chordal": Metric.CHORDAL,
    "spectral": Metric.SPECTRAL,
    "fs": Metric.FUBINI_STUDY,
    "fubini_study": Metric.FUBINI_STUDY,
    "geodesic": Metric.GEODESIC,
    "sphere": Metric.SPHERE,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_field(text: str) -> Field:
    key = text.strip().lower()
    if key in ("r", "real"):
        return Field.REAL
    if key in ("c", "complex"):
        return Field.COMPLEX
    raise argparse.ArgumentTypeError(f"field must be R or C, got {text!r}")


def _parse_metric(text: str) -> Metric:
    key = text.strip().lower()
    if key not in _METRIC_ALIASES:
        raise argparse.ArgumentTypeError(f"unknown metric {text!r}")
    return _METRIC_ALIASES[key]


def _parse_range(text: str) -> tuple:
    """Accepts '4', '4..12', or '3,5,9'; an empty range is a usage error."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = tuple(range(int(lo), int(hi) + 1))
        if not values:
            raise argparse.ArgumentTypeError(f"empty range {text!r}: the upper end is below the lower")
        return values
    if "," in text:
        return tuple(int(p) for p in text.split(","))
    return (int(text),)


def _parse_sweep(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must look like MIN:MAX:STEPS, e.g. 1.0:2.0:8")
    return (float(parts[0]), float(parts[1]), int(parts[2]))


def _add_shape_args(p: _Parser, *, require_space: bool = True) -> None:
    p.add_argument("--space", choices=("projective", "grassmann", "sphere"),
                   required=require_space)
    p.add_argument("--field", type=_parse_field, default=Field.REAL, metavar="R|C")
    p.add_argument("--metric", type=_parse_metric, default=None)
    p.add_argument("-d", type=_parse_range, required=True, metavar="D[..D2]")
    p.add_argument("-K", type=_parse_range, default=(1,), metavar="K")
    p.add_argument("-N", type=_parse_range, required=True, metavar="N[..N2]")


def _resolve_metric(space: str, metric: Metric | None) -> Metric:
    if space == "projective":
        return Metric.CHORDAL
    if space == "sphere":
        return Metric.SPHERE
    return metric or Metric.CHORDAL


def build_parser() -> _Parser:
    parser = _Parser(prog="grasspack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="print a Rankin-type bound")
    _add_shape_args(p_bound)

    p_solve = sub.add_parser("solve", help="run packing experiments")
    _add_shape_args(p_solve)
    p_solve.add_argument("--mu-from-ref", dest="mu_from_ref", metavar="REF_CSV")
    p_solve.add_argument("--mu-from-bound", dest="mu_from_bound", action="store_true")
    p_solve.add_argument("--mu", dest="mu_explicit", type=float)
    p_solve.add_argument("--sweep", type=_parse_sweep, metavar="MIN:MAX:STEPS")
    p_solve.add_argument("--trials", type=int, default=10)
    p_solve.add_argument("--max-iter", dest="max_iter", type=int, default=5000)
    p_solve.add_argument("--stop-slack", dest="stop_slack", type=float, default=1e-5)
    p_solve.add_argument("--tau", type=float, default=None)
    p_solve.add_argument("--max-draws", dest="max_draws", type=int, default=10000)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--workers", type=int, default=1)
    p_solve.add_argument("--out", default="results.csv")
    p_solve.add_argument("--no-timestamp", dest="timestamp", action="store_false")

    p_eval = sub.add_parser("eval", help="evaluate a stored configuration")
    p_eval.add_argument("config", metavar="CONFIG_JSON")

    p_export = sub.add_parser("export", help="re-export results for plotting")
    p_export.add_argument("--format", choices=("csv", "plot_data"), default="csv")
    p_export.add_argument("--in", dest="input", default="results.csv")
    p_export.add_argument("--out-dir", dest="out_dir", default=".")
    p_export.add_argument("--no-timestamp", dest="timestamp", action="store_false")
    return parser


def _cmd_bound(args) -> int:
    metric = _resolve_metric(args.space, args.metric)
    out = []
    for d in args.d:
        for K in args.K:
            for N in args.N:
                report = cell_bound(args.space, metric, args.field, d, K, N)
                entry = {
                    "d": d, "K": K, "N": N,
                    "field": args.field.value, "metric": metric.value,
                    "bound_value": report.bound_value,
                    "attainable": report.attainable,
                    "attainability_limit": report.attainability_limit,
                    "equidistance_implied": report.equidistance_implied,
                }
                if report.degrees is not None:
                    entry["degrees"] = report.degrees
                out.append(entry)
    print(json.dumps(out if len(out) > 1 else out[0], indent=2))
    return 0


def _cmd_solve(args) -> int:
    # --mu 0 is a valid target, so an option counts as given when it is set.
    given = (args.mu_from_ref is not None, args.mu_from_bound, args.mu_explicit is not None)
    if sum(given) != 1:
        raise InvalidInput("choose exactly one of --mu-from-ref, --mu-from-bound, --mu")
    if args.mu_from_ref is not None:
        mu_source, ref_path = "reference_file", args.mu_from_ref
    elif args.mu_from_bound:
        mu_source, ref_path = "rankin_bound", None
    else:
        mu_source, ref_path = "explicit", None
    spec = ExperimentSpec(
        space=args.space,
        field=args.field,
        metric=_resolve_metric(args.space, args.metric),
        d_values=args.d,
        K_values=args.K,
        N_values=args.N,
        trials=args.trials,
        mu_source=mu_source,
        reference_path=ref_path,
        mu_explicit=args.mu_explicit,
        sweep=args.sweep,
        max_iterations=args.max_iter,
        stop_slack=args.stop_slack,
        tau=args.tau,
        max_draws=args.max_draws,
        seed=args.seed,
        workers=args.workers,
    )
    if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise InvalidInput(f"--out {args.out} must name a file in an existing directory")
    rows = run_experiment(spec)
    if mu_source == "reference_file":
        rows = compare_reference(rows, ReferenceTable.load(ref_path))
    note = (
        f"space={spec.space} field={spec.field.value} metric={spec.metric.value} "
        f"trials={spec.trials} max_iter={spec.max_iterations} "
        f"stop_slack={spec.stop_slack:g} seed={spec.seed}"
    )
    write_results_csv(rows, args.out, header_note=note, timestamp=args.timestamp)
    failed_cells = 0
    for row in rows:
        status = "ok" if math.isfinite(row.best_diameter) else "FAILED"
        if not math.isfinite(row.best_diameter):
            failed_cells += 1
        print(
            f"d={row.d} K={row.K} N={row.N} best={row.best_diameter:.6g} "
            f"avg={row.avg_diameter:.6g} iters={row.avg_iterations:.6g} "
            f"failed_trials={row.trials_failed} [{status}]"
        )
    print(f"wrote {args.out}")
    return 2 if failed_cells else 0


def _cmd_eval(args) -> int:
    print(json.dumps(evaluate_file(args.config), indent=2))
    return 0


def _cmd_export(args) -> int:
    rows = read_results_csv(args.input)
    for path in export(rows, args.format, args.out_dir, timestamp=args.timestamp):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bound": _cmd_bound,
        "solve": _cmd_solve,
        "eval": _cmd_eval,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except InvalidInput as exc:
        print(f"grasspack: usage error: {exc}", file=sys.stderr)
        return 1
    except (GrasspackError, OSError) as exc:
        print(f"grasspack: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
