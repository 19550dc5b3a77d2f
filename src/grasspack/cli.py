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
from dataclasses import asdict, fields

from .bounds import cell_bound
from .errors import GrasspackError, InvalidInput
from .geometry import Field, Metric
from .harness import (
    _SPACE_METRICS,
    ExperimentSpec,
    _cells,
    _check_space,
    evaluate_file,
    export,
    read_results_csv,
    run_experiment,
    write_results_csv,
)

_METRIC_ALIASES = {m.value: m for m in Metric} | {"fs": Metric.FUBINI_STUDY}


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


def _add_shape_args(p: _Parser) -> None:
    # Dests are ExperimentSpec field names; an unset --metric is the space's default.
    p.add_argument("--space", choices=tuple(_SPACE_METRICS), required=True)
    p.add_argument("--field", type=_parse_field, default=Field.REAL, metavar="R|C")
    p.add_argument("--metric", type=_parse_metric, default=None)
    p.add_argument("-d", dest="d_values", type=_parse_range, required=True, metavar="D[..D2]")
    p.add_argument("-K", dest="K_values", type=_parse_range, default=(1,), metavar="K")
    p.add_argument("-N", dest="N_values", type=_parse_range, required=True, metavar="N[..N2]")


def build_parser() -> _Parser:
    parser = _Parser(prog="grasspack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="print a Rankin-type bound")
    _add_shape_args(p_bound)

    p_solve = sub.add_parser("solve", help="run packing experiments")
    _add_shape_args(p_solve)
    p_solve.add_argument("--mu-from-ref", dest="reference_path", metavar="REF_CSV")
    p_solve.add_argument("--mu-from-bound", dest="mu_from_bound", action="store_true")
    p_solve.add_argument("--mu", dest="mu_explicit", type=float)
    p_solve.add_argument("--sweep", type=_parse_sweep, metavar="MIN:MAX:STEPS")
    # Solve settings: an unset flag takes the ExperimentSpec field's default.
    p_solve.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    p_solve.add_argument("--max-iter", dest="max_iterations", metavar="MAX_ITER", type=int,
                         default=argparse.SUPPRESS)
    for flag, kind in (("--stop-slack", float), ("--tau", float), ("--max-draws", int),
                       ("--seed", int), ("--workers", int)):
        p_solve.add_argument(flag, type=kind, default=argparse.SUPPRESS)
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
    _check_space(args.space, args.metric, args.field, args.K_values)
    out = []
    for d, K, N in _cells(args.space, args.d_values, args.K_values, args.N_values):
        report = asdict(cell_bound(args.space, args.metric, args.field, d, K, N))
        out.append({
            "d": d, "K": K, "N": N, "field": args.field.value, "metric": args.metric.value,
            **{k: v for k, v in report.items() if v is not None},  # degrees: lines only
        })
    print(json.dumps(out if len(out) > 1 else out[0], indent=2))
    return 0


def _cmd_solve(args) -> int:
    # --mu 0 is a valid target, so an option counts as given when it is set.
    given = (args.reference_path is not None, args.mu_from_bound, args.mu_explicit is not None)
    if sum(given) != 1:
        raise InvalidInput("choose exactly one of --mu-from-ref, --mu-from-bound, --mu")
    mu_source = ("reference_file", "rankin_bound", "explicit")[given.index(True)]
    names = {f.name for f in fields(ExperimentSpec)}
    settings = {name: value for name, value in vars(args).items() if name in names}
    spec = ExperimentSpec(**settings, mu_source=mu_source)
    if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise InvalidInput(f"--out {args.out} must name a file in an existing directory")
    rows = run_experiment(spec)
    note = (
        f"space={spec.space} field={spec.field.value} metric={spec.metric.value} "
        f"trials={spec.trials} max_iter={spec.max_iterations} "
        f"stop_slack={spec.stop_slack:g} seed={spec.seed}"
    )
    write_results_csv(rows, args.out, header_note=note, timestamp=args.timestamp)
    for row in rows:
        status = "ok" if math.isfinite(row.best_diameter) else "FAILED"
        print(
            f"d={row.d} K={row.K} N={row.N} best={row.best_diameter:.6g} "
            f"avg={row.avg_diameter:.6g} iters={row.avg_iterations:.6g} "
            f"failed_trials={row.trials_failed} [{status}]"
        )
    print(f"wrote {args.out}")
    return 2 if any(not math.isfinite(row.best_diameter) for row in rows) else 0


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
    if getattr(args, "space", None) and args.metric is None:
        args.metric = _SPACE_METRICS[args.space][0]
    handlers = {
        "bound": _cmd_bound,
        "solve": _cmd_solve,
        "eval": _cmd_eval,
        "export": _cmd_export,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early: not a failed run.  Devnull quiets the exit flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except InvalidInput as exc:
        print(f"grasspack: usage error: {exc}", file=sys.stderr)
        return 1
    except (GrasspackError, OSError) as exc:
        print(f"grasspack: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
