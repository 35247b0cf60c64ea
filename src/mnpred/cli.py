"""Command-line entry point with predict, simulate and generate subcommands.

Exit codes: 0 success, 2 usage errors (bad flags, unknown method ids),
3 input parse/validation failures, 4 computational failures, 5 I/O
failures.  Failures print a one-line JSON object to stderr so callers
can match on the error class without scraping prose.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .catalog import build_scenarios
from .dm import generate_dataset, sample_dm_counts
from .errors import MnpredError, ParseError, ValidationError
from .io import (
    INTERVAL_COLUMNS,
    SIMULATION_COLUMNS,
    comma_list,
    counts_to_csv,
    interval_rows,
    parse_config,
    parse_counts_csv,
    parse_future_csv,
    rows_to_csv,
    rows_to_json,
    simulation_rows,
    write_text,
)
from .methods import compute_intervals, resolve_methods
from .model import PREDICT_DEFAULTS, FutureSpec, fit_model
from .rng import RngStream
from .simulation import run_simulation

__all__ = ["main"]


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnpred",
        description="Simultaneous prediction intervals for overdispersed multinomial counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="compute prediction intervals from a count table")
    p.add_argument("--data", required=True, help="historical count table (CSV)")
    p.add_argument("--m", required=True, type=int, help="future sample size")
    p.add_argument("--future", help="observed future row (CSV) to check containment")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--methods", default="all", help="comma list of method ids, or 'all'")
    run = PREDICT_DEFAULTS
    p.add_argument("--B", type=int, default=run.B, help="bootstrap replicates")
    p.add_argument(
        "--chains", type=int, default=run.chains, help="posterior batches (at least 2)"
    )
    p.add_argument(
        "--sampling", type=int, default=run.sampling_iters, help="posterior draws per batch"
    )
    p.add_argument(
        "--warmup", type=int, default=run.warmup, help="accepted for old scripts; has no effect"
    )
    p.add_argument("--prior", default="cauchy", help="comma list from {cauchy, beta}")
    p.add_argument(
        "--mvn-draws",
        type=int,
        default=run.mvn_draws,
        help="accepted for old scripts; has no effect",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_predict)

    g = sub.add_parser("generate", help="draw a synthetic historical count table")
    g.add_argument("--K", required=True, type=int, help="number of clusters")
    g.add_argument("--n", required=True, type=int, help="cluster size")
    g.add_argument("--phi", required=True, type=float, help="generating dispersion")
    g.add_argument("--pi", required=True, help="comma list of category probabilities")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--categories", help="comma list of category labels")
    g.add_argument("--m", type=int, help="also draw one future cluster of this size")
    g.add_argument("--future-out", help="where to write the future row (requires --m)")
    g.add_argument("--no-repair", action="store_true", help="keep all-zero categories as drawn")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("simulate", help="run coverage scenarios from a config file")
    s.add_argument("--config", required=True, help="flat key = value config file")
    s.set_defaults(func=_cmd_simulate)
    for cmd in (p, s):
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), help="default: from --out extension")
    return parser


def _emit(args: argparse.Namespace, rows: list, columns: tuple, extra: dict | None = None) -> None:
    """Write rows to --out or stdout: as --format, else JSON for a .json path, else CSV."""
    fmt = args.format or ("json" if args.out and args.out.lower().endswith(".json") else "csv")
    if fmt == "json":
        text = rows_to_json(rows, columns, extra=extra)
    else:
        text = rows_to_csv(rows, columns)
    if args.out:
        write_text(text, args.out)
    else:
        sys.stdout.write(text)


def _cmd_predict(args: argparse.Namespace) -> int:
    tokens = comma_list(args.methods)
    if tokens:
        try:
            requests = resolve_methods(tokens, comma_list(args.prior))
        except ValidationError as exc:
            raise _UsageError(str(exc)) from None
    else:
        # an explicitly empty selection still produces the table header
        requests = ()
    data = parse_counts_csv(args.data)
    future = None
    if args.future:
        y, labels = parse_future_csv(args.future)
        if labels != data.categories:
            raise ValidationError(
                f"future categories {labels} do not match data categories {data.categories}"
            )
        if int(y.sum()) != args.m:
            raise ValidationError(
                f"observed future row sums to {int(y.sum())}, but --m is {args.m}"
            )
        future = y
    fit = fit_model(data)
    spec = FutureSpec(m=args.m, alpha=args.alpha)
    sets = compute_intervals(
        data,
        fit,
        spec,
        requests,
        RngStream(args.seed),
        B=args.B,
        mvn_draws=args.mvn_draws,
        chains=args.chains,
        sampling_iters=args.sampling,
        warmup=args.warmup,
    )
    rows = interval_rows(sets, data.categories)
    verdicts = None
    if future is not None:
        verdicts = {
            method: bool(np.all((ivs.lower <= future) & (future <= ivs.upper)))
            for method, ivs in sets.items()
        }
    extra = {"containment": verdicts} if verdicts is not None else None
    _emit(args, rows, INTERVAL_COLUMNS, extra)
    if verdicts is not None:
        stream = sys.stdout if args.out else sys.stderr
        for method, ok in verdicts.items():
            stream.write(f"containment {method} {'yes' if ok else 'no'}\n")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        pi = tuple(float(v) for v in comma_list(args.pi))
    except ValueError:
        raise _UsageError(f"--pi must be a comma list of numbers, got {args.pi!r}") from None
    labels = comma_list(args.categories) if args.categories else tuple(
        f"cat_{i}" for i in range(1, len(pi) + 1)
    )
    if len(labels) != len(pi):
        raise _UsageError(f"{len(labels)} labels for {len(pi)} probabilities")
    if args.future_out and args.m is None:
        raise _UsageError("--future-out requires --m")
    if args.m is not None and not args.future_out:
        raise _UsageError("--m requires --future-out")
    root = RngStream(args.seed)
    data = generate_dataset(
        args.K,
        args.n,
        pi,
        args.phi,
        root.child(0),
        repair=not args.no_repair,
        categories=labels,
    )
    write_text(counts_to_csv(data.counts, data.categories), args.out)
    if args.m is not None:
        pi_arr = np.asarray(pi, dtype=float)
        y = sample_dm_counts(args.m, pi_arr / pi_arr.sum(), args.phi, root.child(1))
        write_text(counts_to_csv(y, labels, study_labels=["future"]), args.future_out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    rows = simulation_rows([run_simulation(s) for s in build_scenarios(cfg)])
    _emit(args, rows, SIMULATION_COLUMNS)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (ParseError, ValidationError) as exc:
        _report_error(exc)
        return 3
    except OSError as exc:
        _report_error(exc)
        return 5
    except MnpredError as exc:
        _report_error(exc)
        return 4
    return 0


def _report_error(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
