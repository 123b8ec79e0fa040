"""Command-line front end: select, infer, simulate.

Inputs are two CSV files: effect estimates with header ``id,estimate`` and
a headerless dense covariance matrix in the same row order.  Output is an
aligned text table or a versioned JSON document (``--format json``) whose
floats round-trip at full precision.  Failures exit nonzero with a single
machine-parsable line ``error code=<CODE> ...`` on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from .inference import (
    ConditionalInference,
    EffectEstimates,
    infer_significant,
    studentize,
)
from .sim import DesignConfig, csv_header, csv_row, format_table, simulate_design, summary_dict
from .stats_core import DegenerateSupportError, IntervalUnion
from .support import InconsistentEventError
from .testing import (
    FAMILIES,
    STEP_DOWN,
    STEP_UP,
    ThresholdSpec,
    load_bootstrap_draws,
    select,
)

SCHEMA_VERSION = "1"

_ERROR_CODES = (
    (InconsistentEventError, "E_INCONSISTENT_EVENT"),
    (DegenerateSupportError, "E_DEGENERATE"),
    (FileNotFoundError, "E_IO"),
    (ValueError, "E_INVALID"),
)


class InputFormatError(ValueError):
    """Malformed input file; message carries the offending line."""


def load_estimates(estimates_path: str, cov_path: str) -> EffectEstimates:
    """Read the estimates CSV (header ``id,estimate``) and covariance CSV."""
    labels: list[str] = []
    values: list[float] = []
    with open(estimates_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["id", "estimate"]:
            raise InputFormatError(
                f"{estimates_path}:1: expected header 'id,estimate', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise InputFormatError(
                    f"{estimates_path}:{lineno}: expected 2 fields, got {len(row)}"
                )
            labels.append(row[0].strip())
            try:
                values.append(float(row[1]))
            except ValueError:
                raise InputFormatError(
                    f"{estimates_path}:{lineno}: cannot parse estimate {row[1]!r}"
                ) from None
    if not values:
        raise InputFormatError(f"{estimates_path}: no estimate rows")
    try:
        cov = np.loadtxt(cov_path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InputFormatError(f"{cov_path}: cannot parse covariance: {exc}") from None
    if cov.shape != (len(values), len(values)):
        raise ValueError(
            f"dimension mismatch: {len(values)} estimates but covariance of "
            f"shape {cov.shape}"
        )
    return EffectEstimates(np.asarray(values), cov, labels=labels)


def _build_spec(args: argparse.Namespace, m: int) -> ThresholdSpec:
    kwargs = dict(family=args.procedure, level=args.level, m=m, sided=args.sided)
    if args.procedure == "fdp":
        if args.gamma is None:
            raise ValueError("--gamma is required for the fdp procedure")
        kwargs["gamma"] = args.gamma
    if args.procedure == "bootstrap":
        if args.bootstrap_draws is None:
            raise ValueError("--bootstrap-draws is required for the bootstrap procedure")
        draws = load_bootstrap_draws(args.bootstrap_draws)
        if draws.shape[1] != m:
            raise ValueError(
                f"bootstrap draws have {draws.shape[1]} columns but m={m}"
            )
        kwargs["draws"] = draws
    if args.procedure == "fixed":
        if not args.fixed_table:
            raise ValueError("--fixed-table is required for the fixed procedure")
        table = tuple(float(v) for v in args.fixed_table.split(","))
        kwargs["table"] = table
        kwargs["procedure"] = args.step
    return ThresholdSpec(**kwargs)


def _fmt6(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NA"
    return f"{value:.6g}"


def _support_str(support: IntervalUnion | None) -> str:
    if support is None:
        return "NA"
    return " U ".join(f"[{_fmt6(lo)}, {_fmt6(hi)}]" for lo, hi in support)


def _resolved_config(args: argparse.Namespace, extra: dict) -> dict:
    config = {
        "subcommand": args.command,
        "procedure": getattr(args, "procedure", None),
        "sided": getattr(args, "sided", None),
        "level": getattr(args, "level", None),
        "format": args.format,
    }
    config.update(extra)
    return config


def _emit(args: argparse.Namespace, doc: dict, table: str) -> None:
    if args.format == "json":
        text = json.dumps(doc, indent=2)
    else:
        config_line = "# config " + json.dumps(doc["config"], sort_keys=True)
        text = config_line + "\n" + table
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_select(args: argparse.Namespace) -> int:
    estimates = load_estimates(args.estimates, args.cov)
    spec = _build_spec(args, estimates.m)
    x, _, _ = studentize(estimates)
    outcome = select(x, spec)
    labels = estimates.labels
    rows = [
        {
            "index": h,
            "id": labels[h],
            "t_statistic": float(x[h]),
            "threshold": outcome.per_step_threshold[k],
        }
        for k, h in enumerate(outcome.significant)
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": _resolved_config(args, {"gamma": args.gamma}),
        "significant": rows,
        "insignificant": [labels[h] for h in outcome.insignificant],
        "procedure_kind": outcome.procedure_kind,
    }
    if rows:
        lines = [f"{'step':>4}  {'id':<16}{'t-stat':>12}{'threshold':>12}"]
        for k, row in enumerate(rows, start=1):
            lines.append(
                f"{k:>4}  {row['id']:<16}{_fmt6(row['t_statistic']):>12}"
                f"{_fmt6(row['threshold']):>12}"
            )
        table = "\n".join(lines)
    else:
        table = "no significant effects"
    _emit(args, doc, table)
    return 0


def _result_dict(r: ConditionalInference) -> dict:
    return {
        "index": r.s,
        "id": r.label,
        "estimate_ub": r.estimate_ub,
        "ci_lo": r.ci_lo,
        "ci_hi": r.ci_hi,
        "naive_estimate": r.naive_estimate,
        "naive_ci_lo": r.naive_ci_lo,
        "naive_ci_hi": r.naive_ci_hi,
        "alpha": r.alpha,
        "event": {"kind": r.event.kind, "indices": sorted(r.event.indices)},
        "support": list(r.support.intervals) if r.support is not None else None,
        "flags": list(r.flags),
        "error": r.error,
    }


def _cmd_infer(args: argparse.Namespace) -> int:
    estimates = load_estimates(args.estimates, args.cov)
    spec = _build_spec(args, estimates.m)
    results = infer_significant(
        estimates,
        spec,
        event_kind=args.event,
        alpha=args.alpha,
        joint=args.joint,
        workers=args.workers,
    )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": _resolved_config(
            args,
            {
                "alpha": args.alpha,
                "event": args.event,
                "joint": args.joint,
                "gamma": args.gamma,
                "joint_rule": "alpha / n_selected per effect (both event kinds)",
            },
        ),
        "results": [_result_dict(r) for r in results],
    }
    if results:
        lines = [
            f"{'id':<16}{'naive':>12}{'naive CI':>26}{'cond':>12}{'cond CI':>26}  "
            f"event={args.event}"
        ]
        for r in results:
            naive_ci = f"({_fmt6(r.naive_ci_lo)}, {_fmt6(r.naive_ci_hi)})"
            cond_ci = f"({_fmt6(r.ci_lo)}, {_fmt6(r.ci_hi)})"
            tag = f" [{', '.join(r.flags)}]" if r.flags else ""
            lines.append(
                f"{(r.label or r.s):<16}{_fmt6(r.naive_estimate):>12}{naive_ci:>26}"
                f"{_fmt6(r.estimate_ub):>12}{cond_ci:>26}  "
                f"support={_support_str(r.support)}{tag}"
            )
        table = "\n".join(lines)
    else:
        table = "no significant effects"
    _emit(args, doc, table)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = DesignConfig(
        design=args.design,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        sided=args.sided,
        fwer=args.level,
        alpha=args.alpha,
        event=args.event,
    )
    summary = simulate_design(cfg)
    record = summary_dict(summary)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": _resolved_config(args, {k: record[k] for k in vars(cfg)}),
        "summary": record,
    }
    if args.csv:
        with open(args.csv, "a", encoding="utf-8", newline="\n") as fh:
            if fh.tell() == 0:
                fh.write(csv_header() + "\n")
            fh.write(csv_row(summary) + "\n")
    _emit(args, doc, format_table([summary]))
    return 0


def _add_io_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--estimates", required=True, help="CSV with header id,estimate")
    parser.add_argument("--cov", required=True, help="headerless dense covariance CSV")


def _add_procedure_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--procedure",
        default="holm",
        choices=sorted(FAMILIES),
    )
    parser.add_argument("--sided", default="two", choices=["one", "two"])
    parser.add_argument(
        "--level", type=float, default=0.10, help="FWER / FDR / FDP level"
    )
    parser.add_argument("--gamma", type=float, default=None, help="FDP fraction")
    parser.add_argument(
        "--bootstrap-draws", default=None, help="headerless CSV of B x m t-statistics"
    )
    parser.add_argument(
        "--fixed-table",
        default=None,
        help="comma-separated per-step thresholds for --procedure fixed",
    )
    parser.add_argument(
        "--step",
        default=STEP_DOWN,
        choices=(STEP_DOWN, STEP_UP),
        help="direction for --procedure fixed",
    )


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", default="table", choices=["table", "json"])
    parser.add_argument("--output", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``select``, ``infer`` and ``simulate`` commands."""
    parser = argparse.ArgumentParser(
        prog="condinfer",
        description=(
            "Selection-corrected estimates and confidence intervals for "
            "effects flagged by multiple hypothesis testing"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="run the selection procedure only")
    _add_io_args(p_select)
    _add_procedure_args(p_select)
    _add_output_args(p_select)
    p_select.set_defaults(func=_cmd_select)

    p_infer = sub.add_parser("infer", help="conditional inference on the significant effects")
    _add_io_args(p_infer)
    _add_procedure_args(p_infer)
    p_infer.add_argument("--alpha", type=float, default=0.10, help="CI level")
    p_infer.add_argument("--event", default="equal", choices=["equal", "superset"])
    p_infer.add_argument(
        "--joint", action="store_true", help="Bonferroni-adjust alpha by |S|"
    )
    p_infer.add_argument(
        "--workers", type=int, default=None, help="parallel per-effect workers"
    )
    _add_output_args(p_infer)
    p_infer.set_defaults(func=_cmd_infer)

    p_sim = sub.add_parser("simulate", help="Monte Carlo coverage study")
    p_sim.add_argument("--design", default="normal", choices=["normal", "chisq"])
    p_sim.add_argument("--n", type=int, default=300)
    p_sim.add_argument("--reps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--sided", default="two", choices=["one", "two"])
    p_sim.add_argument("--level", type=float, default=0.10, help="FWER level")
    p_sim.add_argument("--alpha", type=float, default=0.10, help="CI level")
    p_sim.add_argument("--event", default="superset", choices=["equal", "superset"])
    p_sim.add_argument("--csv", default=None, help="append a CSV summary row here")
    _add_output_args(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single trusted reporting point
        for exc_type, code in _ERROR_CODES:
            if isinstance(exc, exc_type):
                break
        else:
            code = "E_INTERNAL"
        message = str(exc).replace("\n", " ")
        print(f"error code={code} detail={message!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
