"""Command line interface.

Subcommands: ``estimate`` (point estimates, jackknife standard errors, and
confidence intervals from a CSV panel), ``test`` (slope-homogeneity test),
and ``simulate`` (Monte Carlo over a dgp/N/T grid, writing CSV and JSON
reports). Exit codes: 0 success, 1 usage, 2 data errors, 3 estimation
errors, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .errors import DataError, EstimationError, OutOfRange
from .estimators import Method
from .inference import confidence_interval, fit, poolability_test
from .panel import PanelData, read_csv
from .simulation import run_monte_carlo

__all__ = ["main", "console_main"]

DEFAULT_ESTIMATORS = "tw-mg,tw-mg-ridge,tw-pooled,mg"
_METHOD_VALUES = tuple(m.value for m in Method)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _comma_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_estimators(text: str) -> list[Method]:
    methods = []
    for part in text.split(","):
        part = part.strip()
        if part == "":
            continue
        if part not in _METHOD_VALUES:
            raise _UsageError(
                f"unknown estimator {part!r}; choose from {', '.join(_METHOD_VALUES)}"
            )
        m = Method(part)
        if m not in methods:
            methods.append(m)
    if not methods:
        raise _UsageError("no estimators selected")
    return methods


def _resolve_threads(args: argparse.Namespace) -> int:
    threads = args.threads
    if threads is None:
        env = os.environ.get("PANELMG_THREADS", "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise _UsageError(f"PANELMG_THREADS must be an integer, got {env!r}")
        else:
            threads = 1
    return threads


def _build_parser() -> _Parser:
    parser = _Parser(prog="panelmg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate slopes from a CSV panel")
    est.add_argument("--input", required=True, help="CSV file: unit,time,y,x1,...,xK")
    est.add_argument(
        "--estimators",
        default=DEFAULT_ESTIMATORS,
        help=f"comma-separated subset of {', '.join(_METHOD_VALUES)}",
    )
    est.add_argument("--level", type=float, default=0.95, help="confidence level")
    est.add_argument(
        "--ridge-kappa",
        type=float,
        default=None,
        help="explicit ridge shift (default: data-driven)",
    )
    est.add_argument(
        "--unit-slopes", action="store_true", help="include per-unit slopes"
    )
    est.add_argument("--format", choices=("json", "csv", "table"), default="json")
    est.add_argument("--output", default=None, help="write report here instead of stdout")
    est.set_defaults(func=cmd_estimate)

    tst = sub.add_parser("test", help="slope-homogeneity test on a CSV panel")
    tst.add_argument("--input", required=True)
    tst.add_argument(
        "--ridge", action="store_true", help="use the ridge mean-group estimator"
    )
    tst.add_argument("--format", choices=("json", "csv", "table"), default="json")
    tst.add_argument("--output", default=None)
    tst.set_defaults(func=cmd_test)

    sim = sub.add_parser("simulate", help="Monte Carlo over a dgp/N/T grid")
    sim.add_argument("--dgp", type=_comma_ints, required=True, help="dgp ids, e.g. 1,3")
    sim.add_argument("--n", type=_comma_ints, required=True, help="cross-section sizes")
    sim.add_argument("--t", type=_comma_ints, required=True, help="panel lengths")
    sim.add_argument("--reps", type=int, required=True, help="replications per cell")
    sim.add_argument("--seed", type=int, required=True, help="base seed")
    sim.add_argument(
        "--estimators",
        default=DEFAULT_ESTIMATORS,
        help=f"comma-separated subset of {', '.join(_METHOD_VALUES)}",
    )
    sim.add_argument("--level", type=float, default=0.95)
    sim.add_argument("--test-level", type=float, default=0.05)
    sim.add_argument(
        "--output-prefix",
        default="panelmg-sim",
        help="reports are written to <prefix>.csv and <prefix>.json",
    )
    sim.add_argument("--threads", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)
    return parser


def _coef_names(n_regressors: int) -> list[str]:
    return [f"x{j + 1}" for j in range(n_regressors)]


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def cmd_estimate(args: argparse.Namespace) -> int:
    if not 0.0 < args.level < 1.0:
        raise _UsageError(f"--level must be in (0, 1), got {args.level}")
    if args.ridge_kappa is not None and not 0.0 <= args.ridge_kappa < float("inf"):
        raise _UsageError(f"--ridge-kappa must be finite and >= 0, got {args.ridge_kappa}")
    methods = _parse_estimators(args.estimators)
    panel = read_csv(args.input)
    names = _coef_names(panel.n_regressors)

    # one fit pass; each estimator's error comes before its jackknife's
    f = fit(panel, methods, args.ridge_kappa)
    results = {}
    for m in methods:
        est = f.estimate(m)
        jk = f.jackknife(m)
        cis = [
            confidence_interval(est, jk, level=args.level, coefficient=j)
            for j in range(panel.n_regressors)
        ]
        results[m] = (est, cis)

    if args.format == "json":
        doc = {
            "schema": "panelmg/1",
            "kind": "estimate-report",
            "input": str(args.input),
            "level": args.level,
            "n_units": panel.n_units,
            "n_periods": panel.n_periods,
            "n_regressors": panel.n_regressors,
            "estimators": {
                m.value: {
                    "kappa": est.kappa_used,
                    "coefficients": [
                        {
                            "name": names[ci.coefficient_index],
                            "estimate": ci.point,
                            "std_error": ci.std_error,
                            "ci_lower": ci.lower,
                            "ci_upper": ci.upper,
                        }
                        for ci in cis
                    ],
                }
                for m, (est, cis) in results.items()
            },
        }
        if args.unit_slopes:
            doc["unit_slopes"] = {
                m.value: {
                    "units": list(panel.unit_labels),
                    "slopes": [[float(v) for v in row] for row in est.unit_slopes],
                }
                for m, (est, _) in results.items()
                if est.unit_slopes is not None
            }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    elif args.format == "csv":
        lines = ["estimator,unit,coefficient,estimate,std_error,ci_lower,ci_upper"]
        for m, (est, cis) in results.items():
            for ci in cis:
                lines.append(
                    f"{m.value},,{names[ci.coefficient_index]},"
                    f"{ci.point!r},{ci.std_error!r},{ci.lower!r},{ci.upper!r}"
                )
        if args.unit_slopes:
            for m, (est, _) in results.items():
                if est.unit_slopes is None:
                    continue
                for label, row in zip(panel.unit_labels, est.unit_slopes):
                    for j, v in enumerate(row):
                        lines.append(f"{m.value},{label},{names[j]},{float(v)!r},,,")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        pct = f"{100 * args.level:g}%"
        lines = [
            f"panel: {panel.n_units} units x {panel.n_periods} periods, "
            f"{panel.n_regressors} regressor(s)",
            "",
            f"{'estimator':<12} {'coef':<6} {'estimate':>12} {'std.err':>12} "
            f"{pct + ' CI':>28}",
        ]
        for m, (est, cis) in results.items():
            for ci in cis:
                interval = f"[{ci.lower: .4f}, {ci.upper: .4f}]"
                lines.append(
                    f"{m.value:<12} {names[ci.coefficient_index]:<6} "
                    f"{ci.point:>12.4f} {ci.std_error:>12.4f} {interval:>28}"
                )
            if est.kappa_used is not None:
                lines.append(f"{'':<12} (ridge kappa = {est.kappa_used:g})")
        if args.unit_slopes:
            lines.append("")
            lines.append("per-unit slopes")
            for m, (est, _) in results.items():
                if est.unit_slopes is None:
                    continue
                lines.append(f"  {m.value}:")
                for label, row in zip(panel.unit_labels, est.unit_slopes):
                    vals = "  ".join(f"{v: .4f}" for v in row)
                    lines.append(f"    {label:<12} {vals}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    panel = read_csv(args.input)
    names = _coef_names(panel.n_regressors)
    report = poolability_test(panel, use_ridge=args.ridge)

    if args.format == "json":
        doc = {
            "schema": "panelmg/1",
            "kind": "poolability-report",
            "input": str(args.input),
            "ridge": report.ridge_based,
            "kappa": report.kappa_used,
            "joint": {
                "statistic": report.joint_stat,
                "df": report.joint_df,
                "p_value": report.joint_pvalue,
            },
            "per_coefficient": [
                {
                    "name": names[t.coefficient_index],
                    "statistic": t.statistic,
                    "p_value": t.p_value,
                    "holm_p_value": t.holm_p_value,
                }
                for t in report.per_coef
            ],
            "delta": [float(v) for v in report.delta],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    elif args.format == "csv":
        lines = ["scope,name,statistic,df,p_value,holm_p_value"]
        lines.append(
            f"joint,all,{report.joint_stat!r},{report.joint_df},"
            f"{report.joint_pvalue!r},"
        )
        for t in report.per_coef:
            lines.append(
                f"coefficient,{names[t.coefficient_index]},{t.statistic!r},1,"
                f"{t.p_value!r},{t.holm_p_value!r}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    else:
        base = "ridge mean-group" if report.ridge_based else "mean-group"
        lines = [
            f"slope-homogeneity test ({base} vs pooled)",
            f"joint statistic: {report.joint_stat:.4f} "
            f"(df={report.joint_df}, p={report.joint_pvalue:.4f})",
        ]
        if report.kappa_used is not None:
            lines.append(f"ridge kappa: {report.kappa_used:g}")
        lines.append("")
        lines.append(f"{'coef':<6} {'statistic':>12} {'p-value':>10} {'holm':>10}")
        for t in report.per_coef:
            lines.append(
                f"{names[t.coefficient_index]:<6} {t.statistic:>12.4f} "
                f"{t.p_value:>10.4f} {t.holm_p_value:>10.4f}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    workers = _resolve_threads(args)
    methods = _parse_estimators(args.estimators)
    cells = [
        (dgp, n, t) for dgp in args.dgp for n in args.n for t in args.t
    ]
    report = run_monte_carlo(
        cells,
        methods,
        replications=args.reps,
        base_seed=args.seed,
        level=args.level,
        test_level=args.test_level,
        workers=workers,
    )

    csv_path = Path(f"{args.output_prefix}.csv")
    json_path = Path(f"{args.output_prefix}.json")
    report.write_csv(csv_path)
    report.write_json(json_path)

    lines = [
        f"replications per cell: {args.reps}  base seed: {args.seed}",
        "",
        f"{'dgp':>3} {'N':>6} {'T':>4} {'estimator':<12} {'coef':>4} "
        f"{'bias x10':>10} {'mse x100':>10} {'coverage':>9} {'rej.rate':>9} "
        f"{'fail':>5} {'secs':>8}",
    ]
    for c in report.cells:
        for j in range(len(c.bias_x10)):
            cov = "" if c.coverage_95 is None else f"{c.coverage_95[j]:.3f}"
            rej = "" if c.rejection_rate_5pct is None else f"{c.rejection_rate_5pct:.3f}"
            lines.append(
                f"{c.dgp_id:>3} {c.n_units:>6} {c.n_periods:>4} "
                f"{c.estimator:<12} {j + 1:>4} {c.bias_x10[j]:>10.3f} "
                f"{c.mse_x100[j]:>10.3f} {cov:>9} {rej:>9} "
                f"{c.failures:>5} {c.wall_time_s:>8.2f}"
            )
    lines.append("")
    lines.append(f"wrote {csv_path} and {json_path}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, OutOfRange) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())
