"""Command-line frontend: fit estimators on CSV data, run the simulation study.

Numbers are printed with shortest round-trip precision in every output format,
so table, csv and json-lines carry identical values.
"""

from __future__ import annotations

import argparse
import json
import sys

from .data import load_csv, sort_sample
from .inference import sandwich_ci
from .km import km_weights
from .penalized import PenalizedConfig, fit_penalized
from .simulation import (
    DESK_PROFILE,
    PAPER_PROFILE,
    DgpConfig,
    run_study,
)
from .two_step import DEFAULT_TAU0, detect_outliers, fit_two_step
from .wls import SingularGramError, stute_fit


def _fmt(value) -> str:
    return repr(float(value))


def cmd_fit(args) -> int:
    sample = load_csv(args.input)
    ss = sort_sample(sample)
    kw = km_weights(ss)

    meta = {
        "method": args.method,
        "n": sample.n,
        "p": sample.p,
        "pi_uc_hat": kw.pi_uc_hat,
    }
    outliers = []
    if args.method == "stute":
        fit = stute_fit(ss, kw)
    else:
        cfg = PenalizedConfig(
            lambda0=args.lambda0,
            max_iter=args.max_iter,
            lambda_override=getattr(args, "lambda"),
        )
        pen = fit_penalized(ss, kw, cfg)
        meta.update({"lambda": pen.lam, "iterations": pen.iterations, "tau0": args.tau0})
        fit = pen if args.method == "penalized" else fit_two_step(ss, kw, pen, args.tau0)
        for i in detect_outliers(pen, args.tau0):
            # report 1-based original row order; users reason in file order
            outliers.append((int(ss.perm[i]) + 1, float(pen.alpha_w[i])))
        outliers.sort()

    inf = sandwich_ci(ss, kw, fit, args.ci_level)
    coefficients = [
        (k + 1, float(inf.beta[k]), float(inf.std_errors[k]),
         float(inf.ci_lower[k]), float(inf.ci_upper[k]))
        for k in range(sample.p)
    ]

    emit = {"table": _emit_table, "csv": _emit_csv, "json-lines": _emit_jsonl}[args.format]
    emit(meta, coefficients, outliers, sys.stdout)
    return 0


def _emit_table(meta, coefficients, outliers, out) -> None:
    for key, value in meta.items():
        text = _fmt(value) if isinstance(value, float) else str(value)
        print(f"{key:<12}{text}", file=out)
    print(f"{'coef':<6}{'estimate':<26}{'std_error':<26}{'ci_lower':<26}{'ci_upper':<26}", file=out)
    for k, est, se, lo, hi in coefficients:
        print(f"{'x%d' % k:<6}{_fmt(est):<26}{_fmt(se):<26}{_fmt(lo):<26}{_fmt(hi):<26}", file=out)
    if outliers:
        print("outliers (original row, alpha_w):", file=out)
        for row, alpha_w in outliers:
            print(f"  {row}  {_fmt(alpha_w)}", file=out)


def _emit_csv(meta, coefficients, outliers, out) -> None:
    import csv as _csv

    writer = _csv.writer(out, lineterminator="\n")
    writer.writerow(["record", "index", "field", "value"])
    for key, value in meta.items():
        text = _fmt(value) if isinstance(value, float) else str(value)
        writer.writerow(["fit", "", key, text])
    for k, est, se, lo, hi in coefficients:
        for field, value in (
            ("estimate", est), ("std_error", se), ("ci_lower", lo), ("ci_upper", hi)
        ):
            writer.writerow(["coefficient", k, field, _fmt(value)])
    for row, alpha_w in outliers:
        writer.writerow(["outlier", row, "alpha_w", _fmt(alpha_w)])


def _emit_jsonl(meta, coefficients, outliers, out) -> None:
    print(json.dumps({"record": "fit", **meta}), file=out)
    for k, est, se, lo, hi in coefficients:
        print(
            json.dumps(
                {
                    "record": "coefficient",
                    "index": k,
                    "estimate": est,
                    "std_error": se,
                    "ci_lower": lo,
                    "ci_upper": hi,
                }
            ),
            file=out,
        )
    for row, alpha_w in outliers:
        print(json.dumps({"record": "outlier", "row": row, "alpha_w": alpha_w}), file=out)


def cmd_simulate(args) -> int:
    profile = {"desk": DESK_PROFILE, "paper": PAPER_PROFILE}[args.profile]
    n = profile.n if args.sample_size is None else args.sample_size
    reps = profile.reps if args.reps is None else args.reps
    report = run_study(
        grid=profile.mu_grid,
        reps=reps,
        base_cfg=DgpConfig(n=n, seed=args.seed),
        threads=args.threads,
    )
    if args.output == "-":
        report.to_csv(sys.stdout)
    else:
        with open(args.output, "w", newline="") as fh:
            report.to_csv(fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustaft",
        description="Robust censored linear regression with l1-penalized outlier shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit an estimator on a CSV file (header y,delta,x1,...,xp)")
    fit.add_argument("input", help="input CSV path")
    fit.add_argument(
        "--method",
        choices=["stute", "penalized", "two-step"],
        default="two-step",
        help="estimator to fit (default: two-step)",
    )
    fit.add_argument("--lambda0", type=float, default=1e-4, help="penalty rule constant")
    fit.add_argument(
        "--lambda",
        type=float,
        default=None,
        help="explicit penalty level, bypassing the n**(lambda0 - pi_uc/2) rule",
    )
    fit.add_argument(
        "--tau0", type=float, default=DEFAULT_TAU0, help="outlier detection threshold"
    )
    fit.add_argument("--max-iter", type=int, default=10, help="alternating cycles")
    fit.add_argument("--ci-level", type=float, default=0.95, help="confidence level")
    fit.add_argument(
        "--format", choices=["table", "csv", "json-lines"], default="table",
        help="output format",
    )
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="run the Monte Carlo coverage study")
    sim.add_argument(
        "--profile", choices=["desk", "paper"], default="desk",
        help="desk: n=500, 200 reps, mu in {2,3,4,5}; paper: n=1000, 1000 reps, mu grid 2:0.1:5",
    )
    sim.add_argument("--seed", type=int, default=0, help="study seed")
    sim.add_argument("--threads", type=int, default=1, help="worker threads")
    sim.add_argument("--output", default="-", help="report CSV path ('-' for stdout)")
    sim.add_argument("--reps", type=int, default=None, help="override the profile's replication count")
    sim.add_argument(
        "--sample-size", type=int, default=None, help="override the profile's sample size"
    )
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SingularGramError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
