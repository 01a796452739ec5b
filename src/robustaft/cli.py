"""Command-line frontend: fit estimators on CSV data, run the simulation study.

Numbers are printed with shortest round-trip precision in every output format,
so table, csv and json-lines carry identical values.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext

from .data import _text, load_csv, sort_sample
from .inference import normal_quantile, sandwich_ci
from .km import km_weights
from .penalized import PenalizedConfig, fit_penalized
from .simulation import DESK_PROFILE, ESTIMATORS, PAPER_PROFILE, DgpConfig, _check_study, run_study
from .two_step import DEFAULT_TAU0, _check_tau0, detect_outliers, fit_two_step
from .wls import SingularGramError, stute_fit


def cmd_fit(args) -> int:
    _check_tau0(args.tau0)
    normal_quantile(args.ci_level)  # reject the level before reading the file
    cfg = PenalizedConfig(
        lambda0=args.lambda0,
        max_iter=args.max_iter,
        lambda_override=getattr(args, "lambda"),
    )
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
        pen = fit_penalized(ss, kw, cfg)
        meta.update({"lambda": pen.lam, "iterations": pen.iterations, "tau0": args.tau0})
        fit = pen if args.method == "penalized" else fit_two_step(ss, kw, pen, args.tau0)
        # report 1-based original row order; users reason in file order
        outliers = sorted(
            (int(ss.perm[i]) + 1, float(pen.alpha_w[i])) for i in detect_outliers(pen, args.tau0)
        )

    inf = sandwich_ci(ss, kw, fit, args.ci_level)
    records = [("fit", None, meta)]
    records += [
        ("coefficient", k + 1, {
            "estimate": float(inf.beta[k]),
            "std_error": float(inf.std_errors[k]),
            "ci_lower": float(inf.ci_lower[k]),
            "ci_upper": float(inf.ci_upper[k]),
        })
        for k in range(sample.p)
    ]
    records += [("outlier", row, {"alpha_w": alpha_w}) for row, alpha_w in outliers]
    _WRITERS[args.format](records, sys.stdout)
    return 0


_TABLE_HEADINGS = {
    "coefficient": f"{'coef':<6}{'estimate':<26}{'std_error':<26}{'ci_lower':<26}{'ci_upper':<26}",
    "outlier": "outliers (original row, alpha_w):",
}


def _write_table(records, out) -> None:
    kind = "fit"
    for record, index, fields in records:
        if record != kind:
            kind = record
            print(_TABLE_HEADINGS[record], file=out)
        if record == "fit":
            for key, value in fields.items():
                print(f"{key:<12}{_text(value)}", file=out)
        elif record == "coefficient":
            cells = "".join(f"{_text(v):<26}" for v in fields.values())
            print(f"{'x%d' % index:<6}{cells}", file=out)
        else:
            print(f"  {index}  {_text(fields['alpha_w'])}", file=out)


def _write_csv(records, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["record", "index", "field", "value"])
    for record, index, fields in records:
        for field, value in fields.items():
            writer.writerow([record, "" if index is None else index, field, _text(value)])


def _write_jsonl(records, out) -> None:
    for record, index, fields in records:
        head = {"record": record}
        if index is not None:
            head["row" if record == "outlier" else "index"] = index
        print(json.dumps({**head, **fields}), file=out)


_WRITERS = {"table": _write_table, "csv": _write_csv, "json-lines": _write_jsonl}
_PROFILES = {"desk": DESK_PROFILE, "paper": PAPER_PROFILE}


def cmd_simulate(args) -> int:
    profile = _PROFILES[args.profile]
    n = profile.n if args.sample_size is None else args.sample_size
    reps = profile.reps if args.reps is None else args.reps
    if args.threads < 1:
        raise ValueError("threads must be a positive integer")
    cfg = DgpConfig(n=n, seed=args.seed)
    _check_study(reps, cfg)  # rejected arguments leave no file behind
    to_file = args.output != "-"
    created = to_file and not os.path.lexists(args.output)
    # "a" fails early on an unwritable path but empties nothing; held open, a pipe keeps its reader
    with open(args.output, "a") if to_file else nullcontext():
        try:
            report = run_study(grid=profile.mu_grid, reps=reps, base_cfg=cfg)
            if report.failures:
                print(
                    f"warning: {report.failures} replication(s) hit a singular Gram matrix "
                    "or a non-finite covariance and were excluded",
                    file=sys.stderr,
                )
            with open(args.output, "w", newline="") if to_file else nullcontext(sys.stdout) as fh:
                report.to_csv(fh)
        except BaseException:
            if created:  # a failed study leaves no file it made
                os.remove(args.output)
            raise
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
        choices=ESTIMATORS,
        default="two-step",
        help="estimator to fit (default: two-step; use its CI for inference, since the "
        "penalized CI undercovers more as n grows)",
    )
    fit.add_argument(
        "--lambda0", type=float, default=PenalizedConfig.lambda0, help="penalty rule constant"
    )
    fit.add_argument(
        "--lambda",
        type=float,
        default=None,
        help="explicit penalty level, bypassing the n**(lambda0 - pi_uc/2) rule",
    )
    fit.add_argument(
        "--tau0", type=float, default=DEFAULT_TAU0, help="outlier detection threshold"
    )
    fit.add_argument(
        "--max-iter", type=int, default=PenalizedConfig.max_iter, help="alternating cycles"
    )
    fit.add_argument("--ci-level", type=float, default=0.95, help="confidence level")
    fit.add_argument(
        "--format", choices=_WRITERS, default="table",
        help="output format",
    )
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="run the Monte Carlo coverage study")
    sim.add_argument(
        "--profile", choices=_PROFILES, default="desk",
        help="desk: n=500, 200 reps, mu in {2,3,4,5}; paper: n=1000, 1000 reps, mu grid 2:0.1:5",
    )
    sim.add_argument("--seed", type=int, default=0, help="study seed")
    sim.add_argument(
        "--threads", type=int, default=1,
        help="accepted for old command lines and has no effect: the study runs serially",
    )
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
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
