"""The three workloads: set-up (untimed), one operation (timed), its check (untimed).

Every workload is a closed loop with one caller: the next operation starts
only when the last one has returned. Inputs come from the workload seed;
the package sees only the generated inputs (or, for the study, the study
seed it is given on the command line).

Each workload also has ``calibrate``: a fixed piece of work of the same kind
as its operation, done with numpy and ``reference.py`` only, never with
robustaft. It is timed just before and just after every operation, and the
gated timings are operation time over calibration time, so a slow stretch
of the shared host slows both alike and cancels while a change to
robustaft's speed shows in full.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from statistics import NormalDist

import numpy as np

import reference as ref

NORMAL = NormalDist()
ESTIMATORS = ("two-step", "penalized")


def _input_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, count)]


def _accuracy(groups: dict) -> dict:
    """Coverage error per estimator and two-step RMSE of the slope.

    ``groups`` maps an estimator to one (coverage, MSE) pair per group of fits
    of one design (per mu for the study). ``coverage_err.<estimator>`` is the
    mean over groups of |coverage - LEVEL|; ``rmse.two-step`` is the square
    root of the mean over groups of the two-step MSE.
    """
    out = {
        f"coverage_err.{name}": float(np.mean([abs(c - ref.LEVEL) for c, _ in pairs]))
        for name, pairs in groups.items()
    }
    out["rmse.two-step"] = float(np.sqrt(np.mean([mse for _, mse in groups["two-step"]])))
    return out


def _pooled_fits(cis: list) -> tuple[float, float]:
    """(coverage, MSE) of the slope from a few ``(beta, ci_lower, ci_upper)`` fits.

    A few fits cannot count coverage: one fit more or less inside its CI
    would move it by a whole step. So the coverage is the normal-theory one
    of the fits' mean CI half-width h around their mean slope error b,
    Phi((h - b) / se) - Phi((-h - b) / se) with se = h / z. It moves
    smoothly with the estimates and the CI widths. For a calibrated CI it is
    LEVEL less the sampling noise of b: about 0.93 from 6 fits, 0.83 from 1.
    """
    errors = [beta[ref.COEF] - ref.TRUE_SLOPE for beta, _, _ in cis]
    half = float(np.mean([(upper[ref.COEF] - lower[ref.COEF]) / 2.0 for _, lower, upper in cis]))
    bias = float(np.mean(errors))
    se = half / NORMAL.inv_cdf(0.5 + ref.LEVEL / 2.0)
    coverage = NORMAL.cdf((half - bias) / se) - NORMAL.cdf((-half - bias) / se)
    return coverage, float(np.mean(np.square(errors)))


class StudyDesk:
    """``robustaft simulate --profile desk`` in-process: 800 cells at n = 500 per call.

    Operations cycle over SEEDS study seeds drawn from the workload seed; the
    accuracy metrics pool the reports of those distinct seeds, so they are
    fixed for a fixed workload seed.
    """

    SEEDS = 4
    units_per_op = len(ref.DESK_GRID) * ref.DESK_REPS
    min_ops = SEEDS

    def __init__(self, ra, seed: int, outdir: str):
        self.cli = ra.cli
        self.seeds = _input_seeds(seed, self.SEEDS)
        self.refs = [ref.desk_reference(s) for s in self.seeds]
        self.path = os.path.join(outdir, "desk.csv")
        self.reports: dict[int, dict] = {}

    def calibrate(self) -> None:
        """24 reference cells at n = 500: small arrays, many numpy calls."""
        for k in range(24):
            ref.Problem(*ref.draw_sample(ref.DESK_N, 2.0, k)).penalized()

    def run(self, i: int):
        seed = self.seeds[i % self.SEEDS]
        return self.cli.main(
            ["simulate", "--profile", "desk", "--seed", str(seed), "--threads", "1",
             "--output", self.path]
        )

    def check(self, i: int, status) -> list[str]:
        if status != 0:
            return [f"simulate exited with {status}"]
        with open(self.path) as fh:
            rows = ref.read_report(fh.read())
        problems = ref.check_report(rows, self.refs[i % self.SEEDS])
        if not problems:
            self.reports.setdefault(i % self.SEEDS, rows)
        return problems

    def accuracy(self) -> dict:
        reports = list(self.reports.values())
        return _accuracy({
            name: [(np.mean([r[(name, mu)]["coverage"] for r in reports]),
                    np.mean([r[(name, mu)]["mse"] for r in reports])) for mu in ref.DESK_GRID]
            for name in ESTIMATORS
        })


class CellLarge:
    """One in-memory three-estimator cell at n = 1e5 with sandwich CIs on all three fits.

    Inputs: SAMPLES draws of ``generate_sample`` at mu = 2.0 (about 64%
    uncensored) with outcomes rounded to 0.01, so about 900 tie groups.
    """

    SAMPLES = 6
    N = 100_000
    units_per_op = 1
    min_ops = SAMPLES

    def __init__(self, ra, seed: int, outdir: str):
        self.ra = ra
        self.samples, self.problems = [], []
        for s in _input_seeds(seed, self.SAMPLES):
            raw = ra.generate_sample(ra.DgpConfig(n=self.N, mu=2.0, seed=s))
            sample = ra.SurvivalSample(y=np.round(raw.y, 2), delta=raw.delta, x=raw.x)
            self.samples.append(sample)
            self.problems.append(ref.Problem(sample.y, sample.delta, sample.x))
        y, delta, x = ref.draw_sample(self.N // 5, 2.0, seed)
        self._calibration_input = (np.round(y, 2), delta, x)
        self.fits: dict[int, dict] = {}

    def calibrate(self) -> None:
        """Sort, KM weights and two lstsq fits at n = 2e4 with tied outcomes."""
        prob = ref.Problem(*self._calibration_input)
        prob.stute()
        prob.refit([])

    def run(self, i: int):
        ra = self.ra
        ss = ra.sort_sample(self.samples[i % self.SAMPLES])
        kw = ra.km_weights(ss)
        stute = ra.stute_fit(ss, kw)
        pen = ra.fit_penalized(ss, kw)
        two = ra.fit_two_step(ss, kw, pen)
        cis = {name: ra.sandwich_ci(ss, kw, fit)
               for name, fit in (("stute", stute), ("penalized", pen), ("two-step", two))}
        return _cell_output(ss, stute, pen, two, cis)

    def check(self, i: int, out) -> list[str]:
        problems = ref.check_cell(self.problems[i % self.SAMPLES], out)
        if not problems:
            self.fits.setdefault(i % self.SAMPLES, out["cis"])
        return problems

    def accuracy(self) -> dict:
        return _accuracy({
            name: [_pooled_fits([cis[name] for cis in self.fits.values()])] for name in ESTIMATORS
        })


def _cell_output(ss, stute, pen, two, cis) -> dict:
    return {
        "perm": ss.perm,
        "stute": stute.beta,
        "pen_beta": pen.beta,
        "alpha_w": pen.alpha_w,
        "lam": pen.lam,
        "two_step": two.beta_tilde,
        "outliers": two.outliers,
        "cis": {name: (inf.beta, inf.ci_lower, inf.ci_upper) for name, inf in cis.items()},
    }


class FitCsv:
    """``robustaft fit <csv>`` in-process: default two-step method, table output captured.

    Input: one CSV of n = 1e5 rows, p = 2, written by ``write_csv`` from
    ``generate_sample`` at mu = 3.0. The expected output is the library
    pipeline on the same file, itself checked against the lstsq reference.
    """

    N = 100_000
    units_per_op = 1
    min_ops = 1

    def __init__(self, ra, seed: int, outdir: str):
        self.cli = ra.cli
        sample = ra.generate_sample(ra.DgpConfig(n=self.N, mu=3.0, seed=_input_seeds(seed, 1)[0]))
        self.path = os.path.join(outdir, "fit.csv")
        ra.write_csv(sample, self.path)
        with open(self.path, newline="") as fh:
            self._calibration_lines = fh.readlines()[1:8001]

        loaded = ra.load_csv(self.path)
        ss = ra.sort_sample(loaded)
        kw = ra.km_weights(ss)
        stute = ra.stute_fit(ss, kw)
        pen = ra.fit_penalized(ss, kw)
        two = ra.fit_two_step(ss, kw, pen)
        cis = {name: ra.sandwich_ci(ss, kw, fit)
               for name, fit in (("penalized", pen), ("two-step", two))}
        self.setup_problems = ref.check_cell(
            ref.Problem(sample.y, sample.delta, sample.x), _cell_output(ss, stute, pen, two, cis)
        )
        inf = cis["two-step"]
        self.want = {
            "meta": {
                "method": "two-step",
                "n": str(loaded.n),
                "p": str(loaded.p),
                "pi_uc_hat": repr(kw.pi_uc_hat),
                "lambda": repr(pen.lam),
                "iterations": str(pen.iterations),
                "tau0": repr(ref.TAU0),
            },
            "coefficients": [
                [float(inf.beta[k]), float(inf.std_errors[k]), float(inf.ci_lower[k]),
                 float(inf.ci_upper[k])]
                for k in range(loaded.p)
            ],
            "outliers": sorted(
                (int(ss.perm[i]) + 1, float(pen.alpha_w[i])) for i in two.outliers
            ),
        }
        # The operation prints only the two-step CI, so the accuracy metrics
        # come from this pipeline, which the printed numbers are checked against.
        self._accuracy = _accuracy({
            name: [_pooled_fits([(inf.beta, inf.ci_lower, inf.ci_upper)])] for name, inf in cis.items()
        })

    def calibrate(self) -> None:
        """Parse 8000 rows of the input file with the csv module and float()."""
        for row in csv.reader(self._calibration_lines):
            [float(v) for v in row]

    def run(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.cli.main(["fit", self.path])
        return status, buf.getvalue()

    def check(self, i: int, out) -> list[str]:
        status, text = out
        if status != 0:
            return [f"fit exited with {status}"]
        return self.setup_problems + ref.check_fit_table(text, self.want)

    def accuracy(self) -> dict:
        return self._accuracy


WORKLOADS = {"study-desk": StudyDesk, "cell-large": CellLarge, "fit-csv": FitCsv}
