"""Monte Carlo study: data generation, replication engine, coverage metrics.

The data-generating process has two covariates, a constant and a Uniform[0,1]
regressor.  Observations whose second covariate lands above a cutoff receive
a large negative mean shift, so outliers sit at high leverage.  The outcome
is censored by an independent Normal(mu, 1) variable; shifting mu moves the
uncensored fraction between roughly 64% (mu = 2) and 99% (mu = 5).

Randomness comes from numpy's PCG64 generator.  Each (mu, replication) cell
derives its own 64-bit seed by XOR-ing the study seed with a BLAKE2b hash of
the cell coordinates, so results are bit-identical regardless of how many
worker threads run the study.
"""

from __future__ import annotations

import csv
import hashlib
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import SurvivalSample, sort_sample
from .inference import sandwich_ci
from .km import km_weights
from .penalized import PenalizedConfig, fit_penalized
from .two_step import DEFAULT_TAU0, fit_two_step
from .wls import SingularGramError, stute_fit

ESTIMATORS = ("stute", "penalized", "two-step")


@dataclass(frozen=True)
class DgpConfig:
    """Sampling design for one synthetic dataset.

    ``outlier_cutoff`` is the threshold on the uniform covariate above which
    the shift applies; with the default 1 - 5e-3 the outlier probability is
    exactly 5e-3 (five expected outliers per thousand observations).
    """

    n: int = 1000
    beta: tuple[float, float] = (1.0, 1.0)
    outlier_shift: float = -20.0
    outlier_cutoff: float = 1.0 - 5e-3
    mu: float = 5.0
    seed: int = 0

    @property
    def outlier_rate(self) -> float:
        return 1.0 - self.outlier_cutoff


@dataclass(frozen=True)
class StudyProfile:
    name: str
    n: int
    reps: int
    mu_grid: tuple[float, ...]


DESK_PROFILE = StudyProfile(name="desk", n=500, reps=200, mu_grid=(2.0, 3.0, 4.0, 5.0))
PAPER_PROFILE = StudyProfile(
    name="paper", n=1000, reps=1000, mu_grid=tuple((20 + k) / 10 for k in range(31))
)


@dataclass(frozen=True)
class ReportRow:
    estimator: str
    mu: float
    pi_uc_hat: float
    bias: float
    variance: float
    mse: float
    coverage: float
    reps_used: int


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregated study results: one row per (estimator, mu) pair."""

    rows: tuple[ReportRow, ...]
    reps: int
    failures: int
    runtime_seconds: float

    def row(self, estimator: str, mu: float) -> ReportRow:
        for r in self.rows:
            if r.estimator == estimator and r.mu == mu:
                return r
        raise KeyError(f"no row for estimator={estimator!r}, mu={mu}")

    def to_csv(self, file) -> None:
        """Write the report; runtime is deliberately excluded so output is seed-deterministic."""
        writer = csv.writer(file)
        writer.writerow(
            ["estimator", "mu", "pi_uc_hat", "bias", "variance", "mse", "coverage", "reps_used"]
        )
        for r in self.rows:
            writer.writerow(
                [
                    r.estimator,
                    repr(float(r.mu)),
                    repr(float(r.pi_uc_hat)),
                    repr(float(r.bias)),
                    repr(float(r.variance)),
                    repr(float(r.mse)),
                    repr(float(r.coverage)),
                    r.reps_used,
                ]
            )


def generate_sample(cfg: DgpConfig) -> SurvivalSample:
    """Draw one dataset from the two-covariate shifted-outlier design.

    Draw order is fixed (uniform covariate, noise, censoring times) and the
    generator is PCG64 seeded with ``cfg.seed``, so equal configs give
    bit-identical samples.
    """
    if len(cfg.beta) != 2:
        raise ValueError("the design uses exactly two covariates")
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    x2 = rng.uniform(0.0, 1.0, n)
    noise = rng.standard_normal(n)
    censor = rng.normal(cfg.mu, 1.0, n)
    shift = np.where(x2 >= cfg.outlier_cutoff, cfg.outlier_shift, 0.0)
    x = np.column_stack([np.ones(n), x2])
    t = x @ np.asarray(cfg.beta) + shift + noise
    y = np.minimum(t, censor)
    delta = (t <= censor).astype(np.int64)
    return SurvivalSample(y=y, delta=delta, x=x)


def _cell_seed(base_seed: int, mu_index: int, rep_index: int) -> int:
    payload = mu_index.to_bytes(8, "little") + rep_index.to_bytes(8, "little")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return (base_seed ^ int.from_bytes(digest, "little")) & 0xFFFFFFFFFFFFFFFF


def _run_cell(cfg, estimators, pen_cfg, tau0, level, true_coef, coef_index):
    sample = generate_sample(cfg)
    ss = sort_sample(sample)
    kw = km_weights(ss)
    results = {"pi_uc": kw.pi_uc_hat}

    pen_fit = None
    if "penalized" in estimators or "two-step" in estimators:
        try:
            pen_fit = fit_penalized(ss, kw, pen_cfg)
        except SingularGramError:
            pen_fit = None

    for name in estimators:
        if name != "stute" and pen_fit is None:
            results[name] = None
            continue
        try:
            if name == "stute":
                fit = stute_fit(ss, kw)
            elif name == "penalized":
                fit = pen_fit
            else:
                fit = fit_two_step(ss, kw, pen_fit, tau0)
            inf = sandwich_ci(ss, kw, fit, level)
            covered = bool(inf.ci_lower[coef_index] <= true_coef <= inf.ci_upper[coef_index])
            results[name] = (float(fit.beta[coef_index]), covered)
        except SingularGramError:
            results[name] = None
    return results


def run_study(
    grid,
    reps: int,
    base_cfg: DgpConfig = DgpConfig(),
    estimators=ESTIMATORS,
    threads: int = 1,
    level: float = 0.95,
    tau0: float = DEFAULT_TAU0,
    pen_cfg: PenalizedConfig = PenalizedConfig(),
    coef_index: int = 1,
) -> MonteCarloReport:
    """Run the replication study over a censoring-intensity grid.

    Replications are independent; cells are dispatched to ``threads`` workers
    and merged in (mu, replication) order, so the report does not depend on
    the thread count.  Replications hitting a singular Gram matrix are
    excluded from the affected estimator's row and counted as failures.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    if threads < 1:
        raise ValueError("threads must be a positive integer")
    grid = [float(m) for m in grid]
    estimators = tuple(estimators)
    for name in estimators:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}")
    true_coef = float(base_cfg.beta[coef_index])

    start = time.perf_counter()
    cells = [
        (i, j, replace(base_cfg, mu=mu, seed=_cell_seed(base_cfg.seed, i, j)))
        for i, mu in enumerate(grid)
        for j in range(reps)
    ]

    def work(cell):
        i, j, cfg = cell
        return i, j, _run_cell(cfg, estimators, pen_cfg, tau0, level, true_coef, coef_index)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(work, cells))
    else:
        outcomes = [work(cell) for cell in cells]
    outcomes.sort(key=lambda item: (item[0], item[1]))

    rows = []
    failures = 0
    for i, mu in enumerate(grid):
        cell_results = [res for ci, _, res in outcomes if ci == i]
        pi_uc = float(np.mean([res["pi_uc"] for res in cell_results]))
        for name in estimators:
            values = [res[name] for res in cell_results]
            ok = [v for v in values if v is not None]
            failures += len(values) - len(ok)
            if not ok:
                rows.append(
                    ReportRow(name, mu, pi_uc, np.nan, np.nan, np.nan, np.nan, 0)
                )
                continue
            est = np.array([v[0] for v in ok])
            cover = np.array([v[1] for v in ok], dtype=float)
            errors = est - true_coef
            rows.append(
                ReportRow(
                    estimator=name,
                    mu=mu,
                    pi_uc_hat=pi_uc,
                    bias=float(errors.mean()),
                    variance=float(est.var()),
                    mse=float(np.mean(errors**2)),
                    coverage=float(cover.mean()),
                    reps_used=len(ok),
                )
            )
    if failures:
        warnings.warn(
            f"{failures} replication(s) hit a singular Gram matrix and were excluded",
            RuntimeWarning,
            stacklevel=2,
        )
    return MonteCarloReport(
        rows=tuple(rows),
        reps=reps,
        failures=failures,
        runtime_seconds=time.perf_counter() - start,
    )
