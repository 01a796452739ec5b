"""Monte Carlo study: data generation, replication engine, coverage metrics.

The data-generating process has two covariates, a constant and a Uniform[0,1]
regressor.  Observations whose second covariate lands above a cutoff receive
a large negative mean shift, so outliers sit at high leverage.  The outcome
is censored by an independent Normal(mu, 1) variable; shifting mu moves the
uncensored fraction between roughly 64% (mu = 2) and 99% (mu = 5).

Randomness comes from numpy's PCG64 generator.  Each (mu, replication) cell
derives its own 64-bit seed by XOR-ing the study seed with a BLAKE2b hash of
the cell coordinates, so each cell's sample depends only on the study seed and
the cell's place in the grid.

The study evaluates each mu's replications in blocks of R samples held as
(R, n) arrays.  The public ``stute_fit``, ``fit_penalized``, ``fit_two_step``
and ``sandwich_ci`` take a block as well as a sample; a replication's numbers
do not depend on the block it shares.  Where fitting a sample alone raises, a
block makes that replication's results NaN instead, and a replication counts
for an estimator exactly when its covariance is finite.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .data import SurvivalSample, _adopt, _check_entries, _check_size, _text, sort_sample
from .inference import _finite, sandwich_ci
from .km import km_weights
from .penalized import fit_penalized
from .two_step import fit_two_step
from .wls import stute_fit

ESTIMATORS = ("stute", "penalized", "two-step")
BETA = (1.0, 1.0)  # the true intercept and slope
SLOPE = 1  # index of the coefficient the study reports on
# Rows per block: R = max(1, BLOCK_ELEMS // n) replications.  Swept on the desk
# study (n = 500): 6144 (R = 12) ran about 15% faster than 4096 (R = 8) for
# 0.8 MB more peak memory; 8192 (R = 16) gained a few % more for 1.4 MB.
BLOCK_ELEMS = 6144


@dataclass(frozen=True)
class DgpConfig:
    """Sampling design for one synthetic dataset.

    ``outlier_cutoff`` is the threshold on the uniform covariate above which
    the mean shift of -20 applies; with the default 1 - 5e-3 the outlier
    probability is exactly 5e-3 (five expected outliers per thousand
    observations), and 1.0 draws clean data.
    """

    n: int = 1000
    outlier_cutoff: float = 1.0 - 5e-3
    mu: float = 5.0
    seed: int = 0


@dataclass(frozen=True)
class StudyProfile:
    n: int
    reps: int
    mu_grid: tuple[float, ...]


DESK_PROFILE = StudyProfile(n=500, reps=200, mu_grid=(2.0, 3.0, 4.0, 5.0))
PAPER_PROFILE = StudyProfile(
    n=1000, reps=1000, mu_grid=tuple((20 + k) / 10 for k in range(31))
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
    """Aggregated study results: one row per (estimator, mu) pair.

    ``failures`` counts the (replication, estimator) pairs excluded because
    the covariance was not finite: a singular Gram matrix or an overflow.
    """

    rows: tuple[ReportRow, ...]
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
        writer.writerow([f.name for f in fields(ReportRow)])
        writer.writerows(map(_text, astuple(r)) for r in self.rows)


def generate_sample(cfg: DgpConfig) -> SurvivalSample:
    """Draw one dataset from the two-covariate shifted-outlier design.

    Draw order is fixed (uniform covariate, noise, censoring times) and the
    generator is PCG64 seeded with ``cfg.seed``, so equal configs give
    bit-identical samples.
    """
    block = _draw(cfg, [cfg.seed])
    return _adopt(SurvivalSample, y=block.y[0], delta=block.delta[0], x=block.x[0])


def _draw(cfg: DgpConfig, seeds) -> SurvivalSample:
    """A block with one sample per seed, each drawn as ``generate_sample`` draws it."""
    _check_size(cfg.n, len(BETA))
    n = cfg.n
    x2, noise, censor = (np.empty((len(seeds), n)) for _ in range(3))
    # uniform(0, 1) is random() and normal(mu, 1) is mu + standard_normal(), to the bit
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.random(out=x2[r])
        rng.standard_normal(out=noise[r])
        rng.standard_normal(out=censor[r])
    censor += cfg.mu
    shift = np.where(x2 >= cfg.outlier_cutoff, -20.0, 0.0)
    x = np.stack([np.ones_like(x2), x2], axis=-1)
    t = x @ np.asarray(BETA) + shift + noise
    y = np.minimum(t, censor)
    delta = (t <= censor).astype(np.int64)
    _check_entries(y, delta, x)
    return _adopt(SurvivalSample, y=y, delta=delta, x=x)


def _cell_seed(base_seed: int, mu_index: int, rep_index: int) -> int:
    payload = mu_index.to_bytes(8, "little") + rep_index.to_bytes(8, "little")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return (base_seed ^ int.from_bytes(digest, "little")) & 0xFFFFFFFFFFFFFFFF


def _run_block(sample: SurvivalSample, true_slope: float) -> dict:
    """One block of replications, sorted and weighted once and fitted by
    ``stute_fit``, ``fit_penalized``, ``fit_two_step`` and ``sandwich_ci``.

    Returns the per-replication ``pi_uc`` and, per estimator, a triple of
    (R,) arrays: the slope estimates, whether the 95% sandwich CI covers
    ``true_slope``, and whether the replication counts: whether its covariance
    is finite.  A singular Gram has a NaN inverse, so where fitting a
    replication alone would raise, its covariance is NaN.
    """
    ss = sort_sample(sample)
    kw = km_weights(ss)
    pen = fit_penalized(ss, kw)
    results = {"pi_uc": kw.pi_uc_hat}
    for name, fit in zip(ESTIMATORS, (stute_fit(ss, kw), pen, fit_two_step(ss, kw, pen))):
        inf = sandwich_ci(ss, kw, fit)
        covered = (inf.ci_lower[:, SLOPE] <= true_slope) & (true_slope <= inf.ci_upper[:, SLOPE])
        results[name] = (fit.beta[:, SLOPE], covered, _finite(inf))
    return results


def _check_study(reps: int, base_cfg: DgpConfig) -> None:
    """Reject a study that cannot run, before any work: ``run_study``'s argument checks."""
    if reps < 2:
        raise ValueError("reps must be at least 2")
    _check_size(base_cfg.n, len(BETA))


def run_study(
    grid,
    reps: int,
    base_cfg: DgpConfig = DgpConfig(),
) -> MonteCarloReport:
    """Run the replication study over a censoring-intensity grid.

    Each mu's replications run in blocks of ``BLOCK_ELEMS // n`` (at least
    one), each with the penalized fit at the rule's level (10 cycles), the
    two-step refit at the fixed threshold ``DEFAULT_TAU0`` and 95% sandwich
    CIs for the slope.  A replication whose covariance is not finite (a
    singular Gram matrix gives a NaN one) is excluded from that estimator's
    row and counted in the report's ``failures``; the study does not warn
    about it.
    """
    _check_study(reps, base_cfg)
    grid = [float(m) for m in grid]
    true_coef = BETA[SLOPE]
    size = max(1, BLOCK_ELEMS // base_cfg.n)

    start = time.perf_counter()
    rows = []
    failures = 0
    for i, mu in enumerate(grid):
        cfg = replace(base_cfg, mu=mu)
        blocks = [
            _run_block(
                _draw(cfg, [_cell_seed(base_cfg.seed, i, j) for j in range(lo, min(lo + size, reps))]),
                true_coef,
            )
            for lo in range(0, reps, size)
        ]
        pi_uc = float(np.mean(np.concatenate([b["pi_uc"] for b in blocks])))
        for name in ESTIMATORS:
            est, cover, ok = (np.concatenate(parts) for parts in zip(*(b[name] for b in blocks)))
            failures += int(ok.size - ok.sum())
            if not ok.any():
                rows.append(
                    ReportRow(name, mu, pi_uc, np.nan, np.nan, np.nan, np.nan, 0)
                )
                continue
            est, cover = est[ok], cover[ok].astype(float)
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
                    reps_used=int(ok.sum()),
                )
            )
    return MonteCarloReport(
        rows=tuple(rows),
        failures=failures,
        runtime_seconds=time.perf_counter() - start,
    )
