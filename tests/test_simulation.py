import csv
import dataclasses
import io
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import robustaft.inference as inference_mod
import robustaft.simulation as simulation
from robustaft import (
    DESK_PROFILE,
    PAPER_PROFILE,
    DgpConfig,
    SingularGramError,
    SurvivalSample,
    fit_penalized,
    fit_two_step,
    generate_sample,
    km_weights,
    run_study,
    sandwich_ci,
    sort_sample,
    stute_fit,
)
from robustaft.data import _adopt
from robustaft.simulation import ESTIMATORS, _cell_seed

PINNED_REPORT = Path(__file__).with_name("desk_seed1_report.csv")


class TestGenerate:
    def test_same_seed_is_bit_identical(self):
        a = generate_sample(DgpConfig(n=200, mu=3.0, seed=123))
        b = generate_sample(DgpConfig(n=200, mu=3.0, seed=123))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.x, b.x)

    def test_different_seeds_differ(self):
        a = generate_sample(DgpConfig(n=200, seed=1))
        b = generate_sample(DgpConfig(n=200, seed=2))
        assert not np.array_equal(a.y, b.y)

    def test_design_structure(self):
        s = generate_sample(DgpConfig(n=500, mu=4.0, seed=5))
        assert np.all(s.x[:, 0] == 1.0)
        assert np.all((s.x[:, 1] >= 0.0) & (s.x[:, 1] <= 1.0))

    def test_expected_outlier_count(self):
        cfg = DgpConfig(n=1000)
        counts = [
            int(np.sum(generate_sample(DgpConfig(n=1000, seed=s)).x[:, 1] >= cfg.outlier_cutoff))
            for s in range(60)
        ]
        assert 4.0 <= np.mean(counts) <= 6.0

    def test_uncensored_fraction_tracks_mu(self):
        hi = generate_sample(DgpConfig(n=20000, mu=5.0, seed=8))
        lo = generate_sample(DgpConfig(n=20000, mu=2.0, seed=8))
        assert 0.98 <= hi.delta.mean() <= 1.0
        assert 0.60 <= lo.delta.mean() <= 0.68


class TestCellSeeds:
    def test_deterministic_and_distinct(self):
        assert _cell_seed(7, 2, 3) == _cell_seed(7, 2, 3)
        seeds = {_cell_seed(7, i, j) for i in range(4) for j in range(50)}
        assert len(seeds) == 200

    def test_base_seed_shifts_cells(self):
        assert _cell_seed(1, 0, 0) != _cell_seed(2, 0, 0)


class TestRunStudy:
    def test_minimal_run_has_all_rows(self):
        report = run_study([3.0], reps=2, base_cfg=DgpConfig(n=60, seed=4))
        assert len(report.rows) == 3
        assert {r.estimator for r in report.rows} == {"stute", "penalized", "two-step"}
        assert all(r.reps_used == 2 for r in report.rows)
        # the two replications really are different samples
        a = generate_sample(DgpConfig(n=60, mu=3.0, seed=_cell_seed(4, 0, 0)))
        b = generate_sample(DgpConfig(n=60, mu=3.0, seed=_cell_seed(4, 0, 1)))
        assert not np.array_equal(a.y, b.y)

    def test_rejects_too_few_reps(self):
        with pytest.raises(ValueError):
            run_study([3.0], reps=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_a_seed_outside_64_bits_by_name_before_any_draw(self, seed, monkeypatch):
        """Masked to 64 bits, seed 2**64 would run study seed 0 and seed -1 study
        seed 2**64 - 1; the study refuses both before it draws."""
        draws = []
        monkeypatch.setattr(simulation, "_draw", lambda *a: draws.append(a))
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            run_study([3.0], reps=2, base_cfg=DgpConfig(n=60, seed=seed))
        assert draws == []

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_the_extreme_seeds_in_range_run(self, seed):
        report = run_study([3.0], reps=2, base_cfg=DgpConfig(n=60, seed=seed))
        assert all(r.reps_used == 2 for r in report.rows)

    @pytest.mark.parametrize("field", ["mu", "outlier_cutoff"])
    def test_rejects_a_nan_mu_or_cutoff_by_name_before_any_draw(self, field, monkeypatch):
        """A NaN would draw silently clean data (cutoff) or fail on the drawn entries
        (mu); a config refuses it by name, so no draw sees one, and a study checks
        every grid mu before it draws its first block."""
        with pytest.raises(ValueError, match=f"^{field} must not be NaN"):
            dataclasses.replace(DgpConfig(n=60), **{field: np.nan})
        draws = []
        monkeypatch.setattr(simulation, "_draw", lambda *a: draws.append(a))
        with pytest.raises(ValueError, match="^mu must not be NaN"):
            run_study([3.0, np.nan], reps=2, base_cfg=DgpConfig(n=60))
        assert draws == []

    def test_an_infinite_mu_censors_nothing_and_an_infinite_cutoff_draws_clean_data(self):
        assert generate_sample(DgpConfig(n=60, mu=np.inf, seed=2)).delta.all()
        clean = generate_sample(DgpConfig(n=60, outlier_cutoff=1.0, seed=2))
        endless = generate_sample(DgpConfig(n=60, outlier_cutoff=np.inf, seed=2))
        assert np.array_equal(endless.y, clean.y) and np.array_equal(endless.delta, clean.delta)

    def test_reproducible(self):
        kwargs = dict(grid=[2.5, 4.5], reps=6, base_cfg=DgpConfig(n=80, seed=99))
        buf_a, buf_b = io.StringIO(), io.StringIO()
        run_study(**kwargs).to_csv(buf_a)
        run_study(**kwargs).to_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_estimator_that_lost_every_replication_reports_nan(self):
        # at n = 3 no mu = 2.0 replication gives any estimator a finite covariance
        report = run_study([2.0], reps=2, base_cfg=DgpConfig(n=3, seed=5))
        assert report.failures == 6
        assert [r.estimator for r in report.rows] == ["stute", "penalized", "two-step"]
        for r in report.rows:
            assert r.reps_used == 0
            assert all(np.isnan(v) for v in (r.bias, r.variance, r.mse, r.coverage))
        buf = io.StringIO()
        report.to_csv(buf)
        rows = buf.getvalue().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.split(",")[3:] == ["nan"] * 4 + ["0"] for row in rows)

    def test_row_lookup(self):
        report = run_study([3.0], reps=2, base_cfg=DgpConfig(n=60, seed=4))
        assert report.row("stute", 3.0).estimator == "stute"
        with pytest.raises(KeyError):
            report.row("stute", 9.9)


class TestDeskStudy:
    def test_mse_is_bias_squared_plus_variance(self, desk_study):
        for r in desk_study.rows:
            assert abs(r.mse - (r.bias**2 + r.variance)) < 1e-10

    def test_mse_degrades_with_heavier_censoring(self, desk_study):
        for name in ("stute", "penalized", "two-step"):
            assert desk_study.row(name, 2.0).mse > desk_study.row(name, 5.0).mse

    def test_coverage_degrades_for_baseline_and_screened(self, desk_study):
        # the penalized estimator is excluded: its censoring-adaptive penalty
        # shrinks less as censoring grows, so its coverage is not monotone
        for name in ("stute", "two-step"):
            cov2 = desk_study.row(name, 2.0).coverage
            cov5 = desk_study.row(name, 5.0).coverage
            assert cov2 <= cov5 + 0.04

    def test_uncensored_fraction_spans_reported_range(self, desk_study):
        assert desk_study.row("stute", 2.0).pi_uc_hat == pytest.approx(0.64, abs=0.02)
        assert desk_study.row("stute", 5.0).pi_uc_hat == pytest.approx(0.99, abs=0.01)

    def test_no_failures(self, desk_study):
        assert desk_study.failures == 0


def test_one_block_shares_gram_factors_and_the_censoring_km(monkeypatch):
    """A block of 12 replications at n = 500 makes one batched eigendecomposition
    per Gram kind: the full Gram (which serves the Stute fit, the 11 penalized
    solves and the Stute bread), the penalized bread, and the screened refit
    (which is also its bread); its three sandwiches fit the censoring KM once."""
    counts = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(np.linalg, "eigh")
    count(inference_mod, "censoring_km")
    size = simulation.BLOCK_ELEMS // 500
    assert size == 12
    block = simulation._draw(
        DgpConfig(n=500, mu=2.0), [_cell_seed(1, 0, j) for j in range(size)]
    )
    counts.clear()
    results = simulation._run_block(block, 1.0)
    assert all(results[name][2].all() for name in ESTIMATORS)
    assert counts["eigh"] == 3
    assert counts["censoring_km"] == 1


def test_desk_report_matches_the_one_replication_at_a_time_engine():
    """The report of ``simulate --profile desk --seed 1`` as the engine that fitted
    one replication at a time wrote it: counts, pi_uc_hat and coverage exactly,
    the moments within 1e-9 relative."""
    with PINNED_REPORT.open(newline="") as fh:
        want = list(csv.DictReader(fh))
    buf = io.StringIO()
    run_study(DESK_PROFILE.mu_grid, DESK_PROFILE.reps, DgpConfig(n=DESK_PROFILE.n, seed=1)).to_csv(buf)
    got = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(got) == len(want) == 12
    for g, w in zip(got, want):
        for col in ("estimator", "mu", "pi_uc_hat", "coverage", "reps_used"):
            assert g[col] == w[col], (w["estimator"], w["mu"], col)
        for col in ("bias", "variance", "mse"):
            assert float(g[col]) == pytest.approx(float(w[col]), rel=1e-9, abs=0.0)


def test_ragged_blocks_give_the_report_of_blocks_of_one(monkeypatch):
    kwargs = dict(grid=[2.0, 3.5], reps=7, base_cfg=DgpConfig(n=60, seed=13))
    reports = []
    for elems in (180, 1):  # blocks of 3, 3 and 1 replications; then of 1
        monkeypatch.setattr(simulation, "BLOCK_ELEMS", elems)
        buf = io.StringIO()
        run_study(**kwargs).to_csv(buf)
        reports.append(buf.getvalue())
    assert reports[0] == reports[1]


N_ROWS = 40


def _replications():
    """Six samples of 40 rows, most with tied outcomes, each set up for one case."""
    rng = np.random.default_rng(2024)
    idx = np.arange(N_ROWS)
    ones = np.ones(N_ROWS, dtype=np.int64)
    out = []

    def add(x2, y, delta, tied=True):
        y = np.round(y, 1) if tied else y
        out.append((y, delta, np.column_stack([np.ones(N_ROWS), x2])))

    # censored, no failure
    x2 = rng.uniform(size=N_ROWS)
    t, c = 1 + x2 + rng.normal(size=N_ROWS), rng.normal(2.5, 1.0, N_ROWS)
    add(x2, np.minimum(t, c), (t <= c).astype(np.int64))
    # a constant covariate: singular full Gram
    add(np.full(N_ROWS, 0.5), 1.5 + rng.normal(size=N_ROWS), ones)
    # the rows off x2 = 0 are all outliers: singular refit Gram
    x2 = np.select([idx < 3, idx < 6], [1.0, 2.0], 0.0)
    t = 1 + x2 + 0.3 * rng.normal(size=N_ROWS)
    t[:3] -= 30.0
    t[3:6] = [33.0, 32.0, 34.0]
    add(x2, t, (idx != 3).astype(np.int64))
    # the rows off x2 = 0 are clamped but not flagged: singular penalized bread
    x2 = (idx < 4).astype(float)
    t = 1 + x2 + 0.05 * rng.normal(size=N_ROWS)
    t[:4] = [3.0, 1.0, 3.0, 1.0]
    add(x2, t, ones)
    # outcomes near 1e200: the sandwich covariance overflows
    x2 = rng.uniform(size=N_ROWS)
    add(x2, (1 + x2 + rng.normal(size=N_ROWS)) * 1e200, ones, tied=False)
    # heavy censoring
    x2 = rng.uniform(size=N_ROWS)
    t, c = 1 + x2 + rng.normal(size=N_ROWS), rng.normal(1.5, 1.0, N_ROWS)
    add(x2, np.minimum(t, c), (t <= c).astype(np.int64))
    return out


def _fit_alone(y, delta, x, true_slope):
    """One sample through the public per-sample functions: (slope, CI covers) per
    estimator, or None where the per-sample call raised."""
    ss = sort_sample(SurvivalSample(y=y, delta=delta, x=x))
    kw = km_weights(ss)
    results = {"pi_uc": kw.pi_uc_hat, **dict.fromkeys(ESTIMATORS)}
    fits = {}
    try:
        fits["stute"] = stute_fit(ss, kw)
        fits["penalized"] = fit_penalized(ss, kw)
        fits["two-step"] = fit_two_step(ss, kw, fits["penalized"])
    except SingularGramError:
        pass
    for name, fit in fits.items():
        try:
            inf = sandwich_ci(ss, kw, fit)
        except (SingularGramError, ValueError):
            continue
        results[name] = (fit.beta[1], bool(inf.ci_lower[1] <= true_slope <= inf.ci_upper[1]))
    return results


def test_a_block_matches_its_samples_fitted_one_at_a_time():
    reps = _replications()
    alone = [_fit_alone(*rep, 1.0) for rep in reps]

    # the cases happen as labelled
    assert [[alone[r][name] is not None for name in ESTIMATORS] for r in range(6)] == [
        [True, True, True],
        [False, False, False],  # singular full Gram: all three
        [True, False, False],  # singular refit: the two-step fit (the penalized bread is a subset)
        [True, False, True],  # singular penalized bread: the penalized fit only
        [False, False, False],  # non-finite covariance (and all 40 rows flagged)
        [True, True, True],
    ]
    for cuts in ([0, 6], [0, 4, 6], [0, 1, 2, 3, 4, 5, 6]):  # one block; ragged; blocks of one
        for lo, hi in zip(cuts, cuts[1:]):
            y, delta, x = (np.stack([rep[k] for rep in reps[lo:hi]]) for k in range(3))
            block = _adopt(SurvivalSample, y=y, delta=delta, x=x)
            got = simulation._run_block(block, 1.0)
            for r in range(hi - lo):
                want = alone[lo + r]
                assert got["pi_uc"][r] == want["pi_uc"]
                for name in ESTIMATORS:
                    slope, covered, ok = (a[r] for a in got[name])
                    assert ok == (want[name] is not None), (lo + r, name)
                    if ok:
                        assert (slope, covered) == want[name], (lo + r, name)


def test_a_block_is_sorted_weighted_and_fitted_once(monkeypatch):
    """The block of ``_replications`` holds a singular full Gram, yet it is sorted
    and weighted once, makes one eigendecomposition per Gram kind and runs the
    public fits and sandwiches, so the tracer sees them."""
    counts = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(np.linalg, "eigh")
    for name in ("sort_sample", "km_weights", "stute_fit", "fit_penalized", "fit_two_step", "sandwich_ci"):
        count(simulation, name)
    reps = _replications()
    y, delta, x = (np.stack([rep[k] for rep in reps]) for k in range(3))
    block = _adopt(SurvivalSample, y=y, delta=delta, x=x)
    results = simulation._run_block(block, 1.0)
    assert not results["stute"][2][1]  # the singular full Gram counts for no estimator
    assert counts == {
        "sort_sample": 1, "km_weights": 1, "eigh": 3, "stute_fit": 1, "fit_penalized": 1,
        "fit_two_step": 1, "sandwich_ci": 3,
    }


def test_an_all_singular_block_is_all_nan_and_warns_nothing():
    x = np.stack([np.ones((2, 30)), np.full((2, 30), 0.5)], axis=-1)  # a constant covariate
    y = 1.0 + np.random.default_rng(5).normal(size=(2, 30))
    block = _adopt(SurvivalSample, y=y, delta=np.ones((2, 30), dtype=np.int64), x=x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = simulation._run_block(block, 1.0)
    for name in ESTIMATORS:
        slope, covered, ok = results[name]
        assert np.isnan(slope).all() and not covered.any() and not ok.any()


@pytest.mark.xfail(
    reason="the penalized slope is biased by about -0.08 on clean data at every n; "
    "remove this mark when a fix brings |bias| within 0.02",
)
@pytest.mark.parametrize("n, reps", [(500, 400), (2000, 400), (8000, 100)])
def test_penalized_slope_is_unbiased_on_clean_data(n, reps):
    report = run_study([3.0], reps, DgpConfig(n=n, outlier_cutoff=1.0, seed=1))
    assert abs(report.row("penalized", 3.0).bias) <= 0.02


def test_profiles_match_documented_settings():
    assert DESK_PROFILE.n == 500 and DESK_PROFILE.reps == 200
    assert DESK_PROFILE.mu_grid == (2.0, 3.0, 4.0, 5.0)
    assert PAPER_PROFILE.n == 1000 and PAPER_PROFILE.reps == 1000
    assert len(PAPER_PROFILE.mu_grid) == 31
    assert PAPER_PROFILE.mu_grid[0] == 2.0 and PAPER_PROFILE.mu_grid[-1] == 5.0
    assert np.allclose(np.diff(PAPER_PROFILE.mu_grid), 0.1, atol=1e-12)
