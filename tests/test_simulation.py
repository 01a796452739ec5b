import io
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

import robustaft.inference as inference_mod
import robustaft.simulation as simulation
from robustaft import DESK_PROFILE, PAPER_PROFILE, DgpConfig, generate_sample, run_study
from robustaft.simulation import ESTIMATORS, _cell_seed


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

    def test_rejects_wrong_beta_length(self):
        with pytest.raises(ValueError):
            generate_sample(DgpConfig(n=100, beta=(1.0, 1.0, 1.0)))


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

    def test_reproducible(self):
        kwargs = dict(grid=[2.5, 4.5], reps=6, base_cfg=DgpConfig(n=80, seed=99))
        buf_a, buf_b = io.StringIO(), io.StringIO()
        run_study(**kwargs).to_csv(buf_a)
        run_study(**kwargs).to_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

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


def test_one_cell_shares_gram_factors_and_the_censoring_km(monkeypatch):
    """One design factor serves the Stute fit, the 11 penalized solves and the
    Stute bread, so a cell checks and factors at most 4 Gram matrices (the
    penalized bread, the screened refit and its bread are the others), and the
    three sandwiches fit the censoring KM once."""
    counts = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(scipy.linalg, "cho_factor")
    count(np.linalg, "eigvalsh")
    count(inference_mod, "censoring_km")
    cfg = DgpConfig(n=500, mu=2.0, seed=_cell_seed(1, 0, 0))
    results = simulation._run_cell(cfg)
    assert all(results[name] is not None for name in ESTIMATORS)
    assert 1 <= counts["cho_factor"] <= 4
    assert 1 <= counts["eigvalsh"] <= 4
    assert counts["censoring_km"] == 1


def test_profiles_match_documented_settings():
    assert DESK_PROFILE.n == 500 and DESK_PROFILE.reps == 200
    assert DESK_PROFILE.mu_grid == (2.0, 3.0, 4.0, 5.0)
    assert PAPER_PROFILE.n == 1000 and PAPER_PROFILE.reps == 1000
    assert len(PAPER_PROFILE.mu_grid) == 31
    assert PAPER_PROFILE.mu_grid[0] == 2.0 and PAPER_PROFILE.mu_grid[-1] == 5.0
    assert np.allclose(np.diff(PAPER_PROFILE.mu_grid), 0.1, atol=1e-12)
