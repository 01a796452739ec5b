from collections import Counter

import numpy as np
import pytest

from robustaft import (
    DEFAULT_TAU0,
    Fit,
    PenalizedConfig,
    SingularGramError,
    SurvivalSample,
    build_weighted_design,
    detect_outliers,
    fit_penalized,
    fit_two_step,
    km_weights,
    sort_sample,
    stute_fit,
)
from oracles import joint_screened_beta, random_instance


def prepare(sample):
    ss = sort_sample(sample)
    return ss, km_weights(ss)


def fake_fit(alpha_w):
    return Fit(beta=np.zeros(1), alpha_w=np.asarray(alpha_w, dtype=float))


class TestDetect:
    def test_all_zero_gives_empty_set(self):
        assert detect_outliers(fake_fit(np.zeros(5)), 0.3).size == 0

    def test_strict_threshold(self):
        flagged = detect_outliers(fake_fit([0.2, -0.5, 0.31]), 0.3)
        assert np.array_equal(flagged, [1, 2])
        # exactly at the threshold is not flagged
        assert np.array_equal(detect_outliers(fake_fit([0.3, -0.3]), 0.3), [])

    def test_zero_threshold_gives_support(self):
        fit = fake_fit([0.0, 1e-9, -0.2, 0.0])
        assert np.array_equal(detect_outliers(fit, 0.0), [1, 2])

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(31)
        fit = fake_fit(rng.normal(size=50))
        for lo, hi in [(0.0, 0.3), (0.3, 1.0), (0.1, 0.2)]:
            bigger = set(detect_outliers(fit, lo).tolist())
            smaller = set(detect_outliers(fit, hi).tolist())
            assert smaller <= bigger

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            detect_outliers(fake_fit([0.1]), -0.1)
        for tau0 in (np.inf, np.nan):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                detect_outliers(fake_fit([0.1]), tau0)


class TestFitTwoStep:
    def test_default_threshold(self):
        assert DEFAULT_TAU0 == 0.3

    def test_empty_detection_reduces_to_baseline(self):
        rng = np.random.default_rng(32)
        sample = random_instance(rng, n=40, p=2, outliers=False)
        ss, kw = prepare(sample)
        pen = fit_penalized(ss, kw, PenalizedConfig(lambda_override=1e16))
        fit = fit_two_step(ss, kw, pen)
        assert fit.outliers.size == 0
        assert np.array_equal(fit.beta, stute_fit(ss, kw).beta)
        assert np.all(fit.alpha_w == 0.0)

    def test_refit_flagging_nothing_reuses_the_design_factor(self, monkeypatch):
        rng = np.random.default_rng(36)
        ss, kw = prepare(random_instance(rng, n=40, p=2))
        stute = stute_fit(ss, kw)
        pen = fit_penalized(ss, kw)
        counts = Counter()

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(np.linalg, "eigh")
        fit = fit_two_step(ss, kw, pen, tau0=1e6)
        assert fit.outliers.size == 0
        assert counts == Counter()
        assert fit.beta.tobytes() == stute.beta.tobytes()

    def test_matches_manual_row_exclusion(self):
        rng = np.random.default_rng(33)
        x = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = x @ np.array([1.0, 1.0]) + rng.normal(size=30) * 0.1
        y[7] += 50.0  # gross outlier, ~50x the noise scale
        sample = SurvivalSample(y=y, delta=np.ones(30, dtype=int), x=x)
        ss, kw = prepare(sample)
        pen = fit_penalized(ss, kw)
        fit = fit_two_step(ss, kw, pen)
        assert np.array_equal(np.sort(ss.perm[fit.outliers]), [7])

        cleaned = SurvivalSample(
            y=np.delete(y, 7), delta=np.ones(29, dtype=int), x=np.delete(x, 7, axis=0)
        )
        css, ckw = prepare(cleaned)
        assert np.allclose(fit.beta, stute_fit(css, ckw).beta, atol=1e-10)

    def test_alpha_tilde_is_refit_residual_on_flagged_rows(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            sample = random_instance(rng)
            ss, kw = prepare(sample)
            pen = fit_penalized(ss, kw)
            fit = fit_two_step(ss, kw, pen)
            d = build_weighted_design(ss, kw)
            resid = d.yw - d.xw @ fit.beta
            mask = np.zeros(sample.n, dtype=bool)
            mask[fit.outliers] = True
            assert np.all(fit.alpha_w[~mask] == 0.0)
            assert np.max(np.abs(fit.alpha_w[mask] - resid[mask]), initial=0.0) < 1e-10

    def test_equals_joint_minimization_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(15):
            sample = random_instance(rng, n=int(rng.integers(20, 51)))
            ss, kw = prepare(sample)
            pen = fit_penalized(ss, kw)
            fit = fit_two_step(ss, kw, pen)
            if fit.outliers.size >= sample.n - sample.p - 2:
                continue
            d = build_weighted_design(ss, kw)
            oracle = joint_screened_beta(d.xw, d.yw, fit.outliers.tolist())
            assert np.allclose(fit.beta, oracle, atol=1e-9)

    def test_singular_refit_reports_counts(self):
        # second covariate only lives on the two rows that are flagged, so
        # removing them leaves nothing to identify its coefficient
        n = 12
        x = np.column_stack([np.ones(n), np.zeros(n)])
        x[0, 1] = 1.0
        x[1, 1] = 1.0
        y = x[:, 0] + np.linspace(-0.1, 0.1, n)
        y[0] += 40.0
        y[1] -= 40.0
        sample = SurvivalSample(y=y, delta=np.ones(n, dtype=int), x=x)
        ss, kw = prepare(sample)
        pen = fit_penalized(ss, kw)
        with pytest.raises(SingularGramError, match=r"removing 2 of 12 rows"):
            fit_two_step(ss, kw, pen)


def test_mse_ordering_under_light_censoring(desk_study):
    for mu in (4.0, 5.0):
        two = desk_study.row("two-step", mu).mse
        pen = desk_study.row("penalized", mu).mse
        stute = desk_study.row("stute", mu).mse
        assert two < pen < stute
