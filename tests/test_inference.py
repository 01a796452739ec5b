import numpy as np
import pytest

import robustaft.inference as inference_mod
from robustaft import (
    DegenerateTailWarning,
    DgpConfig,
    PenalizedConfig,
    SurvivalSample,
    build_weighted_design,
    censoring_km,
    compute_psi,
    fit_penalized,
    fit_two_step,
    generate_sample,
    km_weights,
    sandwich_ci,
    sort_sample,
    stute_fit,
)
from robustaft.simulation import _cell_seed
from oracles import psi_double_loop, random_instance

Z_975 = 1.959963984540054


def tied_instance(rng, n):
    """A random sample with y on a 0.5 grid, so failures tie with censorings,
    and every row at or above the 80% quantile tied in the top group."""
    sample = random_instance(rng, n=n)
    y = np.round(sample.y * 2.0) / 2.0
    return SurvivalSample(y=np.minimum(y, np.quantile(y, 0.8)), delta=sample.delta, x=sample.x)


def censoring_km_direct(y, delta):
    """(times, cdf) of the censoring KM by np.unique and searchsorted on sorted y."""
    n = len(y)
    idx = np.arange(n, dtype=float)
    surv = np.cumprod(np.where(delta == 0, (n - 1 - idx) / (n - idx), 1.0))
    times = np.unique(y)
    return times, 1.0 - surv[np.searchsorted(y, times, side="right") - 1]


def prepare(y, delta, x=None):
    y = np.asarray(y, dtype=float)
    x = np.ones((len(y), 1)) if x is None else np.asarray(x, dtype=float)
    ss = sort_sample(SurvivalSample(y=y, delta=np.asarray(delta), x=x))
    return ss, km_weights(ss)


class TestCensoringKM:
    def test_no_censoring_means_zero_everywhere(self):
        ss, _ = prepare([1.0, 2.0, 3.0], [1, 1, 1])
        assert np.array_equal(censoring_km(ss), np.zeros(3))

    def test_single_censoring_jump(self):
        ss, _ = prepare([1.0, 2.0], [0, 1])
        g = censoring_km(ss)
        assert np.array_equal(g, [0.5, 0.5])
        assert not g.flags.writeable

    def test_tied_samples_match_direct_construction(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            ss = sort_sample(tied_instance(rng, n=int(rng.integers(10, 60))))
            _, cdf = censoring_km_direct(ss.base.y, ss.base.delta)
            assert np.array_equal(censoring_km(ss), cdf)

    def test_cdf_monotone_in_unit_interval(self):
        rng = np.random.default_rng(41)
        ss, _ = prepare(rng.normal(size=50), (rng.random(50) < 0.5).astype(int))
        g = censoring_km(ss)
        assert np.all(np.diff(g) >= -1e-15)
        assert np.all((g >= 0.0) & (g <= 1.0))


class TestComputePsi:
    def test_uncensored_reduces_to_ols_influence(self):
        rng = np.random.default_rng(42)
        x = np.column_stack([np.ones(20), rng.normal(size=20)])
        y = x @ np.array([1.0, 2.0]) + rng.normal(size=20)
        ss, _ = prepare(y, np.ones(20, dtype=int), x)
        beta = np.array([0.9, 2.1])
        psi = compute_psi(ss, beta)
        xi = ss.base.y - ss.base.x @ beta
        assert np.allclose(psi, ss.base.x * xi[:, None], atol=1e-14)

    def test_single_censored_point_matches_double_loop(self):
        y = np.array([0.3, 0.7, 1.1, 1.6, 2.2])
        delta = np.array([1, 1, 0, 1, 1])
        x = np.column_stack([np.ones(5), np.array([0.2, -0.4, 1.3, 0.8, -1.1])])
        ss, _ = prepare(y, delta, x)
        beta = np.array([0.5, 1.5])
        alpha = np.zeros(5)
        ours = compute_psi(ss, beta, alpha)
        oracle = psi_double_loop(ss.base.y, ss.base.delta, ss.base.x, beta, alpha)
        assert np.max(np.abs(ours - oracle)) < 1e-12

    def test_random_instances_match_double_loop(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            sample = random_instance(rng, n=int(rng.integers(8, 35)))
            ss = sort_sample(sample)
            beta = rng.normal(size=sample.p)
            alpha = np.where(rng.random(sample.n) < 0.15, rng.normal(size=sample.n) * 4.0, 0.0)
            ours = compute_psi(ss, beta, alpha)
            oracle = psi_double_loop(ss.base.y, ss.base.delta, ss.base.x, beta, alpha)
            assert np.max(np.abs(ours - oracle)) < 1e-12

    def test_tied_instances_match_double_loop(self):
        rng = np.random.default_rng(50)
        for _ in range(12):
            sample = tied_instance(rng, n=int(rng.integers(10, 30)))
            ss = sort_sample(sample)
            beta = rng.normal(size=sample.p)
            alpha = np.where(rng.random(sample.n) < 0.15, rng.normal(size=sample.n) * 4.0, 0.0)
            ours = compute_psi(ss, beta, alpha)
            oracle = psi_double_loop(ss.base.y, ss.base.delta, ss.base.x, beta, alpha)
            assert np.max(np.abs(ours - oracle)) < 1e-12

    def test_floor_warning_fires_when_tail_degenerates(self, monkeypatch):
        ss, _ = prepare([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        warm, _ = prepare([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        compute_psi(warm, np.zeros(1))  # keeps the sample-only terms for the default floor
        # raise the floor so realistic denominators trip it
        monkeypatch.setattr(inference_mod, "DENOM_FLOOR", 0.9)
        for sample in (ss, warm):
            with pytest.warns(DegenerateTailWarning):
                compute_psi(sample, np.zeros(1))

    def test_no_warning_on_clean_data(self):
        rng = np.random.default_rng(44)
        sample = random_instance(rng, n=30)
        ss = sort_sample(sample)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error", DegenerateTailWarning)
            compute_psi(ss, np.zeros(sample.p))


class TestSandwichCi:
    def test_constant_design_collapses_to_mean_case(self):
        rng = np.random.default_rng(45)
        y = rng.normal(size=40)
        ss, kw = prepare(y, np.ones(40, dtype=int))
        fit = stute_fit(ss, kw)
        inf = sandwich_ci(ss, kw, fit)
        xi = ss.base.y - fit.beta[0]
        assert inf.std_errors[0] == pytest.approx(xi.std() / np.sqrt(40), rel=1e-12)

    def test_interval_width_uses_normal_quantile(self):
        rng = np.random.default_rng(46)
        sample = random_instance(rng, n=30)
        ss = sort_sample(sample)
        kw = km_weights(ss)
        inf = sandwich_ci(ss, kw, stute_fit(ss, kw), level=0.95)
        width = inf.ci_upper - inf.ci_lower
        assert np.allclose(width, 2.0 * Z_975 * inf.std_errors, atol=1e-12)

    def test_sigma_hat_is_symmetric_psd(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            sample = random_instance(rng)
            ss = sort_sample(sample)
            kw = km_weights(ss)
            inf = sandwich_ci(ss, kw, stute_fit(ss, kw))
            assert np.allclose(inf.sigma_hat, inf.sigma_hat.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(inf.sigma_hat)) >= -1e-10
            assert np.min(np.linalg.eigvalsh(inf.cov_beta)) >= -1e-10

    def test_centered_covariance_formula(self):
        rng = np.random.default_rng(48)
        x = np.column_stack([np.ones(25), rng.normal(size=25)])
        y = x @ np.array([1.0, 1.0]) + rng.normal(size=25)
        ss, kw = prepare(y, np.ones(25, dtype=int), x)
        fit = stute_fit(ss, kw)
        inf = sandwich_ci(ss, kw, fit)
        psi = compute_psi(ss, fit.beta)
        raw = psi.T @ psi / 25
        mean = psi.mean(axis=0)
        assert np.max(np.abs(inf.sigma_hat - (raw - np.outer(mean, mean)))) < 1e-12

    def test_two_step_residuals_vanish_on_flagged_rows(self):
        rng = np.random.default_rng(49)
        x = np.column_stack([np.ones(40), rng.normal(size=40)])
        y = x @ np.array([1.0, 1.0]) + rng.normal(size=40) * 0.2
        y[3] -= 30.0
        ss, kw = prepare(y, np.ones(40, dtype=int), x)
        pen = fit_penalized(ss, kw)
        two = fit_two_step(ss, kw, pen)
        assert two.outliers.size == 1
        alpha = two.alpha_w / kw.sqrt_w  # uncensored, so every weight is positive
        xi = ss.base.y - ss.base.x @ two.beta - alpha
        assert abs(xi[two.outliers[0]]) < 1e-10
        # the bread is the refit's own Gram matrix: unflagged rows only
        kept = np.delete(build_weighted_design(ss, kw).xw, two.outliers, axis=0)
        assert np.allclose(sandwich_ci(ss, kw, two).sigma_x_hat, kept.T @ kept, rtol=1e-12)

    def test_same_bits_first_or_third_and_on_a_fresh_sort(self):
        raw = generate_sample(DgpConfig(n=400, mu=2.0, seed=_cell_seed(3, 0, 1)))
        sample = SurvivalSample(y=np.round(raw.y, 1), delta=raw.delta, x=raw.x)
        ss = sort_sample(sample)
        kw = km_weights(ss)
        pen = fit_penalized(ss, kw)
        fits = [stute_fit(ss, kw), pen, fit_two_step(ss, kw, pen)]
        assert fits[2].outliers.size > 0  # all three breads differ

        def bits(inf):
            return [a.tobytes() for a in (inf.sigma_x_hat, inf.sigma_hat, inf.cov_beta,
                                          inf.ci_lower, inf.ci_upper)]

        forward = [bits(sandwich_ci(ss, kw, fit)) for fit in fits]
        ss_back = sort_sample(sample)
        kw_back = km_weights(ss_back)
        backward = [bits(sandwich_ci(ss_back, kw_back, fit)) for fit in fits[::-1]][::-1]
        alone = []
        for fit in fits:
            fresh = sort_sample(sample)
            alone.append(bits(sandwich_ci(fresh, km_weights(fresh), fit)))
        assert forward == backward == alone

    def test_stute_sandwich_is_pinned_to_the_bit_on_a_tied_sample(self):
        """n = 2000 with about 415 tie groups: enough rows that summing psi in
        another order would change the last bits."""
        raw = generate_sample(DgpConfig(n=2000, mu=2.0, seed=_cell_seed(11, 0, 0)))
        ss = sort_sample(SurvivalSample(y=np.round(raw.y, 2), delta=raw.delta, x=raw.x))
        kw = km_weights(ss)
        inf = sandwich_ci(ss, kw, stute_fit(ss, kw))
        got = {name: [float(v).hex() for v in np.ravel(getattr(inf, name))]
               for name in ("sigma_hat", "cov_beta", "ci_lower", "ci_upper")}
        assert got == {
            "sigma_hat": ["0x1.89f29551b41f2p+2", "0x1.40ee21be471b6p+2",
                          "0x1.40ee21be471b6p+2", "0x1.1f8c13a2d907fp+2"],
            "cov_beta": ["0x1.65f72df2bf4c6p-7", "-0x1.b04660fc6b5bcp-6",
                         "-0x1.b04660fc6b5bcp-6", "0x1.291b266a53576p-4"],
            "ci_lower": ["0x1.d1755ae3d8008p-1", "0x1.8335f8a8a0180p-4"],
            "ci_upper": ["0x1.519d41cba2840p+0", "0x1.2677da9f8d7e6p+0"],
        }

    def test_level_validation_and_fit_type(self):
        ss, kw = prepare([1.0, 2.0, 3.0], [1, 1, 1])
        fit = stute_fit(ss, kw)
        with pytest.raises(ValueError):
            sandwich_ci(ss, kw, fit, level=1.0)


def test_plugin_variance_calibrated_for_screened_fit():
    """On clean, lightly censored data the screened refit equals the baseline
    fit (nothing reaches the detection threshold), and the plug-in variance
    tracks the Monte Carlo variance of the estimate."""
    plugins, estimates = [], []
    for rep in range(300):
        cfg = DgpConfig(n=1000, mu=5.0, outlier_shift=0.0, seed=_cell_seed(7, 0, rep))
        ss = sort_sample(generate_sample(cfg))
        kw = km_weights(ss)
        fit = stute_fit(ss, kw)
        inf = sandwich_ci(ss, kw, fit)
        plugins.append(inf.cov_beta[1, 1])
        estimates.append(fit.beta[1])
        if rep < 10:
            pen = fit_penalized(ss, kw, PenalizedConfig())
            two = fit_two_step(ss, kw, pen)
            assert two.outliers.size == 0
            assert np.array_equal(two.beta, fit.beta)
    ratio = np.median(plugins) / np.var(estimates)
    assert 0.7 <= ratio <= 1.3
