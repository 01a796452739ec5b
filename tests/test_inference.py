import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustaft import (
    DgpConfig,
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
from robustaft.data import _adopt
from robustaft.inference import _tail_terms
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
            # the shifts as (rows, shifts) pairs, and a scalar shift broadcast to every row
            pair = compute_psi(ss, beta, (np.flatnonzero(alpha), alpha[alpha != 0.0]))
            assert pair.tobytes() == ours.tobytes()
            full = compute_psi(ss, beta, np.full(sample.n, 0.25))
            assert compute_psi(ss, beta, 0.25).tobytes() == full.tobytes()

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

    def test_heavy_ties_match_double_loop(self):
        """n = 200 in ten tie groups of 11 to 26 rows, each holding failures and
        censorings, with nonzero shifts: psi sums c over each group, and gamma2
        counts each group's censored rows."""
        rng = np.random.default_rng(51)
        n = 200
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.integers(0, 10, size=n).astype(float)
        ss = sort_sample(SurvivalSample(y=y, delta=(rng.random(n) < 0.6).astype(int), x=x))
        failures = np.add.reduceat(ss.base.delta, ss.first)
        assert ss.first.shape[0] == 10
        assert np.all((failures > 0) & (failures < np.diff(ss.first, append=n)))
        beta = rng.normal(size=2)
        alpha = np.where(rng.random(n) < 0.15, rng.normal(size=n) * 4.0, 0.0)
        ours = compute_psi(ss, beta, alpha)
        oracle = psi_double_loop(ss.base.y, ss.base.delta, ss.base.x, beta, alpha)
        assert np.max(np.abs(ours - oracle)) < 1e-12

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_every_used_tail_denominator_is_at_least_one_over_n(self, data):
        """The denominators psi divides by, 1 - G(Y-) on every row and 1 - H on
        every censored row below its replication's top group, are at least 1/n
        and stored unfloored; 1 - H is +inf exactly on each replication's top
        group, whose suffix sum is +0.0: heavy ties, all but one row censored,
        samples and blocks."""
        reps, n = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 40))

        def rows(values):
            return np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                               min_size=reps, max_size=reps)))

        # 1 to n + 1 distinct outcomes: heavy ties at the low end
        y = rows(st.integers(0, data.draw(st.integers(0, n)))).astype(float)
        if data.draw(st.booleans()):  # all but one row censored
            delta = np.zeros((reps, n), dtype=np.int64)
            delta[np.arange(reps), rows(st.integers(0, n - 1))[:, 0]] = 1
        else:
            delta = rows(st.integers(0, 1)).astype(np.int64)
        x = np.ones((reps, n, 1))
        if reps == 1:
            ss = sort_sample(SurvivalSample(y=y[0], delta=delta[0], x=x[0]))
        else:
            ss = sort_sample(_adopt(SurvivalSample, y=y, delta=delta, x=x))
        slot, _, denom_g, denom_h, _, _ = _tail_terms(ss)
        denom_h = denom_h.ravel()[slot]  # each group's 1 - H, read from its slot
        group = np.repeat(np.arange(ss.first.size), ss.stop - ss.first)
        censored = ss.base.delta.ravel() == 0
        top = ss.stop % n == 0  # each replication's top group
        bound = (1.0 - 1e-12) / n
        # 1 - G(Y-) on every row: G of the group below, 0 in a replication's lowest group
        g_left = np.where(ss.first % n == 0, 0.0, np.concatenate(([0.0], censoring_km(ss)[:-1])))
        surv_g = 1.0 - g_left[group]
        assert np.all(surv_g >= bound)
        # psi divides by it on uncensored rows; +inf on censored rows multiplies by delta
        assert np.array_equal(denom_g.ravel(), np.where(censored, np.inf, surv_g))
        assert np.all(denom_h[group[censored & ~top[group]]] >= bound)
        # 1 - H is 0 only on a replication's top group, where psi reads +inf
        assert np.array_equal(denom_h == np.inf, top)
        assert np.array_equal(denom_h[~top], (n - ss.stop[~top] % n) / n)
        assert np.isfinite(compute_psi(ss, np.zeros(1))).all()

    def test_a_failed_fit_does_not_warn(self):
        """A NaN beta (a fit that failed) gives NaN influence vectors, silently,
        as a sample fitted alone raises before psi."""
        ss, _ = prepare(np.arange(40.0), (np.arange(40) != 38).astype(int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = compute_psi(ss, np.full(1, np.nan))
        assert np.isnan(psi).all()

    def test_no_warning_on_clean_data(self):
        rng = np.random.default_rng(44)
        sample = random_instance(rng, n=30)
        ss = sort_sample(sample)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compute_psi(ss, np.zeros(sample.p))


    def test_an_untied_sample_keeps_no_row_index_and_never_gathers(self, monkeypatch):
        """Untied, psi's cached tail terms are four n-row float arrays, with no n-long
        integer array, and psi gathers nothing; tied, they hold one row count per
        slot, which add up to n."""
        raw = generate_sample(DgpConfig(n=20_000, mu=2.0, seed=3))
        ss = sort_sample(raw)
        assert ss.first.shape[0] == raw.n
        tracemalloc.start()
        try:
            tails = _tail_terms(ss)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(isinstance(a, np.ndarray) and a.dtype.kind in "iu" and a.size >= raw.n
                       for a in tails)
        assert held <= 4.5 * raw.n * 8
        beta = stute_fit(ss, km_weights(ss)).beta
        want = compute_psi(ss, beta)

        def refuse(*args, **kwargs):
            raise AssertionError("psi gathered on an untied sample")

        monkeypatch.setattr(np, "take", refuse)
        monkeypatch.setattr(np, "repeat", refuse)
        assert compute_psi(ss, beta).tobytes() == want.tobytes()
        monkeypatch.undo()

        tied = sort_sample(SurvivalSample(y=np.round(raw.y, 2), delta=raw.delta, x=raw.x))
        _, counts, _, denom_h, _, _ = _tail_terms(tied)
        assert counts.shape == denom_h.shape == tied.first.shape
        assert counts.sum() == raw.n and counts.dtype.kind == "i"


class TestSandwichCi:
    def test_penalized_sandwich_peaks_below_three_and_a_half_n_row_arrays(self):
        """With the tail terms and the bread already cached, the penalized fit's
        sandwich holds at most 2 (p, n) float arrays at its peak, on a tied n = 2e4
        sample: each n-row temporary is dropped once it is spent, the shift is
        unscaled on its nonzero rows only and the tied gathers are one n-row
        array at a time."""
        raw = generate_sample(DgpConfig(n=20_000, mu=2.0, seed=3))
        sample = SurvivalSample(y=np.round(raw.y, 2), delta=raw.delta, x=raw.x)
        ss = sort_sample(sample)
        kw = km_weights(ss)
        pen = fit_penalized(ss, kw)
        sandwich_ci(ss, kw, pen)
        tracemalloc.start()
        try:
            sandwich_ci(ss, kw, pen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * sample.p * sample.n * 8

    def test_a_whole_cell_peaks_below_sixteen_n_row_arrays(self):
        """From the sort through the three sandwiches, a tied n = 1e5 cell holds at
        most 16 n-row float arrays at its peak: the sorted sample (4), its
        permutation, the design (4), two fits' shifts, psi's cached tail terms and
        one sandwich's working set."""
        raw = generate_sample(DgpConfig(n=100_000, mu=2.0, seed=3))
        sample = SurvivalSample(y=np.round(raw.y, 2), delta=raw.delta, x=raw.x)
        tracemalloc.start()
        try:
            ss = sort_sample(sample)
            kw = km_weights(ss)
            pen = fit_penalized(ss, kw)
            for fit in (stute_fit(ss, kw), pen, fit_two_step(ss, kw, pen)):
                sandwich_ci(ss, kw, fit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ss.first.shape[0] < sample.n // 50  # tied: psi gathers its slots to rows
        assert peak <= 16 * sample.n * 8

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
        alpha = two.alpha_w / np.sqrt(kw.w)  # uncensored, so every weight is positive
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

    def test_the_two_step_bread_is_the_refits_inverse(self, monkeypatch):
        """After ``fit_two_step``, its sandwich makes no eigendecomposition and gives
        the same bits as on a fresh design; another set of rows still makes one."""
        raw = generate_sample(DgpConfig(n=400, mu=2.0, seed=_cell_seed(3, 0, 1)))
        sample = SurvivalSample(y=np.round(raw.y, 1), delta=raw.delta, x=raw.x)
        ss = sort_sample(sample)
        kw = km_weights(ss)
        two = fit_two_step(ss, kw, fit_penalized(ss, kw))
        assert two.outliers.size > 0
        fresh = sort_sample(sample)
        want = sandwich_ci(fresh, km_weights(fresh), two)

        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real(a))
        got = sandwich_ci(ss, kw, two)
        assert calls == []
        for name in ("sigma_x_hat", "sigma_hat", "cov_beta", "ci_lower", "ci_upper"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

        keep = two.alpha_w == 0.0
        keep[np.flatnonzero(keep)[0]] = False
        kw.inverse(keep)
        kw.inverse(keep.copy())
        assert calls == [(2, 2)]

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
            "sigma_hat": ["0x1.89f29551b41f0p+2", "0x1.40ee21be471b6p+2",
                          "0x1.40ee21be471b6p+2", "0x1.1f8c13a2d907fp+2"],
            "cov_beta": ["0x1.65f72df2bf4bdp-7", "-0x1.b04660fc6b5b4p-6",
                         "-0x1.b04660fc6b5b4p-6", "0x1.291b266a53573p-4"],
            "ci_lower": ["0x1.d1755ae3d800ap-1", "0x1.8335f8a8a0190p-4"],
            "ci_upper": ["0x1.519d41cba283fp+0", "0x1.2677da9f8d7e5p+0"],
        }

    def test_penalized_and_two_step_sandwiches_are_pinned_to_the_bit_on_a_tied_sample(self):
        """The Stute pin's tied sample: 104 clamped rows and 12 flagged ones, so both
        breads are Grams of kept rows and psi's residuals carry nonzero shifts."""
        raw = generate_sample(DgpConfig(n=2000, mu=2.0, seed=_cell_seed(11, 0, 0)))
        ss = sort_sample(SurvivalSample(y=np.round(raw.y, 2), delta=raw.delta, x=raw.x))
        kw = km_weights(ss)
        pen = fit_penalized(ss, kw)
        two = fit_two_step(ss, kw, pen)
        assert (np.count_nonzero(pen.alpha_w), two.outliers.size) == (104, 12)
        got = [{name: [float(v).hex() for v in np.ravel(getattr(sandwich_ci(ss, kw, fit), name))]
                for name in ("sigma_hat", "cov_beta", "ci_lower", "ci_upper")} for fit in (pen, two)]
        assert got == [
            {
                "sigma_hat": ["0x1.946c55f635c83p-1", "0x1.a65bc902adf8fp-2",
                              "0x1.a65bc902adf8fp-2", "0x1.3f8b29e0b139ep-2"],
                "cov_beta": ["0x1.aaf815df254a6p-9", "-0x1.6b0caa6db22a8p-8",
                             "-0x1.6b0caa6db22a8p-8", "0x1.7967dbf7a340ep-7"],
                "ci_lower": ["0x1.89dc809ecd4c3p-1", "0x1.96af5cbf622a0p-1"],
                "ci_upper": ["0x1.fc690bd55a35bp-1", "0x1.3709b6af2b7bcp+0"],
            },
            {
                "sigma_hat": ["0x1.92d0928453022p+0", "0x1.9aee77fff361cp-1",
                              "0x1.9aee77fff361cp-1", "0x1.2fe8e3d9dd71dp-1"],
                "cov_beta": ["0x1.3986a9c7b2251p-8", "-0x1.fa322235eb394p-8",
                             "-0x1.fa322235eb394p-8", "0x1.edb5517a93594p-7"],
                "ci_lower": ["0x1.8bbef96064ac1p-1", "0x1.d3cdff5889e3cp-1"],
                "ci_upper": ["0x1.0b48277b506d7p+0", "0x1.651436badc730p+0"],
            },
        ]

    def test_stute_sandwich_is_pinned_to_the_bit_on_an_untied_sample(self):
        """The tied test's draw, unrounded: every tie group is one row, so psi's
        group sums are its summands and each prefix sum adds one row at a time."""
        raw = generate_sample(DgpConfig(n=2000, mu=2.0, seed=_cell_seed(11, 0, 0)))
        ss = sort_sample(raw)
        assert ss.first.shape[0] == raw.n
        kw = km_weights(ss)
        inf = sandwich_ci(ss, kw, stute_fit(ss, kw))
        got = {name: [float(v).hex() for v in np.ravel(getattr(inf, name))]
               for name in ("sigma_hat", "cov_beta", "ci_lower", "ci_upper")}
        assert got == {
            "sigma_hat": ["0x1.87362ac879c62p+2", "0x1.3edc9209eb989p+2",
                          "0x1.3edc9209eb989p+2", "0x1.1dd3fa66553d7p+2"],
            "cov_beta": ["0x1.63ec15eadd633p-7", "-0x1.ae14fee714adcp-6",
                         "-0x1.ae14fee714adcp-6", "0x1.27aa483eaed26p-4"],
            "ci_lower": ["0x1.d1aed3fd9708cp-1", "0x1.7c7bec0158728p-4"],
            "ci_upper": ["0x1.516d3ff007964p+0", "0x1.25643fa349d58p+0"],
        }

    def test_penalized_and_two_step_sandwiches_are_pinned_to_the_bit_on_an_untied_sample(self):
        """The untied Stute pin's sample: psi's residuals carry the shifts of 104 clamped
        and 12 flagged rows, and every tie group is one row."""
        raw = generate_sample(DgpConfig(n=2000, mu=2.0, seed=_cell_seed(11, 0, 0)))
        ss = sort_sample(raw)
        kw = km_weights(ss)
        pen = fit_penalized(ss, kw)
        two = fit_two_step(ss, kw, pen)
        assert (np.count_nonzero(pen.alpha_w), two.outliers.size) == (104, 12)
        got = [{name: [float(v).hex() for v in np.ravel(getattr(sandwich_ci(ss, kw, fit), name))]
                for name in ("sigma_hat", "cov_beta", "ci_lower", "ci_upper")} for fit in (pen, two)]
        assert got == [
            {
                "sigma_hat": ["0x1.9439ef701f41fp-1", "0x1.a5f6685c47cbap-2",
                              "0x1.a5f6685c47cbap-2", "0x1.3f29316b80332p-2"],
                "cov_beta": ["0x1.a9f3a41ce61d1p-9", "-0x1.6a1473d37c916p-8",
                             "-0x1.6a1473d37c916p-8", "0x1.784b3d3b91af7p-7"],
                "ci_lower": ["0x1.8a0b04bb1fb3bp-1", "0x1.963a62edaddffp-1"],
                "ci_upper": ["0x1.fc749adb4db47p-1", "0x1.36a696274e725p+0"],
            },
            {
                "sigma_hat": ["0x1.8fc03365de1bap+0", "0x1.97e5ebe23a01dp-1",
                              "0x1.97e5ebe23a01dp-1", "0x1.2dbede264e861p-1"],
                "cov_beta": ["0x1.36e04aab99f4ep-8", "-0x1.f61a8a7fedc4cp-8",
                             "-0x1.f61a8a7fedc4cp-8", "0x1.e9f3780541372p-7"],
                "ci_lower": ["0x1.8be335ba6a95dp-1", "0x1.d3504f72c3253p-1"],
                "ci_upper": ["0x1.0b0f05f8287bap+0", "0x1.645d2763bdde2p+0"],
            },
        ]

    def test_a_tied_and_an_untied_sample_in_one_block_match_each_fitted_alone(self):
        """The tied replication has fewer tie groups than the untied one, so its
        slot tables are zero-padded; each replication's sandwich has the bits of
        its sample fitted alone, for all three fits."""
        raw = [generate_sample(DgpConfig(n=400, mu=2.0, seed=_cell_seed(5, 0, r))) for r in range(2)]
        samples = [SurvivalSample(y=np.round(raw[0].y, 1), delta=raw[0].delta, x=raw[0].x), raw[1]]

        def sandwiches(sample):
            ss = sort_sample(sample)
            kw = km_weights(ss)
            pen = fit_penalized(ss, kw)
            return ss, [sandwich_ci(ss, kw, fit) for fit in (stute_fit(ss, kw), pen,
                                                             fit_two_step(ss, kw, pen))]

        y, delta, x = (np.stack([getattr(s, k) for s in samples]) for k in ("y", "delta", "x"))
        ss, block = sandwiches(_adopt(SurvivalSample, y=y, delta=delta, x=x))
        groups = np.bincount(ss.first // 400)
        assert groups[0] < groups[1] == 400
        for r, sample in enumerate(samples):
            for together, alone in zip(block, sandwiches(sample)[1]):
                for name in ("sigma_hat", "cov_beta", "ci_lower", "ci_upper"):
                    assert getattr(together, name)[r].tobytes() == getattr(alone, name).tobytes()

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
        cfg = DgpConfig(n=1000, mu=5.0, outlier_cutoff=1.0, seed=_cell_seed(7, 0, rep))
        ss = sort_sample(generate_sample(cfg))
        kw = km_weights(ss)
        fit = stute_fit(ss, kw)
        inf = sandwich_ci(ss, kw, fit)
        plugins.append(inf.cov_beta[1, 1])
        estimates.append(fit.beta[1])
        if rep < 10:
            pen = fit_penalized(ss, kw)
            two = fit_two_step(ss, kw, pen)
            assert two.outliers.size == 0
            assert np.array_equal(two.beta, fit.beta)
    ratio = np.median(plugins) / np.var(estimates)
    assert 0.7 <= ratio <= 1.3


@pytest.mark.parametrize("gamma", [
    0.0,
    pytest.param(1.0, marks=pytest.mark.xfail(reason=(
        "censoring that depends on x breaks Stute's condition "
        "P(T <= C | X, T) = P(T <= C | T): the slope is biased by about +0.2"))),
])
def test_intervals_need_censoring_independent_of_x(gamma):
    """Clean data with censoring C ~ N(3 + gamma (x2 - 1/2), 1), 100 replications
    at n = 2000 in one block: the Stute and two-step slopes are unbiased and
    their 95% intervals cover only when gamma = 0."""
    rng = np.random.default_rng(8)
    reps, n = 100, 2000
    x2 = rng.random((reps, n))
    t = 1.0 + x2 + rng.standard_normal((reps, n))
    c = 3.0 + gamma * (x2 - 0.5) + rng.standard_normal((reps, n))
    x = np.stack([np.ones_like(x2), x2], axis=-1)
    ss = sort_sample(_adopt(SurvivalSample, y=np.minimum(t, c), delta=(t <= c).astype(np.int64), x=x))
    kw = km_weights(ss)
    for fit in (stute_fit(ss, kw), fit_two_step(ss, kw, fit_penalized(ss, kw))):
        inf = sandwich_ci(ss, kw, fit)
        covered = (inf.ci_lower[:, 1] <= 1.0) & (1.0 <= inf.ci_upper[:, 1])
        assert abs(fit.beta[:, 1].mean() - 1.0) < 0.06
        assert covered.mean() >= 0.85
