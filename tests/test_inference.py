import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustaft import (
    DgpConfig,
    SurvivalSample,
    fit_penalized,
    fit_two_step,
    generate_sample,
    km_weights,
    sandwich_ci,
    sort_sample,
    stute_fit,
)
from robustaft.data import _adopt
from robustaft.inference import _tail_terms, censoring_km, compute_psi
from robustaft.simulation import _cell_seed, _draw
from robustaft.wls import build_weighted_design
from oracles import psi_double_loop, random_instance, shift_pair

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

    def test_stute_weights_are_delta_over_n_times_the_censoring_survival(self):
        """n w_(i) = delta_(i) / (1 - G(Y_(i)-)), with G(Y-) the censoring KM at the tie
        group below row i's (0 in a replication's lowest group): within 1e-11 relative
        on uncensored rows, and 0 on both sides on censored ones, on an untied and a
        tied n = 1e5 sample and on a tied block."""
        raw = generate_sample(DgpConfig(n=100_000, mu=2.0, seed=3))
        tied = SurvivalSample(y=np.round(raw.y, 2), delta=raw.delta, x=raw.x)
        draws = _draw(DgpConfig(n=500, mu=2.0), [_cell_seed(6, 0, r) for r in range(4)])
        block = _adopt(SurvivalSample, y=np.round(draws.y, 1), delta=draws.delta, x=draws.x)
        for sample in (raw, tied, block):
            ss = sort_sample(sample)
            n, delta = ss.base.n, ss.base.delta
            first, stop = ss.bounds[:-1], ss.bounds[1:]
            g_below = np.where(first % n == 0, 0.0, np.concatenate(([0.0], censoring_km(ss)[:-1])))
            surv_g = np.repeat(1.0 - g_below, stop - first).reshape(delta.shape)
            lhs, rhs = n * km_weights(ss).w, delta / surv_g
            assert not lhs[delta == 0].any() and not rhs[delta == 0].any()
            assert np.max(np.abs(lhs - rhs)[delta == 1] / rhs[delta == 1]) <= 1e-11

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
        ss, kw = prepare(y, np.ones(20, dtype=int), x)
        beta = np.array([0.9, 2.1])
        psi = compute_psi(ss, kw, beta)
        xi = ss.base.y - ss.base.x @ beta
        assert np.allclose(psi, ss.base.x * xi[:, None], atol=1e-14)

    def test_single_censored_point_matches_double_loop(self):
        y = np.array([0.3, 0.7, 1.1, 1.6, 2.2])
        delta = np.array([1, 1, 0, 1, 1])
        x = np.column_stack([np.ones(5), np.array([0.2, -0.4, 1.3, 0.8, -1.1])])
        ss, kw = prepare(y, delta, x)
        beta = np.array([0.5, 1.5])
        alpha = np.zeros(5)
        ours = compute_psi(ss, kw, beta, shift_pair(alpha, kw))
        oracle = psi_double_loop(ss.base.y, ss.base.delta, ss.base.x, beta, alpha)
        assert np.max(np.abs(ours - oracle)) < 1e-12

    def test_random_instances_match_double_loop(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            sample = random_instance(rng, n=int(rng.integers(8, 35)))
            ss = sort_sample(sample)
            kw = km_weights(ss)
            beta = rng.normal(size=sample.p)
            alpha = np.where(rng.random(sample.n) < 0.15, rng.normal(size=sample.n) * 4.0, 0.0)
            ours = compute_psi(ss, kw, beta, shift_pair(alpha, kw))
            oracle = psi_double_loop(ss.base.y, ss.base.delta, ss.base.x, beta, alpha)
            assert np.max(np.abs(ours - oracle)) < 1e-12
            # every row listed, most with a zero shift, gives the same bits
            dense = np.sqrt(kw.w) * alpha
            every = compute_psi(ss, kw, beta, (np.arange(sample.n), dense))
            assert every.tobytes() == ours.tobytes()

    def test_a_dense_shift_array_raises_instead_of_being_read_as_offsets(self):
        """A dense array is refused whatever its length, even on a two-row sample,
        where it unpacks to a float row and a shift."""
        ss = sort_sample(random_instance(np.random.default_rng(44), n=20))
        alpha = np.zeros(20)
        alpha[3] = 4.0
        with pytest.raises(ValueError):
            compute_psi(ss, km_weights(ss), np.zeros(ss.base.p), alpha)
        two, kw = prepare([1.0, 2.0], [1, 1])
        with pytest.raises(IndexError):
            compute_psi(two, kw, np.zeros(1), np.array([0.0, 1.0]))

    def test_tied_instances_match_double_loop(self):
        rng = np.random.default_rng(50)
        for _ in range(12):
            sample = tied_instance(rng, n=int(rng.integers(10, 30)))
            ss = sort_sample(sample)
            kw = km_weights(ss)
            beta = rng.normal(size=sample.p)
            alpha = np.where(rng.random(sample.n) < 0.15, rng.normal(size=sample.n) * 4.0, 0.0)
            ours = compute_psi(ss, kw, beta, shift_pair(alpha, kw))
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
        failures = np.add.reduceat(ss.base.delta, ss.bounds[:-1])
        assert ss.bounds.size == 10 + 1
        assert np.all((failures > 0) & (failures < np.diff(ss.bounds)))
        beta = rng.normal(size=2)
        alpha = np.where(rng.random(n) < 0.15, rng.normal(size=n) * 4.0, 0.0)
        kw = km_weights(ss)
        ours = compute_psi(ss, kw, beta, shift_pair(alpha, kw))
        oracle = psi_double_loop(ss.base.y, ss.base.delta, ss.base.x, beta, alpha)
        assert np.max(np.abs(ours - oracle)) < 1e-12

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_every_used_tail_denominator_is_at_least_one_over_n(self, data):
        """The denominators the weights and psi divide by, 1 - G(Y-) on every row
        and 1 - H on every censored row below its replication's top group, are at
        least 1/n and stored unfloored; 1 - H is +inf exactly on each replication's
        top group, whose suffix sum is +0.0: heavy ties, all but one row censored,
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
        slot, denom_h, _, _ = _tail_terms(ss)
        denom_h = denom_h.ravel()[slot]  # each group's 1 - H, read from its slot
        first, stop = ss.bounds[:-1], ss.bounds[1:]
        group = np.repeat(np.arange(first.size), stop - first)
        censored = ss.base.delta.ravel() == 0
        top = stop % n == 0  # each replication's top group
        bound = (1.0 - 1e-12) / n
        # 1 - G(Y-) on every row: G of the group below, 0 in a replication's lowest group
        g_left = np.where(first % n == 0, 0.0, np.concatenate(([0.0], censoring_km(ss)[:-1])))
        surv_g = 1.0 - g_left[group]
        assert np.all(surv_g >= bound)
        kw = km_weights(ss)  # divides delta by n (1 - G(Y-)), at least 1
        assert np.isfinite(kw.w).all() and np.array_equal(kw.w.ravel() == 0.0, censored)
        assert np.all(denom_h[group[censored & ~top[group]]] >= bound)
        # 1 - H is 0 only on a replication's top group, where psi reads +inf
        assert np.array_equal(denom_h == np.inf, top)
        assert np.array_equal(denom_h[~top], (n - stop[~top] % n) / n)
        assert np.isfinite(compute_psi(ss, kw, np.zeros(1))).all()

    def test_a_failed_fit_does_not_warn(self):
        """A NaN beta (a fit that failed) gives NaN influence vectors, silently,
        as a sample fitted alone raises before psi."""
        ss, kw = prepare(np.arange(40.0), (np.arange(40) != 38).astype(int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = compute_psi(ss, kw, np.full(1, np.nan))
        assert np.isnan(psi).all()

    def test_no_warning_on_clean_data(self):
        rng = np.random.default_rng(44)
        sample = random_instance(rng, n=30)
        ss = sort_sample(sample)
        kw = km_weights(ss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compute_psi(ss, kw, np.zeros(sample.p))


    def test_an_untied_sample_keeps_no_row_index_and_never_gathers(self, monkeypatch):
        """Untied, psi's cached tail terms are two n-row float arrays and the one-byte
        censored mask, with no n-long integer array, and psi gathers nothing; tied, they
        hold one slot per tie group, whose row counts, read from ``bounds``, add up to n."""
        raw = generate_sample(DgpConfig(n=20_000, mu=2.0, seed=3))
        ss = sort_sample(raw)
        assert ss.bounds.size == raw.n + 1
        tracemalloc.start()
        try:
            tails = _tail_terms(ss)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(isinstance(a, np.ndarray) and a.dtype.kind in "iu" and a.size >= raw.n
                       for a in tails)
        assert held <= 2.25 * raw.n * 8
        kw = km_weights(ss)
        beta = stute_fit(ss, kw).beta
        want = compute_psi(ss, kw, beta)

        def refuse(*args, **kwargs):
            raise AssertionError("psi gathered on an untied sample")

        monkeypatch.setattr(np, "take", refuse)
        monkeypatch.setattr(np, "repeat", refuse)
        assert compute_psi(ss, kw, beta).tobytes() == want.tobytes()
        monkeypatch.undo()

        tied = sort_sample(SurvivalSample(y=np.round(raw.y, 2), delta=raw.delta, x=raw.x))
        slot, denom_h, _, _ = _tail_terms(tied)
        counts = np.diff(tied.bounds)  # each group's rows, which fill its slot
        assert counts.shape == slot.shape == denom_h.shape
        assert counts.sum() == raw.n and counts.dtype.kind == "i"


class TestSandwichCi:
    def test_penalized_sandwich_peaks_below_three_and_a_half_n_row_arrays(self):
        """With the tail terms and the bread already cached, the penalized fit's
        sandwich holds at most 2 (p, n) float arrays at its peak, on a tied n = 2e4
        sample: each n-row temporary is dropped once it is spent, the shifts are
        read on their nonzero rows only and the tied gathers are one n-row
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

    def test_a_whole_cell_peaks_below_fourteen_and_a_quarter_n_row_arrays(self):
        """From the sort through the three sandwiches, a tied n = 1e5 cell holds at
        most 14.25 n-row float arrays at its peak: the sorted sample (y, a one-byte
        delta, x and the permutation: 4.1), the design (4), two fits' shifts,
        psi's cached censored mask (0.1) and psi's (p, n) buffer, in whose last row
        the weighted residual is built, with the tied gathers a fraction of a row;
        the sandwich's shifted rows are offsets, not an n-row mask."""
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
        assert ss.bounds.size - 1 < sample.n // 50  # tied: psi gathers its slots to rows
        assert peak <= 14.25 * sample.n * 8

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
        psi = compute_psi(ss, kw, fit.beta)
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
        kw.inverse(np.flatnonzero(~keep))
        kw.inverse(np.flatnonzero(~keep))
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
            "sigma_hat": ["0x1.89f29551b41efp+2", "0x1.40ee21be471b4p+2",
                          "0x1.40ee21be471b4p+2", "0x1.1f8c13a2d907dp+2"],
            "cov_beta": ["0x1.65f72df2bf48cp-7", "-0x1.b04660fc6b584p-6",
                         "-0x1.b04660fc6b584p-6", "0x1.291b266a5355bp-4"],
            "ci_lower": ["0x1.d1755ae3d7ff9p-1", "0x1.8335f8a8a0318p-4"],
            "ci_upper": ["0x1.519d41cba2830p+0", "0x1.2677da9f8d7f2p+0"],
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
                "sigma_hat": ["0x1.946c55f635c8dp-1", "0x1.a65bc902adf9ep-2",
                              "0x1.a65bc902adf9ep-2", "0x1.3f8b29e0b13aap-2"],
                "cov_beta": ["0x1.aaf815df2548cp-9", "-0x1.6b0caa6db2297p-8",
                             "-0x1.6b0caa6db2297p-8", "0x1.7967dbf7a3405p-7"],
                "ci_lower": ["0x1.89dc809ecd4a2p-1", "0x1.96af5cbf622dfp-1"],
                "ci_upper": ["0x1.fc690bd55a338p-1", "0x1.3709b6af2b7dap+0"],
            },
            {
                "sigma_hat": ["0x1.92d0928453025p+0", "0x1.9aee77fff361fp-1",
                              "0x1.9aee77fff361fp-1", "0x1.2fe8e3d9dd71dp-1"],
                "cov_beta": ["0x1.3986a9c7b2205p-8", "-0x1.fa322235eb317p-8",
                             "-0x1.fa322235eb317p-8", "0x1.edb5517a93527p-7"],
                "ci_lower": ["0x1.8bbef96064aa6p-1", "0x1.d3cdff5889e76p-1"],
                "ci_upper": ["0x1.0b48277b506c1p+0", "0x1.651436badc73fp+0"],
            },
        ]

    def test_stute_sandwich_is_pinned_to_the_bit_on_an_untied_sample(self):
        """The tied test's draw, unrounded: every tie group is one row, so psi's
        group sums are its summands and each prefix sum adds one row at a time."""
        raw = generate_sample(DgpConfig(n=2000, mu=2.0, seed=_cell_seed(11, 0, 0)))
        ss = sort_sample(raw)
        assert ss.bounds.size == raw.n + 1
        kw = km_weights(ss)
        inf = sandwich_ci(ss, kw, stute_fit(ss, kw))
        got = {name: [float(v).hex() for v in np.ravel(getattr(inf, name))]
               for name in ("sigma_hat", "cov_beta", "ci_lower", "ci_upper")}
        assert got == {
            "sigma_hat": ["0x1.87362ac879c5ap+2", "0x1.3edc9209eb982p+2",
                          "0x1.3edc9209eb982p+2", "0x1.1dd3fa66553d0p+2"],
            "cov_beta": ["0x1.63ec15eadd5cap-7", "-0x1.ae14fee714a63p-6",
                         "-0x1.ae14fee714a63p-6", "0x1.27aa483eaece0p-4"],
            "ci_lower": ["0x1.d1aed3fd970a8p-1", "0x1.7c7bec0158928p-4"],
            "ci_upper": ["0x1.516d3ff007962p+0", "0x1.25643fa349d58p+0"],
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
                "sigma_hat": ["0x1.9439ef701f41fp-1", "0x1.a5f6685c47cc4p-2",
                              "0x1.a5f6685c47cc4p-2", "0x1.3f29316b80338p-2"],
                "cov_beta": ["0x1.a9f3a41ce6191p-9", "-0x1.6a1473d37c8ddp-8",
                             "-0x1.6a1473d37c8ddp-8", "0x1.784b3d3b91abbp-7"],
                "ci_lower": ["0x1.8a0b04bb1fb73p-1", "0x1.963a62edaddc4p-1"],
                "ci_upper": ["0x1.fc749adb4db75p-1", "0x1.36a696274e6fep+0"],
            },
            {
                "sigma_hat": ["0x1.8fc03365de1bbp+0", "0x1.97e5ebe23a01fp-1",
                              "0x1.97e5ebe23a01fp-1", "0x1.2dbede264e863p-1"],
                "cov_beta": ["0x1.36e04aab99f1fp-8", "-0x1.f61a8a7fedbfcp-8",
                             "-0x1.f61a8a7fedbfcp-8", "0x1.e9f3780541325p-7"],
                "ci_lower": ["0x1.8be335ba6a972p-1", "0x1.d3504f72c323fp-1"],
                "ci_upper": ["0x1.0b0f05f8287bfp+0", "0x1.645d2763bddcep+0"],
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
        groups = np.bincount(ss.bounds[:-1] // 400)
        assert groups[0] < groups[1] == 400
        for r, sample in enumerate(samples):
            for together, alone in zip(block, sandwiches(sample)[1]):
                for name in ("sigma_hat", "cov_beta", "ci_lower", "ci_upper"):
                    assert getattr(together, name)[r].tobytes() == getattr(alone, name).tobytes()

    def test_an_int64_delta_gives_the_bits_of_its_int8_twin(self):
        """A sample adopted with an int64 delta and its int8 twin give the same
        sorted samples, designs, three fits and three sandwiches, to the bit, as one
        tied sample and as a block with an untied one: every kernel reads delta
        through ==, division, mean or the sort key's -=, whatever its width."""
        raw = [generate_sample(DgpConfig(n=300, mu=2.0, seed=_cell_seed(6, 0, r)))
               for r in range(2)]
        y = np.stack([np.round(raw[0].y, 1), raw[1].y])
        x = np.stack([s.x for s in raw])
        delta = np.stack([s.delta for s in raw])
        assert delta.dtype == np.int8

        def pipeline(sample):
            """Each field of the pipeline's records but the sorted sample's base (whose
            own fields come first) and the values kept on first use, by name."""
            ss = sort_sample(sample)
            kw = km_weights(ss)
            pen = fit_penalized(ss, kw)
            fits = (stute_fit(ss, kw), pen, fit_two_step(ss, kw, pen))
            records = [ss.base, ss, kw, *fits, *(sandwich_ci(ss, kw, fit) for fit in fits)]
            return [(name, np.asarray(value)) for record in records
                    for name, value in vars(record).items()
                    if isinstance(name, str) and name != "base"]

        for one_y, one_delta, one_x in ((y[0], delta[0], x[0]), (y, delta, x)):
            wide, narrow = (
                pipeline(_adopt(SurvivalSample, y=one_y, delta=one_delta.astype(dtype), x=one_x))
                for dtype in (np.int64, np.int8)
            )
            assert [name for name, _ in wide] == [name for name, _ in narrow]
            assert len(wide) == 3 + 2 + 4 + 3 * 6 + 3 * 7
            for (name, a), (_, b) in zip(wide, narrow):
                if name == "delta":
                    assert (a.dtype, b.dtype) == (np.int64, np.int8) and np.array_equal(a, b)
                else:
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

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
