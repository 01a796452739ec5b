from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustaft import (
    DgpConfig,
    SurvivalSample,
    fit_penalized,
    generate_sample,
    km_weights,
    sort_sample,
    stute_fit,
)
import robustaft.penalized as penalized
from robustaft.penalized import soft_threshold_step
from robustaft.simulation import _cell_seed, _draw
from robustaft.wls import build_weighted_design, wls_solve
from oracles import l1_shift_objective_min, random_instance


def prepare(sample):
    ss = sort_sample(sample)
    return ss, km_weights(ss)


class TestSoftThreshold:
    def test_zero_maps_to_zero(self):
        assert soft_threshold_step(np.array([0.0]), 1.0)[0] == 0.0

    def test_boundary_is_inclusive(self):
        lam = 0.8
        out = soft_threshold_step(np.array([lam / 2, -lam / 2]), lam)
        assert np.array_equal(out, [0.0, 0.0])

    def test_shrinks_by_half_lambda(self):
        lam = 0.4
        out = soft_threshold_step(np.array([-3.0 * lam]), lam)
        assert out[0] == pytest.approx(-3.0 * lam + lam / 2, abs=1e-15)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            soft_threshold_step(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, [0.5, np.nan, 0.5]])
    def test_rejects_a_level_that_is_not_finite(self, lam):
        """A NaN level would give all-NaN shifts and an infinite one all zeros."""
        with pytest.raises(ValueError, match="positive and finite"):
            soft_threshold_step(np.ones((3, 4)), lam)

    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=20),
        st.floats(1e-6, 10.0),
    )
    def test_is_the_coordinatewise_minimizer(self, values, lam):
        r = np.array(values)
        v = soft_threshold_step(r, lam)
        assert np.allclose(np.abs(v), np.maximum(np.abs(r) - lam / 2, 0.0), atol=1e-12)
        obj = (r - v) ** 2 + lam * np.abs(v)
        assert np.all(obj <= (r - r) ** 2 + lam * np.abs(r) + 1e-9)
        assert np.all(obj <= r**2 + 1e-9)


class TestFitPenalized:
    def test_huge_lambda_collapses_to_baseline(self):
        rng = np.random.default_rng(21)
        sample = random_instance(rng, n=40, p=2)
        ss, kw = prepare(sample)
        fit = fit_penalized(ss, kw, lam=1e16)
        assert np.all(fit.alpha_w == 0.0)
        assert np.allclose(fit.beta, stute_fit(ss, kw).beta, atol=1e-10)

    def test_exact_linear_data_has_no_shifts(self):
        rng = np.random.default_rng(22)
        x = np.column_stack([np.ones(25), rng.normal(size=25)])
        beta = np.array([1.0, -2.0])
        sample = SurvivalSample(y=x @ beta, delta=np.ones(25, dtype=int), x=x)
        ss, kw = prepare(sample)
        fit = fit_penalized(ss, kw)
        assert np.allclose(fit.beta, beta, atol=1e-10)
        assert np.all(fit.alpha_w == 0.0)

    def test_objective_matches_proximal_oracle(self, monkeypatch):
        monkeypatch.setattr(penalized, "CYCLES", 2000)
        rng = np.random.default_rng(23)
        sample = random_instance(rng, n=30, p=1, censored=False)
        ss, kw = prepare(sample)
        fit = fit_penalized(ss, kw)
        d = build_weighted_design(ss, kw)
        oracle = l1_shift_objective_min(d.xw, d.yw, fit.lam)
        assert fit.objective_trace[-1] == pytest.approx(oracle, rel=1e-6)

    def test_trace_is_nonincreasing(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            ss, kw = prepare(random_instance(rng))
            fit = fit_penalized(ss, kw)
            assert np.all(np.diff(fit.objective_trace) <= 1e-10)

    def test_kkt_certificate_at_convergence(self, monkeypatch):
        monkeypatch.setattr(penalized, "CYCLES", 1000)
        rng = np.random.default_rng(25)
        for _ in range(10):
            ss, kw = prepare(random_instance(rng))
            fit = fit_penalized(ss, kw)
            d = build_weighted_design(ss, kw)
            resid = d.yw - d.xw @ fit.beta - fit.alpha_w
            active = fit.alpha_w != 0.0
            if active.any():
                assert np.max(np.abs(2.0 * np.abs(resid[active]) - fit.lam)) < 1e-6
            if (~active).any():
                assert np.max(2.0 * np.abs(resid[~active])) <= fit.lam + 1e-6

    def test_zero_weight_coordinates_stay_zero(self):
        rng = np.random.default_rng(26)
        x = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = x @ np.array([1.0, 1.0]) + rng.normal(size=30)
        delta = np.ones(30, dtype=int)
        delta[rng.choice(30, size=8, replace=False)] = 0
        ss, kw = prepare(SurvivalSample(y=y, delta=delta, x=x))
        fit = fit_penalized(ss, kw, lam=1e-6)
        zero_w = kw.w == 0.0
        assert np.all(fit.alpha_w[zero_w] == 0.0)

    def test_reported_pair_satisfies_normal_equations(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            ss, kw = prepare(random_instance(rng))
            fit = fit_penalized(ss, kw)  # default 10 cycles, no tolerance
            d = build_weighted_design(ss, kw)
            refit = wls_solve(d, d.yw - fit.alpha_w)
            assert np.max(np.abs(fit.beta - refit)) < 1e-10

    def test_lambda_comes_from_rule_by_default(self):
        rng = np.random.default_rng(29)
        ss, kw = prepare(random_instance(rng, n=35, p=2))
        fit = fit_penalized(ss, kw)
        assert fit.lam == pytest.approx(35.0 ** (1e-4 - kw.pi_uc_hat / 2.0), rel=1e-14)

    def test_config_defaults_and_validation(self):
        """10 cycles, and an explicit level is checked by ``soft_threshold_step``."""
        ss, kw = prepare(random_instance(np.random.default_rng(28), n=30, p=2))
        fit = fit_penalized(ss, kw)
        assert penalized.CYCLES == fit.iterations == 10
        assert fit.objective_trace.shape == (11,)
        for lam in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam must be positive and finite"):
                fit_penalized(ss, kw, lam)

    def test_a_block_fits_each_replication_as_alone_and_traces_their_total(self):
        cfg = DgpConfig(n=200, mu=2.0)
        seeds = [_cell_seed(5, 0, j) for j in range(4)]
        block = fit_penalized(*prepare(_draw(cfg, seeds)))
        alone = [fit_penalized(*prepare(generate_sample(replace(cfg, seed=s)))) for s in seeds]
        for r, fit in enumerate(alone):
            assert np.array_equal(block.beta[r], fit.beta)
            assert np.array_equal(block.alpha_w[r], fit.alpha_w)
            assert block.lam[r] == fit.lam
        assert block.objective_trace.shape == (block.iterations + 1,)
        total = np.sum([fit.objective_trace for fit in alone], axis=0)
        assert np.allclose(block.objective_trace, total, rtol=1e-12, atol=0.0)
        assert np.all(np.diff(block.objective_trace) <= 1e-10)

    def test_objective_trace_is_pinned_to_the_bit(self):
        """Each entry sums n squared residuals and n shifts, so computing either in
        another order would change the last bits."""
        raw = generate_sample(DgpConfig(n=2000, mu=2.0, seed=_cell_seed(11, 0, 0)))
        fit = fit_penalized(*prepare(raw))
        assert [float(v).hex() for v in fit.objective_trace] == [
            "0x1.3e9abeebb90efp+0", "0x1.3bdae400d0820p+0", "0x1.3bc9a61b3ead1p+0",
            "0x1.3bc8f8ade79eap+0", "0x1.3bc8ef626d216p+0", "0x1.3bc8eed41194cp+0",
            "0x1.3bc8eecb44be0p+0", "0x1.3bc8eecab84a4p+0", "0x1.3bc8eecaaf83dp+0",
            "0x1.3bc8eecaaef76p+0", "0x1.3bc8eecaaef06p+0",
        ]

    def test_a_block_design_and_its_levels_are_read_only(self):
        """A write to a block's uncensored fractions or levels would move later fits."""
        block = _draw(DgpConfig(n=200, mu=2.0), [_cell_seed(5, 0, j) for j in range(3)])
        ss, kw = prepare(block)
        fit = fit_penalized(ss, kw)
        for a in (kw.pi_uc_hat, fit.lam):
            assert a.shape == (3,)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert np.array_equal(fit_penalized(ss, kw).lam, fit.lam)

    def test_an_explicit_level_is_copied_and_a_samples_is_a_float(self):
        """The fit freezes its own copy of a caller's levels, and a sample's 0-d level
        comes back as a float, as the rule's does, with the same fit."""
        ss, kw = prepare(_draw(DgpConfig(n=200, mu=2.0), [_cell_seed(5, 0, j) for j in range(3)]))
        lam = np.array([0.3, 0.4, 0.5])
        fit = fit_penalized(ss, kw, lam)
        assert lam.flags.writeable and not fit.lam.flags.writeable
        assert not np.shares_memory(lam, fit.lam) and np.array_equal(fit.lam, lam)
        ss, kw = prepare(generate_sample(DgpConfig(n=200, mu=2.0)))
        fit = fit_penalized(ss, kw, np.array(0.3))
        assert type(fit.lam) is float and fit.lam == 0.3
        assert fit.beta.tobytes() == fit_penalized(ss, kw, 0.3).beta.tobytes()

    def test_a_level_of_the_wrong_shape_raises_before_the_first_solve(self):
        """One level in a list, or one per row, raises a ValueError that names its shape
        before any Gram is inverted, for a sample and for a block."""
        sample = generate_sample(DgpConfig(n=200, mu=2.0))
        block = _draw(DgpConfig(n=200, mu=2.0), [_cell_seed(5, 0, j) for j in range(3)])
        for drawn in (sample, block):
            ss, kw = prepare(drawn)
            for lam in ([0.5], np.full(kw.yw.shape, 0.5)):
                with pytest.raises(ValueError, match=rf"lam has shape \({np.shape(lam)[0]},"):
                    fit_penalized(ss, kw, lam)
            assert ("inverse", b"") not in vars(kw)  # no Gram was inverted


def test_gross_outliers_are_flagged_with_high_probability():
    hits = total = 0
    for rep in range(100):
        cfg = DgpConfig(n=1000, mu=5.0, seed=_cell_seed(11, 0, rep))
        sample = generate_sample(cfg)
        ss, kw = prepare(sample)
        fit = fit_penalized(ss, kw)
        shifted = (sample.x[:, 1] >= cfg.outlier_cutoff)[ss.perm] & (ss.base.delta == 1)
        total += int(shifted.sum())
        hits += int(np.count_nonzero(fit.alpha_w[shifted]))
    assert total > 0
    assert hits / total >= 0.95
