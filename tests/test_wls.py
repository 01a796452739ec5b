import dataclasses
import warnings

import numpy as np
import pytest

from robustaft import (
    DgpConfig,
    Fit,
    SingularGramError,
    SurvivalSample,
    fit_penalized,
    fit_two_step,
    generate_sample,
    km_weights,
    load_csv,
    sandwich_ci,
    sort_sample,
    stute_fit,
)
from robustaft.data import write_csv
from robustaft.simulation import BETA, _cell_seed, _draw
from robustaft.wls import _gram_inverse, _singular, build_weighted_design, wls_solve
from oracles import ols_lstsq


def sorted_with_weights(y, delta, x):
    ss = sort_sample(SurvivalSample(y=np.asarray(y, float), delta=np.asarray(delta), x=np.asarray(x, float)))
    return ss, km_weights(ss)


def uncensored(y, x):
    return sorted_with_weights(y, np.ones(len(y), dtype=int), x)


class TestWeightedDesign:
    def test_uniform_weights_scale_rows(self):
        x = np.arange(8.0).reshape(4, 2)
        y = np.array([1.0, 2.0, 3.0, 4.0])
        ss, kw = uncensored(y, x)
        d = build_weighted_design(ss, kw)
        assert np.allclose(d.xw, x / 2.0, atol=1e-14)
        assert np.allclose(d.yw, y / 2.0, atol=1e-14)

    def test_censored_row_is_zero(self):
        ss, kw = sorted_with_weights([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 1], np.ones((4, 2)))
        d = build_weighted_design(ss, kw)
        assert np.all(d.xw[1] == 0.0)
        assert d.yw[1] == 0.0

    def test_gram_of_constant_column_sums_weights(self):
        ss, kw = uncensored([1.0, 2.0, 3.0, 4.0], np.ones((4, 1)))
        d = build_weighted_design(ss, kw)
        assert np.allclose(d.inverse()[0], [[1.0]], atol=1e-14)

    def test_gram_matches_product(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
        ss, kw = sorted_with_weights(rng.normal(size=30), (rng.random(30) < 0.7).astype(int), x)
        d = build_weighted_design(ss, kw)
        assert np.allclose(d.inverse()[0], d.xw.T @ d.xw, rtol=1e-10)
        assert np.allclose(d.inverse()[0], d.inverse()[0].T, atol=0.0)

    def test_built_once_per_sample_and_weights(self):
        x = np.column_stack([np.ones(4), np.arange(4.0)])
        ss, kw = sorted_with_weights([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 1], x)
        # km_weights builds the design; the fits get that same object back
        assert build_weighted_design(ss, kw) is kw
        # weighting the sample again builds equal arrays
        other = km_weights(ss)
        assert other is not kw
        for name in ("w", "xw", "yw"):
            assert np.array_equal(getattr(other, name), getattr(kw, name))
        # a design of another sample is refused
        longer, _ = sorted_with_weights([1.0, 2.0, 3.0, 4.0, 5.0], [1] * 5, np.ones((5, 2)))
        with pytest.raises(ValueError, match="does not match"):
            build_weighted_design(longer, kw)

    def test_all_rows_are_one_cached_inverse(self):
        seeds = [_cell_seed(2, 0, j) for j in range(3)]
        for sample in (generate_sample(DgpConfig(n=50, seed=seeds[0])), _draw(DgpConfig(n=50), seeds)):
            design = km_weights(sort_sample(sample))
            everything = design.inverse()
            assert design.inverse(np.empty(0, dtype=np.int64)) is everything
            assert design.inverse() is everything
            gram = everything[0]
            assert np.array_equal(gram, np.swapaxes(design.xw, -1, -2) @ design.xw)
            assert not gram.flags.writeable


    def test_kept_row_gram_of_a_block_is_the_zeroed_designs(self):
        """Dropped rows count as zero rows: the Gram, its inverse and its
        eigenvalues have the bits of the design with those rows zeroed, in a block
        whose replications keep every row, none and some; the one that keeps none
        gets a NaN inverse, without a warning."""
        seeds = [_cell_seed(4, 0, j) for j in range(3)]
        design = km_weights(sort_sample(_draw(DgpConfig(n=60), seeds)))
        keep = np.ones(design.w.shape, bool)
        keep[1] = False
        keep[2] = np.random.default_rng(0).random(60) < 0.7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = design.inverse(np.flatnonzero(~keep))
        want = _gram_inverse(np.where(keep[..., None], design.xw, 0.0), np.empty(0, dtype=np.int64))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        inv = got[1]
        assert np.isnan(inv[1]).all() and np.isfinite(inv[[0, 2]]).all()
        assert not np.array_equal(got[0][0], got[0][2])


class TestWlsSolve:
    def test_constant_design_gives_mean(self):
        y = np.array([2.0, 4.0, 9.0, 1.0])
        ss, kw = uncensored(y, np.ones((4, 1)))
        d = build_weighted_design(ss, kw)
        beta = wls_solve(d, d.yw)
        assert beta[0] == pytest.approx(y.mean(), abs=1e-12)

    def test_exact_fit_recovers_coefficients(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([np.ones(20), rng.normal(size=(20, 2))])
        ss, kw = sorted_with_weights(rng.normal(size=20), (rng.random(20) < 0.8).astype(int), x)
        d = build_weighted_design(ss, kw)
        b0 = np.array([0.5, -1.0, 2.0])
        beta = wls_solve(d, d.xw @ b0)
        assert np.allclose(beta, b0, atol=1e-10)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(2)
        x = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        ss, kw = sorted_with_weights(rng.normal(size=40), (rng.random(40) < 0.6).astype(int), x)
        d = build_weighted_design(ss, kw)
        beta = wls_solve(d, d.yw)
        lhs = np.max(np.abs(d.xw.T @ (d.yw - d.xw @ beta)))
        assert lhs <= 1e-8 * (1.0 + np.max(np.abs(d.xw.T @ d.yw)))

    def test_matches_lstsq_oracle_uncensored(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        y = x @ np.array([1.0, 2.0, -0.5]) + rng.normal(size=50)
        ss, kw = uncensored(y, x)
        fit = stute_fit(ss, kw)
        assert np.allclose(fit.beta, ols_lstsq(x, y), atol=1e-9)

    def test_singular_gram_raises(self):
        x = np.column_stack([np.ones(10), 2.0 * np.ones(10)])
        ss, kw = uncensored(np.arange(10.0), x)
        d = build_weighted_design(ss, kw)
        # a failed check stores no factor, so every later solve checks and raises again
        for _ in range(3):
            with pytest.raises(SingularGramError, match="collinear"):
                wls_solve(d, d.yw)
        with pytest.raises(SingularGramError, match="collinear"):
            stute_fit(ss, kw)

    def test_singular_gram_has_a_nan_inverse(self):
        """A constant covariate: the inverse is all NaN, so nothing computed from it
        passes for a number, and the solve still raises."""
        x = np.column_stack([np.ones(10), np.full(10, 0.5)])
        _, kw = uncensored(np.arange(10.0), x)
        gram, inv, eigs = kw.inverse()
        assert gram is kw.inverse()[0]
        assert np.isnan(inv).all()
        assert _singular(eigs)
        message = r"^weighted Gram matrix is singular: smallest eigenvalue .* collinear after weighting$"
        with pytest.raises(SingularGramError, match=message):
            wls_solve(kw, kw.yw)


class TestStuteFit:
    def test_uncensored_equals_ols(self):
        rng = np.random.default_rng(4)
        x = np.column_stack([np.ones(60), rng.uniform(size=60)])
        y = x @ np.array([1.0, 1.0]) + rng.normal(size=60)
        ss, kw = uncensored(y, x)
        assert np.allclose(stute_fit(ss, kw).beta, ols_lstsq(x, y), atol=1e-10)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = rng.normal(size=30)
        delta = (rng.random(30) < 0.7).astype(int)
        ss1, kw1 = sorted_with_weights(y, delta, x)
        ss2, kw2 = sorted_with_weights(3.5 * y, delta, x)
        assert np.allclose(stute_fit(ss2, kw2).beta, 3.5 * stute_fit(ss1, kw1).beta, atol=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        x = np.column_stack([np.ones(25), rng.normal(size=25)])
        y = rng.normal(size=25)
        delta = (rng.random(25) < 0.7).astype(int)
        ss1, kw1 = sorted_with_weights(y, delta, x)
        shuffle = rng.permutation(25)
        ss2, kw2 = sorted_with_weights(y[shuffle], delta[shuffle], x[shuffle])
        assert np.allclose(stute_fit(ss1, kw1).beta, stute_fit(ss2, kw2).beta, atol=1e-12)

    def test_gram_approaches_population_moments(self):
        # law of large numbers sanity check on the simulation design
        sample = generate_sample(DgpConfig(n=10000, mu=50.0, seed=9))  # effectively uncensored
        ss = sort_sample(sample)
        d = build_weighted_design(ss, km_weights(ss))
        target = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
        assert np.linalg.norm(d.inverse()[0] - target, ord=2) < 0.05

    def test_systematic_negative_bias_on_contaminated_design(self):
        # high-leverage negative shifts drag the slope down rep after rep
        errors = []
        for rep in range(200):
            cfg = DgpConfig(n=1000, mu=5.0, seed=_cell_seed(13, 0, rep))
            ss = sort_sample(generate_sample(cfg))
            errors.append(stute_fit(ss, km_weights(ss)).beta[1] - BETA[1])
        errors = np.array(errors)
        assert errors.mean() < -0.3
        assert np.mean(errors < 0.0) >= 0.9


class TestFit:
    def test_a_callers_arrays_are_copied_and_the_packages_frozen_in_place(self, tmp_path):
        """A Fit built by a caller copies ``beta`` and ``alpha_w``, so the caller's
        arrays stay writeable and unaliased; the package's own fits hold read-only
        arrays, the Stute fit's shifts a zero view with no rows of its own.  Every
        record the package returns, for a sample and a block, holds only read-only
        arrays, and a sandwich's ``beta`` is its fit's."""
        beta, alpha_w = np.array([1.0, 2.0]), np.array([0.0, 0.5, 0.0])
        fit = Fit(beta=beta, alpha_w=alpha_w)
        for mine, held in ((beta, fit.beta), (alpha_w, fit.alpha_w)):
            assert mine.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(mine, held)
        beta[0] = alpha_w[1] = 9.0
        assert fit.beta[0] == 1.0 and fit.alpha_w[1] == 0.5

        rng = np.random.default_rng(7)
        ss, kw = sorted_with_weights(rng.normal(size=8), np.ones(8, dtype=int), np.ones((8, 1)))
        stute = stute_fit(ss, kw)
        for a in (stute.beta, stute.alpha_w, stute.outliers):
            assert not a.flags.writeable
        assert stute.alpha_w.shape == (8,) and stute.alpha_w.strides == (0,)
        assert not stute.alpha_w.any() and stute.outliers.shape == (0,)

        cfg = DgpConfig(n=60, mu=2.0, seed=3)
        write_csv(generate_sample(cfg), tmp_path / "sample.csv")
        for sample in (generate_sample(cfg), load_csv(tmp_path / "sample.csv"), _draw(cfg, [1, 2, 3])):
            ss = sort_sample(sample)
            kw = km_weights(ss)
            pen = fit_penalized(ss, kw)
            fits = (stute_fit(ss, kw), pen, fit_two_step(ss, kw, pen))
            sandwiches = [sandwich_ci(ss, kw, fit) for fit in fits]
            for record in (sample, ss, ss.base, kw, *fits, *sandwiches):
                for f in dataclasses.fields(record):
                    a = getattr(record, f.name)
                    assert not (isinstance(a, np.ndarray) and a.flags.writeable), (type(record), f.name)
            assert all(inf.beta is fit.beta for inf, fit in zip(sandwiches, fits))

    def test_a_callers_objective_trace_is_copied(self):
        """A caller's ``objective_trace``, and a block's ``lam`` array, are held as
        read-only copies with their values; the caller's arrays stay writeable and
        unaliased.  A float ``lam`` stays a float."""
        trace = np.array([3.0, 2.5, 2.5])
        fit = Fit(beta=np.zeros(2), alpha_w=np.zeros(3), objective_trace=trace)
        assert np.array_equal(fit.objective_trace, trace)
        assert not fit.objective_trace.flags.writeable and trace.flags.writeable
        assert not np.shares_memory(trace, fit.objective_trace)

        lam = np.array([0.5, 0.7])  # one level per replication
        fit = Fit(beta=np.zeros((2, 2)), alpha_w=np.zeros((2, 3)), lam=lam)
        assert np.array_equal(fit.lam, lam)
        assert not fit.lam.flags.writeable and lam.flags.writeable
        assert not np.shares_memory(lam, fit.lam)
        assert type(Fit(beta=np.zeros(2), alpha_w=np.zeros(3), lam=0.5).lam) is float
