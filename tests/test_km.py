import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustaft import SurvivalSample, km_weights, lambda_rule, sort_sample
from oracles import km_jump_weights


def weights_for(delta, y=None):
    delta = np.asarray(delta)
    n = delta.shape[0]
    y = np.arange(1.0, n + 1) if y is None else np.asarray(y, dtype=float)
    s = SurvivalSample(y=y, delta=delta, x=np.ones((n, 1)))
    return km_weights(sort_sample(s))


def test_uncensored_weights_are_uniform():
    kw = weights_for([1, 1, 1])
    assert np.allclose(kw.w, 1.0 / 3.0, atol=1e-14)
    assert kw.pi_uc_hat == 1.0


def test_hand_example_with_one_censored():
    # product formula evaluated by hand, cross-checked against the jump oracle
    kw = weights_for([1, 0, 1, 1])
    assert np.allclose(kw.w, [0.25, 0.0, 0.375, 0.375], atol=1e-15)
    assert abs(kw.w.sum() - 1.0) < 1e-15
    assert kw.pi_uc_hat == 0.75


def test_sqrt_weights():
    kw = weights_for([1, 0, 1, 1])
    assert np.allclose(kw.sqrt_w, np.sqrt(kw.w), atol=1e-15)


def test_exhaustive_small_samples_match_oracle():
    for n in range(2, 9):
        y = np.arange(1.0, n + 1)
        for bits in itertools.product((0, 1), repeat=n):
            delta = np.array(bits)
            kw = weights_for(delta, y)
            assert kw.w.sum() <= 1.0 + 1e-12
            assert np.array_equal(kw.w == 0.0, delta == 0)
            if delta[-1] == 1:
                assert abs(kw.w.sum() - 1.0) < 1e-12
            else:
                assert kw.w.sum() < 1.0
            assert np.max(np.abs(kw.w - km_jump_weights(y, delta))) < 1e-12


def test_flipping_delta_to_censored_raises_later_weights():
    for n in range(2, 9):
        for bits in itertools.product((0, 1), repeat=n):
            delta = np.array(bits)
            base = weights_for(delta).w
            for j in range(n):
                if delta[j] == 0:
                    continue
                flipped = delta.copy()
                flipped[j] = 0
                wf = weights_for(flipped).w
                assert wf[j] == 0.0
                assert np.all(wf[j + 1 :] >= base[j + 1 :] - 1e-15)


def test_oracle_equivalence_with_ties():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(5, 201))
        y = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
        delta = (rng.random(n) < 0.7).astype(int)
        ss = sort_sample(SurvivalSample(y=y, delta=delta, x=np.ones((n, 1))))
        kw = km_weights(ss)
        oracle = km_jump_weights(ss.base.y, ss.base.delta)
        assert np.max(np.abs(kw.w - oracle)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=40))
def test_weight_identities_hold_for_any_pattern(bits):
    delta = np.array(bits)
    kw = weights_for(delta)
    assert np.all(kw.w >= 0.0)
    assert kw.w.sum() <= 1.0 + 1e-12
    assert np.array_equal(kw.w == 0.0, delta == 0)
    assert np.max(np.abs(kw.w - km_jump_weights(np.arange(1.0, len(bits) + 1), delta))) < 1e-12


class TestLambdaRule:
    def test_n_one_is_always_one(self):
        assert lambda_rule(1, 0.3, 1e-4) == 1.0
        assert lambda_rule(1, 1.0, 2.5) == 1.0

    def test_closed_form_value(self):
        # 1000 ** (1e-4 - 0.875 / 2), frozen from extended-precision evaluation
        assert lambda_rule(1000, 0.875, 1e-4) == pytest.approx(0.0487304026625, rel=1e-10)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lambda_rule(0, 0.5, 1e-4)
        with pytest.raises(ValueError):
            lambda_rule(10, 1.5, 1e-4)
        with pytest.raises(ValueError):
            lambda_rule(10, 0.5, 0.0)
        with pytest.raises(ValueError, match="lambda0 must be positive"):
            lambda_rule(10, 0.5, float("nan"))
