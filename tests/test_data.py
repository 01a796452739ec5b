import numpy as np
import pytest

from robustaft import SurvivalSample, load_csv, sort_sample, write_csv


def make_sample(y, delta, x=None):
    y = np.asarray(y, dtype=float)
    if x is None:
        x = np.ones((len(y), 1))
    return SurvivalSample(y=y, delta=np.asarray(delta), x=np.asarray(x, dtype=float))


class TestValidation:
    def test_rejects_nonfinite_y(self):
        with pytest.raises(ValueError, match="finite"):
            make_sample([1.0, np.inf, 2.0], [1, 1, 1])

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            make_sample([1.0, 2.0, 3.0], [1, 2, 1])

    def test_rejects_n_not_exceeding_p(self):
        with pytest.raises(ValueError, match="n must exceed p"):
            SurvivalSample(y=np.array([1.0, 2.0]), delta=np.array([1, 1]), x=np.eye(2))

    def test_rejects_empty_covariates(self):
        with pytest.raises(ValueError):
            SurvivalSample(y=np.array([1.0, 2.0]), delta=np.array([1, 1]), x=np.ones((2, 0)))

    def test_arrays_are_immutable(self):
        s = make_sample([1.0, 2.0, 3.0], [1, 0, 1])
        with pytest.raises(ValueError):
            s.y[0] = 9.0


class TestSort:
    def test_basic_permutation(self):
        s = make_sample([3.0, 1.0, 2.0], [1, 1, 1])
        ss = sort_sample(s)
        assert np.array_equal(ss.base.y, [1.0, 2.0, 3.0])
        assert np.array_equal(ss.perm, [1, 2, 0])

    def test_tie_puts_uncensored_first(self):
        s = make_sample([2.0, 2.0, 3.0], [0, 1, 1])
        ss = sort_sample(s)
        assert np.array_equal(ss.base.delta, [1, 0, 1])
        assert np.array_equal(ss.perm, [1, 0, 2])

    def test_already_sorted_gives_identity(self):
        s = make_sample([1.0, 2.0, 3.0], [1, 0, 1])
        ss = sort_sample(s)
        assert np.array_equal(ss.perm, [0, 1, 2])

    def test_tie_groups_match_searchsorted(self):
        rng = np.random.default_rng(6)
        cases = [
            # -0.0 and 0.0 compare equal, so they share one group
            ([0.0, -1.0, 2.0, -0.0, 0.5, 0.0, 0.5, 2.0], [1, 0, 0, 0, 1, 1, 0, 1]),
            ([3.0] * 6, [0, 1, 1, 0, 1, 0]),
            (np.arange(7.0), [1] * 7),
        ] + [
            (np.round(rng.normal(size=40) * 2.0) / 2.0, (rng.random(40) < 0.6).astype(int))
            for _ in range(5)
        ]
        for y, delta in cases:
            ss = sort_sample(make_sample(y, delta))
            ys = ss.base.y
            group, first, stop = ss.tie_groups()
            assert np.array_equal(first[group], np.searchsorted(ys, ys, side="left"))
            assert np.array_equal(stop[group], np.searchsorted(ys, ys, side="right"))
            assert np.array_equal(ys[first], np.unique(ys))
            assert np.array_equal(group, np.repeat(np.arange(first.size), stop - first))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        s = make_sample(rng.normal(size=20), (rng.random(20) < 0.6).astype(int))
        ss = sort_sample(s)
        again = sort_sample(ss.base)
        assert np.array_equal(again.perm, np.arange(20))

    def test_permutation_recovers_original(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(15, 2))
        s = SurvivalSample(
            y=rng.normal(size=15), delta=(rng.random(15) < 0.7).astype(int), x=x
        )
        ss = sort_sample(s)
        assert np.array_equal(ss.base.y, s.y[ss.perm])
        assert np.array_equal(ss.base.delta, s.delta[ss.perm])
        assert np.array_equal(ss.base.x, s.x[ss.perm])


class TestCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,delta,x1,x2\n1.5,1,1,0.2\n2.5,1,1,0.4\n0.5,1,1,0.9\n")
        s = load_csv(path)
        assert s.n == 3 and s.p == 2
        assert np.array_equal(s.y, [1.5, 2.5, 0.5])
        assert np.array_equal(s.delta, [1, 1, 1])

    def test_bad_delta_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,delta,x1\n1,1,1\n2,0,1\n3,2,1\n4,1,1\n")
        with pytest.raises(ValueError, match="row 4"):
            load_csv(path)

    def test_n_must_exceed_p(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,delta,x1,x2\n1,1,1,2\n2,1,3,4\n")
        with pytest.raises(ValueError, match="n must exceed p"):
            load_csv(path)

    def test_parse_error_locates_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,delta,x1\n1,1,1\n2,1,oops\n3,1,1\n")
        with pytest.raises(ValueError, match=r"row 3, column 3"):
            load_csv(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,event,x1\n1,1,1\n2,1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_rejects_nan_entry(self, tmp_path):
        path = tmp_path / "d.csv"
        for text in ("nan", "inf", "-inf", "1e999"):
            path.write_text(f"y,delta,x1\n1,1,1\n2,1,{text}\n3,1,1\n")
            with pytest.raises(ValueError, match="row 3.*non-finite"):
                load_csv(path)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        s = SurvivalSample(
            y=rng.normal(size=9) * 1e-7,
            delta=(rng.random(9) < 0.5).astype(int),
            x=np.column_stack([np.ones(9), rng.normal(size=9) * 1e12]),
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(s, first)
        loaded = load_csv(first)
        write_csv(loaded, second)
        reloaded = load_csv(second)
        assert np.array_equal(loaded.y, reloaded.y)
        assert np.array_equal(loaded.delta, reloaded.delta)
        assert np.array_equal(loaded.x, reloaded.x)
        assert np.array_equal(s.y, loaded.y)
        assert np.array_equal(s.x, loaded.x)
