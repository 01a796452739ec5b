import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustaft import SurvivalSample, data, load_csv, sort_sample, write_csv


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
        # the sorted base is built without re-validation; it must still own frozen arrays
        base = sort_sample(make_sample([3.0, 1.0, 2.0], [1, 0, 1], np.ones((3, 2)))).base
        for a in (base.y, base.delta, base.x):
            assert a.flags.owndata and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 9
        assert base.delta.dtype == np.int64 and base.x.shape == (3, 2)


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
            group, first, stop = ss.group, ss.first, ss.stop
            assert np.array_equal(first[group], np.searchsorted(ys, ys, side="left"))
            assert np.array_equal(stop[group], np.searchsorted(ys, ys, side="right"))
            assert np.array_equal(ys[first], np.unique(ys))
            assert np.array_equal(group, np.repeat(np.arange(first.size), stop - first))

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["untied", "half-grid", "all-tied", "signed-zeros", "one-tied-rep"]),
        st.integers(1, 4),
        st.integers(2, 30),
    )
    def test_one_key_sort_is_lexsort(self, seed, kind, reps, n):
        """``perm`` is ``lexsort((-delta, y))``'s, for a sample and for a block, and
        the tie groups satisfy the searchsorted identities, whatever the ties."""
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(reps, n)) * 2.0
        if kind == "half-grid":
            y = np.round(y * 2.0) / 2.0
        elif kind == "all-tied":
            y[:] = 1.5
        elif kind == "signed-zeros":
            y = np.where(y > 1.0, np.round(y), np.where(rng.random((reps, n)) < 0.5, 0.0, -0.0))
        elif kind == "one-tied-rep":
            y[rng.integers(reps)] = np.round(y[0])
        delta = (rng.random((reps, n)) < 0.6).astype(np.int64)
        x = np.ones((reps, n, 1))
        samples = [data._adopt(y=y, delta=delta, x=x)]
        samples += [make_sample(y[r], delta[r]) for r in range(reps)]
        for sample in samples:
            ss = sort_sample(sample)
            assert np.array_equal(ss.perm, np.lexsort((-sample.delta, sample.y), axis=-1))
            ys = ss.base.y.ravel()
            assert ys.tobytes() == np.take_along_axis(sample.y, ss.perm, -1).tobytes()
            # a block's groups never span replications: search each replication's rows
            group, first, stop = ss.group.ravel(), ss.first, ss.stop
            rows = ys.reshape(-1, n)
            offsets = np.arange(0, ys.size, n)
            left = np.concatenate([np.searchsorted(r, r, side="left") for r in rows])
            right = np.concatenate([np.searchsorted(r, r, side="right") for r in rows])
            at = np.repeat(offsets, n)
            assert np.array_equal(first[group], left + at)
            assert np.array_equal(stop[group], right + at)
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

    def test_write_pins_the_text_of_each_number(self, tmp_path):
        """Shortest round-trip text: the sign of zero, a subnormal, exponent form
        from 1e16, and an integer-valued float keeps its ``.0``."""
        s = SurvivalSample(
            y=[-0.0, 5e-324, 1e16, 0.1, 3.0],
            delta=[1, 0, 1, 1, 0],
            x=[[1.0, -0.0], [1.0, 2.5e-310], [1.0, 1e16], [1.0, 0.1], [2.0, 7.0]],
        )
        path = tmp_path / "s.csv"
        write_csv(s, path)
        assert path.read_bytes() == (
            b"y,delta,x1,x2\r\n"
            b"-0.0,1,1.0,-0.0\r\n"
            b"5e-324,0,1.0,2.5e-310\r\n"
            b"1e+16,1,1.0,1e+16\r\n"
            b"0.1,1,1.0,0.1\r\n"
            b"3.0,0,2.0,7.0\r\n"
        )

    def test_multi_line_record_names_the_file_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'y,delta,x1\n"1\n",1,2\n2,1,zz\n')
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: row 4, column 3 (x1): cannot parse 'zz'"

    def test_blank_body_raises_no_data_rows_without_warnings(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"y,delta,x1\n\n\r\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                load_csv(path)


def _outcome(load):
    """A loaded sample as (dtype, shape, bytes) per array, or the error message."""
    try:
        s = load()
    except ValueError as err:
        return str(err)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (s.y, s.delta, s.x)]


ROWS = "1,1,2\n2,0,3\n3,1,5\n"
PAD = 199_999  # with the final "3", a 200 000-character field
# case id -> (file text, whether load_csv must hand it to the row scan)
BULK_VS_SCAN = {
    "underscore": ("y,delta,x1\n1_0,1,2\n" + ROWS, True),
    "space-nan": ("y,delta,x1\n1,1, nan\n" + ROWS, True),
    "mixed-case-infinity": ("y,delta,x1\niNfInItY,1,2\n" + ROWS, True),
    "overflow": ("y,delta,x1\n1e999,1,2\n" + ROWS, True),
    "leading-plus": ("y,delta,x1\n+1,+1,+2\n" + ROWS, False),
    "trailing-dot": ("y,delta,x1\n1.,1.,2.\n" + ROWS, False),
    "lone-dot": ("y,delta,x1\n.,1,2\n" + ROWS, True),
    "negative-zero": ("y,delta,x1\n-0,-0,-0.0\n" + ROWS, False),
    "float-delta": ("y,delta,x1\n1,1.0,2\n2,0.0,3\n2,1e0,4\n", False),
    "quoted-number": ('y,delta,x1\n"1",1,2\n' + ROWS, True),
    "trailing-comma": ("y,delta,x1\n1,1,2,\n" + ROWS, True),
    "cr-only": ("y,delta,x1\r1,1,2\r2,0,3\r3,1,5\r", True),
    "crlf": ("y,delta,x1\r\n1,1,2\r\n2,0,3\r\n3,1,5\r\n", False),
    "blank-lines": ("y,delta,x1\n\n1,1,2\n\n\n2,0,3\r\n\n3,1,5", False),
    "whitespace-line": ("y,delta,x1\n1,1,2\n \t\n" + ROWS, True),
    "info-separator": ("y,delta,x1\n\x1c3,1,2\n" + ROWS, True),
    "zero-padded-field": ("y,delta,x1\n" + ROWS + "4,1," + "0" * PAD + "3\n", True),
    "space-padded-field": ("y,delta,x1\n" + ROWS + "4,1," + " " * PAD + "3\n", True),
    "vt-padded-field": ("y,delta,x1\n" + ROWS + "4,1," + "\v" * PAD + "3\n", True),
    "bad-delta": ("y,delta,x1\n" + ROWS + "4,0.5,1\n", True),
    "n-not-above-p": ("y,delta,x1,x2\n1,1,2,3\n2,0,3,4\n", False),
}


class TestBulkParse:
    """``load_csv``'s bulk path gives the row scan's bits or the row scan's message."""

    @staticmethod
    def _spy_on_scan(monkeypatch):
        calls = []
        scan = data._scan

        def spy(fh, path):
            calls.append(path)
            return scan(fh, path)

        monkeypatch.setattr(data, "_scan", spy)
        return calls

    @pytest.mark.parametrize("text, via_scan", BULK_VS_SCAN.values(), ids=BULK_VS_SCAN.keys())
    def test_matches_the_row_scan(self, tmp_path, monkeypatch, text, via_scan):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("ascii"))
        with open(path, newline="") as fh:
            want = _outcome(lambda: data._scan(fh, path))
        calls = self._spy_on_scan(monkeypatch)
        assert _outcome(lambda: load_csv(path)) == want
        assert bool(calls) == via_scan

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_that_needs_the_scan(self, tmp_path):
        text = BULK_VS_SCAN["underscore"][0].encode("ascii")
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        read_end, write_end = os.pipe()
        os.write(write_end, text)
        os.close(write_end)
        try:
            got = _outcome(lambda: load_csv(f"/dev/fd/{read_end}"))
        finally:
            os.close(read_end)
        assert got == _outcome(lambda: load_csv(path))

    def test_keeps_the_sign_of_zero(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(BULK_VS_SCAN["negative-zero"][0].encode("ascii"))
        s = load_csv(path)
        assert np.signbit(s.y[0]) and np.signbit(s.x[0, 0]) and s.delta[0] == 0

    def test_clean_file_never_enters_the_scan(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        n = 10_000
        s = SurvivalSample(
            y=rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, size=n),
            delta=(rng.random(n) < 0.6).astype(int),
            x=np.column_stack([np.ones(n), rng.standard_cauchy(size=n)]),
        )
        path = tmp_path / "d.csv"
        write_csv(s, path)
        with open(path, newline="") as fh:
            want = _outcome(lambda: data._scan(fh, path))
        assert want == _outcome(lambda: s)
        calls = self._spy_on_scan(monkeypatch)
        assert _outcome(lambda: load_csv(path)) == want
        assert calls == []
