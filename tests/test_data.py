import csv
import dataclasses
import io
import os
import threading
import tracemalloc
import types
import urllib.request
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustaft import DgpConfig, SurvivalSample, generate_sample, load_csv, sort_sample
import robustaft.data as data
from robustaft.data import write_csv


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

    @pytest.mark.parametrize(
        "y, delta, x, message",
        [
            (np.ones((3, 1)), np.ones(3, int), np.ones((3, 1)), "y must be a 1-d vector"),
            (np.ones(3), np.ones(3, int), np.ones(3), "x must be a 2-d matrix"),
            (np.ones(3), np.ones(2, int), np.ones((3, 1)), "y, delta and x must have matching lengths"),
            (np.ones(3), np.ones(3, int), np.ones((2, 1)), "y, delta and x must have matching lengths"),
        ],
    )
    def test_rejects_misshapen_arrays(self, y, delta, x, message):
        with pytest.raises(ValueError) as err:
            SurvivalSample(y=y, delta=delta, x=x)
        assert str(err.value) == message

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
        assert base.delta.dtype == np.int8 and base.x.shape == (3, 2)


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
            first, stop = ss.bounds[:-1], ss.bounds[1:]
            group = np.repeat(np.arange(first.size), stop - first)
            assert np.array_equal(first[group], np.searchsorted(ys, ys, side="left"))
            assert np.array_equal(stop[group], np.searchsorted(ys, ys, side="right"))
            assert np.array_equal(ys[first], np.unique(ys))

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
        samples = [data._adopt(SurvivalSample, y=y, delta=delta, x=x)]
        samples += [make_sample(y[r], delta[r]) for r in range(reps)]
        for sample in samples:
            ss = sort_sample(sample)
            assert np.array_equal(ss.perm, np.lexsort((-sample.delta, sample.y), axis=-1))
            ys = ss.base.y.ravel()
            assert ys.tobytes() == np.take_along_axis(sample.y, ss.perm, -1).tobytes()
            # a block's groups never span replications: search each replication's rows
            first, stop = ss.bounds[:-1], ss.bounds[1:]
            group = np.repeat(np.arange(first.size), stop - first)
            rows = ys.reshape(-1, n)
            offsets = np.arange(0, ys.size, n)
            left = np.concatenate([np.searchsorted(r, r, side="left") for r in rows])
            right = np.concatenate([np.searchsorted(r, r, side="right") for r in rows])
            at = np.repeat(offsets, n)
            assert np.array_equal(first[group], left + at)
            assert np.array_equal(stop[group], right + at)

    @pytest.mark.parametrize("kind", ["all-tied", "half-grid"])
    @pytest.mark.parametrize("n", [1024, 1025, 65536, 65537])
    def test_one_key_sort_is_lexsort_at_the_keys_width_boundaries(self, n, kind):
        """The row index fills the key's low bits exactly (n = 2 ** k) or needs one
        more bit (n = 2 ** k + 1): ``perm`` is still ``lexsort((-delta, y))``'s, for
        a sample and for a 3-replication block."""
        rng = np.random.default_rng(n)
        y = rng.normal(size=(3, n)) * 2.0
        y = np.full(y.shape, 1.5) if kind == "all-tied" else np.round(y * 2.0) / 2.0
        delta = (rng.random((3, n)) < 0.6).astype(np.int64)
        for sample in (data._adopt(SurvivalSample, y=y, delta=delta, x=np.ones((3, n, 1))),
                       make_sample(y[1], delta[1])):
            ss = sort_sample(sample)
            assert np.array_equal(ss.perm, np.lexsort((-sample.delta, sample.y), axis=-1))
            assert np.array_equal(ss.base.y, np.take_along_axis(sample.y, ss.perm, -1))

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("reps", [None, 3])
    def test_gathers_match_fancy_indexing(self, p, tied, reps):
        """``base`` holds y[perm], delta[perm] and x[perm] to the bit, for a sample and
        a block, in fresh C-contiguous read-only arrays, and the tie groups
        ``bounds[g]:bounds[g + 1]`` cover the rows in order."""
        n = 60
        shape = (n,) if reps is None else (reps, n)
        rng = np.random.default_rng(p + 2 * tied + 4 * (reps is None))
        y = rng.normal(size=shape)
        if tied:
            y = np.round(y * 2.0) / 2.0
        delta = (rng.random(shape) < 0.6).astype(np.int64)
        x = rng.normal(size=shape + (p,))
        if reps is None:
            sample = SurvivalSample(y=y, delta=delta, x=x)
        else:
            sample = data._adopt(SurvivalSample, y=y, delta=delta, x=x)
        ss = sort_sample(sample)
        rows = ss.perm + np.arange(0, y.size, n).reshape(shape[:-1] + (1,))
        want = (sample.y.ravel()[rows], sample.delta.ravel()[rows], sample.x.reshape(-1, p)[rows])
        for got, ref in zip((ss.base.y, ss.base.delta, ss.base.x), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        x_sorted = ss.base.x
        assert x_sorted.flags.c_contiguous and x_sorted.flags.owndata
        assert not x_sorted.flags.writeable
        bounds = ss.bounds
        assert bounds.dtype == np.int64 and bounds[0] == 0 and bounds[-1] == y.size
        assert np.all(np.diff(bounds) > 0)
        assert bounds.size - 1 < y.size if tied else bounds.size - 1 == y.size

    def test_an_untied_sort_keeps_no_per_row_group_id(self):
        """A sorted sample describes its tie groups by ``bounds`` alone: an untied
        n = 1e5 sort (p = 2) holds base's y, a one-byte delta and x, perm and bounds,
        5.1 n-row arrays of 8 bytes, and no per-row group id."""
        fields = [f.name for f in dataclasses.fields(data.SortedSample)]
        assert fields == ["base", "perm", "bounds"]
        n = 100_000
        rng = np.random.default_rng(28)
        sample = make_sample(rng.normal(size=n), (rng.random(n) < 0.6).astype(int),
                             rng.normal(size=(n, 2)))
        tracemalloc.start()
        try:
            ss = sort_sample(sample)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ss.bounds.size == n + 1
        assert held <= 5.5 * 8 * n

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

    def test_a_one_byte_delta_is_written_as_0_and_1_and_read_back(self, tmp_path):
        """The constructor keeps delta as int8, from ints, floats or bools alike;
        ``write_csv`` writes it as ``0`` and ``1``, and the file loads back to the
        same bytes."""
        for delta in ([1, 0, 1, 1], [1.0, 0.0, 1.0, 1.0], [True, False, True, True]):
            s = SurvivalSample(y=[0.5, 2.0, 1.5, 3.0], delta=delta, x=[[1.0], [2.0], [3.0], [5.0]])
            assert s.delta.dtype == np.int8
            path = tmp_path / "d.csv"
            write_csv(s, path)
            assert path.read_bytes() == (
                b"y,delta,x1\r\n0.5,1,1.0\r\n2.0,0,2.0\r\n1.5,1,3.0\r\n3.0,1,5.0\r\n"
            )
            loaded = load_csv(path)
            for a, b in ((s.y, loaded.y), (s.delta, loaded.delta), (s.x, loaded.x)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_empty_file_or_pipe_says_so(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"")
        read_end, write_end = os.pipe()
        os.close(write_end)
        try:
            for source in (path, f"/dev/fd/{read_end}"):
                with pytest.raises(ValueError) as err:
                    load_csv(source)
                assert str(err.value) == f"{source}: empty file"
        finally:
            os.close(read_end)

    def test_rows_wider_than_the_header_fail_in_the_scan(self, tmp_path):
        """Every row has 4 fields: the bulk table is too wide, and the scan names the first row."""
        path = tmp_path / "d.csv"
        path.write_bytes(b"y,delta,x1\n1,1,2,3\n2,0,3,4\n3,1,5,6\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: row 2: expected 3 fields, got 4"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_byte_that_is_not_utf8_names_its_file_line(self, tmp_path):
        """0xff at byte 18 000 of a 27 KB file, several decoder chunks in, is named by
        its line counted from the start of the file, from a file and from a pipe."""
        path = tmp_path / "d.csv"
        write_csv(generate_sample(DgpConfig(n=600, seed=1)), path)
        text = bytearray(path.read_bytes())
        assert 27_000 < len(text) < 28_000 and text[18_000] != ord("\n")
        text[18_000] = 0xFF
        path.write_bytes(text)
        assert text[:18_000].count(b"\n") + 1 == 399
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: line 399: not UTF-8"

        read_end, write_end = os.pipe()

        def feed():  # the pipe may hold less than the whole file, so a thread writes it
            with open(write_end, "wb") as fh:
                fh.write(text)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with pytest.raises(ValueError) as err:
                load_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
            writer.join()
        assert str(err.value) == f"/dev/fd/{read_end}: line 399: not UTF-8"

    def test_a_header_byte_that_is_not_utf8_is_named(self, tmp_path):
        """A bad byte in the header says so; valid non-ASCII text there is a wrong header."""
        path = tmp_path / "d.csv"
        path.write_bytes(b"y,del\xffta,x1\n1,1,1\n2,1,2\n3,0,3\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: line 1: not UTF-8"
        path.write_bytes("y,delta,x\u00fd\n1,1,1\n2,1,2\n3,0,3\n".encode())
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: header must be 'y,delta,x1,...,xp', got 'y,delta,x\u00fd'"

    def test_a_header_field_past_the_size_limit_names_line_one(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,delta,x" + "1" * csv.field_size_limit() + "\n1,1,1\n2,1,2\n3,0,3\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        limit = csv.field_size_limit()
        assert str(err.value) == f"{path}: line 1: field larger than field limit ({limit})"


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
    # a file is re-read in universal-newline text mode, where a lone CR ends a line
    "cr-only": ("y,delta,x1\r1,1,2\r2,0,3\r3,1,5\r", False),
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

# The bulk path measures line lengths only when some aligned block of BLOCK body
# bytes holds no LF.  After a first row of BLOCK bytes, a line starts on the
# second block boundary; at LIMIT - 1 bytes its LF is the last byte of the third
# block, and at LIMIT bytes the line fills the second and third blocks.
LIMIT = csv.field_size_limit()
BLOCK = LIMIT // 2
ALIGNED = "y,delta,x1\n" + "1,1," + "0" * (BLOCK - 6) + "2\n"


def _row_of(length: int) -> str:
    """A valid row of ``length`` bytes before its LF."""
    return "4,1," + "0" * (length - 5) + "3\n"


BULK_VS_SCAN.update({
    "line-of-limit-minus-one": (ALIGNED + _row_of(LIMIT - 1) + ROWS, False),
    "line-of-limit": (ALIGNED + _row_of(LIMIT) + ROWS, True),
    "line-of-limit-plus-one": (ALIGNED + _row_of(LIMIT + 1) + ROWS, True),
    "body-under-half-limit": ("y,delta,x1\n" + _row_of(BLOCK - 20) + ROWS, False),
})


class TestBulkParse:
    """``load_csv``'s bulk path gives the row scan's bits or the row scan's message."""

    @staticmethod
    def _scan_outcome(monkeypatch, path):
        """``load_csv`` with the bulk parse switched off: the header check and the row scan alone."""
        with monkeypatch.context() as m:
            m.setattr(data, "_parse_bulk", lambda raw, width, file: None)
            return _outcome(lambda: load_csv(path))

    @staticmethod
    def _spy_on_scan(monkeypatch):
        calls = []
        scan = data._scan

        def spy(reader, names, path):
            calls.append(path)
            return scan(reader, names, path)

        monkeypatch.setattr(data, "_scan", spy)
        return calls

    @pytest.mark.parametrize("text, via_scan", BULK_VS_SCAN.values(), ids=BULK_VS_SCAN.keys())
    def test_matches_the_row_scan(self, tmp_path, monkeypatch, text, via_scan):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("ascii"))
        want = self._scan_outcome(monkeypatch, path)
        calls = self._spy_on_scan(monkeypatch)
        assert _outcome(lambda: load_csv(path)) == want
        assert bool(calls) == via_scan

    @pytest.mark.parametrize("case", ["leading-plus", "quoted-number"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, case):
        """A file saved with a UTF-8 byte-order mark loads to the same sample as
        without it, on the bulk path and on the scan."""
        text, via_scan = BULK_VS_SCAN[case]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("ascii"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("ascii"))
        want = _outcome(lambda: load_csv(plain))
        assert not isinstance(want, str), want
        calls = self._spy_on_scan(monkeypatch)
        assert _outcome(lambda: load_csv(marked)) == want
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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_clean_pipe_takes_the_bulk_path(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(9)
        n = 300
        s = SurvivalSample(
            y=rng.normal(size=n),
            delta=(rng.random(n) < 0.6).astype(int),
            x=np.column_stack([np.ones(n), rng.normal(size=n)]),
        )
        path = tmp_path / "d.csv"
        write_csv(s, path)
        text = path.read_bytes()
        assert len(text) < 16_384  # fits the pipe buffer, so one thread can write it all first
        want = _outcome(lambda: load_csv(path))
        calls = self._spy_on_scan(monkeypatch)
        read_end, write_end = os.pipe()
        os.write(write_end, text)
        os.close(write_end)
        try:
            got = _outcome(lambda: load_csv(f"/dev/fd/{read_end}"))
        finally:
            os.close(read_end)
        assert got == want == _outcome(lambda: s)
        assert calls == []

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
        want = self._scan_outcome(monkeypatch, path)
        assert want == _outcome(lambda: s)
        calls = self._spy_on_scan(monkeypatch)
        assert _outcome(lambda: load_csv(path)) == want
        assert calls == []


def _file_and_pipe_outcomes(tmp_path, text: bytes):
    """``load_csv``'s outcome on ``text`` read from a file and through a pipe,
    each with its source's name replaced by ``<src>``."""
    path = tmp_path / "d.csv"
    path.write_bytes(text)
    from_file = _outcome(lambda: load_csv(path))
    read_end, write_end = os.pipe()

    def feed():  # the pipe may hold less than the whole text, so a thread writes it
        with open(write_end, "wb") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed)
    writer.start()
    source = f"/dev/fd/{read_end}"
    try:
        from_pipe = _outcome(lambda: load_csv(source))
    finally:
        os.close(read_end)
        writer.join(timeout=10)
    assert not writer.is_alive()
    return [
        got.replace(str(name), "<src>") if isinstance(got, str) else got
        for got, name in ((from_file, path), (from_pipe, source))
    ]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestLineEnds:
    """Outcomes pinned to fixed values, so a header or offset bug that the bulk
    path and the row scan share cannot pass by agreeing with itself."""

    THREE_ROWS = _outcome(lambda: make_sample([1.0, 2.0, 3.0], [1, 1, 0], [[1.0], [2.0], [3.0]]))

    @pytest.mark.parametrize(
        "text",
        [
            b"y,delta,x1\r1,1,1\r2,1,2\r3,0,3\r",
            b"y,delta,x1\r\n1,1,1\n2,1,2\n3,0,3\n",
            b"\xef\xbb\xbfy,delta,x1\r1,1,1\r2,1,2\r3,0,3\r",
            b'"y\n",delta,x1\n1,1,1\n2,1,2\n3,0,3\n',
        ],
        ids=["cr-only", "crlf-header", "bom-cr-only", "quoted-line-break-in-header"],
    )
    def test_loads_the_three_row_sample(self, tmp_path, text):
        assert _file_and_pipe_outcomes(tmp_path, text) == [self.THREE_ROWS] * 2

    def test_a_byte_that_is_not_utf8_after_cr_lines_names_its_file_line(self, tmp_path):
        """CR ends a line here as it does in the row messages (csv ``line_num``)."""
        text = b"y,delta,x1\r1,1,1\r2,1,2\r\xff3,0,3\r"
        assert _file_and_pipe_outcomes(tmp_path, text) == ["<src>: line 4: not UTF-8"] * 2

    @pytest.mark.parametrize(
        "text, line",
        [
            (b'"y\xff\n",delta,x1\n1,1,1\n2,1,2\n3,0,3\n', 1),
            (b"y,delta,z1\n1,1,1\n2,1,\xff\n3,0,3\n", 3),
        ],
        ids=["in-a-two-line-header-record", "after-a-wrong-header"],
    )
    def test_a_byte_that_is_not_utf8_is_named_by_its_own_line_first(self, tmp_path, text, line):
        """The byte's own line, not the line its header record ends on, and before
        the header's own error."""
        assert _file_and_pipe_outcomes(tmp_path, text) == [f"<src>: line {line}: not UTF-8"] * 2

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,1,1\n2,1,2,9\n3,0,3\n", "row 4: expected 3 fields, got 4"),
            (
                "1,1,1\n2,1," + "0" * LIMIT + "2\n3,0,3\n",
                f"line 4: field larger than field limit ({LIMIT})",
            ),
        ],
        ids=["wide-row", "long-field"],
    )
    def test_the_scan_counts_the_lines_of_a_two_line_header(self, tmp_path, body, message):
        text = ('"y\n",delta,x1\n' + body).encode("ascii")
        assert _file_and_pipe_outcomes(tmp_path, text) == [f"<src>: {message}"] * 2


def _spy_on_loadtxt(monkeypatch, before=None):
    """Record each ``np.loadtxt`` call's input and ``skiprows``; ``before(fname)`` runs
    ahead of the real parse."""
    calls = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        calls.append((fname, kwargs.get("skiprows", 0)))
        if before is not None:
            before(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


CLEAN = b"y,delta,x1\r\n1,1,2\r\n2,0,3\r\n3,1,5\r\n"
CLEAN_SAMPLE = _outcome(lambda: make_sample([1.0, 2.0, 3.0], [1, 0, 1], [[2.0], [3.0], [5.0]]))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestFileRoute:
    """A regular file's body is parsed from its name, and only while the file is
    the one whose bytes were read; any other input is parsed from those bytes."""

    def test_a_clean_crlf_file_is_parsed_from_its_str_name(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_bytes(CLEAN)
        calls = _spy_on_loadtxt(monkeypatch)
        assert _outcome(lambda: load_csv(path)) == CLEAN_SAMPLE
        assert calls == [(str(path), 1)]
        calls.clear()
        assert _outcome(lambda: load_csv(str(path))) == CLEAN_SAMPLE
        assert calls == [(str(path), 1)]

    def test_a_two_line_quoted_header_skips_two_lines(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_bytes(b'"y\r\n",delta,x1\r\n' + CLEAN.split(b"\r\n", 1)[1])
        calls = _spy_on_loadtxt(monkeypatch)
        assert _outcome(lambda: load_csv(path)) == CLEAN_SAMPLE
        assert calls == [(str(path), 2)]

    def test_a_relative_name_is_never_fetched_as_a_url(self, tmp_path, monkeypatch):
        fetched = []
        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: fetched.append(a))
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "d.csv").write_bytes(CLEAN)
        monkeypatch.chdir(tmp_path)
        calls = _spy_on_loadtxt(monkeypatch)
        assert _outcome(lambda: load_csv("http://host/d.csv")) == CLEAN_SAMPLE
        assert calls == [("./http://host/d.csv", 1)] and fetched == []

    @pytest.mark.parametrize("name", ["d.csv.gz", "d.csv.bz2", "d.csv.xz", "d.csv.lzma"])
    def test_a_plain_file_named_like_an_archive_loads_from_its_bytes(self, tmp_path, monkeypatch, name):
        """numpy opens these names as archives and fails; the bytes already read decide."""
        path = tmp_path / name
        path.write_bytes(CLEAN)
        calls = _spy_on_loadtxt(monkeypatch)
        assert _outcome(lambda: load_csv(path)) == CLEAN_SAMPLE
        assert calls[0] == (str(path), 1) and isinstance(calls[-1][0], io.BytesIO)

    def test_a_bytes_path_an_fd_and_a_pipe_are_parsed_from_their_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_bytes(CLEAN)
        calls = _spy_on_loadtxt(monkeypatch)
        assert _outcome(lambda: load_csv(os.fsencode(path))) == CLEAN_SAMPLE
        fd = os.open(path, os.O_RDONLY)
        assert _outcome(lambda: load_csv(fd)) == CLEAN_SAMPLE  # open() closes fd
        read_end, write_end = os.pipe()
        os.write(write_end, CLEAN)
        os.close(write_end)
        try:
            assert _outcome(lambda: load_csv(f"/dev/fd/{read_end}")) == CLEAN_SAMPLE
        finally:
            os.close(read_end)
        assert len(calls) == 3 and all(isinstance(fname, io.BytesIO) for fname, _ in calls)

    def test_a_regular_file_by_dev_fd_may_take_the_file_route(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_bytes(CLEAN)
        calls = _spy_on_loadtxt(monkeypatch)
        fd = os.open(path, os.O_RDONLY)
        try:
            got = _outcome(lambda: load_csv(f"/dev/fd/{fd}"))
        finally:
            os.close(fd)
        assert got == CLEAN_SAMPLE
        assert calls == [(f"/dev/fd/{fd}", 1)]

    def test_a_cr_only_pipe_takes_the_scan(self, tmp_path, monkeypatch):
        """In memory, loadtxt rejects a lone CR, so the row scan reads the pipe."""
        calls = TestBulkParse._spy_on_scan(monkeypatch)
        text = BULK_VS_SCAN["cr-only"][0].encode("ascii")
        from_file, from_pipe = _file_and_pipe_outcomes(tmp_path, text)
        assert from_pipe == from_file and not isinstance(from_file, str), from_file
        assert len(calls) == 1 and calls[0].startswith("/dev/fd/")  # the pipe's alone

    def test_a_file_that_grew_while_it_was_read_is_parsed_from_its_bytes(self, tmp_path, monkeypatch):
        """A size beyond the bytes read means the first read missed some: the re-read
        would hold rows that the bytes do not, so it is not taken."""
        path = tmp_path / "d.csv"
        path.write_bytes(CLEAN)
        fstat = os.fstat

        def grow_then_fstat(fd):
            with open(path, "ab") as fh:
                fh.write(b"4,1,7\r\n")
            return fstat(fd)

        monkeypatch.setattr(data.os, "fstat", grow_then_fstat)
        calls = _spy_on_loadtxt(monkeypatch)
        assert _outcome(lambda: load_csv(path)) == CLEAN_SAMPLE
        assert [type(fname) for fname, _ in calls] == [io.BytesIO]

    @pytest.mark.parametrize("change", ["grow", "same-size-new-mtime", "stat-says-new-mtime", "delete"])
    def test_a_file_changed_before_the_parse_gives_the_first_read(self, tmp_path, monkeypatch, change):
        """Whatever happens to the file after its bytes were read, the sample is the
        one those bytes hold, never the second read's or a mix of the two."""
        path = tmp_path / "d.csv"
        path.write_bytes(CLEAN)
        stat = os.stat

        def rewrite(fname):
            if not isinstance(fname, str):
                return
            if change == "grow":
                path.write_bytes(CLEAN + b"4,1,7\r\n")
            elif change == "same-size-new-mtime":
                before = stat(path)
                path.write_bytes(CLEAN.replace(b"5", b"6"))
                os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1_000_000_000))
            elif change == "delete":
                path.unlink()

        def new_mtime(name, *args, **kwargs):
            st = stat(name, *args, **kwargs)
            if name != str(path):
                return st
            fields = {k: getattr(st, k) for k in dir(st) if k.startswith("st_")}
            return types.SimpleNamespace(**{**fields, "st_mtime_ns": st.st_mtime_ns + 1})

        if change == "stat-says-new-mtime":
            monkeypatch.setattr(data.os, "stat", new_mtime)
        calls = _spy_on_loadtxt(monkeypatch, before=rewrite)
        assert _outcome(lambda: load_csv(path)) == CLEAN_SAMPLE
        assert [type(fname) for fname, _ in calls] == [str, io.BytesIO]


DELTAS = ["0", "1", "+1", "-0", "+0", "0.", "1.0", ".0", "1e0", "10e-1", "0E5", "-0.0"]


def _field(draw, delta: bool = False) -> str:
    """A number as a user may write it: signs, ``.5`` and ``5.``, exponents, padding."""
    pad = st.text(alphabet=" \t", max_size=2)
    if delta:
        return draw(pad) + draw(st.sampled_from(DELTAS)) + draw(pad)
    whole = draw(st.text(alphabet="0123456789", max_size=4))
    frac = draw(st.text(alphabet="0123456789", min_size=0 if whole else 1, max_size=17))
    point = "." if frac or draw(st.booleans()) else ""
    number = draw(st.sampled_from(["", "-", "+"])) + whole + point + frac
    if draw(st.booleans()):
        sign = draw(st.sampled_from(["", "+", "-"]))
        number += draw(st.sampled_from("eE")) + sign + str(draw(st.integers(0, 330)))
    return draw(pad) + number + draw(pad)


@st.composite
def _bodies(draw):
    """A CSV file over ``_BULK_ALPHABET`` (after its header), with mixed line ends,
    blank lines, an optional BOM and an optional final line end."""
    p = draw(st.integers(1, 2))
    n = draw(st.integers(p + 1, 8))
    end = st.sampled_from(["\n", "\r\n", "\r"])
    text = ",".join(data._header(p)) + draw(end)
    for i in range(n):
        text += "".join(draw(st.lists(end, max_size=2)))  # blank lines
        fields = [_field(draw), _field(draw, delta=True)] + [_field(draw) for _ in range(p)]
        text += ",".join(fields) + (draw(end) if i < n - 1 or draw(st.booleans()) else "")
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("ascii")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@settings(max_examples=150, deadline=None)
@given(text=_bodies())
def test_the_file_the_pipe_and_the_scan_read_the_same_bits(tmp_path_factory, text):
    tmp_path = tmp_path_factory.mktemp("route")
    from_file, from_pipe = _file_and_pipe_outcomes(tmp_path, text)
    parse_bulk = data._parse_bulk
    data._parse_bulk = lambda raw, width, file: None
    try:
        from_scan = _file_and_pipe_outcomes(tmp_path, text)[0]
    finally:
        data._parse_bulk = parse_bulk
    assert from_file == from_pipe == from_scan
