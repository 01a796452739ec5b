"""Data containers and CSV ingestion for right-censored regression samples.

A sample is a triple (y, delta, x): observed outcomes Y_i = min(T_i, C_i) on
the log-duration scale, censoring indicators delta_i = 1{T_i <= C_i}, and an
n x p covariate matrix.  No intercept column is added implicitly; supply an
all-ones column if you want one.

A block of R samples of equal size holds the same fields with a leading
replication axis (y and delta (R, n), x (R, n, p)).  The study engine builds
blocks; every formula below is written over that axis, so one sample and a
block run the same code.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
import stat
from dataclasses import MISSING, dataclass, fields

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a caller's array."""
    return _freeze(np.array(a, copy=True))


def _freeze(a: np.ndarray) -> np.ndarray:
    """An array the package has just made, frozen in place (nothing is copied) and returned."""
    a.flags.writeable = False
    return a


def _per_sample(a: np.ndarray):
    """A sample's value as a Python float; a block's values, one per replication, as
    the array ``a`` itself (the record that holds it, built by ``_adopt``, freezes it)."""
    return float(a) if np.ndim(a) == 0 else a


def _adopt(cls, **values):
    """A record of the frozen dataclass ``cls`` over values the package has just made
    (for a sample, rows gathered from a valid sample or a drawn block that passed
    ``_check_entries``): arrays frozen in place, nothing checked or copied, and each
    field not given its class default.  A caller's arrays go through ``cls(...)``."""
    for f in fields(cls):
        if f.name not in values:  # a required field left out raises TypeError here
            values[f.name] = f.default_factory() if f.default is MISSING else f.default
    for a in values.values():
        if isinstance(a, np.ndarray):
            _freeze(a)
    record = object.__new__(cls)
    record.__dict__.update(values)
    return record


def _text(value) -> str:
    """A value as every file and report writes it: a float as its shortest round-trip decimal."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _memo(obj, key: tuple, make):
    """``make()``, computed once and kept on the frozen ``obj``; if it raises, nothing is kept."""
    if key not in obj.__dict__:
        obj.__dict__[key] = make()
    return obj.__dict__[key]


@dataclass(frozen=True)
class SurvivalSample:
    """Right-censored regression sample.

    Attributes
    ----------
    y : (n,) float array
        Observed outcomes, Y_i = min(T_i, C_i).
    delta : (n,) int8 array
        Censoring indicators, 1 = uncensored (event observed), 0 = censored.
        One byte per row, so arithmetic whose result can pass 127 (an
        int8 ``@``, say) must cast to a wider type first; comparisons,
        division, ``mean``, ``sum`` and ``cumsum`` are safe as they are.
    x : (n, p) float array
        Covariates, one row per observation.
    """

    y: np.ndarray
    delta: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        delta = np.asarray(self.delta)
        x = np.asarray(self.x, dtype=float)
        if y.ndim != 1:
            raise ValueError("y must be a 1-d vector")
        if x.ndim != 2:
            raise ValueError("x must be a 2-d matrix")
        n = y.shape[0]
        if delta.shape != (n,) or x.shape[0] != n:
            raise ValueError("y, delta and x must have matching lengths")
        _check_size(n, x.shape[1])
        _check_entries(y, delta, x)
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "delta", _freeze(delta.astype(np.int8)))
        object.__setattr__(self, "x", _frozen(x))

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def p(self) -> int:
        return self.x.shape[-1]


def _check_size(n: int, p: int) -> None:
    if p < 1:
        raise ValueError("at least one covariate column is required")
    if n <= p:
        raise ValueError(f"n must exceed p (got n={n}, p={p})")


def _check_entries(y: np.ndarray, delta: np.ndarray, x: np.ndarray) -> None:
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(x)):
        raise ValueError("y and x entries must be finite")
    if not ((delta == 0) | (delta == 1)).all():
        raise ValueError("delta entries must be 0 or 1")


@dataclass(frozen=True)
class SortedSample:
    """A sample reordered by nondecreasing y, with the sorting permutation and
    the tie groups; made by ``sort_sample``.

    ``perm`` maps sorted position -> original row index, so
    ``base.y[i] == original.y[perm[i]]``.  Within a tie group of equal y,
    uncensored observations come first (deaths before censorings, the
    standard Kaplan-Meier convention).  ``bounds`` holds the tie groups' ascending
    int64 offsets into the flattened (R * n) rows: group g spans rows
    ``bounds[g]:bounds[g + 1]``, from ``bounds[0] == 0`` to ``bounds[-1] == R * n``, and
    a block numbers its replications' groups in one sequence, none spanning two.
    """

    base: SurvivalSample
    perm: np.ndarray
    bounds: np.ndarray


def sort_sample(sample: SurvivalSample) -> SortedSample:
    """Stable sort by (y ascending, delta descending), recording the permutation
    and the tie groups (the runs of equal y); a block sorts each replication.

    The permutation is ``np.lexsort((-delta, y), axis=-1)``'s.  It costs one
    sort of y, plus, only when some tie group has two or more rows, one sort of
    a key unique to each row, 2g + 1 - delta per tie group g, shifted left by
    shift = (n - 1).bit_length() and OR-ed with the row index: it fits in int64 up
    to 2 ** 31 rows (R * n * 2 ** shift <= 2 ** 62).
    """
    shape, n = sample.y.shape, sample.n
    order = np.argsort(sample.y, axis=-1)
    # each sorted row's offset into the flattened (R * n) rows
    offsets = np.arange(0, sample.y.size, n).reshape(shape[:-1] + (1,))
    rows = order + offsets
    y = np.take(sample.y, rows)
    starts = np.ones(y.size + 1, dtype=bool)  # each replication's first row, and R * n
    starts[:-1].reshape(shape)[..., 1:] = y[..., 1:] != y[..., :-1]
    bounds = np.flatnonzero(starts)
    if bounds.size <= y.size:
        # a tie: order each group's rows by (delta descending, row index), which a
        # sort of the unique key gives whatever order the first sort left them in
        shift = (n - 1).bit_length()
        key = np.repeat(np.arange(1, 2 * bounds.size - 2, 2), np.diff(bounds)).reshape(shape)
        key -= np.take(sample.delta, rows)
        key <<= shift
        key |= order
        key.sort(axis=-1)
        order = np.bitwise_and(key, (1 << shift) - 1, out=key)
        rows = order + offsets
        y = np.take(sample.y, rows)
    # np.take copies whole rows; fancy indexing gathers x element by element
    base = _adopt(
        SurvivalSample,
        y=y,
        delta=np.take(sample.delta, rows),
        x=np.take(sample.x.reshape(-1, sample.p), rows, axis=0),
    )
    return _adopt(SortedSample, base=base, perm=order, bounds=bounds)


# The bytes a body may hold for the bulk parse.  On this alphabet every table
# ``np.loadtxt`` returns is what the csv module and ``float()`` read, to the bit,
# as long as no field passes the csv field size limit.
_BULK_ALPHABET = b"0123456789eE+-., \t\r\n"
_LOADTXT = dict(delimiter=",", comments=None, ndmin=2, dtype=float)
_SAME_FILE = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")


def load_csv(path) -> SurvivalSample:
    """Read a sample from a CSV file with header ``y,delta,x1,...,xp``.

    The file, or the pipe, is read as bytes, and a leading UTF-8
    byte-order mark is dropped.  A file that is not ASCII is checked as UTF-8
    once, first, so a byte that is not UTF-8 is named by its own line before
    any header or row error.  The csv module reads and checks the header from
    one UTF-8 view of the bytes; the bytes after it, the body, take one of two
    paths, both giving an (n, p + 2) table for the same ``SurvivalSample``
    constructor (whose n > p check applies to either):

    - **Bulk:** one ``np.loadtxt`` pass, taken only when the body is drawn from
      the digits, ``eE+-.,``, space, tab, CR and LF, no LF-separated line reaches
      ``csv.field_size_limit()`` (``loadtxt`` has no such limit), and the table
      has p + 2 columns, finite entries and every delta 0 or 1.  It skips only
      empty lines and converts as ``float()`` does.  It re-reads an unchanged
      regular file by name, in chunks (CRLF, CR or LF ends a line), and else
      reads the bytes line by line (a CR not followed by LF is rejected).
    - **Scan:** anything else (``nan``, ``inf``, ``1_0``, quoted fields, other
      whitespace, non-ASCII text, long fields, malformed rows) is read row by
      row with ``float()`` by the csv reader that read the header, from the
      same view.  Every error about the body's fields comes from this path.

    Row and line numbers in error messages are 1-based file lines (the header is
    line 1; CRLF, CR and LF each end one); a record spanning several lines is
    named by the line it ends on.  Raises ValueError on any malformed content,
    including text the csv module cannot split into fields and a byte that is
    not UTF-8.
    """
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
        st = os.fstat(fh.fileno())
        whole = isinstance(fh.name, str) and stat.S_ISREG(st.st_mode) and st.st_size == fh.tell()
    if not raw.isascii():
        try:
            raw.decode()
        except UnicodeDecodeError as err:
            line = len(raw[: err.start + 1].splitlines())  # as in csv, CRLF, CR or LF ends a line
            raise ValueError(f"{path}: line {line}: not UTF-8") from None
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as text:
        reader = csv.reader(text)
        try:
            names = _read_header(reader, path)
            # re-read the header's lines to measure them (after a CR, tell() is no
            # offset); the reader then carries on from the body's first line
            text.seek(0)
            header = "".join(text.readline() for _ in range(reader.line_num))
            file = (os.path.join(os.curdir, fh.name), reader.line_num, st) if whole else None
            table = _parse_bulk(raw[len(header.encode()) :], len(names), file)
            if table is None:
                table = _scan(reader, names, path)
        except csv.Error as err:
            raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    return SurvivalSample(y=table[:, 0], delta=table[:, 1], x=table[:, 2:])


def _parse_bulk(raw: bytes, width: int, file: tuple | None) -> np.ndarray | None:
    """The body ``raw`` as an (n, width) table, or None when it needs the scan.  ``file`` is None
    or (name, header lines, stat) of the regular file read as ``raw``; its name starts with "."
    or "/", so numpy never takes it for a URL."""
    # A blank body makes loadtxt warn; the scan reports it as "no data rows".
    if not raw or raw.isspace() or raw.translate(None, _BULK_ALPHABET):
        return None
    # Fall back when a line reaches the csv field size limit, which loadtxt does not
    # enforce.  Such a line covers a whole aligned block of limit // 2 bytes, so only a
    # full block with no LF calls for the gaps between LFs (a line's length plus one).
    limit = csv.field_size_limit()
    block = max(limit // 2, 1)
    if any(raw.find(b"\n", i, i + block) < 0 for i in range(0, len(raw) - block + 1, block)):
        line_ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
        if np.diff(line_ends, prepend=-1, append=len(raw)).max() > limit:
            return None
    try:  # numpy reads a path in large chunks, and anything else line by line
        got = np.loadtxt(file[0], skiprows=file[1], encoding="utf-8", **_LOADTXT) if file else None
        table = got if file and _SAME_FILE(os.stat(file[0])) == _SAME_FILE(file[2]) else None
    except Exception:  # a plain *.gz or *.xz, say, which numpy opens as an archive
        table = None
    try:
        table = np.loadtxt(io.BytesIO(raw), **_LOADTXT) if table is None else table
    except ValueError:
        return None
    ok = table.shape[1] == width and np.isfinite(table).all()
    return table if ok and ((table[:, 1] == 0.0) | (table[:, 1] == 1.0)).all() else None


def _read_header(reader, path) -> list[str]:
    """The column names ``y, delta, x1, ..., xp``, after checking the header row against them."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in header]
    p = len(header) - 2
    expected = _header(p)
    if p < 1 or header != expected:
        raise ValueError(f"{path}: header must be 'y,delta,x1,...,xp', got {','.join(header)!r}")
    return expected


def _header(p: int) -> list[str]:
    return ["y", "delta"] + [f"x{k}" for k in range(1, p + 1)]


def _scan(reader, names: list[str], path) -> np.ndarray:
    """The rows left in the csv ``reader``, checked and parsed with ``float()``, as
    an (n, p + 2) table; a ``csv.Error`` propagates to the caller."""
    rows = []
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num
        if len(row) != len(names):
            raise ValueError(f"{path}: row {lineno}: expected {len(names)} fields, got {len(row)}")
        vals = []
        for col, (name, text) in enumerate(zip(names, row), start=1):
            try:
                vals.append(float(text))
            except ValueError:
                raise ValueError(
                    f"{path}: row {lineno}, column {col} ({name}): cannot parse {text.strip()!r}"
                ) from None
        if vals[1] not in (0.0, 1.0):
            raise ValueError(f"{path}: row {lineno}: delta must be 0 or 1, got {row[1].strip()}")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{path}: row {lineno}: non-finite entry")
        rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows)


def write_csv(sample: SurvivalSample, path) -> None:
    """Write a sample in the ``load_csv`` format.

    Floats use the shortest decimal text that round-trips, so a
    load -> write -> load cycle reproduces the sample bit-exactly.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(sample.p))
        for i in range(sample.n):
            writer.writerow(map(_text, (sample.y[i], sample.delta[i], *sample.x[i])))
