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
from dataclasses import MISSING, dataclass, fields

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


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
            a.flags.writeable = False
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
    delta : (n,) int array
        Censoring indicators, 1 = uncensored (event observed), 0 = censored.
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
        object.__setattr__(self, "delta", _frozen(delta.astype(np.int64)))
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
    standard Kaplan-Meier convention).  Tie group g spans rows
    ``first[g]:stop[g]``.  In a block the tie groups of all replications are
    numbered in one sequence, and ``first`` and ``stop`` are offsets into the
    flattened (R * n) rows, so a group never spans two replications.
    """

    base: SurvivalSample
    perm: np.ndarray
    first: np.ndarray
    stop: np.ndarray


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
    starts = np.ones(shape, dtype=bool)
    starts[..., 1:] = y[..., 1:] != y[..., :-1]
    first = np.flatnonzero(starts)
    stop = np.append(first[1:], y.size)
    if first.shape[0] < y.size:
        # a tie: order each group's rows by (delta descending, row index), which a
        # sort of the unique key gives whatever order the first sort left them in
        shift = (n - 1).bit_length()
        key = np.repeat(np.arange(1, 2 * first.shape[0], 2), stop - first).reshape(shape)
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
    return _adopt(SortedSample, base=base, perm=order, first=first, stop=stop)


# The bytes a body may hold for the bulk parse.  On this alphabet every table
# ``np.loadtxt`` returns is what the csv module and ``float()`` read, to the bit,
# as long as no field passes the csv field size limit.
_BULK_ALPHABET = b"0123456789eE+-., \t\r\n"


def load_csv(path) -> SurvivalSample:
    """Read a sample from a CSV file with header ``y,delta,x1,...,xp``.

    The file, or the pipe, is read once as bytes, and a leading UTF-8
    byte-order mark is dropped.  A file that is not ASCII is checked as UTF-8
    once, first, so a byte that is not UTF-8 is named by its own line before
    any header or row error.  The csv module reads and checks the header from
    one UTF-8 view of the bytes; the bytes after it, the body, take one of two
    paths, both giving an (n, p + 2) table for the same ``SurvivalSample``
    constructor (whose n > p check applies to either):

    - **Bulk:** one ``np.loadtxt`` pass over the undecoded bytes, taken only
      when the body is drawn from the digits, ``eE+-.,``, space, tab, CR and
      LF, no LF-separated line reaches ``csv.field_size_limit()`` (``loadtxt``
      has no such limit), and the parsed table has p + 2 columns, finite
      entries and every delta 0 or 1.  On that alphabet ``loadtxt`` rejects
      any CR not followed by LF, skips only empty lines and converts with the
      same correctly rounded routine as ``float()``.
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
            table = _parse_bulk(raw[len(header.encode()) :], len(names))
            if table is None:
                table = _scan(reader, names, path)
        except csv.Error as err:
            raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    return SurvivalSample(y=table[:, 0], delta=table[:, 1], x=table[:, 2:])


def _parse_bulk(raw: bytes, width: int) -> np.ndarray | None:
    """The body ``raw`` as an (n, width) table, or None when it needs the scan."""
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
    try:
        table = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if table.shape[1] != width:
        return None
    delta = table[:, 1]
    if not (((delta == 0.0) | (delta == 1.0)).all() and np.isfinite(table).all()):
        return None
    return table


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
