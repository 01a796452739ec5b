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
from dataclasses import dataclass

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


def _per_sample(a: np.ndarray):
    """A sample's value as a Python float; a block's values, one per replication, as
    the fresh array ``a``, made read-only in place."""
    if np.ndim(a) == 0:
        return float(a)
    a.flags.writeable = False
    return a


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
    standard Kaplan-Meier convention).  Sorted row i lies in tie group
    ``group[i]``, which spans rows ``first[g]:stop[g]``.  In a block the tie
    groups of all replications are numbered in one sequence, and ``first``
    and ``stop`` are offsets into the flattened (R * n) rows, so a group
    never spans two replications.
    """

    base: SurvivalSample
    perm: np.ndarray
    group: np.ndarray
    first: np.ndarray
    stop: np.ndarray


def sort_sample(sample: SurvivalSample) -> SortedSample:
    """Stable sort by (y ascending, delta descending), recording the permutation
    and the tie groups (the runs of equal y); a block sorts each replication.

    The permutation is ``np.lexsort((-delta, y), axis=-1)``'s.  It costs one
    sort of y, plus, only when some tie group has two or more rows, one sort of
    a key unique to each row: (group * 2 + 1 - delta) * n + row index.
    """
    shape, n = sample.y.shape, sample.n
    order = np.argsort(sample.y, axis=-1)
    # each sorted row's offset into the flattened (R * n) rows
    offsets = np.arange(0, sample.y.size, n).reshape(shape[:-1] + (1,))
    rows = order + offsets
    y = sample.y.ravel()[rows]
    starts = np.ones(shape, dtype=bool)
    starts[..., 1:] = y[..., 1:] != y[..., :-1]
    first = np.flatnonzero(starts)
    stop = np.append(first[1:], y.size)
    group = np.repeat(np.arange(first.shape[0]), stop - first).reshape(shape)
    if first.shape[0] < y.size:
        # a tie: order each group's rows by (delta descending, row index), which a
        # sort of the unique key gives whatever order the first sort left them in
        key = (group * 2 + 1 - sample.delta.ravel()[rows]) * n + order
        order = np.sort(key, axis=-1) % n
        rows = order + offsets
        y = sample.y.ravel()[rows]
    for a in (order, group, first, stop):
        a.flags.writeable = False
    base = _adopt(
        y=y,
        delta=sample.delta.ravel()[rows],
        x=sample.x.reshape(-1, sample.p)[rows],
    )
    return SortedSample(base=base, perm=order, group=group, first=first, stop=stop)


def _adopt(y: np.ndarray, delta: np.ndarray, x: np.ndarray) -> SurvivalSample:
    """A sample or block over fresh arrays that already pass ``SurvivalSample``'s
    checks (rows gathered from a valid sample, or a drawn block that passed
    ``_check_entries``): frozen in place, not checked or copied."""
    sample = object.__new__(SurvivalSample)
    for name, a in (("y", y), ("delta", delta), ("x", x)):
        a.flags.writeable = False
        object.__setattr__(sample, name, a)
    return sample


# The bytes a body may hold for the bulk parse.  On this alphabet every table
# ``np.loadtxt`` returns is what the csv module and ``float()`` read, to the bit,
# as long as no field passes the csv field size limit.
_BULK_ALPHABET = b"0123456789eE+-., \t\r\n"


def load_csv(path) -> SurvivalSample:
    """Read a sample from a CSV file with header ``y,delta,x1,...,xp``.

    The csv module reads and checks the header.  The body then takes one of
    two paths, both ending in the same ``SurvivalSample`` constructor (whose
    n > p check applies to either):

    - **Bulk:** one ``np.loadtxt`` pass over the rest of the file, taken only
      when the file can be rewound, the body is ASCII drawn from the digits,
      ``eE+-.,``, space, tab, CR and LF, no LF-separated line reaches
      ``csv.field_size_limit()`` (``loadtxt`` has no such limit), and the
      parsed table has p + 2 columns, at least one row, finite entries and
      every delta 0 or 1.  On that alphabet ``loadtxt`` rejects any CR not
      followed by LF, skips only empty lines and converts with the same
      correctly rounded routine as ``float()``.
    - **Scan:** anything else (``nan``, ``inf``, ``1_0``, quoted fields, other
      whitespace, non-ASCII digits, long fields, malformed rows) rewinds and
      is read row by row with the csv module and ``float()``.  Every error
      about the file's text comes from this path.

    Row numbers in error messages are 1-based file lines (the header is
    line 1); a record spanning several lines is named by the line it ends
    on.  Raises ValueError on any malformed content, including text the csv
    module cannot split into fields.
    """
    with open(path, newline="") as fh:
        if fh.seekable():
            table = _parse_bulk(fh, path)
            if table is not None:
                return SurvivalSample(y=table[:, 0], delta=table[:, 1], x=table[:, 2:])
            fh.seek(0)
        return _scan(fh, path)


def _parse_bulk(fh, path) -> np.ndarray | None:
    """The body as an (n, p + 2) table, or None when it needs the scan."""
    try:
        width = len(_read_header(csv.reader(fh), path))
        body = fh.read()
    except (csv.Error, ValueError):
        return None
    # A blank body makes loadtxt warn; the scan reports it as "no data rows".
    if not body or body.isspace() or not body.isascii():
        return None
    raw = body.encode("ascii")
    if raw.translate(None, _BULK_ALPHABET):
        return None
    # Each gap between LFs is a line's length plus one; fall back when a line
    # reaches the csv field size limit, which loadtxt does not enforce.
    line_ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
    if np.diff(line_ends, prepend=-1, append=len(raw)).max() > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if table.shape[0] < 1 or table.shape[1] != width:
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
        raise ValueError(
            f"{path}: header must be 'y,delta,x1,...,xp', got {','.join(header)!r}"
        )
    return expected


def _header(p: int) -> list[str]:
    return ["y", "delta"] + [f"x{k}" for k in range(1, p + 1)]


def _scan(fh, path) -> SurvivalSample:
    """Read the CSV text stream ``fh`` row by row with the csv module and ``float()``."""
    reader = csv.reader(fh)
    try:
        expected = _read_header(reader, path)
        p = len(expected) - 2
        ys, deltas, rows = [], [], []
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != p + 2:
                raise ValueError(f"{path}: row {lineno}: expected {p + 2} fields, got {len(row)}")
            vals = []
            for col, (name, text) in enumerate(zip(expected, row), start=1):
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
            ys.append(vals[0])
            deltas.append(int(vals[1]))
            rows.append(vals[2:])
    except csv.Error as err:
        raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    if not ys:
        raise ValueError(f"{path}: no data rows")
    return SurvivalSample(y=np.array(ys), delta=np.array(deltas), x=np.array(rows))


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
