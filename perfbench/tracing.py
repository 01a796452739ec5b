"""Spans around calls into robustaft, recorded from outside the package.

The tracer wraps every public function of ``robustaft.__all__`` plus
``robustaft.cli.main`` and rebinds each module attribute that refers to one
of them, so calls made inside the package (``simulation`` calling
``sort_sample``, ``inference`` calling ``censoring_km``) are recorded too.
Classes are left alone: rebinding them would break the package's own
``isinstance`` checks.

A span is ``(id, parent, op, key, start, end, exc)``: ``key`` is
``<module>.<function>`` with the module's short name, ``parent`` the id of
the enclosing span (-1 for none), ``op`` the operation id and ``exc`` the
name of an exception that first surfaced at this span ("" otherwise).
Spans stay in memory until :func:`write_spans` is called.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import re
import sys
import time
from collections import defaultdict


class Tracer:
    """Span recorder.

    ``observers`` maps a span key to a function of that call's return value
    giving ``{counter: amount}``; the amounts are summed into ``counts``, so
    counters are taken where the work happens.
    """

    def __init__(self, observers=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._seen_exc: list[BaseException] = []
        self._installed: list[tuple[object, str, object]] = []
        self.op = -1
        self.observers = observers or {}
        self.counts: dict[str, float] = defaultdict(float)

    # -- spans ---------------------------------------------------------------
    def begin(self, key: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self.op, key, time.perf_counter(), 0.0, ""])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, exc: BaseException | None = None) -> None:
        span = self.spans[sid]
        span[5] = time.perf_counter()
        self._stack.pop()
        if exc is not None and not any(e is exc for e in self._seen_exc):
            self._seen_exc.append(exc)
            span[6] = type(exc).__name__

    def wrap(self, fn, key: str):
        observe = self.observers.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(sid, exc)
                raise
            self.end(sid)
            if observe is not None:
                for name, amount in observe(result).items():
                    self.counts[name] += amount
            return result

        return traced

    # -- installation ----------------------------------------------------------
    def install(self, package) -> list[str]:
        """Wrap the package's public functions and cli.main; return the span keys."""
        cli = importlib.import_module(package.__name__ + ".cli")
        targets = {}
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isfunction(obj):
                targets[obj] = obj
        targets[cli.main] = cli.main
        wrapped = {fn: self.wrap(fn, span_key(fn)) for fn in targets}
        for modname, module in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapped[value])
        return sorted(span_key(fn) for fn in targets)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()


def span_key(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and merged where they
    overlap, so each covered instant is subtracted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s[1] >= 0:
            children[s[1]].append((s[4], s[5]))
    out = {}
    for s in spans:
        start, end = s[4], s[5]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[0], ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[0]] = (end - start) - covered
    return out


def write_spans(spans, path) -> None:
    with gzip.open(path, "wt", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "parent", "op", "module", "function", "start", "end", "exc"])
        for sid, parent, op, key, start, end, exc in spans:
            module, function = key.split(".", 1)
            writer.writerow([sid, parent, op, module, function, repr(start), repr(end), exc])


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s(\s*)(\S+)\s*$")


def parse_importtime(stderr: str, prefix: str = "robustaft") -> dict[str, float]:
    """Cumulative import seconds of each ``prefix`` module from ``-X importtime`` output.

    The package itself is keyed by its own name, submodules by their short name.
    """
    out = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        name = m.group(4)
        if name == prefix or name.startswith(prefix + "."):
            out[name.rsplit(".", 1)[-1]] = int(m.group(2)) / 1e6
    return out
