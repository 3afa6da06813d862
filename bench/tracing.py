"""Span tracing of zmclab's public functions, installed from outside the package.

A wrapper replaces a function at every module attribute of zmclab that
resolves to it, because callers bind names at import time
(``from .numerics import rk4_step``): patching only the defining module
would miss ``zmclab.evolution.rk4_step`` and ``zmclab.profiles.rk4_step``.
Leaving the ``patched`` context puts every original back.

Spans live in memory until the run ends. A span's parent is the innermost
traced call that was open when it started, so self time is a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

NO_PARENT = -1


class Span(NamedTuple):
    id: int
    parent: int
    pass_id: int
    label: str
    name: str
    start_ns: int
    end_ns: int
    counts: dict | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records one span per call of each function it wraps.

    ``pass_id`` and ``label`` are set by the caller before each pass and
    each operation; every span records the values current at its start.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = -1
        self.label = ""
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int, int, str]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else NO_PARENT
        self._stack.append(sid)
        return sid, parent, self.pass_id, self.label

    def _close(self, opened, name, start, end, counts) -> None:
        self._stack.pop()
        sid, parent, pass_id, label = opened
        self.spans.append(Span(sid, parent, pass_id, label, name, start, end, counts))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        opened = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(opened, name, start, time.perf_counter_ns(), None)

    def wrapper(self, counter: Callable | None = None):
        """Wrapper factory for ``patched``: time each call, and when the call
        returns, record ``counter(args, kwargs, result)`` outside the span."""

        def make(name: str, fn: Callable) -> Callable:
            clock = time.perf_counter_ns

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                opened = self._open()
                start = clock()
                returned = False
                try:
                    result = fn(*args, **kwargs)
                    returned = True
                    return result
                finally:
                    end = clock()
                    counts = (
                        counter(args, kwargs, result)
                        if counter is not None and returned
                        else None
                    )
                    self._close(opened, name, start, end, counts)

            return traced

        return make


def counting_wrapper(sink: dict, counter: Callable):
    """Wrapper factory that only adds ``counter(args, kwargs, result)`` into
    ``sink``; it takes no time stamps, so untimed work counts stay cheap."""

    def make(name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, value in counter(args, kwargs, result).items():
                sink[key] = sink.get(key, 0) + value
            return result

        return counted

    return make


def _bindings(original) -> list:
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "zmclab" or mod_name.startswith("zmclab.")):
            continue
        for attr, value in vars(mod).items():
            if value is original:
                found.append((mod, attr))
    return found


@contextlib.contextmanager
def patched(replacements: dict):
    """Install ``make(qualname, original)`` for each ``qualname -> make``.

    A qualname is ``module.function`` relative to the zmclab package. Every
    binding of the function inside zmclab is replaced; a qualname that names
    nothing is an error, so a renamed layer fails loudly instead of
    reporting zero calls.
    """
    saved = []
    try:
        for qualname, make in replacements.items():
            module_name, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"zmclab.{module_name}"], attr)
            wrapped = make(qualname, original)
            for mod, key in _bindings(original):
                saved.append((mod, key, original))
                setattr(mod, key, wrapped)
        yield
    finally:
        for mod, key, original in reversed(saved):
            setattr(mod, key, original)


class LayerTotals(NamedTuple):
    calls: int
    busy_ns: int
    self_ns: int
    counts: dict


def totals_by_pass(spans: list[Span]) -> dict:
    """{pass_id: {name: LayerTotals}} with self time from direct children."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent != NO_PARENT:
            child_ns[s.parent] += s.duration_ns
    acc: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, defaultdict(int)]))
    for s in spans:
        row = acc[s.pass_id][s.name]
        row[0] += 1
        row[1] += s.duration_ns
        row[2] += s.duration_ns - child_ns.get(s.id, 0)
        for key, value in (s.counts or {}).items():
            row[3][key] += value
    return {
        pid: {name: LayerTotals(r[0], r[1], r[2], dict(r[3])) for name, r in names.items()}
        for pid, names in acc.items()
    }


def median_over_passes(per_pass: dict, value: Callable) -> float:
    """Median over passes of ``value(totals_of_one_pass)``."""
    if not per_pass:
        return 0.0
    return statistics.median(value(totals) for totals in per_pass.values())


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "parent", "pass", "label", "name", "start_ns", "end_ns"))
        for s in spans:
            writer.writerow((s.id, s.parent, s.pass_id, s.label, s.name, s.start_ns, s.end_ns))
