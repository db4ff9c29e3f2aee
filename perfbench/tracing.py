"""Spans, self time and timing summaries for the benchmark.

Pure Python on purpose: ``selftest.py`` checks this arithmetic on synthetic
data without importing numpy or the program.

A span records one call into a layer: its name, start, end and the span that
was open when it started.  Spans are kept in memory by a :class:`Tracer` and
read after the run.  A span's *self time* is its duration minus the part of
its interval that its child spans cover; children may nest or overlap, and
each covered instant counts once.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Percentiles considered for a timing summary, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A summary's percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """An in-memory span recorder with a stack of open spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def wrapped(self, function, name):
        """``function`` with every call recorded as a span called ``name``.

        ``name`` is a string, or a function of the call's arguments that
        returns the span's name.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            with self.span(label):
                return function(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets: Sequence[Tuple[object, str, str]]) -> Iterator[None]:
        """Wrap ``owner.attribute`` in spans for the duration of the block.

        Each target is ``(owner, attribute, name)``, with ``name`` as in
        :meth:`wrapped`; the owner is the
        module or class through which the program looks the function up, so
        the program's own calls pass through the wrapper.
        """
        saved = [(owner, attribute, getattr(owner, attribute)) for owner, attribute, _ in targets]
        try:
            for owner, attribute, name in targets:
                setattr(owner, attribute, self.wrapped(getattr(owner, attribute), name))
            yield
        finally:
            for owner, attribute, original in saved:
                setattr(owner, attribute, original)

    def children(self) -> Dict[Optional[int], List[int]]:
        table: Dict[Optional[int], List[int]] = {}
        for index, span in enumerate(self.spans):
            table.setdefault(span.parent, []).append(index)
        return table

    def self_times(self) -> List[float]:
        """The self time of every span, aligned with :attr:`spans`."""
        table = self.children()
        result = []
        for index, span in enumerate(self.spans):
            kids = [(self.spans[k].start, self.spans[k].end) for k in table.get(index, [])]
            result.append(self_time((span.start, span.end), kids))
        return result

    def descendants(self, root: int) -> List[int]:
        table = self.children()
        found, stack = [], [root]
        while stack:
            for child in table.get(stack.pop(), []):
                found.append(child)
                stack.append(child)
        return found


def covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if min(end, high) > max(start, low)
    )
    total, run_start, run_end = 0.0, None, None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(span: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    start, end = span
    return (end - start) - covered(children, start, end)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` % at or below it."""
    ordered = sorted(values)
    return float(ordered[_rank(q, len(ordered)) - 1])


def _rank(q: float, count: int) -> int:
    # Rounded first so that, say, 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q / 100.0 * count, 9)))


@dataclass(frozen=True)
class TimingSummary:
    count: int
    median: float
    #: The highest ladder percentile with at least MIN_SAMPLES_BEYOND samples
    #: above its rank, or ``None`` when the sample is too small for any.
    tail_percentile: Optional[float]
    tail_value: Optional[float]

    def describe(self, unit: str = "s") -> str:
        text = f"median {self.median:.6g} {unit}"
        if self.tail_percentile is None:
            return text + f" (n={self.count}; too few samples for a tail percentile)"
        return text + f", p{self.tail_percentile:g} {self.tail_value:.6g} {unit} (n={self.count})"


def summarize(values: Sequence[float]) -> TimingSummary:
    """The median plus the highest percentile with ten samples beyond it."""
    count = len(values)
    for q in PERCENTILE_LADDER:
        if count - _rank(q, count) >= MIN_SAMPLES_BEYOND:
            return TimingSummary(count, median(values), q, percentile(values, q))
    return TimingSummary(count, median(values), None, None)
