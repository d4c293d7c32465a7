"""Spans around the program's public entry points, from outside it.

:class:`Tracer` replaces a function on the module or class its caller
looks it up from (``repro.web.scanner.run_exchange``,
``repro.core.flow_table.decode_datagram``, ...) with a wrapper that
records one span per call: name, start and end in nanoseconds, the
index of the enclosing span and the run id.  Spans stay in memory; the
benchmark writes those of one pass out when it ends.  A layer's self
time is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable

#: span fields, in tuple order
NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        return stack, index, parent

    def _close(self, stack, index, parent, name, start) -> None:
        stack.pop()
        self.spans[index] = (name, start, time.perf_counter_ns(), parent, self.run_id)

    @contextmanager
    def span(self, name: str):
        """A span around benchmark-side code (a request, a query)."""
        stack, index, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(stack, index, parent, name, start)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` with a span per call.

        ``before(args)`` runs ahead of the call and its value is handed
        to ``after(tracer, args, result, token)``, which may count what
        the call did; neither runs inside the span.
        """
        _open, _close = self._open, self._close

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            stack, index, parent = _open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                _close(stack, index, parent, name, start)
            if after is not None:
                after(self, args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn: Callable[..., Iterable]) -> Callable:
        """A generator function with one span per item it produces."""
        _open, _close = self._open, self._close

        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                stack, index, parent = _open()
                start = time.perf_counter_ns()
                try:
                    item = next(iterator)
                except StopIteration:
                    _close(stack, index, parent, name + ".end", start)
                    return
                _close(stack, index, parent, name, start)
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def patch(self, owner, attr: str, name: str, iterate: bool = False, **hooks) -> None:
        """Wrap ``owner.attr`` in place until :meth:`unpatch_all`."""
        original = getattr(owner, attr)
        wrapper = (
            self.wrap_iter(name, original) if iterate else self.wrap(name, original, **hooks)
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self, run_id: int) -> None:
        """Forget recorded spans and counters; the next pass is ``run_id``."""
        self.spans = []
        self.counters = defaultdict(float)
        self.run_id = run_id

    # -- analysis --------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                out.write(json.dumps([index, name, start, end, parent, run]) + "\n")


def self_times(spans: list[tuple]) -> list[int]:
    """Per span: its duration minus the union of its children's
    intervals, clipped to its own."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(end - start - covered)
    return result


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (time inside the outermost
    span of that name) and ``self_s``."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for index, span in enumerate(spans):
        name = span[NAME]
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += own[index] / 1e9
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["busy_s"] += (span[END] - span[START]) / 1e9
    return totals
