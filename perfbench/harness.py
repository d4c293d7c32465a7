"""Timing, correctness gate and host fingerprint for the benchmark.

A run times several identical passes of one workload and keeps the
fastest.  On a shared host a slowdown is interference that adds to the
program's own cost, never subtracts from it, so the fastest of several
passes is the closest estimate of that cost; the median pass moves with
whatever else the host is doing.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
TAIL_SAMPLES = 10


def fastest_pass(durations: list[float]) -> float:
    """The shortest timed pass."""
    if not durations:
        raise ValueError("no timed passes")
    return min(durations)


def fastest_segments(segments: list[list[float]]) -> float:
    """The estimator behind ``work_per_s``: the fastest pass, taken one
    fixed segment of the pass at a time.

    ``segments[i][j]`` is how long pass ``i`` spent in its ``j``-th
    segment.  Every pass runs the same segments, so the sum over
    segments of each one's shortest time estimates a pass with no
    interference in it.  On a host whose slow periods last seconds, a
    short segment finds a quiet moment far more often than a whole pass
    does.  With one segment per pass this is :func:`fastest_pass`.
    """
    if not segments:
        raise ValueError("no timed passes")
    if len({len(row) for row in segments}) != 1:
        raise ValueError("passes ran different segments")
    return sum(min(column) for column in zip(*segments))


def pass_spread(durations: list[float]) -> float:
    """Slowest pass over fastest pass; 1.0 on a quiet host."""
    return max(durations) / fastest_pass(durations)


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


def digest(*parts: bytes | str) -> str:
    """Short content digest of one pass output."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
        h.update(b"\x00")
    return h.hexdigest()[:24]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_ops_per_s(loops: int = 5, ops: int = 200_000) -> float:
    """Rate of a fixed pure-Python loop, best of ``loops`` tries.

    Recorded beside each run so a slow host can be told apart from a
    slow change; never used to adjust a metric.
    """
    best = math.inf
    for _ in range(loops):
        start = time.perf_counter()
        total = 0
        for i in range(ops):
            total += i & 7
        best = min(best, time.perf_counter() - start)
    return ops / best


def host_fingerprint() -> dict:
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "calib_ops_per_s": calibration_ops_per_s(),
    }


class DigestGate:
    """Checks every pass's output digests against a reference.

    The reference is the warm-up pass, and for seeds listed in
    ``recorded`` also the digests stored beside the benchmark.  A pass
    that disagrees anywhere counts all its work items as failed.
    """

    def __init__(self, recorded: dict[str, str] | None = None) -> None:
        self.recorded = recorded or {}
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(
        self, digests: dict[str, str], items: int, label: str, problems=()
    ) -> bool:
        """Record one pass; ``problems`` are failed output invariants."""
        self.attempted += items
        expected = [self.recorded]
        if self.reference is None:
            self.reference = dict(digests)
        else:
            expected.append(self.reference)
        bad = sorted(
            {
                key
                for reference in expected
                for key, value in reference.items()
                if digests.get(key) != value
            }
        ) + list(problems)
        if bad:
            self.failed += items
            self.mismatches.append(f"{label}: {'; '.join(bad)}")
        return not bad


@dataclass
class PassLog:
    """Timings of one series of timed passes."""

    durations: list[float] = field(default_factory=list)
    segments: list[list[float]] = field(default_factory=list)
    items: int = 0

    @property
    def work_per_s(self) -> float:
        return self.items / fastest_segments(self.segments)


def timed_passes(
    prepare: Callable[[], None],
    run_pass: Callable[[Callable[[], None]], tuple[int, object]],
    check: Callable[[object, int, bool], None],
    seconds: float,
    min_passes: int,
) -> PassLog:
    """Run identical passes until ``seconds`` have gone by and at least
    ``min_passes`` passes were timed.

    ``prepare()`` readies one pass outside the clock.  ``run_pass(lap)``
    is the only code inside it: it returns ``(items, output)`` and calls
    ``lap()`` where one segment of the pass ends and the next begins.
    ``check(output, items, fastest)`` verifies the output afterwards and
    learns whether this pass beat every earlier one.  ``gc.collect()``
    runs before every pass so no pass pays for garbage left by the one
    before.
    """
    log = PassLog()
    deadline = time.perf_counter() + seconds
    while len(log.durations) < min_passes or time.perf_counter() < deadline:
        prepare()
        gc.collect()
        stamps = [time.perf_counter()]
        items, output = run_pass(lambda: stamps.append(time.perf_counter()))
        stamps.append(time.perf_counter())
        log.durations.append(stamps[-1] - stamps[0])
        log.segments.append([b - a for a, b in zip(stamps, stamps[1:])])
        log.items = items
        check(output, items, log.durations[-1] == fastest_pass(log.durations))
    return log
