"""Simulated wall clock.

Every component of the simulation reads time from a shared
:class:`SimClock` owned by the event loop; nothing ever consults the
real system clock, which keeps runs deterministic and allows the
campaign scheduler to pretend a measurement happened in a given
calendar week.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """Monotonically advancing simulated time in milliseconds.

    ``now_ms`` is a plain attribute: it is read for nearly every
    simulated packet, so it is kept one attribute load away.  Move it
    only through :meth:`advance_to`.
    """

    def __init__(self, start_ms: float = 0.0):
        #: Current simulated time in milliseconds.
        self.now_ms = float(start_ms)

    def advance_to(self, time_ms: float) -> None:
        """Move the clock forward to ``time_ms``; never backwards."""
        if time_ms < self.now_ms:
            raise ValueError(
                f"clock cannot move backwards: {time_ms} < {self.now_ms}"
            )
        self.now_ms = time_ms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(now_ms={self.now_ms:.3f})"
