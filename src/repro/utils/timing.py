"""Lightweight timing helpers used by benchmarks and the CLI.

The hpc-parallel guides stress *measure before optimising*; :class:`Timer`
is the minimal instrument for that: a context manager / stopwatch with
monotonic clocks and accumulated laps, cheap enough to leave in hot paths
behind a flag.  For structured, nested timing use
:func:`repro.obs.tracing.span` instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Timer"]


@dataclass
class Timer:
    """Accumulating stopwatch.

    Usage::

        t = Timer()
        with t:
            work()
        print(t.elapsed)

    Repeated ``with`` blocks accumulate into :attr:`elapsed` and count laps.
    Re-entrant: nested ``with`` blocks on the same instance each time their
    own region (start times are a stack, so an inner block cannot clobber
    an outer block's start).
    """

    elapsed: float = 0.0
    laps: int = 0
    _starts: list[float] = field(default_factory=list, repr=False)

    def __enter__(self) -> "Timer":
        self._starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed += time.perf_counter() - self._starts.pop()
        self.laps += 1

    def reset(self) -> None:
        """Zero the accumulated time and lap count."""
        self.elapsed = 0.0
        self.laps = 0

    @property
    def mean(self) -> float:
        """Mean seconds per lap (0.0 before any lap completes)."""
        return self.elapsed / self.laps if self.laps else 0.0
