"""Process-wide metrics registry: counters, gauges, histograms.

Instrument-once, read-anywhere: library code asks the global registry for
a handle (``get_registry().counter("featurize_rows_total")``) and
bumps it; exporters (:mod:`repro.obs.export`) walk the registry to render
Prometheus text or a JSON snapshot.

Cost model: handles are plain attribute updates (no locks on the hot
path; creation is locked).  When telemetry is disabled — environment
``REPRO_TELEMETRY=0``, or :func:`set_enabled` — the registry hands out
shared *null* instruments whose mutators are empty methods, so
instrumented call sites cost one dict lookup and one no-op call.

Histograms use **fixed** bucket bounds chosen at creation.  The default
is log-spaced (:func:`log_buckets`): queue-time-like quantities in this
repo are heavily skewed (87 % of jobs start inside 10 minutes, the tail
reaches days), so uniform bins would waste all their resolution on the
tail.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "log_buckets",
    "set_enabled",
    "telemetry_enabled",
]

_ENV_FLAG = "REPRO_TELEMETRY"

#: Label key/value pairs, frozen into the metric identity.
Labels = tuple[tuple[str, str], ...]


def telemetry_enabled() -> bool:
    """The environment default: on unless ``REPRO_TELEMETRY=0``."""
    return os.environ.get(_ENV_FLAG, "1") != "0"


def log_buckets(
    lo: float, hi: float, per_decade: int = 3
) -> tuple[float, ...]:
    """Log-spaced histogram bounds from ``lo`` to at least ``hi``.

    ``per_decade`` bounds per power of ten; the classic 1-2-5 ladder at
    the default 3.  Suitable for latencies and queue depths whose mass
    sits orders of magnitude below their extremes.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    n = int(math.ceil(per_decade * math.log10(hi / lo))) + 1
    return tuple(lo * 10 ** (k / per_decade) for k in range(n))


#: Seconds-scale default: 1 ms … ~28 h on the 1-2-5-ish ladder.
DEFAULT_TIME_BUCKETS = log_buckets(1e-3, 1e5)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class Histogram:
    """Fixed-bucket histogram with sum and count.

    ``bounds`` are inclusive upper bucket bounds; observations above the
    last bound land in the implicit ``+Inf`` bucket.  ``counts`` holds
    per-bucket (non-cumulative) tallies, one slot per bound plus the
    overflow slot; the Prometheus exporter cumulates them.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Iterable[float]) -> None:
        b = tuple(float(x) for x in bounds)
        if not b or any(y <= x for x, y in zip(b, b[1:])):
            raise ValueError("bucket bounds must be non-empty and increasing")
        self.bounds = b
        self.counts = [0] * (len(b) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, v: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, v)] += 1
        self.sum += v
        self.count += 1


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, v: float) -> None:
        pass

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__((1.0,))

    def observe(self, v: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


def _freeze_labels(labels: Mapping[str, str] | None) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named instruments, keyed by (name, frozen labels).

    ``counter``/``gauge``/``histogram`` are get-or-create and cheap to
    call repeatedly — instrumented code fetches handles at use sites
    rather than threading them through signatures.  Re-registering a name
    as a different instrument kind raises.
    """

    def __init__(self, enabled: bool | None = None) -> None:
        self.enabled = telemetry_enabled() if enabled is None else enabled
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, Labels], Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, type] = {}
        self._help: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    def _get(
        self,
        name: str,
        kind: type,
        labels: Mapping[str, str] | None,
        help: str,
        factory,
    ):
        key = (name, _freeze_labels(labels))
        m = self._metrics.get(key)
        if m is not None:
            if type(m) is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as {type(m).__name__}"
                )
            return m
        with self._lock:
            m = self._metrics.get(key)
            if m is not None:
                if type(m) is not kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(m).__name__}"
                    )
                return m
            seen = self._kinds.get(name)
            if seen is not None and seen is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as {seen.__name__}"
                )
            self._kinds[name] = kind
            if help:
                self._help.setdefault(name, help)
            m = factory()
            self._metrics[key] = m
            return m

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        return self._get(name, Counter, labels, help, Counter)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        return self._get(name, Gauge, labels, help, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        bounds = tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS
        return self._get(name, Histogram, labels, help, lambda: Histogram(bounds))

    # ------------------------------------------------------------------ #
    def items(self) -> list[tuple[str, Labels, Counter | Gauge | Histogram]]:
        """All registered instruments, sorted by (name, labels)."""
        with self._lock:
            entries = sorted(self._metrics.items())
        return [(name, labels, m) for (name, labels), m in entries]

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def snapshot(self) -> dict:
        """JSON-able dump of every instrument's current state."""
        out: dict = {"counters": [], "gauges": [], "histograms": []}
        for name, labels, m in self.items():
            entry: dict = {"name": name, "labels": dict(labels)}
            if isinstance(m, Histogram):
                entry.update(
                    bounds=list(m.bounds),
                    counts=list(m.counts),
                    sum=m.sum,
                    count=m.count,
                )
                out["histograms"].append(entry)
            elif isinstance(m, Gauge):
                entry["value"] = m.value
                out["gauges"].append(entry)
            else:
                entry["value"] = m.value
                out["counters"].append(entry)
        return out

    def reset(self) -> None:
        """Drop every instrument (tests and snapshot-on-exit use this)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
            self._help.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented module writes to."""
    return _REGISTRY


def set_enabled(flag: bool) -> None:
    """Flip telemetry at runtime (the CLI's ``--telemetry`` forces it on).

    Affects handles fetched *after* the call; instrumented code fetches
    at use sites, so this takes effect on the next operation.  Span
    retention follows the same switch.
    """
    _REGISTRY.enabled = bool(flag)
    from repro.obs import tracing  # late import: tracing imports us

    tracing.get_tracer().retain = bool(flag)
