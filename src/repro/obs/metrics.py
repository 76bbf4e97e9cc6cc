"""Metrics registry: counters and simulated-time histograms.

Protocols and the MDS server report structured measurements here via
the :class:`~repro.obs.hub.Observability` hooks instead of writing
trace strings.  The hub's own metrics are folded by its hooks as they
run: each hook observes its histograms on the spot and counts its
category in a plain table, which ``refresh`` copies into the counters
when the registry is *read* — every query below first calls it;
:meth:`MetricsRegistry.inc` and :meth:`MetricsRegistry.observe` write
and copy nothing.  A disabled hub counts nothing, so its registry
stays empty.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.metrics import percentile
from repro.analysis.streaming import EXACT_THRESHOLD, SKETCH_SIZE, StreamingStats
from repro.sim.monitor import nothing_to_fold


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value:g})"


class Histogram:
    """A distribution of observations (simulated-time values).

    Backed by a :class:`~repro.analysis.streaming.StreamingStats`
    accumulator: below the exact threshold the raw values are buffered
    and every summary reproduces the historical list computation
    byte-for-byte; above it the histogram holds O(1) memory in
    observation count and quantiles come from the deterministic sketch
    (keyed by the histogram name, so summaries stay reproducible).
    """

    __slots__ = ("name", "_stats", "observe")

    def __init__(
        self, name: str, exact_threshold: int = EXACT_THRESHOLD, sketch_size: int = SKETCH_SIZE
    ) -> None:
        self.name = name
        self._stats = StreamingStats(
            label=name, exact_threshold=exact_threshold, sketch_size=sketch_size
        )
        #: ``observe(value)`` records one observation: the accumulator's
        #: own method, so an observation enters one frame, not two.
        self.observe = self._stats.observe

    @property
    def values(self) -> list[float]:
        """Raw observations in arrival order (exact mode only)."""
        return self._stats.values

    @property
    def count(self) -> int:
        return self._stats.count

    @property
    def total(self) -> float:
        # Exact mode keeps the legacy arrival-order summation; the
        # sketch approximates the total from the running mean.
        if self._stats.mode == "exact":
            return sum(self._stats.values)
        return self._stats.mean * self._stats.count

    @property
    def mean(self) -> float:
        if self._stats.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        if self._stats.mode == "exact":
            return self.total / self._stats.count
        return self._stats.mean

    @property
    def minimum(self) -> float:
        if self._stats.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self._stats.minimum

    @property
    def maximum(self) -> float:
        if self._stats.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self._stats.maximum

    def quantile(self, pct: float) -> float:
        """Interpolated percentile of the observations."""
        if self._stats.mode == "exact":
            return percentile(self._stats.values, pct)
        return self._stats.quantile(pct)

    def summary(self) -> dict[str, Any]:
        """Plain-data summary (for exporters and run results).

        Exact-mode documents carry the historical keys only, so every
        committed metrics snapshot stays byte-identical; sketch-mode
        summaries add ``"mode": "sketch"`` (key-presence discipline).
        """
        if self._stats.count == 0:
            return {"count": 0}
        doc: dict[str, Any] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.quantile(50.0),
            "p95": self.quantile(95.0),
            "p99": self.quantile(99.0),
        }
        if self._stats.mode != "exact":
            doc["mode"] = self._stats.mode
        return doc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Named counters and histograms, created on first use; each
    histogram with the registry's exact threshold and sketch size."""

    def __init__(
        self, exact_threshold: int = EXACT_THRESHOLD, sketch_size: int = SKETCH_SIZE
    ) -> None:
        self._bounds = {"exact_threshold": exact_threshold, "sketch_size": sketch_size}
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Brings the counters up to date before a query (the hub's).
        self.refresh: Callable[[], None] = nothing_to_fold

    def _counter(self, name: str) -> Counter:
        """Counter ``name``, created if new; folds nothing (a write path)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def _histogram(self, name: str) -> Histogram:
        """Histogram ``name``, created if new; folds nothing."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, **self._bounds)
        return histogram

    def counter(self, name: str) -> Counter:
        self.refresh()
        return self._counter(name)

    def histogram(self, name: str) -> Histogram:
        self.refresh()
        return self._histogram(name)

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Bump counter ``name``."""
        self._counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        self._histogram(name).observe(value)

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view of every metric, sorted by name."""
        self.refresh()
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
        }
