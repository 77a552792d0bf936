"""Metrics registry: process-global counters and gauges.

The second observability layer.  Spans (:mod:`repro.obs.spans`) answer
*where the time went* after a campaign finishes; metrics answer *what is
happening right now* while it runs: completed/cached/failed counts, store
append bytes, socket pipeline occupancy, cache hit rates.  The live
progress reporter (:mod:`repro.obs.live`) reads its counters and gauges
while the campaign runs.

Design constraints mirror the span layer:

* **near-zero overhead when disabled** -- the common case.  The
  module-level :func:`inc` / :func:`set_gauge` / :func:`inc_gauge`
  helpers return after one attribute check against the process-global
  registry, and :meth:`MetricsRegistry.counter` /
  :meth:`MetricsRegistry.gauge` hand out one shared no-op metric
  (:data:`NULL_METRIC`) while disabled, so the disabled path allocates
  nothing (identity- and allocation-tested like ``NULL_SPAN``);
* **thread-safe** -- all mutation happens under one registry lock (the
  socket driver updates from per-worker threads).

Values are read one at a time with :meth:`MetricsRegistry.value`.

Activation follows the :mod:`logging` model (one process-global current
registry, disabled by default), exactly like ``spans.activate``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from ..analysis.watchdog import traced_lock


class _NullMetric:
    """The shared no-op metric handed out while metrics are disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass


#: The one disabled-path metric instance; identity-tested by the
#: zero-allocation tests (mirrors ``NULL_SPAN``).
NULL_METRIC = _NullMetric()


class Counter:
    """A monotonically increasing count (events, bytes, rows)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: Any) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down (inflight jobs, window size)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: Any) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount


class MetricsRegistry:
    """A named family of counters and gauges.

    Args:
        enabled: a disabled registry records nothing and hands out the
            shared :data:`NULL_METRIC`; :data:`DISABLED_REGISTRY` is the
            canonical disabled instance.

    Metric objects are created lazily on first use and live for the
    registry's lifetime; :meth:`value` reads one of them.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # Watchdog-instrumented: this lock nests *inside* the store
        # writer lock (runner holds the lockfile while instrumentation
        # fires) and must never be held *around* it.
        self._lock = traced_lock("MetricsRegistry._lock")
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    # -- metric handles ------------------------------------------------

    def counter(self, name: str) -> Any:
        if not self.enabled:
            return NULL_METRIC
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name, self._lock)
        return metric

    def gauge(self, name: str) -> Any:
        if not self.enabled:
            return NULL_METRIC
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name, self._lock)
        return metric

    # -- one-shot conveniences (the instrumentation-site API) ----------

    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def value(self, name: str, default: float = 0) -> float:
        """The current value of a counter or gauge (0 when absent)."""
        with self._lock:
            if name in self._counters:
                return self._counters[name].value
            if name in self._gauges:
                return self._gauges[name].value
        return default

    def reset(self) -> None:
        """Drop every metric (tests; per-campaign reuse)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        with self._lock:
            sizes = (len(self._counters), len(self._gauges))
        return (f"<MetricsRegistry {state} counters={sizes[0]} "
                f"gauges={sizes[1]}>")


#: The always-off registry every process starts with.
DISABLED_REGISTRY = MetricsRegistry(enabled=False)

_current: MetricsRegistry = DISABLED_REGISTRY
_current_lock = threading.Lock()


def current() -> MetricsRegistry:
    """The process-global active registry (disabled by default)."""
    return _current


class _Activation:
    """Context manager restoring the previously active registry."""

    __slots__ = ("registry", "_previous")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        global _current
        with _current_lock:
            self._previous = _current
            _current = self.registry
        return self.registry

    def __exit__(self, *exc_info: Any) -> None:
        global _current
        with _current_lock:
            _current = self._previous or DISABLED_REGISTRY


def activate(registry: MetricsRegistry) -> _Activation:
    """Make ``registry`` the process-global current registry for the
    duration of a ``with`` block (the previous one restored on exit).

    Process-global by design, exactly like ``spans.activate``:
    instrumentation points (store appends, runner accounting, the socket
    driver's per-worker threads) call the module-level helpers instead of
    threading a registry through every signature.
    """
    return _Activation(registry)


def inc(name: str, amount: float = 1) -> None:
    """Increment a counter on the current registry (no-op when off)."""
    registry = _current
    if registry.enabled:
        registry.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the current registry (no-op when off)."""
    registry = _current
    if registry.enabled:
        registry.set_gauge(name, value)


def inc_gauge(name: str, amount: float = 1) -> None:
    """Move a gauge up or down on the current registry (no-op when off).

    For level-style gauges (jobs in flight) maintained from several
    threads, where ``set`` would race: ``inc`` composes under the
    registry lock."""
    registry = _current
    if registry.enabled:
        registry.gauge(name).inc(amount)
