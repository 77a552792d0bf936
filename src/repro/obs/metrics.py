"""Metrics registry: process-global counters.

The registry holds three counters, each a fact the benchmark harness
reads after a traced pass: ``socket.requeues`` (scenarios a dead worker
handed back), ``store.appends`` and ``store.append_bytes`` (result-store
lines and their bytes).  Every other runtime number has one source of
its own: the runner's ``CampaignStats``, the socket driver's link state,
or the telemetry spans and events of :mod:`repro.obs.spans`.

Design constraints mirror the span layer's:

* **near-zero overhead when disabled** -- the common case.  The
  module-level :func:`inc` returns after one attribute check against the
  process-global registry, so the disabled path allocates nothing
  (allocation-tested like ``NULL_SPAN``);
* **thread-safe** -- every increment happens under one registry lock,
  so any thread may count.

Activation follows the :mod:`logging` model (one process-global current
registry, disabled by default), exactly like ``spans.activate``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from ..analysis.watchdog import traced_lock


class MetricsRegistry:
    """A named family of counters.

    Args:
        enabled: a disabled registry records nothing;
            :data:`DISABLED_REGISTRY` is the canonical disabled instance.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # Watchdog-instrumented: this lock nests *inside* the store
        # writer lock (runner holds the lockfile while instrumentation
        # fires) and must never be held *around* it.
        self._lock = traced_lock("MetricsRegistry._lock")
        self._counters: Dict[str, float] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def value(self, name: str, default: float = 0) -> float:
        """The current value of a counter (``default`` when absent)."""
        with self._lock:
            return self._counters.get(name, default)


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

    Process-global by design, exactly like ``spans.activate``: the store
    and the socket driver call the module-level :func:`inc` instead of
    threading a registry through every signature.
    """
    return _Activation(registry)


def inc(name: str, amount: float = 1) -> None:
    """Increment a counter on the current registry (no-op when off)."""
    registry = _current
    if registry.enabled:
        registry.inc(name, amount)
