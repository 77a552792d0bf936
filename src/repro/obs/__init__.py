"""Observability layer: spans, events, a JSONL telemetry sink, and
structured logging for the campaign stack.

Import surface (everything here is stdlib-only, so lower layers like
:mod:`repro.runtime.store` may import it freely):

* :class:`Telemetry`, :func:`span`, :func:`event`, :func:`activate`,
  :func:`current` -- the span/event API (:mod:`repro.obs.spans`);
* :func:`load_telemetry`, :data:`TELEMETRY_SCHEMA_VERSION` -- sink I/O;
* :func:`configure_logging`, :func:`kv` -- structured logging
  (:mod:`repro.obs.logsetup`);
* :class:`MetricsRegistry`, :data:`NULL_METRIC` -- live counters,
  gauges, and histograms (:mod:`repro.obs.metrics`; instrumentation
  sites use the submodule helpers, ``from repro.obs import metrics``).

:mod:`repro.obs.stats` (the ``repro stats`` renderer) and the renderer
half of :mod:`repro.obs.live` are deliberately *not* imported here: they
pull in :mod:`repro.reporting`, which imports the runtime, which imports
this package -- importing them eagerly would make the package cyclic.
Import them directly when needed.
"""

from .logsetup import LOG_LEVELS, configure_logging, kv
from .metrics import METRICS_SCHEMA_VERSION, MetricsRegistry, NULL_METRIC
from .spans import (
    DISABLED,
    NULL_SPAN,
    Span,
    Telemetry,
    TELEMETRY_SCHEMA_VERSION,
    activate,
    current,
    event,
    load_telemetry,
    span,
)

__all__ = [
    "DISABLED",
    "LOG_LEVELS",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_SPAN",
    "Span",
    "Telemetry",
    "TELEMETRY_SCHEMA_VERSION",
    "activate",
    "configure_logging",
    "current",
    "event",
    "kv",
    "load_telemetry",
    "span",
]
