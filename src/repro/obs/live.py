"""Live campaign progress: a reporter thread over the metrics registry.

While a campaign runs, a single daemon thread periodically reads the
process-global :mod:`repro.obs.metrics` registry (the runner's
``campaign.*`` counters and gauges) plus the backend's optional
``live_workers()`` self-report and renders one progress line:

* on a TTY, the line redraws in place (``\\r``, padded to cover the
  previous render) -- a classic single-line progress display;
* on anything else (CI logs, pipes), each render appends one plain
  ``live: ...`` line instead -- greppable, no control characters -- and
  the reporter guarantees at least an opening and a closing line even
  for campaigns faster than one interval.

The reporter is an *observer*: it never touches result rows, stores, or
the backend, so campaigns stay byte-identical with the live view on or
off.  All numbers come from the metrics registry, so the live view adds
no instrumentation of its own.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, List, Optional

from . import metrics


class LiveReporter:
    """Render campaign progress from the metrics registry.

    Args:
        total: scenarios the campaign will resolve (the ETA denominator).
        backend: the active backend; if it exposes ``live_workers()``
            (the socket backend does), a compact per-worker table is
            appended to each render.
        stream: output stream (default ``sys.stderr``; tests pass a
            ``StringIO``).  ``stream.isatty()`` selects redraw vs append
            mode.
        interval: seconds between renders.
    """

    def __init__(self, total: int, backend: Any = None,
                 stream: Any = None, interval: float = 0.5) -> None:
        self.total = total
        self.backend = backend
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._isatty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._stop = threading.Event()
        self._started = time.perf_counter()
        self._last_width = 0
        self._thread = threading.Thread(
            target=self._run, name="live-reporter", daemon=True,
        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "LiveReporter":
        self._started = time.perf_counter()
        self._render()  # guaranteed opening line, even on fast campaigns
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=max(self.interval * 4, 2.0))
        self._render(final=True)  # guaranteed closing line with the totals
        if self._isatty:
            self.stream.write("\n")  # leave the final render on screen
            self.stream.flush()

    def __enter__(self) -> "LiveReporter":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._render()

    # -- rendering -----------------------------------------------------

    def _render(self, final: bool = False) -> None:
        try:
            line = self.compose(final=final)
        except Exception:  # noqa: BLE001 - a broken render must never
            # take the campaign down; the live view is best-effort only.
            return
        if self._isatty:
            padded = line.ljust(self._last_width)
            self._last_width = len(line)
            self.stream.write("\r" + padded)
        else:
            self.stream.write(line + "\n")
        try:
            self.stream.flush()
        except (OSError, ValueError):
            pass

    def compose(self, final: bool = False) -> str:
        """One progress line from the current registry state."""
        registry = metrics.current()
        # Quarantined rows are a subset of failed, so they are not added
        # separately -- completed + failed covers every resolved job.
        done = int(
            registry.value("campaign.completed")
            + registry.value("campaign.failed")
        )
        elapsed = max(time.perf_counter() - self._started, 1e-9)
        rate = done / elapsed
        parts = [
            f"live: {done}/{self.total} done",
            f"{rate:.1f}/s",
            self._eta(done, rate, final),
        ]
        for label, name in (
            ("cached", "campaign.cached"),
            ("failed", "campaign.failed"),
            ("quarantined", "campaign.quarantined"),
        ):
            value = int(registry.value(name))
            if value:
                parts.append(f"{label} {value}")
        workers = self._worker_cells()
        if workers:
            parts.append("workers " + " ".join(workers))
        if final:
            parts.append(f"wall {elapsed:.1f}s")
        return " | ".join(parts)

    def _eta(self, done: int, rate: float, final: bool) -> str:
        if final or done >= self.total:
            return "done"
        if rate <= 0:
            return "eta ?"
        return f"eta {(self.total - done) / rate:.1f}s"

    def _worker_cells(self) -> List[str]:
        """Compact per-worker cells from the backend's wire-v6 report."""
        live_workers = getattr(self.backend, "live_workers", None)
        if live_workers is None:
            return []
        cells = []
        for row in live_workers():
            bits = [f"{row.get('worker')}:"
                    f"{row.get('inflight', 0)}/w{row.get('window', 1)}"]
            if row.get("queue") is not None:
                bits.append(f"q{row['queue']}")
            if row.get("exec/s") is not None:
                bits.append(f"{row['exec/s']}/s")
            if row.get("rtt_ms") is not None:
                bits.append(f"{row['rtt_ms']}ms")
            cells.append("[" + " ".join(str(b) for b in bits) + "]")
        return cells


def render_worker_table(rows: List[Dict[str, Any]]) -> str:
    """A full per-worker table (the ``--live`` final summary and tests).

    Lazy reporting import, like :mod:`repro.obs.stats` -- importing the
    reporting layer at module scope from inside ``repro.obs`` would be
    cyclic.
    """
    from ..reporting.render import format_table

    if not rows:
        return "live: no workers"
    display = [
        {key: ("" if row.get(key) is None else row.get(key))
         for key in ("worker", "inflight", "window", "rtt_ms",
                     "queue", "done", "exec/s", "completed")}
        for row in rows
    ]
    return format_table(
        display,
        ["worker", "inflight", "window", "rtt_ms", "queue", "done",
         "exec/s", "completed"],
        title=f"workers: {len(rows)}",
    )
