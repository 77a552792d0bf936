"""Live campaign progress: a reporter thread over the runner's stats.

While a campaign runs, a single daemon thread periodically reads the
runner's :class:`~repro.runtime.runner.CampaignStats` (executed, cached
and failed counts, which the runner's loop updates as results land)
plus the backend's optional ``live_workers()`` rows and renders one
progress line:

* on a TTY, the line redraws in place (``\\r``, padded to cover the
  previous render) -- a classic single-line progress display;
* on anything else (CI logs, pipes), each render appends one plain
  ``live: ...`` line instead -- greppable, no control characters -- and
  the reporter guarantees at least an opening and a closing line even
  for campaigns faster than one interval.

The reporter is an *observer*: it never touches result rows, stores, or
the backend, so campaigns stay byte-identical with the live view on or
off.  It reads numbers the runner and the backend already keep; reads
of plain ints are atomic under the GIL, so a render may be one result
stale but never torn.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, List


class LiveReporter:
    """Render campaign progress from the runner's stats.

    Args:
        stats: the running campaign's ``CampaignStats``; its
            ``executed``, ``failed`` and ``cached`` counts are read on
            every render.
        total: scenarios the campaign will execute (the ETA denominator).
        backend: the active backend; if it exposes ``live_workers()``
            (the socket backend does), one compact cell per worker is
            appended to each render.
        stream: output stream (default ``sys.stderr``; tests pass a
            ``StringIO``).  ``stream.isatty()`` selects redraw vs append
            mode.
        interval: seconds between renders.
    """

    def __init__(self, stats: Any, total: int, backend: Any = None,
                 stream: Any = None, interval: float = 0.5) -> None:
        self.stats = stats
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
        """One progress line from the campaign's current stats."""
        stats = self.stats
        done = stats.executed + stats.failed
        elapsed = max(time.perf_counter() - self._started, 1e-9)
        rate = done / elapsed
        parts = [
            f"live: {done}/{self.total} done",
            f"{rate:.1f}/s",
            self._eta(done, rate, final),
        ]
        for label, value in (("cached", stats.cached),
                             ("failed", stats.failed)):
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
        """One ``[addr:inflight/wN done C RTTms]`` cell per worker, from
        the driver-side rows of the backend's ``live_workers()``."""
        live_workers = getattr(self.backend, "live_workers", None)
        if live_workers is None:
            return []
        cells = []
        for row in live_workers():
            bits = [f"{row['worker']}:{row['inflight']}/w{row['window']}",
                    f"done {row['completed']}"]
            if row.get("rtt_ms") is not None:
                bits.append(f"{row['rtt_ms']}ms")
            cells.append("[" + " ".join(bits) + "]")
        return cells
