"""Aggregate a telemetry sink into phase/worker breakdowns: ``repro stats``.

Everything here renders *from the sink alone* -- no result store, no live
campaign -- so a telemetry file mailed from a remote run is enough to
answer "where did the wall-clock go".  Three views:

* **phase breakdown** -- per-phase totals across every job: execute,
  serialize, queue wait, in-flight, worker-side deserialize/queue, the
  residual wire+dispatch overhead, store appends, lock wait;
* **per-worker utilization** -- jobs, busy time, window occupancy and
  ping RTTs per socket worker, derived from the ``job`` events;
* **wall-clock summary** -- the campaign span against the accounted
  phases, quantifying exactly how much of a <1x-speedup backend's time
  is overhead rather than execution;
* **resilience summary** -- every recovery action the backend took
  (connect retries, worker deaths, requeues) so a campaign's survival
  story is visible next to its timings.

Rendering reuses :func:`repro.reporting.render.format_table` and
:func:`~repro.reporting.render.sparkline` (imported lazily: this module
sits above the reporting layer, and importing it from ``repro.obs``'s
``__init__`` would be cyclic -- see the package docstring).
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .spans import load_telemetry

#: Job-event phase fields, in pipeline order, with display labels.
#: ``queue_s`` overlaps other jobs' phases by construction (every queued
#: job waits concurrently), so it is reported but excluded from the
#: accounted-time arithmetic.
_JOB_PHASES = (
    ("queue_s", "queue wait*"),
    ("serialize_s", "serialize"),
    ("inflight_s", "in flight"),
    ("deser_s", "deserialize (worker)"),
    ("worker_queue_s", "queue (worker)"),
    ("exec_s", "execute"),
)

#: Span names folded into the breakdown as their own phases.
_SPAN_PHASES = (
    ("store.lock", "lock wait"),
    ("store.append", "store append"),
    ("store.sync", "store sync"),
)

#: Recovery events, in escalation order, with display labels.
_RESILIENCE_EVENTS = (
    ("socket.retry", "connect retry"),
    ("socket.unexpected_frame", "unexpected frame"),
    ("socket.worker_dead", "worker death"),
    ("socket.requeue", "requeue"),
)


def _events(rows: Sequence[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    return [row for row in rows
            if row.get("kind") == "event" and row.get("name") == name]


def _spans(rows: Sequence[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    return [row for row in rows
            if row.get("kind") == "span" and row.get("name") == name]


def campaign_wall(rows: Sequence[Dict[str, Any]]) -> Optional[float]:
    """Wall-clock seconds of the (last) campaign span, if recorded."""
    spans = _spans(rows, "campaign")
    if not spans:
        return None
    return float(spans[-1].get("dur") or 0.0)


def _union_seconds(intervals: Sequence[tuple]) -> float:
    """Total length of the union of ``(start, stop)`` intervals.

    Overlap collapses: ten jobs queueing through the same second
    contribute one second, not ten -- the property that keeps a phase's
    wall-clock share at or below 100%.
    """
    total = 0.0
    edge: Optional[float] = None
    for start, stop in sorted(intervals):
        if edge is None or start > edge:
            total += stop - start
            edge = stop
        elif stop > edge:
            total += stop - edge
            edge = stop
    return total


def phase_breakdown(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-phase totals over every ``job`` event and store/lock span.

    Returns table rows ``{phase, count, total_s, mean_ms, share_%}``.
    ``total_s`` sums per-job durations, so concurrent phases (every
    queued job waits at once) can legitimately exceed the wall clock.
    ``share_%`` answers a different question -- "what fraction of the
    campaign wall saw this phase active?" -- so it reconstructs each
    job's phase *intervals* on the telemetry clock (job events are
    emitted when the result lands; phases are laid out backwards from
    ``at`` on the driver side and forwards from dispatch on the worker
    side) and divides the union of those intervals by the wall.  By
    construction every share is <= 100%, no matter how many jobs
    overlap.  Blank without a campaign span.

    Includes a synthetic ``wire+dispatch`` phase: the per-job residual
    ``inflight - deserialize - worker queue - execute`` -- time a job
    was in flight but provably not executing: framing, TCP, and driver
    loop overhead.
    """
    jobs = _events(rows, "job")
    wall = campaign_wall(rows)
    spans = _spans(rows, "campaign")
    clip: Optional[tuple] = None
    if spans:
        last = spans[-1]
        if last.get("start") is not None and last.get("dur") is not None:
            start = float(last["start"])
            clip = (start, start + float(last["dur"]))

    totals: Dict[str, List[float]] = defaultdict(list)
    intervals: Dict[str, List[tuple]] = defaultdict(list)

    def mark(label: str, start: float, stop: float) -> None:
        if clip is not None:
            start, stop = max(start, clip[0]), min(stop, clip[1])
        if stop > start:
            intervals[label].append((start, stop))

    for job in jobs:
        attrs = job.get("attrs") or {}
        for field, label in _JOB_PHASES:
            value = attrs.get(field)
            if value is not None:
                totals[label].append(float(value))
        inflight = attrs.get("inflight_s")
        wire = None
        if inflight is not None:
            residual = float(inflight)
            for field in ("deser_s", "worker_queue_s", "exec_s"):
                residual -= float(attrs.get(field) or 0.0)
            wire = max(residual, 0.0)
            totals["wire+dispatch"].append(wire)

        at = job.get("at")
        if at is None:
            continue
        at = float(at)
        exec_s = float(attrs.get("exec_s") or 0.0)
        if inflight is None:
            # Local (serial/pool) job: only execute is known,
            # ending at the event timestamp.
            mark("execute", at - exec_s, at)
            continue
        # Socket job: the event fires when its result frame lands, so
        # the job was in flight over [at - inflight, at].  Driver-side
        # phases precede dispatch; worker-side phases are laid out
        # forward from dispatch (~ receipt), the worker queue_s covering
        # the wait behind the jobs ahead of it.
        inflight = float(inflight)
        sent = at - inflight
        mark("in flight", sent, at)
        serialize = float(attrs.get("serialize_s") or 0.0)
        mark("serialize", sent - serialize, sent)
        queue = float(attrs.get("queue_s") or 0.0)
        mark("queue wait*", sent - serialize - queue, sent - serialize)
        worker_queue = float(attrs.get("worker_queue_s") or 0.0)
        mark("queue (worker)", sent, sent + worker_queue)
        deser = float(attrs.get("deser_s") or 0.0)
        mark("deserialize (worker)", sent + worker_queue,
             sent + worker_queue + deser)
        mark("execute", sent + worker_queue + deser,
             sent + worker_queue + deser + exec_s)
        if wire:
            mark("wire+dispatch", at - wire, at)

    for span_name, label in _SPAN_PHASES:
        for span in _spans(rows, span_name):
            dur = float(span.get("dur") or 0.0)
            totals[label].append(dur)
            if span.get("start") is not None:
                mark(label, float(span["start"]), float(span["start"]) + dur)
    for connect in _events(rows, "socket.connect"):
        value = (connect.get("attrs") or {}).get("dur_s")
        if value is not None:
            totals["connect"].append(float(value))
            if connect.get("at") is not None:
                mark("connect", float(connect["at"]) - float(value),
                     float(connect["at"]))

    order = [label for _, label in _JOB_PHASES]
    order.insert(order.index("execute"), "wire+dispatch")
    order += ["connect"] + [label for _, label in _SPAN_PHASES]
    breakdown = []
    for label in order:
        values = totals.get(label)
        if not values:
            continue
        total = sum(values)
        share: Any = ""
        if wall:
            spanned = intervals.get(label)
            # Union of reconstructed intervals when the events carry
            # timestamps; a sink without them falls back to the summed
            # total (historic behaviour, capped only by honesty).
            active = _union_seconds(spanned) if spanned else total
            share = round(active / wall * 100, 1)
        breakdown.append({
            "phase": label,
            "count": len(values),
            "total_s": round(total, 4),
            "mean_ms": round(total / len(values) * 1e3, 3),
            "share_%": share,
        })
    return breakdown


def _peak_overlap(intervals: Sequence[tuple]) -> int:
    """Most ``(start, stop)`` intervals open at once.

    Where one interval closes at the instant another opens, the sweep
    takes the close first, so back-to-back intervals never count as
    overlapping.
    """
    edges = sorted([(start, 1) for start, _ in intervals]
                   + [(stop, -1) for _, stop in intervals])
    peak = level = 0
    for _, step in edges:
        level += step
        peak = max(peak, level)
    return peak


def worker_utilization(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-worker table derived from the socket ``job`` events.

    A ``job`` event fires when its result lands, so each socket job was
    in flight over ``[at - inflight_s, at]`` on the telemetry clock.
    Per worker: ``jobs`` counts those intervals, ``busy_s`` is their
    union, ``util_%`` is ``busy_s`` over the campaign wall, ``mean_win``
    is the summed in-flight seconds over the wall (the mean number of
    jobs in flight) and ``peak_win`` is the most intervals open at once.
    The driver sends a job only after the previous result's event is
    recorded, so ``peak_win`` never exceeds the pipeline window.
    ``rtt_ms`` is the mean ``socket.connect``/``socket.ping`` round
    trip.  ``util_%`` and ``mean_win`` are blank without a campaign
    span.
    """
    intervals: Dict[str, List[tuple]] = defaultdict(list)
    for job in _events(rows, "job"):
        attrs = job.get("attrs") or {}
        worker, inflight = attrs.get("worker"), attrs.get("inflight_s")
        if worker and inflight is not None and job.get("at") is not None:
            at = float(job["at"])
            intervals[worker].append((at - float(inflight), at))
    rtts: Dict[str, List[float]] = defaultdict(list)
    for name in ("socket.connect", "socket.ping"):
        for event in _events(rows, name):
            attrs = event.get("attrs") or {}
            if attrs.get("worker") and attrs.get("rtt_s") is not None:
                rtts[attrs["worker"]].append(float(attrs["rtt_s"]))
    wall = campaign_wall(rows)
    table = []
    for worker in sorted(intervals):
        spans = intervals[worker]
        busy = _union_seconds(spans)
        samples = rtts.get(worker)
        table.append({
            "worker": worker,
            "jobs": len(spans),
            "busy_s": round(busy, 6),
            "util_%": round(busy / wall * 100, 1) if wall else "",
            "mean_win": (round(sum(stop - start for start, stop in spans)
                               / wall, 3) if wall else ""),
            "peak_win": _peak_overlap(spans),
            "rtt_ms": (round(sum(samples) / len(samples) * 1e3, 3)
                       if samples else ""),
        })
    return table


def coverage(rows: Sequence[Dict[str, Any]]) -> Optional[float]:
    """Fraction of the campaign wall clock the telemetry accounts for.

    Socket campaigns: mean over workers of ``(connect + sum(serialize +
    in-flight)) / wall`` -- phases that occupy the worker's driver thread
    end to end, so with one worker and ``window=1`` this approaches 1.0.
    Local campaigns: ``(execute + store phases) / wall``.  ``None``
    without a campaign span.
    """
    wall = campaign_wall(rows)
    if not wall:
        return None
    busy: Dict[str, float] = defaultdict(float)
    local_exec = 0.0
    for job in _events(rows, "job"):
        attrs = job.get("attrs") or {}
        worker = attrs.get("worker")
        if worker and attrs.get("inflight_s") is not None:
            busy[worker] += float(attrs.get("serialize_s") or 0.0)
            busy[worker] += float(attrs["inflight_s"])
        else:
            local_exec += float(attrs.get("exec_s") or 0.0)
    for connect in _events(rows, "socket.connect"):
        attrs = connect.get("attrs") or {}
        if attrs.get("worker") and attrs.get("dur_s") is not None:
            busy[attrs["worker"]] += float(attrs["dur_s"])
    if busy:
        return sum(min(total / wall, 1.0) for total in busy.values()) / len(busy)
    store_s = sum(
        float(span.get("dur") or 0.0)
        for name, _ in _SPAN_PHASES
        for span in _spans(rows, name)
    )
    return min((local_exec + store_s) / wall, 1.0)


def resilience_summary(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Recovery-action table over the backend's resilience events.

    One row per event kind that occurred -- ``{event, count, detail}``
    where detail compresses the most useful attribute: which workers
    died, how many scenarios were requeued.
    Empty for a campaign that never had to recover from anything.
    """
    table = []
    for name, label in _RESILIENCE_EVENTS:
        events = _events(rows, name)
        if not events:
            continue
        detail = ""
        if name == "socket.worker_dead":
            workers = sorted({
                (event.get("attrs") or {}).get("worker", "?")
                for event in events
            })
            detail = ", ".join(workers)
        elif name == "socket.requeue":
            total = sum(
                int((event.get("attrs") or {}).get("count") or 0)
                for event in events
            )
            detail = f"{total} scenario(s)"
        table.append({"event": label, "count": len(events), "detail": detail})
    return table


def wallclock_summary(rows: Sequence[Dict[str, Any]],
                      sink_bytes: Optional[int] = None) -> Dict[str, Any]:
    """The "where did the wall-clock go" numbers, as one flat dict.

    ``sink_bytes`` is the on-disk size of the telemetry sidecar itself
    (the sink grows unbounded on long campaigns, so its own weight is
    part of the story); ``None`` when the rows did not come from a file.
    """
    jobs = _events(rows, "job")
    exec_total = sum(
        float((job.get("attrs") or {}).get("exec_s") or 0.0) for job in jobs
    )
    # Overhead = every second a job spent in the pipeline but not
    # executing: serialize + (in flight - execute), i.e. wire framing,
    # worker-side queueing, and deserialization combined.
    overhead = 0.0
    for job in jobs:
        attrs = job.get("attrs") or {}
        inflight = attrs.get("inflight_s")
        if inflight is None:
            continue
        overhead += float(attrs.get("serialize_s") or 0.0)
        overhead += max(float(inflight) - float(attrs.get("exec_s") or 0.0),
                        0.0)
    stats_events = _events(rows, "campaign.stats")
    campaign_stats = (stats_events[-1].get("attrs") or {}) if stats_events else {}
    return {
        "wall_s": campaign_wall(rows),
        "jobs": len(jobs),
        "execute_s": round(exec_total, 4),
        "overhead_s": round(overhead, 4),
        "coverage": coverage(rows),
        "backend": campaign_stats.get("backend"),
        "executed": campaign_stats.get("executed"),
        "cached": campaign_stats.get("cached"),
        "failed": campaign_stats.get("failed"),
        "sink_bytes": sink_bytes,
    }


def render_stats(rows: Sequence[Dict[str, Any]],
                 source: Optional[str] = None,
                 sink_bytes: Optional[int] = None) -> str:
    """The full ``repro stats`` text: header, phase table, worker table,
    execute-time sparkline, wall-clock summary."""
    from ..reporting.render import format_table, sparkline

    summary = wallclock_summary(rows, sink_bytes=sink_bytes)
    lines = []
    header = f"telemetry: {len(rows)} row(s)"
    if source:
        header += f" from {source}"
    if summary["backend"]:
        header += f" | backend {summary['backend']}"
    if summary["wall_s"] is not None:
        header += f" | campaign wall {summary['wall_s']:.3f}s"
    lines.append(header)

    breakdown = phase_breakdown(rows)
    if breakdown:
        lines.append("")
        lines.append(format_table(
            breakdown, ["phase", "count", "total_s", "mean_ms", "share_%"],
            title="phase breakdown",
        ))
        if any(row["phase"] == "queue wait*" for row in breakdown):
            lines.append("* queued jobs wait concurrently; total_s sums "
                         "that overlap (and can exceed the wall), share_% "
                         "collapses it to distinct wall-clock time")

    workers = worker_utilization(rows)
    if workers:
        lines.append("")
        lines.append(format_table(
            workers, ["worker", "jobs", "busy_s", "util_%", "mean_win",
                      "peak_win", "rtt_ms"],
            title="worker utilization",
        ))

    resilience = resilience_summary(rows)
    if resilience:
        lines.append("")
        lines.append(format_table(
            resilience, ["event", "count", "detail"],
            title="resilience (recovery actions)",
        ))

    exec_ms = [
        float((job.get("attrs") or {}).get("exec_s") or 0.0) * 1e3
        for job in _events(rows, "job")
    ]
    if exec_ms:
        lines.append("")
        lines.append(f"execute ms over time: {sparkline(exec_ms)} "
                     f"(min {min(exec_ms):.2f}, max {max(exec_ms):.2f})")

    lines.append("")
    wall = summary["wall_s"]
    parts = [f"jobs {summary['jobs']}",
             f"execute {summary['execute_s']:.3f}s"]
    if summary["overhead_s"]:
        parts.append(f"dispatch+wire+queue overhead {summary['overhead_s']:.3f}s")
        if summary["execute_s"]:
            parts.append(
                "overhead/execute ratio "
                f"{summary['overhead_s'] / summary['execute_s']:.2f}x"
            )
    if wall:
        parts.append(f"wall {wall:.3f}s")
    if summary["coverage"] is not None:
        parts.append(f"telemetry accounts for {summary['coverage'] * 100:.1f}%"
                     " of wall time")
    if summary["sink_bytes"] is not None:
        parts.append(f"sink bytes {summary['sink_bytes']}")
    lines.append("where did the wall-clock go: " + " | ".join(parts))
    return "\n".join(lines)


def main_stats(path: Union[str, Path]) -> int:
    """``python -m repro stats TELEMETRY``: render a sink file; exit 0.

    Exit 2 when the file is missing or unreadable, or when several runs
    wrote it: ``--telemetry`` appends, and each run's clock restarts at
    its own ``meta`` row, so their rows cannot be rendered as one
    campaign.
    """
    import os
    import sys

    try:
        rows = load_telemetry(path)
    except FileNotFoundError:
        print(f"error: no such telemetry file: {path}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runs = sum(1 for row in rows if row["kind"] == "meta")
    if runs > 1:
        print(f"error: {path} holds {runs} runs (one meta row each); "
              "give each run its own --telemetry path", file=sys.stderr)
        return 2
    print(render_stats(rows, source=str(path),
                       sink_bytes=os.path.getsize(path)))
    return 0
