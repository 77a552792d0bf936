"""The execution-backend contract shared by every campaign backend.

A :class:`Backend` turns deduplicated pending work -- ``(scenario hash,
spec)`` pairs -- into a stream of ``(hash, ok, row)`` results, in any
order.  :class:`~repro.runtime.runner.CampaignRunner` owns everything
else (store cache, dedup, reassembly in scenario order), which is what
makes backends interchangeable: rows are a pure function of each spec
(see :mod:`repro.runtime.execute`), so two backends that execute the
same pending set are row-for-row identical however they schedule it.

Contract:

* ``submit(pending)`` yields exactly one ``(key, ok, row)`` triple per
  distinct input key (backends that may observe duplicate results --
  e.g. after requeueing work from a dead worker -- deduplicate by key);
* ``ok`` is ``False`` iff execution raised, in which case ``row`` is an
  ``{"error": ...}`` dict (see :func:`execute_job`) that the runner
  reports but never caches;
* ``close()`` releases any held resources (connections, pools); a
  closed backend must not be submitted to again;
* the capability flags ``parallel`` and ``distributed`` describe the
  backend to callers (CLI summaries, tests) without isinstance checks.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..execute import execute_spec
from ..scenario import ScenarioSpec

#: One unit of backend work: ``(scenario hash, spec)``.
Job = Tuple[str, ScenarioSpec]
#: One backend result: ``(scenario hash, ok, row-or-error)``.
JobResult = Tuple[str, bool, Dict[str, Any]]
#: A job result plus its timing sidecar: ``(hash, ok, row, timing)``.
TimedJobResult = Tuple[str, bool, Dict[str, Any], Dict[str, Any]]


class BackendError(RuntimeError):
    """A backend could not run (or finish) the submitted work."""


def execute_job(job: Job) -> JobResult:
    """Execute one job; never raises.

    The single execution entry point shared by every backend (serial
    in-process, pool workers, TCP workers): failures become ``ok=False``
    error rows so a crashing scenario is reported -- and retried on the
    next run -- instead of poisoning the store or killing the campaign.
    """
    key, spec = job
    try:
        return key, True, execute_spec(spec)
    except Exception as exc:  # noqa: BLE001 - reported as a failed row
        return key, False, {"error": f"{type(exc).__name__}: {exc}"}


def timed_execute_job(job: Job) -> TimedJobResult:
    """:func:`execute_job` plus a timing sidecar; never raises.

    The telemetry execution path.  The sidecar carries the measured
    execute wall time (``exec_s``, monotonic clock) and the scenario's
    cache statistics (``perf``, from :func:`repro.perf.cache_report` via
    ``execute_spec(collect_perf=True)``).  Crucially the *row* returned
    is byte-identical to the plain :func:`execute_job` row: the perf
    block is popped out of the row and into the sidecar, so telemetry
    never leaks into stored results.  Module-level so a ``fork``/``spawn``
    pool can pickle it like ``execute_job``.
    """
    key, spec = job
    start = time.perf_counter()
    try:
        row = execute_spec(spec, collect_perf=True)
    except Exception as exc:  # noqa: BLE001 - reported as a failed row
        timing = {"exec_s": time.perf_counter() - start}
        return key, False, {"error": f"{type(exc).__name__}: {exc}"}, timing
    timing = {"exec_s": time.perf_counter() - start, "perf": row.pop("perf", None)}
    return key, True, row, timing


class Backend:
    """Base class: capability flags, context management, the submit hook."""

    #: Stable backend name (CLI choice, summaries, test labels).
    name: str = "abstract"
    #: Whether scenarios may execute concurrently.
    parallel: bool = False
    #: Whether execution can leave this machine.
    distributed: bool = False

    def submit(self, pending: List[Job]) -> Iterator[JobResult]:
        """Execute ``pending``; yield one ``(key, ok, row)`` per key."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; the default backend holds none."""

    def summary(self) -> Optional[str]:
        """One human line about the last ``submit`` (``None`` if dull)."""
        return None

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
