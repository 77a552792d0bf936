"""Campaign runner: orchestrate scenario sets over pluggable backends.

:class:`CampaignRunner` takes any iterable of scenarios (typically a
:class:`~repro.runtime.scenario.ScenarioGrid`), splits it into cached and
pending work against an optional :class:`~repro.runtime.store.ResultStore`,
hands the pending set to an execution :class:`Backend
<repro.runtime.backends.Backend>` -- in-process serial, a
``multiprocessing`` pool, or TCP socket workers -- and reassembles rows
in scenario order.

Determinism contract: every scenario's row is a pure function of its spec
(see :mod:`repro.runtime.execute`), duplicate specs are executed once, and
results are keyed by content hash, so every backend is row-for-row
identical to a serial run regardless of scheduling, sharding, or worker
deaths.  Failures never poison the cache: a scenario that raises yields an
``error`` row that is reported but not stored, so the next run retries it.

Writer exclusion: when a store is attached and there is pending work,
:meth:`CampaignRunner.run` holds the store's exclusive lockfile for the
duration of execution (see :meth:`ResultStore.acquire_lock
<repro.runtime.store.ResultStore.acquire_lock>`), so two campaigns
pointed at one JSONL cannot interleave partial lines; the second fails
fast with :class:`~repro.runtime.store.StoreLockError`.  Read-only probes
(:meth:`CampaignRunner.pending`) never take the lock.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..obs.spans import Telemetry, activate, current
from .backends import Backend, SerialBackend
from .scenario import ScenarioGrid, ScenarioSpec
from .store import ResultStore

ScenarioSource = Union[ScenarioGrid, Iterable[ScenarioSpec]]


@dataclass
class CampaignStats:
    """Execution accounting for one :meth:`CampaignRunner.run` call."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    deduplicated: int = 0


@dataclass
class CampaignResult:
    """Ordered result rows plus how they were obtained."""

    rows: List[Dict[str, Any]]
    stats: CampaignStats = field(default_factory=CampaignStats)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        """Iterate over result rows in scenario order."""
        return iter(self.rows)

    def __len__(self) -> int:
        """Number of result rows (one per input scenario)."""
        return len(self.rows)

    def ok_rows(self) -> List[Dict[str, Any]]:
        """The rows of successfully executed scenarios (no ``error`` key)."""
        return [row for row in self.rows if "error" not in row]

    def raise_on_failure(self) -> "CampaignResult":
        """Raise if any scenario failed, quoting the first error; returns
        self for chaining.  Callers that want pre-runtime semantics (an
        exception instead of error rows) call this before aggregating."""
        if self.stats.failed:
            first = next(row["error"] for row in self.rows if "error" in row)
            raise RuntimeError(
                f"{self.stats.failed} scenario(s) failed; first error: {first}"
            )
        return self


class CampaignRunner:
    """Run scenario campaigns with caching over a pluggable backend.

    Args:
        store: optional result store; cached scenarios are not re-executed
            and fresh rows are persisted as they complete, under the
            store's exclusive writer lockfile.
        backend: the execution backend for pending scenarios (e.g. a
            :class:`SocketBackend <repro.runtime.backends.SocketBackend>`
            connected to remote workers); :class:`SerialBackend` when
            ``None``.  The runner never builds or closes a backend, so
            one backend can serve many campaigns;
            :func:`~repro.runtime.backends.make_backend` builds one by
            name.
        telemetry: enable the observability sidecar for this runner's
            campaigns -- a JSONL sink path (str/``Path``; the sink file a
            ``repro stats`` invocation reads), or a ready
            :class:`~repro.obs.Telemetry` instance (e.g. in-memory, for
            tests).  The telemetry is *activated* process-globally for
            the duration of each run, so backends and the store record
            into it without signature changes; result rows are unaffected
            (byte-identical with telemetry on or off).
        live: render a live progress line (throughput, ETA, per-worker
            state) to stderr while the campaign runs -- a single-line TTY
            redraw, plain ``live:`` append lines otherwise.  It reads the
            run's :class:`CampaignStats` and the backend's
            ``live_workers()`` rows.  Result rows are unaffected
            (byte-identical with the live view on or off).
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        backend: Optional[Backend] = None,
        telemetry: Optional[Union[str, Path, Telemetry]] = None,
        live: bool = False,
    ) -> None:
        self.store = store
        self.backend = SerialBackend() if backend is None else backend
        self.telemetry = telemetry
        self.live = live

    def run(self, scenarios: ScenarioSource) -> CampaignResult:
        """Execute a campaign; returns rows in scenario order."""
        telemetry, owned_telemetry = self._resolve_telemetry()
        with ExitStack() as stack:
            if telemetry is None:
                # No telemetry of our own: run under whatever is already
                # active (usually the disabled default; maybe a caller's).
                active = current()
            else:
                if owned_telemetry:
                    # Registered before activation so close runs after
                    # deactivation (LIFO).
                    stack.callback(telemetry.close)
                stack.enter_context(activate(telemetry))
                active = telemetry
            return self._run(scenarios, active)

    def _run(self, scenarios: ScenarioSource,
             telemetry: Telemetry) -> CampaignResult:
        specs = self._materialize(scenarios)
        stats = CampaignStats(total=len(specs))
        keyed = [(spec.scenario_hash(), spec) for spec in specs]

        results, pending = self._split(keyed)
        stats.cached = len(results)
        stats.deduplicated = len(keyed) - len(results) - len(pending)

        backend = self.backend
        campaign_span = telemetry.span("campaign", total=len(specs),
                                       backend=backend.name)
        locked = self.store is not None and bool(pending)
        with campaign_span:
            if locked:
                with telemetry.span("campaign.resync"):
                    # ``store.lock`` span inside: lock-wait time.
                    self.store.acquire_lock()
                    # Another campaign may have appended rows between our
                    # store snapshot and winning the lock; re-split against
                    # the on-disk truth so its work is served, not
                    # re-executed and re-stored.
                    self.store.reload()
                    results, pending = self._split(keyed)
                    stats.cached = len(results)
                    stats.deduplicated = (
                        len(keyed) - len(results) - len(pending)
                    )
            reporter = None
            if self.live:
                from ..obs.live import LiveReporter
                reporter = LiveReporter(stats, len(pending), backend=backend)
            try:
                if reporter is not None:
                    reporter.start()
                try:
                    for key, ok, row in backend.submit(pending):
                        results[key] = row
                        if ok:
                            stats.executed += 1
                            if self.store is not None:
                                self.store.put(key, row)
                        else:
                            stats.failed += 1
                finally:
                    if reporter is not None:
                        reporter.stop()
                if self.store is not None:
                    with telemetry.span("store.sync"):
                        self.store.sync()
            finally:
                if locked:
                    self.store.release_lock()
            campaign_span.set(executed=stats.executed, cached=stats.cached,
                              failed=stats.failed)
        telemetry.event("campaign.stats", total=stats.total,
                        executed=stats.executed, cached=stats.cached,
                        failed=stats.failed,
                        deduplicated=stats.deduplicated,
                        backend=backend.name)

        rows = [results[key] for key, _ in keyed]
        return CampaignResult(rows=rows, stats=stats)

    def _resolve_telemetry(self) -> Tuple[Optional[Telemetry], bool]:
        """The telemetry to activate, plus whether this run owns (and
        must close) it.  ``None`` means run under the ambient one."""
        if self.telemetry is None:
            return None, False
        if isinstance(self.telemetry, Telemetry):
            return self.telemetry, False
        return Telemetry(self.telemetry), True

    def pending(self, scenarios: ScenarioSource) -> List[ScenarioSpec]:
        """The scenarios :meth:`run` would actually execute.

        Deduplicates the input by content hash and drops everything the
        store already holds, without executing anything -- a cheap probe
        of how much of a campaign a warm store covers before committing
        to the run.  Shares :meth:`run`'s partition logic, so the two can
        never disagree about the work set.  Read-only: never takes the
        store's writer lock (a concurrent :meth:`run` in another process
        may append more rows, so treat the answer as an upper bound).
        """
        keyed = [
            (spec.scenario_hash(), spec)
            for spec in self._materialize(scenarios)
        ]
        _, pending = self._split(keyed)
        return [spec for _, spec in pending]

    def _split(
        self, keyed: List[Tuple[str, ScenarioSpec]]
    ) -> Tuple[Dict[str, Dict[str, Any]], List[Tuple[str, ScenarioSpec]]]:
        """Partition ``(hash, spec)`` pairs into store-served results and
        deduplicated pending work (the single dedup/cache policy both
        :meth:`run` and :meth:`pending` apply)."""
        results: Dict[str, Dict[str, Any]] = {}
        pending: List[Tuple[str, ScenarioSpec]] = []
        pending_keys = set()
        for key, spec in keyed:
            if key in results or key in pending_keys:
                continue
            cached = self.store.get(key) if self.store is not None else None
            if cached is not None:
                results[key] = cached
                continue
            pending.append((key, spec))
            pending_keys.add(key)
        return results, pending

    def _materialize(self, scenarios: ScenarioSource) -> List[ScenarioSpec]:
        if isinstance(scenarios, ScenarioGrid):
            return scenarios.expand()
        return [spec.validate() for spec in scenarios]

