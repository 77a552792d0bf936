"""Parallel experiment runtime: scenario campaigns with caching.

The runtime is the execution backbone for every experiment driver in the
repository:

* :mod:`~repro.runtime.scenario` -- declarative :class:`ScenarioSpec` /
  :class:`ScenarioGrid` descriptions of executions, content-hashed;
* :mod:`~repro.runtime.execute` -- one scenario in, one deterministic
  result row out (all randomness derived from the scenario hash);
* :mod:`~repro.runtime.store` -- append-only JSONL :class:`ResultStore`
  keyed by scenario hash, tolerant of partial/corrupt lines, making
  campaigns resumable; iterable (``rows()``/``items()``) so the
  reporting query layer (:class:`repro.reporting.RowQuery`) can scan it;
* :mod:`~repro.runtime.backends` -- pluggable execution backends behind
  one :class:`Backend` contract: :class:`SerialBackend` (reference
  semantics), :class:`PoolBackend` (``multiprocessing``), and
  :class:`SocketBackend` (TCP workers started with ``python -m repro
  worker``, with hash-space sharding, work stealing, heartbeats, and
  dead-worker requeue), built by name with :func:`make_backend`;
* :mod:`~repro.runtime.runner` -- :class:`CampaignRunner`, the thin
  orchestrator (store cache, dedup, ordering, writer lock) over any
  backend; output is bit-identical whichever backend runs it;
* :mod:`~repro.runtime.aggregate` -- group-by statistics, percentiles,
  and envelope checks shared by sweeps, Monte-Carlo, CLI, and benchmarks.
"""

from .aggregate import (
    agreement_rate,
    check_envelopes,
    group_by,
    mean,
    percentile,
    summarize,
)
from .backends import (
    Backend,
    BackendError,
    ChaosPolicy,
    PoolBackend,
    SerialBackend,
    SocketBackend,
    WorkerServer,
    make_backend,
)
from .execute import SCHEMA_VERSION, execute_spec, solve_spec
from .runner import CampaignResult, CampaignRunner, CampaignStats
from .scenario import (
    INPUT_PATTERNS,
    MODES,
    ScenarioGrid,
    ScenarioSpec,
    default_t,
    pattern_inputs,
)
from .store import ResultStore, StoreLockError

__all__ = [
    "INPUT_PATTERNS",
    "MODES",
    "SCHEMA_VERSION",
    "Backend",
    "BackendError",
    "CampaignResult",
    "CampaignRunner",
    "CampaignStats",
    "ChaosPolicy",
    "PoolBackend",
    "ResultStore",
    "SerialBackend",
    "SocketBackend",
    "StoreLockError",
    "WorkerServer",
    "ScenarioGrid",
    "ScenarioSpec",
    "agreement_rate",
    "check_envelopes",
    "default_t",
    "execute_spec",
    "group_by",
    "make_backend",
    "mean",
    "pattern_inputs",
    "percentile",
    "solve_spec",
    "summarize",
]
