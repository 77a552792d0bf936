"""Scenario execution: one :class:`ScenarioSpec` in, one result row out.

This is the single place that turns a declarative scenario into a real
engine execution (:func:`repro.core.api._solve`).  All internal
randomness (prediction corruption placement, seeded adversaries, key
material) flows from the scenario's *derived* seed -- a pure function of
the spec's content hash -- so the row a scenario produces is independent
of which worker runs it, in what order, next to which other scenarios.
That property is what the campaign runner's serial-vs-parallel
determinism guarantee rests on.

Rows are flat JSON-serializable dicts stamped with the result-row schema
version (``"schema": SCHEMA_VERSION``), which keeps them storable in the
:class:`~repro.runtime.store.ResultStore`, shippable over the socket
backend's wire protocol, and poolable across process boundaries without
custom picklers.  Schema-less rows written before the stamp existed load
unchanged; bump :data:`SCHEMA_VERSION` on any incompatible row change.

:func:`execute_spec` is the canonical entry (used by every execution
backend); :func:`solve_spec` returns the full :class:`SolveReport` for
the same execution (used by :meth:`repro.api.Experiment.solve_one`).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from ..classify.analysis import lemma1_bound
from ..core.api import SolveReport, _solve
from ..adversary.registry import make_adversary
from ..lowerbounds.rounds import round_lower_bound
from ..predictions.generators import generate
from .scenario import ScenarioSpec

_SEED_SPACE = 2**30

#: Version stamp carried by every result row (the ``schema`` column).
#: Rows are the unit of exchange between backends, the wire protocol,
#: the JSONL store, and reports; the stamp lets any of them detect rows
#: written by an incompatible future layout.  Legacy rows without the
#: field predate versioning and are treated as schema 0.
SCHEMA_VERSION = 1


def resolve_spec(spec: ScenarioSpec) -> Dict[str, Any]:
    """Expand a spec into the concrete engine ingredients it describes.

    Returns the keyword arguments for :func:`repro.core.api._solve`
    (minus ``n``/``t``/``inputs``).  All entropy is drawn from the
    spec's derived seed, in a fixed order, so the resolution is
    identical on any worker.
    """
    spec.validate()
    rng = random.Random(spec.derived_seed())
    faulty = spec.faulty_ids()
    honest = [pid for pid in range(spec.n) if pid not in set(faulty)]
    predictions = generate(spec.generator, spec.n, honest, spec.budget, rng)
    adversary = make_adversary(spec.adversary, seed=rng.randrange(_SEED_SPACE))
    return {
        "faulty_ids": faulty,
        "adversary": adversary,
        "predictions": predictions,
        "mode": spec.mode,
        "arms": spec.arms,
        "key_seed": rng.randrange(_SEED_SPACE),
    }


def solve_spec(
    spec: ScenarioSpec,
    *,
    cache: bool = True,
    max_rounds: Optional[int] = None,
) -> SolveReport:
    """Run the execution a scenario describes; return its ``SolveReport``.

    The same resolution as :func:`execute_spec` (identical randomness,
    identical results), surfaced as the full report object instead of a
    flat row -- this is what :meth:`repro.api.Experiment.solve_one` calls
    for declarative experiments.  ``cache``/``max_rounds`` are execution
    knobs, not scenario identity: they must not change measured results
    (the cache layer is bit-transparent) and are therefore not part of
    the content hash.
    """
    kwargs = resolve_spec(spec)
    return _solve(
        spec.n,
        spec.t,
        spec.input_vector(),
        cache=cache,
        max_rounds=max_rounds,
        **kwargs,
    )


def execute_spec(
    spec: ScenarioSpec, collect_perf: bool = False
) -> Dict[str, Any]:
    """Execute one scenario and return its result row.

    The row carries the scenario identity (parameters plus content hash),
    the measured complexity, the matching theoretical envelopes, and the
    row-schema stamp (:data:`SCHEMA_VERSION`).

    Each execution constructs its own cache stack (the :class:`KeyStore`
    created inside the engine is the per-scenario cache root, so campaign
    workers never share or leak cached verifications across scenarios).
    With ``collect_perf`` the row additionally carries a ``perf`` column
    of per-cache hit/miss statistics -- off by default so rows stay
    byte-identical across workers.
    """
    report = solve_spec(spec)
    decision = report.decision if report.agreed else None
    inputs = spec.input_vector()
    honest_inputs = {inputs[pid] for pid in report.honest_ids}
    unanimous = len(honest_inputs) == 1
    valid = (not unanimous) or (
        report.agreed and decision == next(iter(honest_inputs))
    )
    errors = report.prediction_errors
    row: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "scenario": spec.scenario_hash(),
        "n": spec.n,
        "t": spec.t,
        "f": spec.f,
        "budget": spec.budget,
        "B": errors,
        "B/n": round(errors / spec.n, 2),
        "mode": spec.mode,
        "generator": spec.generator,
        "adversary": spec.adversary,
        "pattern": spec.pattern,
        "agreed": report.agreed,
        "decision": decision,
        "valid": valid,
        "rounds": report.rounds,
        "messages": report.messages,
        "bits": report.bits,
        "lb_rounds": _round_lb(spec, errors),
        "lemma1_kA_bound": _lemma1(spec, errors),
        "seed": spec.seed,
    }
    if collect_perf:
        row["perf"] = report.cache_stats
    return row


def _round_lb(spec: ScenarioSpec, budget: int) -> Optional[int]:
    """Theorem 13 envelope, where its preconditions hold."""
    if 0 <= spec.f <= spec.t < spec.n - 1:
        return round_lower_bound(spec.n, spec.t, spec.f, budget)
    return None


def _lemma1(spec: ScenarioSpec, budget: int) -> Optional[int]:
    """Lemma 1 envelope, where its ``f < n/2`` precondition holds."""
    if spec.f < (spec.n + 1) // 2:
        return lemma1_bound(spec.n, spec.f, budget)
    return None
