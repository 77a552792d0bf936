"""Engine-level execution: configure and run one agreement execution.

The *public* front door is :class:`repro.api.Experiment`; this module is
the engine room underneath it.  :func:`_solve` wires inputs,
predictions, an adversary, and the chosen protocol mode into a
:class:`~repro.net.engine.Network`, runs Algorithm 1, and returns a
:class:`SolveReport` with decisions and exact complexity measurements;
:func:`_solve_baseline` does the same for the prediction-free
early-stopping baseline.  :func:`run_protocol` is the lower-level hook
for running any protocol coroutine (used heavily by tests and
benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Sequence, Set

from ..crypto.keys import KeyStore
from ..perf import cache_report
from ..net.adversary import Adversary, AdversaryWorld
from ..net.context import ProcessContext
from ..net.engine import ExecutionResult, Network
from ..net.metrics import MetricsCollector
from ..predictions.model import (
    PredictionAssignment,
    count_errors,
    validate_assignment,
)
from ..predictions.generators import perfect_predictions
from .wrapper import (
    AUTHENTICATED,
    MODES,
    UNAUTHENTICATED,
    ba_with_predictions,
    total_round_bound,
)


@dataclass
class SolveReport:
    """Everything measured about one agreement execution."""

    decisions: Dict[int, Any]
    honest_ids: List[int]
    faulty_ids: List[int]
    mode: str
    rounds: int
    messages: int
    bits: int
    prediction_errors: int
    metrics: MetricsCollector
    #: Per-cache hit/miss statistics (see :mod:`repro.perf`); populated by
    #: :func:`_solve` for authenticated executions, else payload stats only.
    cache_stats: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def agreed(self) -> bool:
        """Whether every honest process decided, on one common value."""
        return (
            len(self.decisions) == len(self.honest_ids)
            and len(set(self.decisions.values())) == 1
        )

    @property
    def decision(self) -> Any:
        """The common decision (raises if agreement failed)."""
        values = set(self.decisions.values())
        if len(values) != 1:
            raise ValueError(f"honest processes disagree: {values}")
        return next(iter(values))

    def summary(self) -> Dict[str, Any]:
        """A flat dict of the headline numbers (handy for tables/logs)."""
        return {
            "mode": self.mode,
            "n": len(self.honest_ids) + len(self.faulty_ids),
            "f": len(self.faulty_ids),
            "B": self.prediction_errors,
            "agreed": self.agreed,
            "rounds": self.rounds,
            "messages": self.messages,
            "bits": self.bits,
        }


def run_protocol(
    n: int,
    t: int,
    faulty_ids: Iterable[int],
    factory: Callable[[ProcessContext], Generator],
    adversary: Optional[Adversary] = None,
    *,
    keystore: Optional[KeyStore] = None,
    honest_inputs: Optional[Dict[int, Any]] = None,
    predictions: Optional[PredictionAssignment] = None,
    scenario: Optional[Dict[str, Any]] = None,
    max_rounds: int = 100_000,
    observer: Optional[Any] = None,
) -> ExecutionResult:
    """Run an arbitrary protocol coroutine on a fresh simulated network.

    ``observer`` may be a :class:`repro.net.trace.Tracer` (or anything with
    ``on_round`` / ``on_decision``) to record a per-round trace.
    """
    faulty: Set[int] = set(faulty_ids)
    honest = [pid for pid in range(n) if pid not in faulty]
    world = AdversaryWorld(
        n=n,
        t=t,
        faulty_ids=frozenset(faulty),
        honest_inputs=dict(honest_inputs or {}),
        predictions=predictions,
        signer=keystore.handle_for(faulty) if keystore is not None else None,
        scenario=dict(scenario or {}),
    )
    if keystore is not None:
        world.scenario.setdefault("keystore", keystore)
    world.scenario.setdefault("protocol_factory", factory)
    signer_for = (
        (lambda pid: keystore.handle_for({pid})) if keystore is not None else None
    )
    network = Network(
        n=n,
        t=t,
        honest_ids=honest,
        protocol_factory=factory,
        adversary=adversary,
        world=world,
        signer_for=signer_for,
        max_rounds=max_rounds,
        observer=observer,
    )
    return network.run()


def _solve(
    n: int,
    t: int,
    inputs: Sequence[Any],
    *,
    faulty_ids: Iterable[int] = (),
    adversary: Optional[Adversary] = None,
    predictions: Optional[PredictionAssignment] = None,
    mode: str = UNAUTHENTICATED,
    arms: Sequence[str] = ("early", "class"),
    key_seed: int = 0,
    max_rounds: Optional[int] = None,
    cache: bool = True,
) -> SolveReport:
    """Solve Byzantine agreement with predictions end to end (engine form).

    This is the single execution engine behind the public API: both
    :meth:`repro.api.Experiment.solve_one` and the scenario row path
    (:func:`repro.runtime.execute.execute_spec`) bottom out here.

    Args:
        n: number of processes.
        t: protocol-known fault bound (``t < n/3`` for both modes in this
            implementation; see DESIGN.md).
        inputs: one proposal per process (faulty entries are ignored).
        faulty_ids: processes controlled by ``adversary``.
        adversary: faulty-process strategy; defaults to silent crashes.
        predictions: prediction assignment; defaults to perfect predictions.
        mode: ``"unauthenticated"`` (Theorem 11 suite) or
            ``"authenticated"`` (Theorem 12 suite); anything else raises
            ``ValueError`` against the canonical :data:`MODES` tuple.
        key_seed: deterministic key material for the simulated PKI.
        max_rounds: safety cap; defaults to the wrapper's worst-case bound.
        cache: enable the authenticated-mode verification caches
            (:mod:`repro.perf`); ``False`` reproduces the uncached seed
            path instruction for instruction, which cache-safety tests
            compare against (results must be identical either way).

    Returns:
        A :class:`SolveReport`.
    """
    if mode not in MODES:
        raise ValueError(
            f"unknown mode {mode!r} (known modes: {', '.join(MODES)})"
        )
    faulty = sorted(set(faulty_ids))
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs, got {len(inputs)}")
    if len(faulty) > t:
        raise ValueError(f"{len(faulty)} faulty processes exceeds t={t}")
    if any(pid < 0 or pid >= n for pid in faulty):
        raise ValueError("faulty ids must lie in 0..n-1")
    honest = [pid for pid in range(n) if pid not in set(faulty)]
    if predictions is None:
        predictions = perfect_predictions(n, honest)
    validate_assignment(predictions, n)

    keystore = (
        KeyStore(n, seed=key_seed, cache=cache)
        if mode == AUTHENTICATED else None
    )
    cap = max_rounds if max_rounds is not None else total_round_bound(t, mode) + 10

    def builder(ctx: ProcessContext, value: Any) -> Generator:
        return ba_with_predictions(
            ctx,
            value,
            predictions[ctx.pid],
            mode=mode,
            keystore=keystore,
            arms=arms,
        )

    def factory(ctx: ProcessContext) -> Generator:
        return builder(ctx, inputs[ctx.pid])

    result = run_protocol(
        n,
        t,
        faulty,
        factory,
        adversary,
        keystore=keystore,
        honest_inputs={pid: inputs[pid] for pid in honest},
        predictions=predictions,
        scenario={"protocol_builder": builder},
        max_rounds=cap,
    )
    return SolveReport(
        decisions=result.decisions,
        honest_ids=result.honest_ids,
        faulty_ids=faulty,
        mode=mode,
        rounds=_decision_rounds(result),
        messages=result.messages,
        bits=result.metrics.honest_bits,
        prediction_errors=count_errors(predictions, honest).total,
        metrics=result.metrics,
        cache_stats=cache_report(keystore=keystore),
    )


def _decision_rounds(result: ExecutionResult) -> int:
    """Rounds until the last honest decision, falling back to the total.

    ``rounds_to_last_decision`` is ``None`` when nothing decided, but a
    legitimate decision in round 0 is a *real* measurement -- an ``or``
    fallback would silently replace it with the total round count, so the
    check must be an explicit ``is None``.
    """
    last = result.metrics.rounds_to_last_decision
    return result.rounds if last is None else last


def _solve_baseline(
    n: int,
    t: int,
    inputs: Sequence[Any],
    *,
    faulty_ids: Iterable[int] = (),
    adversary: Optional[Adversary] = None,
    max_rounds: int = 100_000,
) -> SolveReport:
    """Baseline: plain early-stopping Byzantine agreement, no predictions.

    This is what a system without a security monitor deploys -- ``O(f)``
    rounds always.  Benchmarks compare it against the prediction-armed
    path to quantify what predictions buy (and Theorem 14's point that
    they buy nothing in messages).
    """
    from ..earlystop.protocol import ba_early_stopping

    faulty = sorted(set(faulty_ids))
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs, got {len(inputs)}")
    if len(faulty) > t:
        raise ValueError(f"{len(faulty)} faulty processes exceeds t={t}")
    honest = [pid for pid in range(n) if pid not in set(faulty)]

    def builder(ctx: ProcessContext, value: Any) -> Generator:
        return ba_early_stopping(ctx, ("baseline",), value)

    def factory(ctx: ProcessContext) -> Generator:
        return builder(ctx, inputs[ctx.pid])

    result = run_protocol(
        n,
        t,
        faulty,
        factory,
        adversary,
        honest_inputs={pid: inputs[pid] for pid in honest},
        scenario={"protocol_builder": builder},
        max_rounds=max_rounds,
    )
    return SolveReport(
        decisions=result.decisions,
        honest_ids=result.honest_ids,
        faulty_ids=faulty,
        mode="baseline-early-stopping",
        rounds=_decision_rounds(result),
        messages=result.messages,
        bits=result.metrics.honest_bits,
        prediction_errors=0,
        metrics=result.metrics,
    )
