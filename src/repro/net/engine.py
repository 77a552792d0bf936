"""The lock-step synchronous round engine.

:class:`Network` realizes the paper's execution model exactly:

* rounds proceed in lock step; a message sent in round ``r`` is received in
  round ``r`` by its addressee (reliable, authenticated channels), and the
  receipt informs the sender's round ``r+1`` behaviour;
* honest processes run protocol coroutines (see
  :mod:`repro.net.context`); faulty processes are personified by a single
  rushing :class:`~repro.net.adversary.Adversary` strategy that sees all
  honest round-``r`` traffic before emitting its own round-``r`` messages;
* the engine records exact round and message complexity through
  :class:`~repro.net.metrics.MetricsCollector`, counting only messages sent
  by honest processes, per the paper's complexity definition.

A broadcast travels as one :class:`~repro.net.message.Broadcast` object:
the engine validates it once, collects the round's honest sends in a
:class:`~repro.net.message.RoundTraffic` that accounting, the adversary
and the observer read, and delivers in one step that builds the round's
tag index once and hands each honest process an
:class:`~repro.net.message.Inbox` view over it.

A process that yields :class:`~repro.net.protocol.Idle` sleeps: the engine
keeps a wake schedule, builds inboxes for and resumes only the processes
that listen in a round, and resumes a sleeper with ``None`` in the round
it wakes.  A round in which nobody listens costs its accounting and the
adversary's step, nothing else.

An execution ends when every honest process has returned from its protocol
coroutine; the per-process return values are the decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Set

from .adversary import Adversary, AdversaryView, AdversaryWorld
from .context import ProcessContext
from .message import Broadcast, Envelope, Inbox, RoundTraffic, Send
from .metrics import MetricsCollector
from .protocol import Idle, SimulationTimeout, Yielded


@dataclass
class ExecutionResult:
    """Outcome of one simulated execution."""

    decisions: Dict[int, Any]
    metrics: MetricsCollector
    honest_ids: List[int]

    @property
    def decision_values(self) -> Set[Any]:
        return set(self.decisions.values())

    @property
    def agreed(self) -> bool:
        """All honest processes decided, on a single common value."""
        return len(self.decisions) == len(self.honest_ids) and len(self.decision_values) == 1

    @property
    def rounds(self) -> int:
        return self.metrics.rounds

    @property
    def messages(self) -> int:
        return self.metrics.honest_messages


class _HonestDriver:
    """Adapts one protocol coroutine to the engine's round loop."""

    def __init__(self, pid: int, generator: Generator) -> None:
        self.pid = pid
        self.generator = generator
        self.finished = False
        self.result: Any = None

    def start(self) -> Yielded:
        return self._advance(None)

    def resume(self, inbox: Optional[Inbox]) -> Yielded:
        """The process's next yield after reading ``inbox``, which is
        ``None`` when it wakes from an :class:`~repro.net.protocol.Idle`."""
        return self._advance(inbox)

    def _advance(self, inbox: Optional[Inbox]) -> Yielded:
        try:
            outgoing = self.generator.send(inbox)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            return []
        return outgoing if type(outgoing) is Idle else list(outgoing or ())


class Network:
    """Synchronous network simulator driving one execution.

    Args:
        n: number of processes.
        t: protocol-known fault bound.
        honest_ids: identifiers of honest processes; the rest are faulty and
            controlled by ``adversary``.
        protocol_factory: callable ``(ProcessContext) -> generator`` building
            each honest process's coroutine.
        adversary: strategy object for all faulty processes.
        world: facts exposed to the adversary before round 1.
        signer_for: optional callable giving each honest pid a signing
            handle (authenticated executions).
        max_rounds: safety cap; exceeding it raises
            :class:`~repro.net.protocol.SimulationTimeout`.
    """

    def __init__(
        self,
        n: int,
        t: int,
        honest_ids: Iterable[int],
        protocol_factory: Callable[[ProcessContext], Generator],
        adversary: Optional[Adversary] = None,
        world: Optional[AdversaryWorld] = None,
        signer_for: Optional[Callable[[int], Any]] = None,
        max_rounds: int = 100_000,
        observer: Optional[Any] = None,
    ) -> None:
        self.n = n
        self.t = t
        self.honest_ids = sorted(set(honest_ids))
        if any(pid < 0 or pid >= n for pid in self.honest_ids):
            raise ValueError("honest ids must lie in 0..n-1")
        self.faulty_ids = frozenset(set(range(n)) - set(self.honest_ids))
        self.adversary = adversary or Adversary()
        self.world = world or AdversaryWorld(n=n, t=t, faulty_ids=self.faulty_ids)
        self.max_rounds = max_rounds
        self.observer = observer
        self.metrics = MetricsCollector()
        self._drivers: Dict[int, _HonestDriver] = {}
        for pid in self.honest_ids:
            signer = signer_for(pid) if signer_for is not None else None
            ctx = ProcessContext(pid=pid, n=n, t=t, signer=signer)
            self._drivers[pid] = _HonestDriver(pid, protocol_factory(ctx))

    def run(self) -> ExecutionResult:
        """Execute until every honest process returns; collect decisions."""
        self.adversary.bind(self.world)
        drivers = self._drivers
        metrics = self.metrics
        observer = self.observer
        # The wake schedule: ``awake`` holds, in pid order, the processes
        # that read the coming round's inbox, and ``sleeping`` maps a round
        # to the processes that idle until its end.  ``listening`` is whom
        # the round resumes, in pid order, so sends stay in pid order and
        # each sender's sends stay contiguous.  A process that returned is
        # in none of them.
        sleeping: Dict[int, List[int]] = {}
        listening: List[int] = self.honest_ids
        inboxes: Dict[int, Inbox] = {}
        round_no = 0
        while True:
            outgoing = RoundTraffic(self.n)
            awake: List[int] = []
            returned: List[int] = []
            for pid in listening:
                driver = drivers[pid]
                produced = (driver.resume(inboxes.get(pid)) if round_no
                            else driver.start())
                if driver.finished:
                    returned.append(pid)
                elif type(produced) is Idle:
                    sleeping.setdefault(round_no + produced.rounds, []).append(pid)
                else:
                    awake.append(pid)
                    if produced:
                        outgoing.add(self._validated(produced, pid))
            if returned:
                self._note_decisions(round_no, returned)
            if not (awake or sleeping):
                break
            if round_no >= self.max_rounds:
                raise SimulationTimeout(
                    f"honest processes undecided after {round_no} rounds"
                )
            round_no += 1
            metrics.record_round()
            if outgoing.sends:
                metrics.record_sends(outgoing)
            faulty_out = self._adversary_round(round_no, outgoing)
            if observer is not None:
                observer.on_round(round_no, outgoing, faulty_out)
            inboxes = self._deliver(outgoing, faulty_out, awake) if awake else {}
            woken = sleeping.pop(round_no, None)
            listening = sorted(awake + woken) if woken else awake

        decisions = {pid: d.result for pid, d in self._drivers.items()}
        return ExecutionResult(
            decisions=decisions, metrics=self.metrics, honest_ids=list(self.honest_ids)
        )

    def _adversary_round(self, round_no: int, honest_out: RoundTraffic) -> List[Envelope]:
        view = AdversaryView(
            round_no=round_no,
            honest_outgoing=honest_out,
            inbox_to_faulty=honest_out.addressed_to(self.faulty_ids),
            honest_sends=honest_out.sends,
        )
        produced = self.adversary.step(view) or []
        validated = []
        for env in produced:
            if env.sender not in self.faulty_ids:
                raise ValueError(
                    f"adversary attempted to spoof sender {env.sender}; "
                    "channels are authenticated"
                )
            if not (0 <= env.recipient < self.n):
                raise ValueError(f"invalid recipient {env.recipient}")
            validated.append(env)
        return validated

    def _validated(self, outgoing: List[Send], pid: int) -> List[Send]:
        for item in outgoing:
            if item.sender != pid:
                raise ValueError(f"process {pid} tried to send as {item.sender}")
            if type(item) is not Broadcast and not (0 <= item.recipient < self.n):
                raise ValueError(f"invalid recipient {item.recipient}")
        return outgoing

    def _deliver(
        self, honest_out: RoundTraffic, faulty_out: List[Envelope],
        listeners: List[int],
    ) -> Dict[int, Inbox]:
        """One round's inboxes: a view per listening honest process over
        the shared honest traffic, plus the adversary's envelopes to it.

        The tag index is built on every round that delivers to anyone,
        adversary-only rounds included, so their shared reads stay shared.
        Messages addressed to faulty processes are not binned: the
        adversary already receives them through its
        :class:`~repro.net.adversary.AdversaryView` (``inbox_to_faulty``).
        """
        honest_out.index_tags()
        faulty_to: Dict[int, List[Envelope]] = {}
        drivers = self._drivers
        for env in faulty_out:
            if env.recipient in drivers:
                faulty_to.setdefault(env.recipient, []).append(env)
        return {
            pid: Inbox(honest_out, pid, faulty_to.get(pid, ()))
            for pid in listeners
        }

    def _note_decisions(self, round_no: int, returned: List[int]) -> None:
        """Record the decisions of the processes (in pid order) whose
        coroutines returned in ``round_no``."""
        for pid in returned:
            self.metrics.record_decision(pid, round_no)
            if self.observer is not None:
                self.observer.on_decision(pid, round_no)
