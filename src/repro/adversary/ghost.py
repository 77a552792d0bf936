"""Ghost execution of honest protocol code under adversary control.

Several strong adversaries (crash-like, split-world equivocation, targeted
lying) are "honest-but-X": they run the real protocol and deviate
selectively.  :class:`GhostRunner` hosts protocol coroutines for the faulty
processes, feeding them the messages the adversary chooses and collecting
their outgoing traffic for the adversary to filter, mutate, or drop.

Each ghost reads its round through the engine's delivery
(:meth:`~repro.net.adversary.AdversaryView.inbox`), as an honest process
does.  Faulty-to-faulty traffic never touches the simulated network (the
engine only routes what the adversary explicitly emits), so the runner
routes it internally with the same one-round latency as the real network.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Sequence, Set

from ..net.adversary import AdversaryView, AdversaryWorld
from ..net.context import ProcessContext
from ..net.message import Broadcast, Envelope
from ..net.protocol import Idle

Factory = Callable[[ProcessContext], Generator]


class GhostRunner:
    """Drives protocol coroutines for a set of faulty process ids."""

    def __init__(
        self,
        world: AdversaryWorld,
        pids: Iterable[int],
        factory: Optional[Factory] = None,
        inputs: Optional[Dict[int, Any]] = None,
    ) -> None:
        """``factory`` defaults to the scenario's ``protocol_factory``.

        ``inputs`` overrides ghost input values per pid; it requires the
        scenario to expose ``protocol_builder`` -- a callable
        ``(ctx, value) -> generator`` -- which
        :func:`repro.core.api.solve` always provides.
        """
        self.world = world
        self.pids = sorted(pids)
        factory = factory or world.scenario.get("protocol_factory")
        builder = world.scenario.get("protocol_builder")
        if factory is None and builder is None:
            raise ValueError("GhostRunner needs a protocol factory")
        self._generators: Dict[int, Generator] = {}
        self._finished: Set[int] = set()
        #: Steps taken so far, and each idling ghost's wake step.
        self._steps = 0
        self._wake: Dict[int, int] = {}
        #: recipient -> the ghost-to-ghost envelopes to it from the last
        #: step, in send order.
        self._internal: Dict[int, List[Envelope]] = {}
        for pid in self.pids:
            ctx = ProcessContext(
                pid=pid, n=world.n, t=world.t, signer=world.signer
            )
            if inputs is not None and pid in inputs:
                if builder is None:
                    raise ValueError(
                        "input overrides need a scenario protocol_builder"
                    )
                generator = builder(ctx, inputs[pid])
            else:
                generator = factory(ctx)
            self._generators[pid] = generator

    def start(self) -> List[Envelope]:
        """Round-1 outgoing of every ghost."""
        outgoing: List[Envelope] = []
        for pid in self.pids:
            outgoing.extend(self._advance(pid, None))
        return self._split_internal(outgoing)

    def step(self, view: AdversaryView) -> List[Envelope]:
        """Feed every listening ghost its delivery of the previous round
        and collect the ghosts' sends.

        ``view`` is that round's :class:`AdversaryView`, and each ghost
        reads :meth:`AdversaryView.inbox`: the round's honest envelopes to
        it, then its ghost-to-ghost ones, each in send order -- the
        engine's delivery, so its shared reads are shared with the
        round's other readers.  A ghost that yielded ``Idle(m)`` is
        skipped for ``m - 1`` steps and then resumed with ``None``, as
        the engine does with honest processes.
        """
        self._steps += 1
        internal, self._internal = self._internal, {}
        outgoing: List[Envelope] = []
        for pid in self.pids:
            if pid in self._finished:
                continue
            wake = self._wake.get(pid)
            if wake is None:
                inbox = view.inbox(pid, internal.get(pid, ()))
            elif wake <= self._steps:
                del self._wake[pid]
                inbox = None
            else:
                continue
            outgoing.extend(self._advance(pid, inbox))
        return self._split_internal(outgoing)

    def _advance(self, pid: int, inbox: Optional[Sequence[Envelope]]) -> List[Envelope]:
        """One ghost round; its broadcasts come back as ``n`` envelopes
        each, since the adversary filters and emits per envelope."""
        try:
            produced = self._generators[pid].send(inbox) or []
        except StopIteration:
            self._finished.add(pid)
            return []
        if type(produced) is Idle:
            self._wake[pid] = self._steps + produced.rounds
            return []
        outgoing: List[Envelope] = []
        for item in produced:
            if type(item) is Broadcast:
                outgoing.extend(
                    Envelope(item.sender, j, item.payload)
                    for j in range(self.world.n)
                )
            else:
                outgoing.append(item)
        return outgoing

    def _split_internal(self, outgoing: List[Envelope]) -> List[Envelope]:
        """Hold ghost-to-ghost messages for the next step, binned by
        recipient; return the rest."""
        external: List[Envelope] = []
        faulty = self.world.faulty_ids
        internal = self._internal
        for env in outgoing:
            if env.recipient in faulty:
                internal.setdefault(env.recipient, []).append(env)
            else:
                external.append(env)
        return external
