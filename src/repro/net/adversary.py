"""Adversary interface seen by the round engine.

The Byzantine adversary in this simulator is a single strategy object that
controls *all* faulty processes.  It is deliberately strong:

* **Rushing** -- each round it observes every honest message of that round
  before choosing what the faulty processes send.
* **Omniscient** -- it can inspect honest inputs, predictions, and the full
  delivery history exposed through the :class:`AdversaryWorld`.
* **Adaptive payloads** -- it may send arbitrary payloads, but only under
  faulty sender identities (the engine enforces channel authentication).

Lower-bound constructions (Section 10 of the paper) need exactly this power;
protocol correctness is proven against it, so passing tests here is
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence

from .message import Envelope, Send


@dataclass
class AdversaryWorld:
    """Static facts the adversary learns before round 1.

    Attributes:
        n: number of processes.
        t: protocol-known fault bound.
        faulty_ids: identifiers the adversary controls.
        honest_inputs: proposal of each honest process (Byzantine adversaries
            know honest inputs in the worst case analysis).
        predictions: the full prediction assignment, if the scenario has one.
        signer: signing handle restricted to faulty identities, when the
            execution is authenticated.
        scenario: free-form extras a scenario wants to expose.
    """

    n: int
    t: int
    faulty_ids: FrozenSet[int]
    honest_inputs: Dict[int, Any] = field(default_factory=dict)
    predictions: Optional[Sequence[Any]] = None
    signer: Optional[Any] = None
    scenario: Dict[str, Any] = field(default_factory=dict)

    @property
    def honest_ids(self) -> List[int]:
        return [i for i in range(self.n) if i not in self.faulty_ids]


@dataclass
class AdversaryView:
    """Per-round information handed to the adversary (rushing model).

    The sequences are the engine's own round traffic, not copies: the
    engine delivers from them after :meth:`Adversary.step` returns, so a
    strategy reads them and never mutates them.

    Attributes:
        round_no: the round being played.
        honest_outgoing: every honest envelope of the round, a broadcast
            expanded to its ``n`` envelopes (the engine builds them only
            if the strategy reads them).
        inbox_to_faulty: the envelopes of ``honest_outgoing`` addressed
            to faulty processes, likewise built on first access.
        honest_sends: the same traffic with each broadcast held once, as
            a :class:`~repro.net.message.Broadcast`; strategies that only
            look at payloads read this.  Defaults to ``honest_outgoing``.
    """

    round_no: int
    honest_outgoing: Sequence[Envelope]
    inbox_to_faulty: Sequence[Envelope]
    honest_sends: Optional[Sequence[Send]] = None

    def __post_init__(self) -> None:
        if self.honest_sends is None:
            self.honest_sends = self.honest_outgoing

    def messages_to(self, pid: int) -> List[Envelope]:
        return [e for e in self.honest_outgoing if e.recipient == pid]

    def inbox(self, pid: int, extra: Sequence[Envelope] = ()) -> Sequence[Envelope]:
        """``pid``'s delivery of this round as the engine builds it for an
        honest process: the round's honest envelopes to ``pid``, then
        ``extra``.  Ghosts read their rounds through it, so their
        :func:`~repro.net.message.reduce_by_tag` reads share results with
        every reader of the round whose view is the same.  Needs the
        engine's view, whose ``honest_outgoing`` is the round's traffic."""
        return self.honest_outgoing.inbox(pid, extra)  # type: ignore[attr-defined]


class Adversary:
    """Base strategy: silent faulty processes (crash at time zero).

    Subclasses override :meth:`step`; :meth:`bind` is called once before the
    first round with the :class:`AdversaryWorld`.
    """

    def bind(self, world: AdversaryWorld) -> None:
        self.world = world

    def step(self, view: AdversaryView) -> List[Envelope]:
        """Return the envelopes faulty processes send this round."""
        return []
