"""A protocol-aware stalling adversary for the wrapper stack.

The paper's round bounds are worst-case over adversaries; a weak adversary
(silence, random noise) lets every execution finish in the first wrapper
phase, hiding the complexity landscape.  :class:`StallingAdversary` is a
protocol-aware attack on our own protocols, though not the strongest one
registered: on the report's hiding workload
(:func:`repro.reporting.paper.hiding_scenario`) at n = 25 and n = 33 it
ends in 98 rounds, no more than ``silent``, ``noise`` or ``liar``, while
``split`` takes 184 to 330.  It exploits the rushing model (it reads each
round's honest traffic tags before acting) and plays, per sub-protocol:

* **classification vote** -- broadcasts the all-ones vector, reinforcing any
  prediction corruption that lifted faulty processes into the trusted
  prefix of ``pi(c)``;
* **graded consensus rounds** -- stays silent: with the honest processes
  split between two camps, neither camp alone reaches the ``n - t`` lock
  quorum, so every graded consensus returns grade 0 and changes nothing;
* **king rounds** (early-stopping arm) -- whenever the phase king is faulty,
  it equivocates, steering the two camps back apart; the arm therefore
  stalls until the first honest king, realizing the Omega(f) early-stopping
  behaviour;
* **conciliation rounds** (Algorithm 5 arm) -- faulty processes inside the
  leader blocks broadcast a *minimal* value to one camp only; the leader
  graph's min-propagation then yields different values per camp, keeping
  the camps split whenever the block contains a faulty leader.

Camps are the parity classes of honest ids, which keeps them roughly
balanced inside every leader block.

Against *accurate* predictions the stall collapses exactly as the paper
predicts: faulty processes are classified faulty, leader blocks are honest,
and the conciliation arm unifies the camps in the first phase that
satisfies the Algorithm 5 preconditions.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..net.adversary import Adversary, AdversaryView, AdversaryWorld
from ..net.message import Envelope

LOW_VALUE = -(10**9)  # sorts below any realistic proposal


class StallingAdversary(Adversary):
    """Keep honest processes split for as long as the predictions allow."""

    def __init__(self, value_a: Any = 0, value_b: Any = 1) -> None:
        self.value_a = value_a
        self.value_b = value_b

    def bind(self, world: AdversaryWorld) -> None:
        """Assign honest processes to the two camps it will keep split."""
        super().bind(world)
        self.camp_a = frozenset(pid for pid in world.honest_ids if pid % 2 == 0)

    def _camp_value(self, recipient: int) -> Any:
        return self.value_a if recipient in self.camp_a else self.value_b

    def _observed_tags(self, view: AdversaryView) -> List[tuple]:
        tags = []
        seen = set()
        for send in view.honest_sends:
            tag = send.tag()
            if isinstance(tag, tuple) and tag not in seen:
                seen.add(tag)
                tags.append(tag)
        return tags

    def step(self, view: AdversaryView) -> List[Envelope]:
        world = self.world
        outgoing: List[Envelope] = []
        for tag in self._observed_tags(view):
            if tag and tag[0] == "classify":
                vector = tuple(1 for _ in range(world.n))
                outgoing.extend(self._broadcast_all(tag, vector))
            elif tag and tag[-1] == "king":
                outgoing.extend(self._attack_king(tag))
            elif tag and tag[-1] == "conc":
                outgoing.extend(self._attack_conciliation(tag))
        return outgoing

    def _broadcast_all(self, tag: tuple, body: Any) -> List[Envelope]:
        return [
            Envelope(pid, j, (tag, body))
            for pid in sorted(self.world.faulty_ids)
            for j in range(self.world.n)
        ]

    def _attack_king(self, tag: tuple) -> List[Envelope]:
        """If the phase king is faulty, send camp-dependent values."""
        phase = tag[-2] if len(tag) >= 2 and isinstance(tag[-2], int) else None
        if phase is None:
            return []
        king = (phase - 1) % self.world.n
        if king not in self.world.faulty_ids:
            return []
        return [
            Envelope(king, j, (tag, self._camp_value(j)))
            for j in range(self.world.n)
        ]

    def _attack_conciliation(self, tag: tuple) -> List[Envelope]:
        """Every faulty process poses as a leader and feeds camp A a value
        below every honest proposal; min-propagation splits the camps."""
        n = self.world.n
        claimed_listen = tuple(sorted(self.world.faulty_ids))[:1]
        outgoing = []
        for pid in sorted(self.world.faulty_ids):
            listen_claim = tuple(sorted(set(claimed_listen) | {pid}))
            for j in range(n):
                if j in self.camp_a:
                    body = (LOW_VALUE, listen_claim)
                    outgoing.append(Envelope(pid, j, (tag, body)))
        return outgoing
