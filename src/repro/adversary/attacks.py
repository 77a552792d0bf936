"""Precondition-necessity attacks.

The paper's conditional protocols are explicit about their hypotheses:
Algorithm 7 guarantees nothing if more than ``k`` processes are
misclassified.  These attacks make that concrete -- they *break* the
conditional protocols in precondition-violating configurations, which the
test suite uses two ways:

* run against the conditional protocol standalone, the attack produces an
  honest disagreement, demonstrating the hypothesis is load-bearing;
* run against the full wrapper (Algorithm 1), the same attack is absorbed
  by the graded-consensus checkpoints -- demonstrating why the wrapper
  never trusts a conditional arm's output directly.

:class:`CommitteeInfiltrationAttack` targets Algorithm 7.  Preconditions
for the attack itself: at least ``2k + 1`` faulty processes that the
(corrupted) classifications rank into the top-``2k + 1`` prefix of every
honest ordering.  Every honest process then votes only for faulty
processes, the whole implicit committee is faulty, and the final
"plurality announcement" round is an equivocation free-for-all: the
attacker sends value ``v_a`` to one half of the honest processes and
``v_b`` to the other, each message carrying a perfectly valid committee
certificate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..crypto.certificates import committee_message, make_certificate
from ..crypto.keys import Signature
from ..net.adversary import Adversary, AdversaryView, AdversaryWorld
from ..net.message import Envelope


class CommitteeInfiltrationAttack(Adversary):
    """Equivocate through an all-faulty implicit committee (Algorithm 7).

    The attack is tag-driven and works both against the standalone
    protocol and inside the wrapper: it recognizes each instance's vote
    round from the honest traffic (honest processes always send committee
    votes), harvests the signatures addressed to faulty processes into
    committee certificates, stays silent through the Byzantine-broadcast
    rounds, and equivocates in the announcement round ``k + 2`` rounds
    later.
    """

    def __init__(self, value_a: Any = 0, value_b: Any = 1) -> None:
        self.value_a = value_a
        self.value_b = value_b

    def bind(self, world: AdversaryWorld) -> None:
        super().bind(world)
        honest = world.honest_ids
        self.camp_a = frozenset(honest[: len(honest) // 2])
        self._certs: Dict[tuple, Dict[int, frozenset]] = {}
        self._announcements: Dict[int, List[tuple]] = {}

    def _keystore(self):
        return self.world.scenario.get("keystore")

    def _instance_k(self, vote_tag: tuple) -> int:
        """Recover k for this Algorithm 7 instance from its wrapper tag
        (``("ba", phi, "class", "vote")``); standalone tags default k=1
        unless they embed an int."""
        ints = [part for part in vote_tag if isinstance(part, int)]
        if vote_tag[:1] == ("ba",) and ints:
            return 2 ** (ints[0] - 1)
        return ints[-1] if ints else 1

    def _harvest_certificates(
        self, view: AdversaryView, vote_tag: tuple
    ) -> Dict[int, frozenset]:
        keystore = self._keystore()
        votes: Dict[int, Dict[int, Signature]] = {}
        for env in view.inbox_to_faulty:
            if env.tag() != vote_tag:
                continue
            sig = env.body()
            if (
                isinstance(sig, Signature)
                and sig.signer == env.sender
                and keystore is not None
                and keystore.verify(sig, committee_message(env.recipient))
            ):
                votes.setdefault(env.recipient, {})[env.sender] = sig
        certs = {}
        for pid, sigs in votes.items():
            if len(sigs) >= self.world.t + 1:
                chosen = sorted(sigs)[: self.world.t + 1]
                certs[pid] = make_certificate(sigs[j] for j in chosen)
        return certs

    def step(self, view: AdversaryView) -> List[Envelope]:
        outgoing: List[Envelope] = []

        # Fire any announcement equivocations scheduled for this round.
        for base_tag, cert_by_pid in self._announcements.pop(
            view.round_no, []
        ):
            announce_tag = base_tag + ("plurality",)
            for pid, cert in cert_by_pid.items():
                for j in range(self.world.n):
                    value = self.value_a if j in self.camp_a else self.value_b
                    outgoing.append(
                        Envelope(pid, j, (announce_tag, (value, cert)))
                    )

        # Detect vote rounds and schedule the matching announcement round.
        seen = set()
        for send in view.honest_sends:
            tag = send.tag()
            if (
                isinstance(tag, tuple)
                and tag
                and tag[-1] == "vote"
                and tag not in seen
            ):
                seen.add(tag)
                certs = self._harvest_certificates(view, tag)
                if certs:
                    k = self._instance_k(tag)
                    fire_round = view.round_no + k + 2
                    self._announcements.setdefault(fire_round, []).append(
                        (tag[:-1], certs)
                    )
        return outgoing
