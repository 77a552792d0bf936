"""Exact complexity bookkeeping for simulated executions.

The paper measures two quantities (Section 3):

* *round complexity* -- the number of rounds until the last honest process
  decides, and
* *message complexity* -- the total number of messages sent by honest
  processes.

:class:`MetricsCollector` counts both exactly.  It also tracks per-round,
per-process, and per-protocol-component message counts (attributed via the
payload tag convention), plus an estimate of communication complexity in
bits, which the paper's conclusion mentions (the classification vote alone
is Theta(n^3) bits).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..crypto.keys import Signature, signature_repr_len
from .message import PLAIN_TAG_PARTS, Broadcast, Envelope, RoundTraffic


def payload_bits(payload: Any) -> int:
    """Rough, deterministic bit-size estimate of a payload.

    Integers cost their bit length (at least 1), strings/bytes 8 bits per
    character, booleans and ``None`` one bit, containers the sum of their
    items.  Unknown objects fall back to the length of their ``repr``.  The
    estimate only needs to be consistent across runs so that communication
    *growth rates* are measured faithfully.

    Exact ``int``, ``str`` and ``tuple`` -- nearly everything honest
    protocols send -- take a type-dispatched fast path; everything else,
    subclasses included, goes through :func:`_walk_bits`.

    An exact :class:`~repro.crypto.keys.Signature` is charged
    ``8 * len(repr(sig))`` without building its ``repr``, through
    :func:`~repro.crypto.keys.signature_repr_len`, which keeps the size
    rule next to the dataclass; a signature it does not cover is walked.
    """
    kind = type(payload)
    if kind is int:
        return payload.bit_length() or 1
    if kind is str:
        return 8 * len(payload)
    if kind is tuple:
        return sum(map(payload_bits, payload)) + 2
    if kind is Signature:
        size = signature_repr_len(payload)
        if size is not None:
            return 8 * size
    return _walk_bits(payload)


def _walk_bits(payload: Any) -> int:
    """:func:`payload_bits` by ``isinstance`` dispatch."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length())
    if isinstance(payload, (str, bytes)):
        return 8 * len(payload)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(payload_bits(item) for item in payload) + 2
    if isinstance(payload, dict):
        return sum(payload_bits(k) + payload_bits(v) for k, v in payload.items()) + 2
    return 8 * len(repr(payload))


def _component_of(payload: Any) -> str:
    """Attribute a payload to a protocol component via its tag.

    String and integer tag elements both appear in the component name, so
    e.g. wrapper phase 2's first graded consensus shows up as
    ``ba:2:gc1:r1`` -- phase-resolved attribution for traces and metrics.
    """
    if isinstance(payload, tuple) and len(payload) == 2:
        tag = payload[0]
        if isinstance(tag, tuple) and tag:
            parts = [str(p) for p in tag if isinstance(p, (str, int))]
            if parts:
                return ":".join(parts)
        if isinstance(tag, str):
            return tag
    return "<untagged>"


#: Tag -> ``(bits, component)``, shared by every execution in the process:
#: a tag's charge depends on the tag alone.  Dict lookup matches
#: ``("b", 1)``, ``("b", True)`` and ``("b", 1.0)`` as one key although
#: their bits and components differ, so the memo holds, and is consulted
#: for, only tuple tags whose parts are all exactly ``str`` or ``int``:
#: equal tags of that kind are the same tag.  Every other tag is charged
#: per send.
_TAG_CHARGES: Dict[tuple, Tuple[int, str]] = {}
#: Honest protocols use a few hundred tags; the bound only keeps a
#: caller that sends under ever-new tags from growing the memo forever.
_TAG_CHARGES_MAX = 1 << 16


def _tag_charge(tag: Any) -> Tuple[int, str]:
    """``(bits, component)`` of a payload ``(tag, body)`` minus the body's
    bits: what every payload with this tag is charged besides its body."""
    return payload_bits(tag) + 2, _component_of((tag, None))


@dataclass
class MetricsCollector:
    """Accumulates round and message statistics for one execution.

    Every payload under one tag carries the same tag bits and component,
    so :meth:`record_sends` charges a tag through a process-wide memo
    (see :data:`_TAG_CHARGES`).
    """

    honest_messages: int = 0
    honest_bits: int = 0
    rounds: int = 0
    per_round: List[int] = field(default_factory=list)
    per_process: Counter = field(default_factory=Counter)
    per_component: Counter = field(default_factory=Counter)
    decision_round: Dict[int, int] = field(default_factory=dict)

    def record_round(self) -> None:
        self.rounds += 1
        self.per_round.append(0)

    def record_send(self, env: Envelope) -> None:
        self.record_sends((env,))

    def record_sends(self, traffic: Sequence[Envelope]) -> None:
        """Record one round's honest traffic (the single accounting path).

        ``traffic`` is the engine's :class:`~repro.net.message.RoundTraffic`
        or any sequence of envelopes; ``len(traffic)`` is the envelope
        count.  A broadcast is measured once and counted once per
        recipient.
        """
        count = len(traffic)
        if not count:
            return
        if isinstance(traffic, RoundTraffic):
            sends: Sequence[Any] = traffic.sends
            n = traffic.n
        else:
            sends, n = traffic, 1
        charges = _TAG_CHARGES
        per_process = self.per_process
        per_component = self.per_component
        bits = 0
        for send in sends:
            copies = n if type(send) is Broadcast else 1
            payload = send.payload
            if type(payload) is tuple and len(payload) == 2:
                tag, body = payload
                if type(tag) is tuple and PLAIN_TAG_PARTS.issuperset(map(type, tag)):
                    charge = charges.get(tag)
                    if charge is None:
                        charge = _tag_charge(tag)
                        if len(charges) < _TAG_CHARGES_MAX:
                            charges[tag] = charge
                else:
                    charge = _tag_charge(tag)
                bits += (charge[0] + payload_bits(body)) * copies
                component = charge[1]
            else:
                bits += payload_bits(payload) * copies
                component = _component_of(payload)
            per_process[send.sender] += copies
            per_component[component] += copies
        self.honest_messages += count
        self.honest_bits += bits
        if self.per_round:
            self.per_round[-1] += count

    def record_decision(self, pid: int, round_no: int) -> None:
        self.decision_round.setdefault(pid, round_no)

    @property
    def rounds_to_last_decision(self) -> Optional[int]:
        """Rounds until the last honest process decided, or ``None``."""
        if not self.decision_round:
            return None
        return max(self.decision_round.values())

    def summary(self) -> Dict[str, Any]:
        return {
            "rounds": self.rounds,
            "rounds_to_last_decision": self.rounds_to_last_decision,
            "honest_messages": self.honest_messages,
            "honest_bits": self.honest_bits,
            "per_component": dict(self.per_component),
        }
