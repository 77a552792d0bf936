"""Execution tracing: per-round records for debugging and analysis.

A :class:`Tracer` plugs into :class:`~repro.net.engine.Network` as an
observer and records, per round, the honest and adversarial traffic
grouped by protocol component, plus decision events.  Traces answer the
questions that come up when studying an execution: *in which round did the
camps converge?  which sub-protocol was active when process 3 decided?
how many messages did phase 2's conciliation cost?*

Records are plain dataclasses; :func:`render_trace` pretty-prints them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List

from .message import Broadcast, Envelope, RoundTraffic
from .metrics import _component_of


@dataclass
class RoundRecord:
    """What happened in one synchronous round."""

    round_no: int
    honest_messages: int
    faulty_messages: int
    components: Dict[str, int]
    decided: List[int] = field(default_factory=list)


class Tracer:
    """Observer collecting :class:`RoundRecord` objects."""

    def __init__(self) -> None:
        self.rounds: List[RoundRecord] = []

    def on_round(
        self,
        round_no: int,
        honest_out: RoundTraffic,
        faulty_out: List[Envelope],
    ) -> None:
        components: Counter = Counter()
        n = honest_out.n
        for send in honest_out.sends:
            copies = n if type(send) is Broadcast else 1
            components[_component_of(send.payload)] += copies
        self.rounds.append(
            RoundRecord(
                round_no=round_no,
                honest_messages=len(honest_out),
                faulty_messages=len(faulty_out),
                components=dict(components),
            )
        )

    def on_decision(self, pid: int, round_no: int) -> None:
        for record in reversed(self.rounds):
            if record.round_no == round_no:
                record.decided.append(pid)
                return
        # Decisions before round 1 (degenerate zero-round protocols).
        self.rounds.append(
            RoundRecord(
                round_no=round_no,
                honest_messages=0,
                faulty_messages=0,
                components={},
                decided=[pid],
            )
        )

    @property
    def total_honest_messages(self) -> int:
        return sum(r.honest_messages for r in self.rounds)

    def active_components(self, round_no: int) -> List[str]:
        """Protocol components whose messages flowed in ``round_no``."""
        for record in self.rounds:
            if record.round_no == round_no:
                return sorted(record.components)
        return []

    def decision_rounds(self) -> Dict[int, int]:
        return {
            pid: record.round_no
            for record in self.rounds
            for pid in record.decided
        }


def render_trace(tracer: Tracer, limit: int = 0) -> str:
    """Human-readable view of a trace (first ``limit`` rounds; 0 = all)."""
    lines = ["round  honest  faulty  decided  components"]
    records = tracer.rounds[: limit or len(tracer.rounds)]
    for record in records:
        components = ", ".join(sorted(record.components)) or "-"
        decided = ",".join(map(str, record.decided)) or "-"
        lines.append(
            f"{record.round_no:5d}  {record.honest_messages:6d}  "
            f"{record.faulty_messages:6d}  {decided:>7}  {components}"
        )
    return "\n".join(lines)
