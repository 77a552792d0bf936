"""Early-stopping Byzantine agreement (the paper's [32] substrate).

A non-recursive phase-king protocol in the validator style (graded
consensus before and after a king round): ``O(f)`` rounds and
``O(f * n^2)`` messages for ``t < n/3``.  It stands in for the paper's
Lenzen-Sheikholeslami recursive phase king (``O(n^2)`` messages in
total); the "Substitutions" section of docs/ARCHITECTURE.md records what
that changes.

Protocol, per phase ``p`` (5 rounds): 3-grade graded consensus; king
``(p - 1) mod n`` broadcasts its value and every process with grade < 2
adopts it; a second 3-grade graded consensus; decide on grade 2, then
participate in one more full phase (so stragglers catch up) and return.

Correctness sketch (``t < n/3``):

* Safety: if any honest process sees grade 2 for ``v``, *every* honest
  process leaves that graded consensus holding ``v`` (the grade-2 quorum
  forces ``t + 1`` supporting copies at everyone, so nobody falls to the
  keep-own branch).  Unanimity then persists through all later phases.
* Convergence: in the first phase with an honest king, either some process
  had grade 2 after the first graded consensus -- in which case all honest
  values (king's included) already agree -- or everyone adopts the honest
  king's single value.  Either way the second graded consensus returns
  grade 2 to everyone and all honest processes decide in that phase.
* Early stopping: an honest king appears within the first ``f + 1`` phases,
  so every honest process decides by phase ``f + 2`` and returns one phase
  later: ``O(f)`` rounds.
"""

from __future__ import annotations

from typing import Any, Generator, List

from ..gradecast.unauth import graded_consensus_3
from ..net.context import ProcessContext
from ..net.message import Envelope, by_tag
from ..util import is_hashable


def ba_early_stopping(
    ctx: ProcessContext, tag: tuple, value: Any
) -> Generator[List[Envelope], List[Envelope], Any]:
    """Phase-king BA deciding in ``O(f)`` rounds; ``t < n/3``."""
    decided = False
    decision: Any = None
    max_phases = ctx.t + 3  # decision by t+2 in the worst case, +1 to help
    for phase in range(1, max_phases + 1):
        value, grade = yield from graded_consensus_3(
            ctx, tag + (phase, "gca"), value
        )

        king = (phase - 1) % ctx.n
        king_tag = tag + (phase, "king")
        outgoing = ctx.broadcast(king_tag, value) if ctx.pid == king else []
        inbox = yield outgoing
        king_values = [
            body for sender, body in by_tag(inbox, king_tag)
            if sender == king and is_hashable(body)
        ]
        if grade < 2 and king_values:
            value = king_values[0]

        value, grade = yield from graded_consensus_3(
            ctx, tag + (phase, "gcb"), value
        )
        if decided:
            return decision
        if grade == 2:
            decided = True
            decision = value
    return decision if decided else value
