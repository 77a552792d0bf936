"""Graded consensus with a core set (Algorithm 3 of the paper).

Each honest ``p_i`` holds an input ``v_i``, the error bound ``k``, and a
listening set ``L_i`` of ``3k + 1`` identifiers.  Only processes with
``i in L_i`` ever broadcast, so at most ``|union L_i|`` processes speak --
this is what keeps Algorithm 5's message complexity at ``O(n k^2)``.

Guarantees (Lemmas 7-9), *under the core-set conditions*: there exists
``G subseteq H`` with ``|G| >= 2k + 1`` and ``G subseteq L_i`` for every
honest ``i``:

* Strong Unanimity -- same input ``v`` everywhere implies everyone returns
  ``(v, 1)``;
* Coherence -- if any honest process returns ``(v, 1)``, every honest
  process returns value ``v``.

Without the conditions the protocol still terminates in exactly 2 rounds
with each speaking process sending at most ``2n`` messages.

Recipients with the same listen set count the same honest broadcasts, so
the counts are read through :func:`~repro.net.message.reduce_by_tag` with
the pure reducer :func:`listen_counts` (the listen set is its argument):
computed once per round per listen set, shared read-only.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Tuple

from ..net.context import ProcessContext
from ..net.message import Envelope, Pairs, reduce_by_tag
from ..util import most_common_value
from .unauth import body_counts

NO_VALUE = ("gc-bottom",)  # internal stand-in for the paper's "bot"


def listen_counts(pairs: Pairs, listen_set: frozenset) -> Dict[Any, int]:
    """:func:`~repro.gradecast.unauth.body_counts` over the senders in the
    listen set."""
    return body_counts([pair for pair in pairs if pair[0] in listen_set])


def graded_consensus_with_core_set(
    ctx: ProcessContext,
    tag: tuple,
    value: Any,
    k: int,
    listen_ids: Iterable[int],
) -> Generator[List[Envelope], List[Envelope], Tuple[Any, int]]:
    """Run Algorithm 3; return ``(value, grade)`` with ``grade in {0, 1}``."""
    listen = frozenset(listen_ids)
    speaking = ctx.pid in listen

    # Round 1: members of L_i broadcast their input.
    round1_tag = tag + ("r1",)
    outgoing = ctx.broadcast(round1_tag, value) if speaking else []
    inbox = yield outgoing
    counts = reduce_by_tag(inbox, round1_tag, listen_counts, listen)
    locked = NO_VALUE
    for candidate, count in counts.items():
        if count >= 2 * k + 1:
            locked = candidate  # unique: 2(2k+1) > |L_i| = 3k+1
            break

    # Round 2: members with a locked value broadcast it.
    round2_tag = tag + ("r2",)
    outgoing = (
        ctx.broadcast(round2_tag, locked)
        if speaking and locked is not NO_VALUE
        else []
    )
    inbox = yield outgoing
    counts = reduce_by_tag(inbox, round2_tag, listen_counts, listen)

    if locked is not NO_VALUE:
        if counts.get(locked, 0) >= 2 * k + 1:
            return (locked, 1)
        return (locked, 0)
    fallback = most_common_value(counts, min_count=k + 1)
    if fallback is not None:
        return (fallback, 0)
    return (value, 0)
