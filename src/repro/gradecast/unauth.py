"""Full-network unauthenticated graded consensus (the paper's [14]).

Used by the guess-and-double wrapper (Algorithm 1) to protect validity and
detect agreement.  Two rounds, ``O(n^2)`` messages, tolerates ``t < n/3``.

The binary-grade :func:`graded_consensus` provides the wrapper's interface:

* Strong Unanimity -- same honest input ``v`` implies everyone returns
  ``(v, 1)``;
* Coherence -- any honest ``(v, 1)`` implies every honest process returns
  value ``v``.

The three-grade :func:`graded_consensus_3` additionally distinguishes
"confirmed" (grade 2) from "supported" (grade 1) values, the classic
phase-king building block used by our early-stopping agreement substrate:

* unanimity gives everyone grade 2;
* an honest grade 2 for ``v`` forces every honest grade >= 1 with value ``v``;
* two honest processes with grade >= 1 hold the same value.

Correctness argument (standard quorum intersection, ``t < n/3``): a process
locks ``v`` only on ``n - t`` round-1 votes; two locked values would need
quorums intersecting in ``n - 2t >= t + 1`` processes, hence an honest
double-voter -- impossible.  So all honest round-2 broadcasts carry one
value ``v``; ``n - t`` round-2 copies imply every honest process sees at
least ``n - 2t >= t + 1`` copies of ``v`` while no other value can reach
``t + 1``.

Every recipient of a round counts the same honest broadcasts, so the counts
are read through :func:`~repro.net.message.reduce_by_tag` with the pure
reducer :func:`body_counts`: the round computes them once per view --
for every recipient no adversary envelope under the tag reaches, and
once for each group the adversary sent the same messages -- and the
recipients with that view share the one (read-only) dict.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Mapping, Tuple

from ..net.context import ProcessContext
from ..net.message import Envelope, Pairs, reduce_by_tag
from ..util import most_common_value

_BOTTOM = ("gc-bottom",)


def body_counts(pairs: Pairs) -> Dict[Any, int]:
    """How many senders sent each body, in first-seen order.

    An unhashable body is skipped: no honest process sends one, so the
    faulty sender counts as silent.
    """
    counts: Dict[Any, int] = {}
    for _, body in pairs:
        try:
            counts[body] = counts.get(body, 0) + 1
        except TypeError:
            continue
    return counts


def _lock_value(counts: Mapping[Any, int], quorum: int) -> Any:
    for candidate, count in counts.items():
        if count >= quorum:
            return candidate
    return _BOTTOM


def graded_consensus(
    ctx: ProcessContext, tag: tuple, value: Any
) -> Generator[List[Envelope], List[Envelope], Tuple[Any, int]]:
    """Two-round graded consensus with grades {0, 1}; ``t < n/3``."""
    quorum = ctx.n - ctx.t
    round1_tag = tag + ("r1",)
    inbox = yield ctx.broadcast(round1_tag, value)
    locked = _lock_value(reduce_by_tag(inbox, round1_tag, body_counts), quorum)

    round2_tag = tag + ("r2",)
    outgoing = ctx.broadcast(round2_tag, locked) if locked is not _BOTTOM else []
    inbox = yield outgoing
    counts = reduce_by_tag(inbox, round2_tag, body_counts)

    if locked is not _BOTTOM:
        return (locked, 1 if counts.get(locked, 0) >= quorum else 0)
    supported = most_common_value(counts, min_count=ctx.t + 1)
    if supported is not None:
        return (supported, 0)
    return (value, 0)


def graded_consensus_3(
    ctx: ProcessContext, tag: tuple, value: Any
) -> Generator[List[Envelope], List[Envelope], Tuple[Any, int]]:
    """Two-round graded consensus with grades {0, 1, 2}; ``t < n/3``."""
    quorum = ctx.n - ctx.t
    round1_tag = tag + ("r1",)
    inbox = yield ctx.broadcast(round1_tag, value)
    locked = _lock_value(reduce_by_tag(inbox, round1_tag, body_counts), quorum)

    round2_tag = tag + ("r2",)
    outgoing = ctx.broadcast(round2_tag, locked) if locked is not _BOTTOM else []
    inbox = yield outgoing
    counts = reduce_by_tag(inbox, round2_tag, body_counts)

    confirmed = most_common_value(counts, min_count=quorum)
    if confirmed is not None:
        return (confirmed, 2)
    supported = most_common_value(counts, min_count=ctx.t + 1)
    if supported is not None:
        return (supported, 1)
    return (value, 0)
