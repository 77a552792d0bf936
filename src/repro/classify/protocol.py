"""The classification vote (Algorithm 2 of the paper).

Each honest process broadcasts its prediction string; process ``p_i`` then
classifies ``p_j`` as honest iff at least ``ceil((n+1)/2)`` of the received
vectors (its own included) predict ``p_j`` honest.  Faulty processes may
send different vectors to different processes, malformed vectors, or
nothing; anything that is not an ``n``-bit vector is ignored.

One round, ``n`` messages per honest process (``n^2`` total), ``n``-bit
payloads -- the paper notes this step alone is Theta(n^3) communication
bits.

Every recipient sums the same honest vectors, so the vote is read through
:func:`~repro.net.message.reduce_by_tag` with the pure reducer
:func:`tally` (argument ``n``): a round computes it once per view -- for
every recipient no adversary vector reaches, and once for each group the
adversary sent the same vectors -- which takes the shared part of the
vote from ``Theta(n^3)`` to ``Theta(n^2)`` operations.
"""

from __future__ import annotations

from typing import Generator, List, Sequence, Tuple

from ..net.context import ProcessContext
from ..net.message import Envelope, Pairs, reduce_by_tag


def vote_threshold(n: int) -> int:
    """``ceil((n+1)/2)`` -- the strict-majority vote bound of Algorithm 2."""
    return (n + 2) // 2


def _well_formed(vector: object, n: int) -> bool:
    return (
        isinstance(vector, tuple)
        and len(vector) == n
        and all(bit in (0, 1) for bit in vector)
    )


def classify(
    ctx: ProcessContext, tag: tuple, prediction: Sequence[int]
) -> Generator[List[Envelope], List[Envelope], Tuple[int, ...]]:
    """Run Algorithm 2; return this process's classification vector ``c_i``."""
    n = ctx.n
    my_vector = tuple(prediction)
    inbox = yield ctx.broadcast(tag, my_vector)
    return reduce_by_tag(inbox, tag, tally, n)


def tally(pairs: Pairs, n: int) -> Tuple[int, ...]:
    """The classification vector the well-formed ``n``-bit votes in
    ``pairs`` give: ``1`` where at least :func:`vote_threshold` of them
    predict honest."""
    received = [vector for _, vector in pairs if _well_formed(vector, n)]
    if not received:
        return (0,) * n
    threshold = vote_threshold(n)
    return tuple(1 if sum(column) >= threshold else 0
                 for column in zip(*received))
