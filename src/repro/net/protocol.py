"""Composition utilities for round-driven protocol coroutines.

The paper's wrapper (Algorithm 1) runs each sub-protocol for *exactly* ``T``
rounds -- "every process synchronously spends T time (no less, no more) on
the sub-protocol, aborting it if necessary".  :func:`run_exactly` implements
that contract for generator-based protocols: the sub-protocol is driven for
exactly ``T`` rounds; if it finishes early the process idles (sending
nothing) for the remaining rounds, and if it has not finished by round ``T``
it is aborted and a fallback result is returned.  Because every honest
process applies the same schedule, global lock-step alignment is preserved
across composed sub-protocols.

A coroutine spends rounds in which it sends nothing and reads nothing by
yielding one :class:`Idle` instead of one empty list per round: ``yield
Idle(k)`` stands for ``k`` rounds of ``yield []`` whose inboxes are
ignored, and the driver resumes the coroutine with ``None`` after the
``k``-th of them.  Whatever drives a coroutine by hand must honour this
(see "net engine" in docs/ARCHITECTURE.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Tuple, Union

from .message import Send


class SimulationTimeout(Exception):
    """Raised by the engine when honest processes fail to terminate."""


@dataclass(frozen=True, slots=True)
class Idle:
    """Yielded by a protocol coroutine: "I send nothing and ignore my
    inbox for the next ``rounds`` rounds".

    Equivalent to ``rounds`` yields of ``[]`` whose inboxes go unread,
    except that the driver resumes the coroutine once, with ``None``,
    after the last of those rounds; its next sends go out in the round
    after.  The engine neither builds an inbox for nor resumes a
    process while it idles.
    """

    rounds: int

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"Idle needs rounds >= 1, got {self.rounds}")


#: What a protocol coroutine yields each time it is resumed.
Yielded = Union[List[Send], Idle]


def run_exactly(
    num_rounds: int,
    sub: Generator,
    fallback: Any = None,
) -> Generator[Yielded, Any, Tuple[Any, bool]]:
    """Drive ``sub`` for exactly ``num_rounds`` rounds.

    Returns ``(result, finished)``: ``result`` is the sub-protocol's return
    value if it completed within the budget, else ``fallback``; ``finished``
    says which case occurred.  Intended usage::

        result, ok = yield from run_exactly(T, graded_consensus(...), v)

    Early completion pads the remaining rounds with one :class:`Idle`;
    late completion is aborted by closing the generator, matching the
    paper's time-limited sub-protocol semantics.  An ``Idle(m)`` from
    ``sub`` counts as ``m`` rounds, cut to what is left of the budget.
    """
    left = num_rounds
    try:
        out = sub.send(None)
        while left > 0:
            if type(out) is Idle:
                rounds = min(out.rounds, left)
                yield Idle(rounds)
                left -= rounds
                if rounds < out.rounds:
                    break
                out = sub.send(None)
            else:
                inbox = yield out
                left -= 1
                out = sub.send(inbox)
    except StopIteration as stop:
        result = stop.value
    else:
        sub.close()
        return fallback, False
    if left > 0:
        yield Idle(left)
    return result, True


def idle(num_rounds: int) -> Generator[Idle, Any, None]:
    """Spend ``num_rounds`` rounds sending nothing and ignoring the inbox."""
    if num_rounds > 0:
        yield Idle(num_rounds)
