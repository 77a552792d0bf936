"""Composition utilities for round-driven protocol coroutines.

The paper's wrapper (Algorithm 1) runs each sub-protocol for *exactly* ``T``
rounds -- "every process synchronously spends T time (no less, no more) on
the sub-protocol, aborting it if necessary".  :func:`run_exactly` implements
that contract for generator-based protocols: the sub-protocol is driven for
exactly ``T`` yields; if it finishes early the process idles (sending
nothing) for the remaining rounds, and if it has not finished by round ``T``
it is aborted and a fallback result is returned.  Because every honest
process applies the same schedule, global lock-step alignment is preserved
across composed sub-protocols.
"""

from __future__ import annotations

from typing import Any, Generator, List, Tuple

from .message import Envelope


class SimulationTimeout(Exception):
    """Raised by the engine when honest processes fail to terminate."""


def run_exactly(
    num_rounds: int,
    sub: Generator,
    fallback: Any = None,
) -> Generator[List[Envelope], List[Envelope], Tuple[Any, bool]]:
    """Drive ``sub`` for exactly ``num_rounds`` rounds.

    Returns ``(result, finished)``: ``result`` is the sub-protocol's return
    value if it completed within the budget, else ``fallback``; ``finished``
    says which case occurred.  Intended usage::

        result, ok = yield from run_exactly(T, graded_consensus(...), v)

    Early completion pads with silent rounds; late completion is aborted by
    closing the generator, matching the paper's time-limited sub-protocol
    semantics.
    """
    done = False
    result = fallback
    pending: List[Envelope] = []
    try:
        pending = sub.send(None)
    except StopIteration as stop:
        done, result = True, stop.value
        pending = []
    for _ in range(num_rounds):
        inbox = yield (pending if not done else [])
        pending = []
        if not done:
            try:
                pending = sub.send(inbox)
            except StopIteration as stop:
                done, result = True, stop.value
                pending = []
    if not done:
        sub.close()
    return result, done


def idle(num_rounds: int) -> Generator[List[Envelope], List[Envelope], None]:
    """Spend ``num_rounds`` rounds sending nothing and ignoring the inbox."""
    for _ in range(num_rounds):
        yield []
