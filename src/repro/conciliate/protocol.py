"""Conciliation with a core set (Algorithm 4 of the paper).

A single round that drives honest processes toward a common value.  Every
process with ``i in L_i`` broadcasts its value *and* its listening set;
receivers build the "leader graph" on the senders they heard from, with an
edge ``(y, z)`` whenever ``y in L_z``, propagate minimum values along paths,
and return the plurality among ``m_i[z]`` for ``z in T_i cap L_i``.

Guarantees (Lemmas 13-14), under the conditions that every honest ``L_i``
contains only honest ids, ``|L_i| = 3k + 1``, and a common core set ``G``
of ``2k + 1`` honest ids lies in every ``L_i``:

* Agreement -- all honest processes return the same value;
* Strong Unanimity -- unanimous honest input is returned unchanged.

The graph construction makes honest broadcasters mutually reachable through
``G`` (Lemmas 10-12), so the ``m`` values agree at core vertices, and the
core's ``2k + 1`` copies dominate the plurality over at most ``3k + 1``
candidates.

Recipients with the same listen set build the same leader graph from the
same honest broadcasts, so the plurality is read through
:func:`~repro.net.message.reduce_by_tag` with the pure reducer
:func:`leader_plurality` (arguments ``n`` and the listen set): computed
once per round per listen set and shared.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Generator, Iterable, List, Set, Tuple

from ..net.context import ProcessContext
from ..net.message import Envelope, Pairs, reduce_by_tag
from ..util import is_hashable, most_frequent_value, value_sort_key


def _well_formed(body: Any, n: int) -> bool:
    """A ``(value, listen ids)`` pair; an unhashable value (never an honest
    one) makes the message malformed, as if its sender stayed silent."""
    if not (isinstance(body, tuple) and len(body) == 2):
        return False
    value, listen = body
    return (
        isinstance(listen, (tuple, frozenset))
        and all(isinstance(j, int) and 0 <= j < n for j in listen)
        and is_hashable(value)
    )


def _backward_reachable(
    target: int, vertices: Set[int], listens: Dict[int, FrozenSet[int]]
) -> Set[int]:
    """Vertices with a path to ``target`` in the leader graph (incl. itself).

    Edges are ``(y, z)`` for ``y in L_z``; we walk them backwards from
    ``target``.
    """
    reached = {target}
    frontier = [target]
    while frontier:
        node = frontier.pop()
        for y in listens[node]:
            if y in vertices and y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def conciliate(
    ctx: ProcessContext,
    tag: tuple,
    value: Any,
    k: int,
    listen_ids: Iterable[int],
) -> Generator[List[Envelope], List[Envelope], Any]:
    """Run Algorithm 4; return the conciliated value ``v'_i``."""
    listen = frozenset(listen_ids)
    outgoing = (
        ctx.broadcast(tag, (value, tuple(sorted(listen))))
        if ctx.pid in listen
        else []
    )
    inbox = yield outgoing
    plurality = reduce_by_tag(inbox, tag, leader_plurality, ctx.n, listen)
    if plurality is None:
        return value
    return plurality


def leader_plurality(pairs: Pairs, n: int, listen: FrozenSet[int]) -> Any:
    """The plurality of ``m[z]`` over ``z in T cap L`` for the leader graph
    on the well-formed ``pairs``; ``None`` when there is none."""
    received: Dict[int, Tuple[Any, FrozenSet[int]]] = {}
    for sender, body in pairs:
        if _well_formed(body, n):
            received[sender] = (body[0], frozenset(body[1]))
    vertices = set(received)
    listens = {z: received[z][1] for z in vertices}

    m_values: List[Any] = []
    for z in vertices & listen:
        reachable = _backward_reachable(z, vertices, listens)
        candidates = [
            received[y][0] for y in reachable if y in listens[y]
        ]
        if candidates:
            m_values.append(min(candidates, key=value_sort_key))
    return most_frequent_value(m_values)
