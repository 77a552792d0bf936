"""Byzantine Broadcast with an Implicit Committee (Algorithm 6).

A Dolev-Strong-style broadcast restricted to an implicit committee: a
process's messages are accepted only if accompanied by a committee
certificate (Definition 1), and message chains (Definition 2) carry one
certificate per link.  Because at most ``k`` committee members are faulty,
a valid chain of length ``k + 1`` contains an honest committee member's
signature, so the protocol needs only ``k + 1`` rounds instead of the
classic ``t + 1``.

Guarantees when at most ``k`` certified processes are faulty
(Lemmas 21-23):

* Committee Agreement -- certified honest processes return the same value;
* Validity with Sender Certificate -- an honest certified sender's input is
  returned by everyone;
* Default without Sender Certificate -- everyone returns ``DEFAULT``.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Set, Tuple

from ..crypto.certificates import is_committee_certificate
from ..crypto.chains import extend_chain, inspect_chain, start_chain
from ..crypto.keys import KeyStore
from ..net.context import ProcessContext
from ..net.message import Envelope, Pairs, reduce_by_tag, tags_of
from ..util import is_hashable

DEFAULT = ("bb-default",)  # the paper's "bot" output


def _valid_chains(
    pairs: Pairs, sender: int, length: int, t: int, keystore: KeyStore
) -> List[tuple]:
    """``(value, chain)`` for every valid chain of exactly ``length`` links
    started by ``sender``, in pair order.

    A pure reducer for :func:`~repro.net.message.reduce_by_tag`: every
    recipient that sees only the round's honest chains shares one result,
    so each chain is inspected once per round, not once per recipient,
    and the list is read-only.  A chain for an unhashable value (no
    honest sender starts one) is ignored.
    """
    chains = []
    for _, body in pairs:
        info = inspect_chain(body, t, keystore)
        if (info is not None and info.starter == sender
                and is_hashable(info.value) and info.is_valid_length(length)):
            chains.append((info.value, body))
    return chains


def bb_instances(
    ctx: ProcessContext,
    instances: Sequence[Tuple[tuple, int]],
    value: Any,
    k: int,
    certificate: Optional[Any],
    keystore: KeyStore,
) -> Generator[List[Envelope], List[Envelope], List[Any]]:
    """Run Algorithm 6 as process ``ctx.pid`` for every ``(tag, sender)``
    instance in lock step; return each instance's value or ``DEFAULT``.

    ``certificate`` is this process's own committee certificate, or
    ``None`` if it never assembled one; ``value`` is what it broadcasts in
    the instances it is the sender ``p_s`` of.  Each round's sends are the
    instances' sends in instance order (Algorithm 7 runs one instance per
    possible sender).  Once an instance has accepted two values it is
    committed to returning ``DEFAULT``, so its chains need no reading.
    """
    certified = certificate is not None and is_committee_certificate(
        certificate, ctx.pid, ctx.t, keystore
    )
    accepted: List[Set[Any]] = [set() for _ in instances]

    # Round 1: a certified sender starts its chain.
    outgoing: List[Envelope] = []
    if certified:
        for (tag, sender), seen in zip(instances, accepted):
            if sender == ctx.pid:
                seen.add(value)
                chain = start_chain(value, certificate, ctx.signer, ctx.pid)
                outgoing.extend(ctx.broadcast(tag, chain))

    # Rounds 1 .. k+1 deliver chains of that many links: record new values
    # and, until the last round, extend and relay their chains.
    for length in range(1, k + 2):
        inbox = yield outgoing
        outgoing = []
        relay = certified and length <= k
        # Most instances' senders start no chain: read only the instances
        # with traffic (``_valid_chains([])`` is ``[]``).
        held = tags_of(inbox)
        for (tag, sender), seen in zip(instances, accepted):
            if len(seen) >= 2 or (held is not None and tag not in held):
                continue
            received = reduce_by_tag(
                inbox, tag, _valid_chains, sender, length, ctx.t, keystore
            )
            for chain_value, chain in received:
                if chain_value in seen or len(seen) >= 2:
                    continue
                seen.add(chain_value)
                if relay:
                    extended = extend_chain(chain, certificate, ctx.signer, ctx.pid)
                    outgoing.extend(ctx.broadcast(tag, extended))

    return [next(iter(seen)) if len(seen) == 1 else DEFAULT for seen in accepted]


def bb_with_implicit_committee(
    ctx: ProcessContext,
    tag: tuple,
    sender: int,
    value: Any,
    k: int,
    certificate: Optional[Any],
    keystore: KeyStore,
) -> Generator[List[Envelope], List[Envelope], Any]:
    """Run one Algorithm 6 instance (see :func:`bb_instances`); returns a
    value or ``DEFAULT``."""
    outputs = yield from bb_instances(
        ctx, [(tag, sender)], value, k, certificate, keystore
    )
    return outputs[0]
