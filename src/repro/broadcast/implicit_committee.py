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

from typing import Any, Generator, List, Optional, Set

from ..crypto.certificates import is_committee_certificate
from ..crypto.chains import extend_chain, inspect_chain, start_chain
from ..crypto.keys import KeyStore
from ..net.context import ProcessContext
from ..net.message import Envelope, by_tag
from ..util import is_hashable, value_sort_key

DEFAULT = ("bb-default",)  # the paper's "bot" output


def bb_with_implicit_committee(
    ctx: ProcessContext,
    tag: tuple,
    sender: int,
    value: Any,
    k: int,
    certificate: Optional[Any],
    keystore: KeyStore,
) -> Generator[List[Envelope], List[Envelope], Any]:
    """Run Algorithm 6 as process ``ctx.pid``; returns a value or ``DEFAULT``.

    ``certificate`` is this process's own committee certificate, or ``None``
    if it never assembled one.  ``sender`` is the designated broadcaster
    ``p_s``; ``tag`` already identifies the instance (Algorithm 7 uses one
    instance per possible sender).
    """
    certified = certificate is not None and is_committee_certificate(
        certificate, ctx.pid, ctx.t, keystore
    )
    accepted: Set[Any] = set()

    def fresh_valid_chains(inbox: List[Envelope], length: int) -> List[tuple]:
        """Valid chains of exactly ``length`` started by ``sender``.

        ``inspect_chain`` memoizes per chain object within ``keystore``, so
        across the ``n`` recipients of a broadcast the expensive link-by-link
        verification runs once; this loop then only pays a cache lookup.
        Once two values are accepted the protocol is committed to returning
        ``DEFAULT``, so further chains need no inspection at all.  A chain
        for an unhashable value (no honest sender starts one) is ignored.
        """
        if len(accepted) >= 2:
            return []
        chains = []
        for _, body in by_tag(inbox, tag):
            info = inspect_chain(body, ctx.t, keystore)
            if info is None or info.starter != sender:
                continue
            if not is_hashable(info.value):
                continue
            if not info.is_valid_length(length):
                continue
            chains.append((info.value, body))
        return chains

    # Round 1: a certified sender starts its chain.
    outgoing: List[Envelope] = []
    if ctx.pid == sender and certified:
        accepted.add(value)
        chain = start_chain(value, certificate, ctx.signer, ctx.pid)
        outgoing = ctx.broadcast(tag, chain)
    inbox = yield outgoing
    received = fresh_valid_chains(inbox, 1)

    # Rounds 2 .. k+1: record new values, extend and relay their chains.
    for round_index in range(2, k + 2):
        outgoing = []
        for chain_value, chain in received:
            if chain_value in accepted or len(accepted) >= 2:
                continue
            accepted.add(chain_value)
            if certified:
                extended = extend_chain(chain, certificate, ctx.signer, ctx.pid)
                outgoing.extend(ctx.broadcast(tag, extended))
        inbox = yield outgoing
        received = fresh_valid_chains(inbox, round_index)

    # Final receipt (round k+1's chains) is recorded without relaying.
    for chain_value, _ in received:
        if chain_value not in accepted and len(accepted) < 2:
            accepted.add(chain_value)

    if len(accepted) == 1:
        return next(iter(accepted))
    return DEFAULT
