"""Authenticated Byzantine agreement with classification (Algorithm 7).

The conditional protocol behind Theorem 6: ``k + 3`` rounds and ``O(n k^2)``
messages for ``t < n/2``, provided ``2k + 1 <= n - t - k`` and ``k`` bounds
the number of misclassified processes.

Mechanics: every process votes (with a signature) for the first ``2k + 1``
ids of its priority ordering ``pi(c_i)``; a process with ``t + 1`` votes
assembles a committee certificate (Definition 1).  Lemma 24 shows the
implicit committee then has at most ``k`` faulty and at least ``k + 1``
honest members.  The committee runs ``n`` parallel Byzantine broadcasts
with implicit committee (Algorithm 6, ``k + 1`` rounds), each certified
member announces the plurality of the broadcast outputs, and everyone
decides the majority announcement -- safe because honest certified members
outnumber faulty ones.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence

from ..broadcast.implicit_committee import DEFAULT, bb_instances
from ..classify.ordering import priority_order
from ..crypto.certificates import (
    committee_message,
    is_committee_certificate,
    make_certificate,
)
from ..crypto.keys import KeyStore, Signature
from ..net.context import ProcessContext
from ..net.message import Envelope, by_tag
from ..util import is_hashable, most_frequent_value


def ba_with_classification_auth(
    ctx: ProcessContext,
    tag: tuple,
    value: Any,
    classification: Sequence[int],
    k: int,
    keystore: KeyStore,
) -> Generator[List[Envelope], List[Envelope], Any]:
    """Run Algorithm 7; return this process's decision value."""
    order = priority_order(classification)
    leaders = list(order[: 2 * k + 1])

    # Round 1: signed committee votes to the 2k+1 highest-priority ids.
    vote_tag = tag + ("vote",)
    outgoing = [
        ctx.send(j, vote_tag, ctx.signer.sign(ctx.pid, committee_message(j)))
        for j in leaders
    ]
    inbox = yield outgoing

    my_votes = {}
    my_vote_message = committee_message(ctx.pid)
    for sender, body in by_tag(inbox, vote_tag):
        if (
            isinstance(body, Signature)
            and body.signer == sender
            and keystore.verify(body, my_vote_message)
        ):
            my_votes[sender] = body
    certificate: Optional[frozenset] = None
    if len(my_votes) >= ctx.t + 1:
        chosen = sorted(my_votes)[: ctx.t + 1]
        certificate = make_certificate(my_votes[j] for j in chosen)

    # Rounds 2 .. k+2: n parallel Byzantine broadcasts, sender s in each.
    broadcast_outputs = yield from bb_instances(
        ctx, [(tag + ("bb", s), s) for s in range(ctx.n)],
        value, k, certificate, keystore,
    )

    # Round k+3: certified members announce the plurality of the outputs.
    announce_tag = tag + ("plurality",)
    outgoing = []
    if certificate is not None:
        non_default = [v for v in broadcast_outputs if v != DEFAULT]
        plurality = most_frequent_value(non_default)
        if plurality is None:
            plurality = value
        outgoing = ctx.broadcast(announce_tag, (plurality, certificate))
    inbox = yield outgoing

    announced: List[Any] = []
    for sender, body in by_tag(inbox, announce_tag):
        if not (isinstance(body, tuple) and len(body) == 2):
            continue
        sender_value, sender_cert = body
        if not is_hashable(sender_value):
            continue  # never an honest announcement: count it as silence
        # is_committee_certificate memoizes per (cert object, sender) inside
        # the keystore, so each announcer's broadcast certificate is checked
        # once per execution, not once per recipient.
        if is_committee_certificate(sender_cert, sender, ctx.t, keystore):
            announced.append(sender_value)

    decision = most_frequent_value(announced)
    if decision is None:
        return value
    return decision
