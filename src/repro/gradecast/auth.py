"""Authenticated graded consensus with certified locks.

SUBSTITUTION NOTE (recorded in DESIGN.md): the paper cites Momose-Ren [37]
for a 4-round, ``O(n^2)``-message graded consensus tolerating ``t < n/2``.
We substitute a 2-round *certified* graded consensus whose fault tolerance
is ``t < n/3``: round-1 echoes are signed, and a round-2 lock message must
carry a quorum certificate of ``n - t`` distinct signed echoes for its
value.  Consequences:

* all complexity shapes used by Theorem 12's reproduction (rounds
  ``O(min{B/n + 1, f})``, messages per invocation ``O(n^2)``) are preserved;
* our end-to-end authenticated pipeline requires ``t < n/3`` rather than
  ``t < (1/2 - eps) n``; Algorithm 7 itself is implemented exactly as in
  the paper and retains its ``t < n/2`` tolerance standalone.

Correctness: quorum certificates pin a unique value (two certificates for
different values would need an honest double-echo, impossible), signatures
make locks transferable, and one visible honest lock is enough to propagate
the value -- giving Strong Unanimity and Coherence under ``t < n/3``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Generator, List, Optional, Tuple

from ..crypto.keys import KeyStore, Signature
from ..net.context import ProcessContext
from ..net.message import Envelope, Pairs, by_tag, reduce_by_tag
from ..perf import memoized_check
from ..util import is_hashable


def _echo_message(tag: tuple, value: Any) -> tuple:
    return (tag, "echo", value)


def _valid_echo(body: Any, sender: int, tag: tuple, keystore: KeyStore) -> bool:
    """Is ``body`` a well-signed round-1 echo ``(value, sig)`` from ``sender``?

    Memoized per broadcast body object: the sender's echo reaches every
    recipient as one shared object, so the signature is checked once per
    execution instead of once per recipient.
    """

    def compute() -> bool:
        echoed, sig = body
        return (
            isinstance(sig, Signature)
            and sig.signer == sender
            and keystore.verify(sig, _echo_message(tag, echoed))
        )

    return memoized_check(
        keystore, "gc_echo", body, (tag, sender), compute, positive=bool
    )


def _certified_lock(body: Any, tag: tuple, quorum: int, keystore: KeyStore) -> bool:
    """Does lock ``body = (value, cert)`` carry ``quorum`` valid echo signers?

    Memoized per broadcast body object for the same reason as
    :func:`_valid_echo`; a lock certificate of ``n - t`` signatures is by
    far the protocol's most expensive per-recipient check.
    """

    def compute() -> bool:
        lock_value, cert = body
        message = _echo_message(tag, lock_value)
        signers = {
            sig.signer
            for sig in cert
            if isinstance(sig, Signature) and keystore.verify(sig, message)
        }
        return len(signers) >= quorum

    return memoized_check(
        keystore, "gc_lock", body, (tag, quorum), compute, positive=bool
    )


def echo_quorum(
    pairs: Pairs, tag: tuple, quorum: int, keystore: KeyStore
) -> Tuple[Optional[Any], Optional[tuple]]:
    """Round 1's read: ``(locked, certificate)`` from the echo pairs.

    ``locked`` is the first value, in first-seen order, echoed with a
    valid signature by at least ``quorum`` distinct senders, and
    ``certificate`` those echo signatures sorted by signer; both are
    ``None`` without such a value.  Bodies that are not pairs, or whose
    value is unhashable, are ignored as silence.

    A pure reducer for :func:`~repro.net.message.reduce_by_tag`: every
    recipient that sees only the round's honest echoes shares one result,
    so the tuple and its certificate are read-only.
    """
    echo_sigs: dict = {}
    for sender, body in pairs:
        # An unhashable value is never an honest echo: ignore it as silence.
        if not (isinstance(body, tuple) and len(body) == 2
                and is_hashable(body[0])):
            continue
        if _valid_echo(body, sender, tag, keystore):
            echoed, sig = body
            echo_sigs.setdefault(echoed, {})[sender] = sig
    for candidate, sigs in echo_sigs.items():
        if len(sigs) >= quorum:
            return candidate, tuple(sigs[s] for s in sorted(sigs))
    return None, None


def graded_consensus_auth(
    ctx: ProcessContext,
    tag: tuple,
    value: Any,
    keystore: KeyStore,
) -> Generator[List[Envelope], List[Envelope], Tuple[Any, int]]:
    """Two-round certified graded consensus; grades {0, 1}; ``t < n/3``."""
    quorum = ctx.n - ctx.t

    # Round 1: signed echoes.
    round1_tag = tag + ("r1",)
    my_sig = ctx.signer.sign(ctx.pid, _echo_message(tag, value))
    inbox = yield ctx.broadcast(round1_tag, (value, my_sig))
    locked, certificate = reduce_by_tag(
        inbox, round1_tag, echo_quorum, tag, quorum, keystore
    )

    # Round 2: certified locks.
    round2_tag = tag + ("r2",)
    outgoing = (
        ctx.broadcast(round2_tag, (locked, certificate))
        if certificate is not None
        else []
    )
    inbox = yield outgoing

    lock_counts: Counter = Counter()
    certified_value: Optional[Any] = None
    has_lock = certificate is not None
    if has_lock:
        certified_value = locked
    for _, body in by_tag(inbox, round2_tag):
        if not (isinstance(body, tuple) and len(body) == 2):
            continue
        lock_value, cert = body
        if not isinstance(cert, tuple) or not is_hashable(lock_value):
            continue
        if _certified_lock(body, tag, quorum, keystore):
            lock_counts[lock_value] += 1
            if certified_value is None:
                certified_value = lock_value

    if certified_value is not None:
        grade = 1 if lock_counts[certified_value] >= quorum else 0
        return (certified_value, grade)
    return (value, 0)
