"""Authenticated graded consensus with certified locks.

A 2-round *certified* graded consensus that tolerates ``t < n/3``:
round-1 echoes are signed, and a round-2 lock message must carry a
quorum certificate of ``n - t`` distinct signed echoes for its value.
It stands in for the paper's Momose-Ren [37] (``t < n/2``); the
"Substitutions" section of docs/ARCHITECTURE.md records what that
changes.

Correctness: quorum certificates pin a unique value (two certificates for
different values would need an honest double-echo, impossible), signatures
make locks transferable, and one visible honest lock is enough to propagate
the value -- giving Strong Unanimity and Coherence under ``t < n/3``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Generator, List, Optional, Tuple

from ..crypto.keys import KeyStore, Signature, canonical_encode
from ..net.context import ProcessContext
from ..net.message import Envelope, Pairs, reduce_by_tag
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


def _certified_lock(
    lock_value: Any, cert: tuple, tag: tuple, quorum: int, keystore: KeyStore
) -> bool:
    """Does ``cert`` carry ``quorum`` valid echo signers of ``lock_value``?

    Every honest locker of a round broadcasts the one certificate object
    that round 1's shared read built, so the check memoizes on that
    object.  The memo key is the echo message's exact canonical encoding,
    never the value compared with ``==``: ``1``, ``True`` and ``1.0``
    compare equal but sign differently, so a certificate replayed under
    an equal value is checked afresh.  A value outside the encoding has
    no valid signature at all.
    """
    message = _echo_message(tag, lock_value)

    def compute() -> bool:
        signers = {
            sig.signer
            for sig in cert
            if isinstance(sig, Signature) and keystore.verify(sig, message)
        }
        return len(signers) >= quorum

    try:
        key = (canonical_encode(message), quorum)
    except TypeError:
        return False
    return memoized_check(keystore, "gc_lock", cert, key, compute, positive=bool)


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


def lock_tally(
    pairs: Pairs, tag: tuple, quorum: int, keystore: KeyStore
) -> Tuple[Counter, Optional[Any]]:
    """Round 2's read: ``(lock_counts, certified)`` from the lock pairs.

    ``lock_counts`` counts the locks ``(value, cert)`` whose tuple
    certificate holds ``quorum`` valid echo signers, per value, and
    ``certified`` is the first non-``None`` value among them (``None``
    without one).  Bodies that are not pairs, certificates that are not
    tuples and unhashable values are ignored as silence.

    A pure reducer for :func:`~repro.net.message.reduce_by_tag`, like
    :func:`echo_quorum`: the result may be shared, so it is read-only.
    """
    lock_counts: Counter = Counter()
    certified: Optional[Any] = None
    for _, body in pairs:
        if not (isinstance(body, tuple) and len(body) == 2):
            continue
        lock_value, cert = body
        if not isinstance(cert, tuple) or not is_hashable(lock_value):
            continue
        if _certified_lock(lock_value, cert, tag, quorum, keystore):
            lock_counts[lock_value] += 1
            if certified is None:
                certified = lock_value
    return lock_counts, certified


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

    lock_counts, certified = reduce_by_tag(
        inbox, round2_tag, lock_tally, tag, quorum, keystore
    )
    certified_value = certified if locked is None else locked
    if certified_value is not None:
        grade = 1 if lock_counts[certified_value] >= quorum else 0
        return (certified_value, grade)
    return (value, 0)
