"""Classic Dolev-Strong authenticated Byzantine broadcast (the paper's [22]).

The reference point Algorithm 6 modifies: ``t + 1`` rounds of signature
chains with *no* committee restriction.  Included as a baseline substrate
(and to benchmark the committee optimization: ``k + 1`` vs ``t + 1``
rounds).

Signature chains here are plain signer lists: the sender signs
``(tag, value)``; each relay signs the chain it extends.  A chain of length
``r`` accepted in round ``r`` must carry ``r`` distinct signatures starting
with the sender's.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Set, Tuple

from ..crypto.keys import KeyStore, Signature
from ..net.context import ProcessContext
from ..net.message import Envelope, by_tag_all
from ..perf import memoized_check

DEFAULT = ("ds-default",)


def _chain_message(tag: tuple, value: Any, prefix: Tuple[Signature, ...]) -> tuple:
    if prefix:
        return ("ds-ext", tag, value, prefix)
    return ("ds-val", tag, value)


def _inspect(body: Any, sender: int, keystore: KeyStore, tag: tuple) -> Optional[Tuple[Any, Tuple[Signature, ...]]]:
    """Validate a chain payload ``(value, sigs)``; return it or ``None``.

    A relayed chain reaches every recipient as one broadcast body object,
    so the signature-by-signature walk (quadratic in chain length via the
    canonical encoding) memoizes per body within the keystore's
    execution-scoped cache; see :mod:`repro.perf` for the safety policy.
    """
    return memoized_check(
        keystore,
        "ds_chain",
        body,
        (tag, sender),
        lambda: _inspect_uncached(body, sender, keystore, tag),
        positive=lambda checked: checked is not None,
    )


def _inspect_uncached(
    body: Any, sender: int, keystore: KeyStore, tag: tuple
) -> Optional[Tuple[Any, Tuple[Signature, ...]]]:
    if not (isinstance(body, tuple) and len(body) == 2):
        return None
    value, sigs = body
    if not isinstance(sigs, tuple) or not sigs:
        return None
    if not all(isinstance(s, Signature) for s in sigs):
        return None
    if sigs[0].signer != sender:
        return None
    if len({s.signer for s in sigs}) != len(sigs):
        return None
    for index, sig in enumerate(sigs):
        message = _chain_message(tag, value, sigs[:index])
        if not keystore.verify(sig, message):
            return None
    return value, sigs


def dolev_strong(
    ctx: ProcessContext,
    tag: tuple,
    sender: int,
    value: Any,
    keystore: KeyStore,
) -> Generator[List[Envelope], List[Envelope], Any]:
    """Classic Dolev-Strong broadcast: ``t + 1`` rounds, tolerates ``t < n``."""
    accepted: Set[Any] = set()
    outgoing: List[Envelope] = []
    if ctx.pid == sender:
        accepted.add(value)
        sig = ctx.signer.sign(ctx.pid, _chain_message(tag, value, ()))
        outgoing = ctx.broadcast(tag, (value, (sig,)))
    inbox = yield outgoing

    for round_index in range(2, ctx.t + 2):
        outgoing = []
        for _, body in by_tag_all(inbox, tag):
            checked = _inspect(body, sender, keystore, tag)
            if checked is None:
                continue
            chain_value, sigs = checked
            if len(sigs) != round_index - 1:
                continue
            if chain_value in accepted or len(accepted) >= 2:
                continue
            accepted.add(chain_value)
            if ctx.pid not in {s.signer for s in sigs}:
                my_sig = ctx.signer.sign(
                    ctx.pid, _chain_message(tag, chain_value, sigs)
                )
                outgoing.extend(
                    ctx.broadcast(tag, (chain_value, sigs + (my_sig,)))
                )
        inbox = yield outgoing

    for _, body in by_tag_all(inbox, tag):
        checked = _inspect(body, sender, keystore, tag)
        if checked is None:
            continue
        chain_value, sigs = checked
        if len(sigs) != ctx.t + 1:
            continue
        if chain_value not in accepted and len(accepted) < 2:
            accepted.add(chain_value)

    if len(accepted) == 1:
        return next(iter(accepted))
    return DEFAULT
