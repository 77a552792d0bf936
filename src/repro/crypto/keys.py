"""Simulated unforgeable signatures.

The paper (Section 8.1) assumes a public-key infrastructure where no
computationally-bounded faulty process can forge an honest process's
signature.  In a closed simulation we get unforgeability *by construction*:
signatures are keyed digests minted by a :class:`KeyStore` whose per-process
secrets never leave the store, and participants (honest or adversarial) only
ever hold a :class:`SignerHandle` restricted to the identities they control.
Verification is public.  An adversary can replay any signature it has seen
-- exactly as in the real model -- but cannot mint one for an honest id.

Messages are hashed through a deterministic canonical encoding so that
structurally equal payloads sign and verify identically across processes
and runs.

Performance: a :class:`KeyStore` is created per execution, so it doubles
as the execution's cache root (see :mod:`repro.perf`).  Deeply immutable
message structures are canonically encoded once (identity-keyed), signing
digests are derived once per ``(signer, encoding)`` pair (digest-keyed
fallback for structurally identical but distinct objects), and chain /
certificate verifications memoize through :meth:`KeyStore.memo`.  A
mutated object can never hit the identity layer -- only immutable
structures are stored there -- which keeps every cache tamper-safe.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

from ..perf import CacheStats, IdentityMemo


class ForgeryError(Exception):
    """Raised when a handle attempts to sign for an identity it lacks."""


#: Discarded stats object backing :func:`canonical_encode`'s throwaway cache.
_THROWAWAY_STATS = CacheStats("throwaway")


def canonical_encode(obj: Any) -> bytes:
    """Deterministically encode a message structure for hashing.

    Supports the value types protocols in this library exchange: ``None``,
    ``bool``, ``int``, ``str``, ``bytes``, tuples/lists, frozensets/sets
    (order-normalized), and :class:`Signature` objects.  Raises
    ``TypeError`` for anything else, which keeps signing honest about what
    it covers.

    Thin wrapper over :func:`_encode_cached` with a throwaway cache, so
    there is exactly one encoding dispatch table: cached and uncached
    key stores can never drift apart byte-wise.
    """
    return _encode_cached(obj, {}, _THROWAWAY_STATS)[0]


def _encode_cached(
    obj: Any, cache: Dict[int, Tuple[Any, bytes]], stats: CacheStats
) -> Tuple[bytes, bool]:
    """The one canonical-encoding implementation, with identity caching.

    Returns ``(encoding, immutable)`` where ``immutable`` certifies the
    whole subtree can never change in place.  Only immutable containers are
    cached (``cache`` holds a strong reference to each cached object, so
    their ids can never be reused); atoms are cheap enough to encode
    directly.  :func:`canonical_encode` delegates here with a throwaway
    cache, so the encoding format (and the ``TypeError`` contract) has a
    single source of truth.

    Dispatch is on the exact type first: ``str`` and ``int`` -- the atoms
    of nearly every signed message -- are encoded without the
    ``isinstance`` chain, and an exact ``tuple`` goes straight to the
    cache lookup.  Every other type, subclasses included (``bool``,
    ``IntEnum``, ``str`` subclasses), takes the chain; both paths give
    the same bytes.
    """
    kind = type(obj)
    if kind is str:
        encoded = obj.encode()
        return b"s%d:%s" % (len(encoded), encoded), True
    if kind is int:
        return b"i%d;" % obj, True
    if kind is not tuple:
        if obj is None:
            return b"N", True
        if isinstance(obj, bool):
            return (b"T" if obj else b"F"), True
        if isinstance(obj, int):
            return b"i" + str(obj).encode() + b";", True
        if isinstance(obj, str):
            encoded = obj.encode()
            return b"s" + str(len(encoded)).encode() + b":" + encoded, True
        if isinstance(obj, bytes):
            return b"b" + str(len(obj)).encode() + b":" + obj, True
    entry = cache.get(id(obj))
    if entry is not None and entry[0] is obj:
        stats.hits += 1
        return entry[1], True
    if isinstance(obj, Signature):
        signer_enc, signer_imm = _encode_cached(obj.signer, cache, stats)
        encoding = b"G(" + signer_enc + obj.digest + b")"
        immutable = signer_imm and type(obj.digest) is bytes
    elif isinstance(obj, (tuple, list)):
        immutable = isinstance(obj, tuple)
        pieces = []
        for item in obj:
            item_enc, item_imm = _encode_cached(item, cache, stats)
            pieces.append(item_enc)
            immutable = immutable and item_imm
        encoding = b"(" + b"".join(pieces) + b")"
    elif isinstance(obj, (set, frozenset)):
        immutable = isinstance(obj, frozenset)
        pieces = []
        for item in obj:
            item_enc, item_imm = _encode_cached(item, cache, stats)
            pieces.append(item_enc)
            immutable = immutable and item_imm
        encoding = b"{" + b"".join(sorted(pieces)) + b"}"
    else:
        raise TypeError(f"cannot canonically encode {type(obj).__name__}")
    if immutable:
        stats.misses += 1
        cache[id(obj)] = (obj, encoding)
    return encoding, immutable


@dataclass(frozen=True)
class Signature:
    """An opaque signature token: ``signer`` plus a keyed digest."""

    signer: int
    digest: bytes


#: The part of a :class:`Signature` ``repr`` that is not a field's value
#: (class name, field names, punctuation), read off a real ``repr``.
_SIGNATURE_REPR_FIXED = len(repr(Signature(0, b""))) - len(repr(0)) - len(repr(b""))


def signature_repr_len(sig: Any) -> Optional[int]:
    """``len(repr(sig))`` without building the dataclass ``repr``.

    Defined for an exact :class:`Signature` with an exact ``int`` signer
    and exact ``bytes`` digest, the shape every key store mints; ``None``
    for anything else, whose ``repr`` may differ (a subclass's name, a
    ``bool`` or ``str`` field).  The fixed part comes from a real
    ``repr``, so the two stay equal if the class or a field is renamed.
    Accounting (:func:`repro.net.metrics.payload_bits`) charges
    signatures through this.
    """
    if type(sig) is not Signature:
        return None
    signer, digest = sig.signer, sig.digest
    if type(signer) is not int or type(digest) is not bytes:
        return None
    return _SIGNATURE_REPR_FIXED + len(str(signer)) + len(repr(digest))


class KeyStore:
    """Holds per-process signing secrets; the simulation's trusted PKI.

    Also the execution's cache root: ``cache=False`` turns its memo
    tables off (the encoding, sign-digest and verification memos), while
    round-shared reads stay shared either way.  Benchmarks and
    cache-safety tests use it to measure the memos and assert result
    equality.
    """

    def __init__(self, n: int, seed: int = 0, cache: bool = True) -> None:
        self.n = n
        self._secrets = [
            hashlib.sha256(f"repro-key|{seed}|{pid}".encode()).digest()
            for pid in range(n)
        ]
        self.caching = bool(cache)
        self.encode_stats = CacheStats("canonical_encode")
        self.sign_stats = CacheStats("sign_digest")
        self._enc_cache: Dict[int, Tuple[Any, bytes]] = {}
        self._sign_cache: Dict[Tuple[int, bytes], bytes] = {}
        self._memos: Dict[str, IdentityMemo] = {}

    def memo(self, name: str) -> IdentityMemo:
        """The named per-store verification memo (created on first use)."""
        memo = self._memos.get(name)
        if memo is None:
            memo = IdentityMemo(CacheStats(name), enabled=self.caching)
            self._memos[name] = memo
        return memo

    def encodes_immutably(self, obj: Any) -> bool:
        """Whether ``obj`` canonically encodes as a deeply immutable value.

        Near-free for structures this store already encoded: their
        immutable subtrees sit in the encoding cache.  Used as the gate for
        caching *positive* verification results (:func:`repro.perf.memoized_check`).
        """
        if not self.caching:
            return False
        try:
            _, immutable = _encode_cached(obj, self._enc_cache, self.encode_stats)
        except TypeError:
            return False
        return immutable

    def cache_stats(self) -> Dict[str, Dict[str, Any]]:
        """Statistics for every cache rooted at this store."""
        report = {
            self.encode_stats.name: self.encode_stats.as_dict(),
            self.sign_stats.name: self.sign_stats.as_dict(),
        }
        for memo in self._memos.values():
            report[memo.stats.name] = memo.stats.as_dict()
        return report

    def _digest(self, signer: int, message: Any) -> bytes:
        """``signer``'s keyed digest of ``message``: what a signature by
        ``signer`` on ``message`` must carry.

        Raises ``ValueError`` for an unknown signer and ``TypeError`` for
        a message outside the canonical encoding.  Cached, the encoding
        comes from the identity cache and the digest from the
        ``(signer, encoding)`` sign cache.
        """
        if not (0 <= signer < self.n):
            raise ValueError(f"unknown signer {signer}")
        if not self.caching:
            return hashlib.sha256(
                self._secrets[signer] + canonical_encode(message)
            ).digest()
        encoding, _ = _encode_cached(message, self._enc_cache, self.encode_stats)
        key = (signer, encoding)
        digest = self._sign_cache.get(key)
        if digest is None:
            self.sign_stats.misses += 1
            digest = hashlib.sha256(self._secrets[signer] + encoding).digest()
            self._sign_cache[key] = digest
        else:
            self.sign_stats.hits += 1
        return digest

    def _sign(self, signer: int, message: Any) -> Signature:
        return Signature(signer=signer, digest=self._digest(signer, message))

    def verify(self, sig: Any, message: Any) -> bool:
        """Public verification; tolerates malformed ``sig`` objects.

        Compares ``sig.digest`` with the expected digest directly: no
        :class:`Signature` is built to verify one.
        """
        if not isinstance(sig, Signature):
            return False
        if not (0 <= sig.signer < self.n):
            return False
        try:
            return self._digest(sig.signer, message) == sig.digest
        except TypeError:
            return False

    def handle_for(self, ids: Iterable[int]) -> "SignerHandle":
        """A signing capability restricted to ``ids``."""
        return SignerHandle(self, frozenset(ids))


class SignerHandle:
    """Signing capability for a fixed set of identities.

    Honest process ``i`` receives ``handle_for({i})``; the adversary
    receives ``handle_for(faulty_ids)``.  Attempting to sign outside the
    set raises :class:`ForgeryError` -- the simulation-level statement of
    signature unforgeability.
    """

    def __init__(self, keystore: KeyStore, ids: FrozenSet[int]) -> None:
        self._keystore = keystore
        self.ids = ids

    def sign(self, signer: int, message: Any) -> Signature:
        if signer not in self.ids:
            raise ForgeryError(f"handle cannot sign for process {signer}")
        return self._keystore._sign(signer, message)

    def verify(self, sig: Any, message: Any) -> bool:
        return self._keystore.verify(sig, message)
