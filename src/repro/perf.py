"""Hot-path cache instrumentation for the crypto and engine stack.

The simulator's inner loop is dominated by redundant work: a chain
broadcast to ``n`` recipients used to be canonically re-encoded and
re-verified ``n`` times.  Echoing the sublinear-estimation mindset of
Eden-Ron-Seshadhri (arXiv:1604.03661) -- never recompute what a cached
summary already tells you -- this module provides the shared caching
primitives:

* :class:`CacheStats` -- hit/miss counters benchmarks can assert on;
* :class:`IdentityMemo` -- an identity-keyed memo table that holds a
  strong reference to every key object, so ``id()`` reuse is impossible
  for the memo's lifetime;
* :func:`memoized_check` -- the verification-caching policy shared by
  chain, certificate, and protocol-level checks.

Tamper-safety argument
----------------------
All caches are scoped to one :class:`~repro.crypto.keys.KeyStore`, which
the library creates per execution, so nothing leaks across executions or
across differently-keyed PKIs.  Within an execution:

* the canonical-encoding cache only stores *deeply immutable* structures
  (tuples/frozensets of atoms and well-formed signatures), so a cached
  encoding can never go stale;
* a structurally identical but distinct object misses the identity layer
  and falls through to the digest-keyed sign cache, which is keyed by the
  actual encoding bytes -- a forged or tampered object therefore always
  re-derives its true digest and fails verification exactly as before;
* *positive* verification results ("this chain/certificate is valid")
  are only memoized when the checked object is deeply immutable, so an
  adversary cannot validate a mutable object once and then mutate it;
* *negative* results are memoized unconditionally: re-presenting the
  same rejected object (even mutated) keeps it rejected, which only ever
  weakens the adversary and never affects honest-built messages (honest
  protocols build fresh, immutable structures that verify).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

#: Sentinel returned by :meth:`IdentityMemo.lookup` on a cache miss
#: (``None`` is a legitimate cached value -- e.g. a failed chain decode).
MISS = object()


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    name: str
    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }


class IdentityMemo:
    """A memo table keyed by object identity plus a hashable context key.

    Entries hold a strong reference to the key object, which pins its
    ``id()`` for the memo's lifetime -- identity keys can therefore never
    alias a different object.  A ``disabled`` memo behaves as an
    always-miss table so callers need no conditional logic.
    """

    def __init__(self, stats: CacheStats, enabled: bool = True) -> None:
        self.stats = stats
        self.enabled = enabled
        self._entries: Dict[Tuple[int, Hashable], Tuple[Any, Any]] = {}

    def lookup(self, obj: Any, key: Hashable) -> Any:
        """Return the cached value for ``(obj, key)`` or :data:`MISS`."""
        if not self.enabled:
            return MISS
        entry = self._entries.get((id(obj), key))
        if entry is not None and entry[0] is obj:
            self.stats.hits += 1
            return entry[1]
        self.stats.misses += 1
        return MISS

    def store(self, obj: Any, key: Hashable, value: Any) -> None:
        if self.enabled:
            self._entries[(id(obj), key)] = (obj, value)

    def __len__(self) -> int:
        return len(self._entries)


def memoized_check(
    keystore: Any,
    name: str,
    obj: Any,
    key: Hashable,
    compute: Callable[[], Any],
    positive: Callable[[Any], bool],
) -> Any:
    """Memoize a verification of ``obj`` against a per-``keystore`` table.

    ``positive(result)`` says whether ``result`` asserts validity; positive
    results are cached only when ``obj`` is deeply immutable (see module
    docstring), negative results unconditionally.
    """
    if not keystore.caching:
        return compute()
    memo = keystore.memo(name)
    cached = memo.lookup(obj, key)
    if cached is not MISS:
        return cached
    result = compute()
    if not positive(result) or keystore.encodes_immutably(obj):
        memo.store(obj, key, result)
    return result


def cache_report(keystore: Optional[Any] = None) -> Dict[str, Dict[str, Any]]:
    """Snapshot every cache's statistics as a flat JSON-friendly dict.

    Accepts a :class:`~repro.crypto.keys.KeyStore`; without one (an
    unauthenticated execution) the report is empty.
    """
    report: Dict[str, Dict[str, Any]] = {}
    if keystore is not None:
        report.update(keystore.cache_stats())
    return report
