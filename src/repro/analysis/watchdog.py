"""Runtime lock-order watchdog: record real acquisition orders.

The static half of the C-series (:mod:`repro.analysis.concurrency`)
builds a lock graph from ``with <lock>:`` nesting it can *see*; this
module is the dynamic half, recording the nesting that actually happens
-- including orders composed across call boundaries, which no
single-function AST walk can observe (the canonical example: the
campaign runner holds the store writer lock while ``store.put`` records
spans under ``Telemetry._lock``).

It follows the process-global activation pattern of
:mod:`repro.obs.spans` and :mod:`repro.obs.metrics`: a module-level
current :class:`LockOrderWatchdog` that starts :data:`DISABLED`,
``activate(watchdog)`` as a context manager for tests, and a disabled
fast path that allocates nothing -- instrumented locks cost one global
read and one attribute check per acquisition when the watchdog is off.

Instrumentation points:

* :func:`traced_lock` -- a drop-in ``threading.Lock`` wrapper used by
  the long-lived locks worth auditing (``Telemetry._lock``,
  ``MetricsRegistry._lock``, the worker locks).
* :func:`lock_acquired` / :func:`lock_released` -- manual hooks for
  resources that guard like locks but are not ``threading.Lock``
  objects (the store's flock-based writer lockfile).

The watchdog records, per thread, the stack of instrumented locks held,
and for every acquisition the ordered pairs ``(held, acquired)``.  Two
locks ever taken in both orders -- by any pair of threads, at any time
-- are a latent deadlock; :meth:`LockOrderWatchdog.inversions` surfaces
them, and :func:`find_cycle` checks the union of observed and static
edges for cycles.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

Edge = Tuple[str, str]


def find_cycle(edges: Sequence[Edge]) -> Optional[List[str]]:
    """One cycle in the directed graph ``edges``, or ``None``.

    Returns the cycle as a node path ``[a, b, ..., a]``.  Shared by the
    static C-lockorder rule and the runtime watchdog so both halves
    agree on what "ordered" means.
    """
    graph: Dict[str, Set[str]] = {}
    for src, dst in edges:
        graph.setdefault(src, set()).add(dst)
        graph.setdefault(dst, set())
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    parent: Dict[str, str] = {}

    for root in sorted(graph):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(graph[root])))]
        color[root] = GRAY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if color[child] == GRAY:
                    # Back edge: walk parents from `node` up to `child`.
                    path = [node]
                    while path[-1] != child:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path + [path[0]]
                if color[child] == WHITE:
                    color[child] = GRAY
                    parent[child] = node
                    stack.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


class LockOrderWatchdog:
    """Record the order instrumented locks are acquired in.

    Args:
        enabled: a disabled watchdog records nothing; :data:`DISABLED`
            is the canonical disabled instance every process starts
            with.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._local = threading.local()
        self._state_lock = threading.Lock()
        #: (held, acquired) -> occurrence count.  Guarded by
        #: ``_state_lock`` (a plain lock on purpose: the watchdog must
        #: not instrument itself).
        self._pairs: Dict[Edge, int] = {}

    # -- recording -----------------------------------------------------

    def _held(self) -> List[str]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def acquired(self, name: str) -> None:
        """Note that the calling thread now holds ``name``."""
        if not self.enabled:
            return
        held = self._held()
        if held:
            with self._state_lock:
                for outer in held:
                    if outer != name:
                        key = (outer, name)
                        self._pairs[key] = self._pairs.get(key, 0) + 1
        held.append(name)

    def released(self, name: str) -> None:
        """Note that the calling thread released ``name``."""
        if not self.enabled:
            return
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index] == name:
                del held[index]
                return

    # -- reporting -----------------------------------------------------

    def pairs(self) -> Dict[Edge, int]:
        """Observed ``(held, acquired)`` pairs with occurrence counts."""
        with self._state_lock:
            return dict(self._pairs)

    def edges(self) -> List[Edge]:
        """The observed order relation, sorted (for goldens and logs)."""
        with self._state_lock:
            return sorted(self._pairs)

    def inversions(self) -> List[Edge]:
        """Lock pairs observed in *both* orders (latent deadlocks).

        Each inversion is reported once, as the lexicographically
        smaller direction.
        """
        with self._state_lock:
            return sorted(
                (a, b) for (a, b) in self._pairs
                if a < b and (b, a) in self._pairs
            )

    def check(self, static_edges: Sequence[Edge] = ()) -> Optional[List[str]]:
        """A cycle in observed ∪ static edges, or ``None`` if ordered.

        Feeding in the static graph from
        :func:`repro.analysis.concurrency.static_lock_edges` catches
        inversions where one direction only ever happens at runtime and
        the other is only visible in source.
        """
        return find_cycle(self.edges() + list(static_edges))

    def reset(self) -> None:
        with self._state_lock:
            self._pairs.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<LockOrderWatchdog {state} pairs={len(self.pairs())}>"


#: The always-off watchdog every process starts with.
DISABLED = LockOrderWatchdog(enabled=False)

_current: LockOrderWatchdog = DISABLED
_current_lock = threading.Lock()


def current() -> LockOrderWatchdog:
    """The process-global active watchdog (disabled by default)."""
    return _current


class _Activation:
    """Context manager restoring the previously active watchdog."""

    __slots__ = ("watchdog", "_previous")

    def __init__(self, watchdog: LockOrderWatchdog) -> None:
        self.watchdog = watchdog
        self._previous: Optional[LockOrderWatchdog] = None

    def __enter__(self) -> LockOrderWatchdog:
        global _current
        with _current_lock:
            self._previous = _current
            _current = self.watchdog
        return self.watchdog

    def __exit__(self, *exc_info: object) -> None:
        global _current
        with _current_lock:
            _current = self._previous or DISABLED


def activate(watchdog: LockOrderWatchdog) -> _Activation:
    """Make ``watchdog`` the process-global watchdog for a ``with``
    block (the previous one restored on exit) -- the same activation
    contract as ``spans.activate`` / ``metrics.activate``."""
    return _Activation(watchdog)


class TracedLock:
    """A ``threading.Lock`` that reports acquisitions to the watchdog.

    Supports the subset of the lock protocol this codebase uses
    (``with``, ``acquire``/``release``, ``locked``).  The lock is
    acquired *before* the watchdog is notified: the watchdog tracks the
    order in which locks end up held, which is what deadlock potential
    is about, and never sees a blocked acquisition as held.
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            watchdog = _current
            if watchdog.enabled:
                watchdog.acquired(self.name)
        return ok

    def release(self) -> None:
        watchdog = _current
        if watchdog.enabled:
            watchdog.released(self.name)
        self._lock.release()

    def __enter__(self) -> "TracedLock":
        self._lock.acquire()
        watchdog = _current
        if watchdog.enabled:
            watchdog.acquired(self.name)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        watchdog = _current
        if watchdog.enabled:
            watchdog.released(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __repr__(self) -> str:
        return f"<TracedLock {self.name} locked={self.locked()}>"


def traced_lock(name: str) -> TracedLock:
    """A watchdog-instrumented lock.  ``name`` is the stable identity
    the order graph is built over -- use ``ClassName.attr``."""
    return TracedLock(name)


def lock_acquired(name: str) -> None:
    """Manual hook: a non-``threading.Lock`` resource was acquired
    (e.g. the store's flock writer lockfile)."""
    watchdog = _current
    if watchdog.enabled:
        watchdog.acquired(name)


def lock_released(name: str) -> None:
    """Manual hook: the named resource was released."""
    watchdog = _current
    if watchdog.enabled:
        watchdog.released(name)
