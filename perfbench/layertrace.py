"""Span tracing for the benchmark's traced pass.

The tracer wraps the calls the engine, the campaign runner and the
socket driver make into each layer (see :data:`TARGETS`), records one
span per call -- id, parent id, layer, start, end -- in memory, and
derives per-layer self times from the spans after the pass.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover.

Wrappers are installed onto the program's classes and modules for the
traced pass only.  :meth:`Tracer.uninstall` restores the original
attributes and :func:`assert_pristine` proves that no wrapper is left,
which the untraced pass checks before it measures anything.

Threads: a span's parent is the innermost open span on its own thread.
A span opened on a thread with nothing open (the socket driver threads)
is *detached*: its parent is the innermost open anchor span on the main
thread (the campaign runner, or the pass itself), and because detached
siblings can overlap, a parent subtracts the union of their intervals,
not their sum.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(module, attribute path, layer, counter, anchor)`` for every wrapped
#: call.  Names are wrapped where the caller looks them up: the socket
#: driver imported ``send_frame``/``recv_frame`` into its own namespace,
#: so those are patched in ``socketbackend``, not in ``wire``.
TARGETS: Tuple[Tuple[str, str, str, Optional[str], bool], ...] = (
    ("repro.net.engine", "Network.run", "net.engine", "net.engine.rounds", False),
    ("repro.net.engine", "Network._adversary_round", "adversary",
     "adversary.envelopes", False),
    ("repro.net.engine", "_HonestDriver.start", "protocol", None, False),
    ("repro.net.engine", "_HonestDriver.resume", "protocol", None, False),
    ("repro.net.metrics", "MetricsCollector.record_sends", "net.metrics",
     "net.metrics.envelopes", False),
    ("repro.crypto.keys", "KeyStore.verify", "crypto.verify", None, False),
    ("repro.crypto.keys", "SignerHandle.sign", "crypto.sign", None, False),
    ("repro.crypto.keys", "KeyStore.encodes_immutably", "crypto.encode", None,
     False),
    ("repro.runtime.execute", "resolve_spec", "runtime.execute.resolve", None,
     False),
    ("repro.runtime.scenario", "ScenarioSpec.scenario_hash",
     "runtime.scenario.hash", None, False),
    ("repro.runtime.backends.socketbackend", "send_frame",
     "runtime.backends.send", None, False),
    ("repro.runtime.backends.socketbackend", "recv_frame",
     "runtime.backends.recv", None, False),
    ("repro.runtime.backends.wire", "FrameReceiver.recv",
     "runtime.backends.recv", None, False),
    ("repro.runtime.store", "ResultStore.__init__", "runtime.store.open", None,
     False),
    ("repro.runtime.store", "ResultStore.put", "runtime.store.put", None, False),
    ("repro.runtime.store", "ResultStore.sync", "runtime.store.sync", None,
     False),
    ("repro.runtime.runner", "CampaignRunner.run", "runtime.runner", None, True),
)

#: What each counter adds per call, from the call's arguments and result.
_COUNTERS: Dict[str, Callable[[tuple, Any], int]] = {
    "net.engine.rounds": lambda args, result: result.metrics.rounds,
    "adversary.envelopes": lambda args, result: len(result),
    "net.metrics.envelopes": lambda args, result: len(args[1]),
}

#: Doubles stored per span: id, parent id, layer code, start, end, detached.
_WIDTH = 6
#: Spans converted to Python floats at a time while aggregating.
_CHUNK = 6 * 50_000


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def assert_pristine() -> None:
    """Raise unless every :data:`TARGETS` attribute is the original."""
    for module_name, path, _, _, _ in TARGETS:
        owner, attr = _resolve(module_name, path)
        if getattr(vars(owner)[attr], "perfbench_wrapper", False):
            raise RuntimeError(f"{module_name}.{path} is still wrapped")


class LayerTotals:
    """Per-layer aggregates of one traced pass."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._codes: Dict[str, int] = {}
        self.counters: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: List[int] = []
        self._main_buf = array.array("d")
        self._buffers = [self._main_buf]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._anchors: List[int] = [0]
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def code(self, layer: str) -> int:
        if layer not in self._codes:
            self._codes[layer] = len(self.layers)
            self.layers.append(layer)
        return self._codes[layer]

    def _thread_state(self) -> Tuple[List[int], "array.array[float]"]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], array.array("d"))
            with self._lock:
                self._buffers.append(state[1])
            self._local.state = state
        return state

    def wrap(self, fn: Callable[..., Any], layer: str,
             counter: Optional[str] = None,
             anchor: bool = False) -> Callable[..., Any]:
        """``fn`` recording one span per call under ``layer``."""
        code = float(self.code(layer))
        ids, clock, get_ident = self._ids, time.perf_counter, threading.get_ident
        main, main_stack, main_buf = self._main, self._main_stack, self._main_buf
        anchors, thread_state, counters = self._anchors, self._thread_state, self.counters
        count = _COUNTERS[counter] if counter is not None else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if get_ident() == main:
                stack, buf, detached = main_stack, main_buf, 0.0
            else:
                stack, buf = thread_state()
                detached = 0.0 if stack else 1.0
            parent = stack[-1] if stack else anchors[-1]
            sid = next(ids)
            stack.append(sid)
            if anchor:
                anchors.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if anchor:
                    anchors.pop()
                buf.extend((sid, parent, code, start, end, detached))
            if count is not None:
                counters[counter] += count(args, result)
            return result

        traced.perfbench_wrapper = True  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def span(self, layer: str, anchor: bool = False) -> Iterator[None]:
        """A span around the benchmark's own call into a layer (main
        thread only: the pass root and each ``execute_spec`` call)."""
        code = float(self.code(layer))
        stack = self._main_stack
        parent = stack[-1] if stack else self._anchors[-1]
        sid = next(self._ids)
        stack.append(sid)
        if anchor:
            self._anchors.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if anchor:
                self._anchors.pop()
            self._main_buf.extend((sid, parent, code, start, end, 0.0))

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every :data:`TARGETS` attribute in place."""
        assert_pristine()
        for module_name, path, layer, counter, anchor in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, counter, anchor))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------

    def collect(self, spans_out: Optional[Any] = None) -> LayerTotals:
        """Aggregate and clear every span recorded since the last call.

        ``spans_out``: an open text stream that receives each span as a
        tab-separated line (``id parent layer start end detached``).
        """
        totals = LayerTotals()
        detached: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for values in self._chunks():
            for i in range(0, len(values), _WIDTH):
                if values[i + 5]:
                    detached[int(values[i + 1])] = []
        child_s: Dict[int, float] = defaultdict(float)
        layers = self.layers
        for values in self._chunks():
            lines = []
            for i in range(0, len(values), _WIDTH):
                sid, parent, code, start, end, det = values[i:i + _WIDTH]
                sid, parent, layer = int(sid), int(parent), layers[int(code)]
                duration = end - start
                covered = child_s.pop(sid, 0.0)
                kids = detached.pop(sid, None)
                if kids:
                    covered += _union(kids, start, end)
                if det or parent in detached:
                    # Siblings on other threads overlap this one: the
                    # parent subtracts the union of all its children.
                    detached[parent].append((start, end))
                else:
                    child_s[parent] += duration
                totals.calls[layer] += 1
                totals.total_s[layer] += duration
                totals.self_s[layer] += duration - covered
                if spans_out is not None:
                    lines.append(f"{sid}\t{parent}\t{layer}\t{start:.9f}\t"
                                 f"{end:.9f}\t{int(det)}\n")
            if spans_out is not None:
                spans_out.writelines(lines)
        for buf in self._buffers:
            del buf[:]
        totals.counters.update(self.counters)
        self.counters.clear()
        return totals

    def _chunks(self) -> Iterator[List[float]]:
        # Other threads first: their detached spans must be in hand
        # before the main thread's anchor spans are reached.
        main, *others = self._buffers
        for buf in (*others, main):
            for lo in range(0, len(buf), _CHUNK):
                yield buf[lo:lo + _CHUNK].tolist()


def _union(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def open_spans_file(path: Any) -> Any:
    """A gzip text stream for :meth:`Tracer.collect` span lines."""
    handle = gzip.open(path, "wt", compresslevel=1, encoding="utf-8")
    handle.write("# span\tparent\tlayer\tstart_s\tend_s\tdetached\n")
    return handle
