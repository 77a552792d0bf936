"""Hot-path microbenchmarks: the cached crypto/engine stack vs no memos.

PR 2's memoization layer (see :mod:`repro.perf`) claims a pure speed win:
identical decisions, rounds, and message/bit counts, faster.  This suite
measures that claim on the two authenticated hot paths -- committee
broadcast (Algorithm 6) and certified graded consensus -- at n in
{10, 20, 40}, by running each workload twice: once with the caching
``KeyStore`` (the default) and once with ``KeyStore(..., cache=False)``,
which turns the key store's memo tables off.  Round-shared reads
(:func:`repro.net.message.reduce_by_tag`) stay shared in both modes, so
the uncached run is not the seed implementation: work that a shared read
removed is gone from both columns.

The claim has two halves.  The correctness half (identical fingerprints,
decisions, exact inspection and memo counts) is tier-1.  The speed half
compares two wall-clock numbers, so its tests carry the ``timing`` marker
and stay out of tier-1; ``python -m pytest -m timing`` runs them and
writes ``BENCH_hotpath.json`` at the repo root (gitignored: timings are
per-machine).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from unittest import mock

import pytest

from repro.broadcast import bb_with_implicit_committee
from repro.core.api import run_protocol
from repro.crypto import KeyStore, chains, committee_message, make_certificate
from repro.gradecast import graded_consensus_auth

from conftest import print_table

SIZES = (10, 20, 40)
K = 2
REPS = 3
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

_RESULTS: dict = {}


def _build_cert(keystore, pid, t):
    return make_certificate(
        keystore.handle_for({j}).sign(j, committee_message(pid))
        for j in range(t + 1)
    )


def _run_broadcast(n: int, cache: bool):
    """One committee-broadcast execution; returns (result, keystore)."""
    t = (n - 1) // 3
    ks = KeyStore(n, seed=11, cache=cache)
    committee = tuple(range(3 * K + 1))
    certs = {pid: _build_cert(ks, pid, t) for pid in committee}
    tag = ("bench-hot-bb",)

    def factory(ctx):
        return bb_with_implicit_committee(
            ctx, tag, 0, f"payload-{n}", K, certs.get(ctx.pid), ks
        )

    result = run_protocol(n, t, [n - 1], factory, keystore=ks)
    return result, ks


def _run_gradecast(n: int, cache: bool):
    """One certified graded-consensus execution, unanimous inputs.

    Unanimity makes every honest process assemble and broadcast a quorum
    lock certificate of ``n - t`` signatures -- the protocol's most
    expensive verification path.
    """
    t = (n - 1) // 3
    ks = KeyStore(n, seed=13, cache=cache)
    tag = ("bench-hot-gc",)

    def factory(ctx):
        return graded_consensus_auth(ctx, tag, 1, ks)

    result = run_protocol(n, t, [n - 1], factory, keystore=ks)
    return result, ks


def _fingerprint(result):
    """Everything the correctness bar compares, as one structure."""
    return {
        "decisions": {str(pid): repr(v) for pid, v in sorted(result.decisions.items())},
        "rounds": result.metrics.rounds,
        "honest_messages": result.metrics.honest_messages,
        "honest_bits": result.metrics.honest_bits,
        "per_component": dict(sorted(result.metrics.per_component.items())),
    }


def _check_workload(runner, n: int):
    """One cached and one uncached run with identical fingerprints;
    returns the cached (result, keystore)."""
    cached_result, cached_ks = runner(n, True)
    uncached_result, _ = runner(n, False)
    assert _fingerprint(cached_result) == _fingerprint(uncached_result)
    return cached_result, cached_ks


def _time_workload(runner, n: int):
    """Best-of-REPS wall time for cached and uncached runs of ``runner``.

    Returns (row, cached_result, cached_keystore) where the row carries the
    timings and the asserted-identical fingerprints.
    """
    cached_times, uncached_times = [], []
    cached_result = cached_ks = None
    uncached_result = None
    for _ in range(REPS):
        start = time.perf_counter()
        cached_result, cached_ks = runner(n, True)
        cached_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        uncached_result, _ = runner(n, False)
        uncached_times.append(time.perf_counter() - start)
    cached_s, uncached_s = min(cached_times), min(uncached_times)
    assert _fingerprint(cached_result) == _fingerprint(uncached_result)
    row = {
        "n": n,
        "cached_ms": round(cached_s * 1e3, 3),
        "uncached_ms": round(uncached_s * 1e3, 3),
        "speedup": round(uncached_s / cached_s, 2),
        "fingerprint": _fingerprint(cached_result),
    }
    return row, cached_result, cached_ks


def _record(name: str, rows):
    _RESULTS[name] = rows
    BENCH_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


def _check_broadcast(n: int, result, ks):
    """Correctness bar of one cached committee-broadcast run; returns its
    cache columns."""
    assert all(v == f"payload-{n}" for v in result.decisions.values())
    assert result.metrics.rounds == K + 1
    # The sender's chain plus one relay per other certified member, each
    # inspected once by its round's shared read and by nothing else: the
    # memo has no recipient left to serve.
    chain_objects = result.metrics.honest_messages // n
    assert chain_objects == 3 * K + 1
    stats = ks.cache_stats()
    inspected = stats["inspect_chain"]
    assert (inspected["misses"], inspected["hits"]) == (chain_objects, 0)
    return {
        "chain_objects": chain_objects,
        "inspect_chain_hit_rate": inspected["hit_rate"],
        "sign_digest_hit_rate": stats["sign_digest"]["hit_rate"],
    }


def _inspections(n: int, cache: bool):
    """Full chain inspections of one committee-broadcast run, counted at
    the uncached check itself (the memo counts nothing without caching);
    returns ``(inspections, chain objects)``."""
    spy = mock.patch.object(
        chains, "_inspect_chain_uncached", wraps=chains._inspect_chain_uncached
    )
    with spy as inspect:
        result, _ = _run_broadcast(n, cache)
    return inspect.call_count, result.metrics.honest_messages // n


def _check_gradecast(n: int, result, ks):
    """Correctness bar of one cached graded-consensus run; returns its
    cache hit-rate columns."""
    # Unanimous honest inputs must come out with the top grade.
    assert all(v == (1, 1) for v in result.decisions.values())
    stats = ks.cache_stats()
    honest = n - 1
    # Both rounds are read once for every recipient.  Each echo is checked
    # once; every honest lock carries the one certificate that round 1's
    # shared read built, so it is verified for the first lock and served
    # from the memo for the other honest - 1.
    lock, echo = stats["gc_lock"], stats["gc_echo"]
    assert (lock["misses"], lock["hits"]) == (1, honest - 1)
    assert (echo["misses"], echo["hits"]) == (honest, 0)
    return {
        "gc_lock_hit_rate": lock["hit_rate"],
        "gc_echo_hit_rate": echo["hit_rate"],
    }


def test_hotpath_committee_broadcast():
    for n in SIZES:
        _check_broadcast(n, *_check_workload(_run_broadcast, n))
        # Cached or not, each chain object is inspected exactly once.
        for cache in (True, False):
            inspections, chain_objects = _inspections(n, cache)
            assert inspections == chain_objects == 3 * K + 1


def test_hotpath_gradecast():
    for n in SIZES:
        _check_gradecast(n, *_check_workload(_run_gradecast, n))


def _timed_rows(runner, check):
    rows = []
    for n in SIZES:
        row, result, ks = _time_workload(runner, n)
        row.update(check(n, result, ks))
        rows.append(row)
    return rows


@pytest.mark.timing
def test_hotpath_committee_broadcast_speedup():
    # Recorded, not gated: a round's shared read inspects each chain once
    # in both modes, so no per-recipient work is left for the memo to win.
    rows = _timed_rows(_run_broadcast, _check_broadcast)
    _record("committee_broadcast", rows)
    print_table(
        [{k: v for k, v in r.items() if k != "fingerprint"} for r in rows],
        ["n", "cached_ms", "uncached_ms", "speedup", "chain_objects",
         "inspect_chain_hit_rate", "sign_digest_hit_rate"],
        f"Committee broadcast hot path (k={K}, cached vs uncached)",
    )


@pytest.mark.timing
def test_hotpath_gradecast_speedup():
    rows = _timed_rows(_run_gradecast, _check_gradecast)
    _record("gradecast", rows)
    print_table(
        [{k: v for k, v in r.items() if k != "fingerprint"} for r in rows],
        ["n", "cached_ms", "uncached_ms", "speedup",
         "gc_lock_hit_rate", "gc_echo_hit_rate"],
        "Certified graded consensus hot path (cached vs uncached)",
    )
    at_40 = next(r for r in rows if r["n"] == 40)
    assert at_40["speedup"] >= 2.0, f"speedup {at_40['speedup']} below 2x"
