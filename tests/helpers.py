"""Shared test utilities: compact runners for sub-protocol executions."""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from repro.core.api import run_protocol
from repro.crypto.keys import KeyStore
from repro.net.adversary import Adversary, AdversaryView
from repro.net.context import ProcessContext
from repro.net.engine import ExecutionResult
from repro.net.message import RoundTraffic


def run_sub(
    n: int,
    t: int,
    faulty_ids: Iterable[int],
    per_process: Callable[[ProcessContext], Any],
    adversary: Optional[Adversary] = None,
    keystore: Optional[KeyStore] = None,
    max_rounds: int = 10_000,
    scenario: Optional[Dict[str, Any]] = None,
) -> ExecutionResult:
    """Run ``per_process(ctx)`` (a generator) on every honest process."""
    return run_protocol(
        n,
        t,
        faulty_ids,
        per_process,
        adversary,
        keystore=keystore,
        scenario=scenario,
        max_rounds=max_rounds,
    )


def round_view(n: int, faulty_ids: Iterable[int],
               sends: Dict[int, Sequence[Any]]) -> AdversaryView:
    """One round's view as the engine hands it to the adversary: the
    honest ``sends`` of each sender, added in pid order, as the round's
    traffic.  Ghosts read their round through it."""
    traffic = RoundTraffic(n)
    for pid in sorted(sends):
        traffic.add(sends[pid])
    return AdversaryView(
        round_no=1, honest_outgoing=traffic,
        inbox_to_faulty=traffic.addressed_to(frozenset(faulty_ids)),
        honest_sends=traffic.sends,
    )


def split_inputs(n: int) -> list:
    return [0 if pid < n // 2 else 1 for pid in range(n)]


def honest_ids(n: int, faulty_ids: Iterable[int]) -> list:
    faulty = set(faulty_ids)
    return [pid for pid in range(n) if pid not in faulty]


def first_per_sender(envelopes: Iterable[Any], tag: Any) -> list:
    """``(sender, body)`` of the first envelope per sender under ``tag``,
    scanned one envelope at a time: the reference ``by_tag`` read."""
    seen, out = set(), []
    for env in envelopes:
        env_tag, body = env.parts()
        if env_tag == tag and env.sender not in seen:
            seen.add(env.sender)
            out.append((env.sender, body))
    return out


def assert_agreement(result: ExecutionResult) -> Any:
    values = set(result.decisions.values())
    assert len(result.decisions) == len(result.honest_ids), "missing decisions"
    assert len(values) == 1, f"honest processes disagree: {values}"
    return next(iter(values))
