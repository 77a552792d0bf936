"""Property-based tests on protocol substrates: chains, conciliation
graphs, composition helpers."""

import random

from hypothesis import given, settings, strategies as st

from repro.crypto import (
    KeyStore,
    committee_message,
    extend_chain,
    inspect_chain,
    make_certificate,
    start_chain,
)
from repro.net.message import Envelope
from repro.net.protocol import Idle, run_exactly


def _cert(keystore, pid, t):
    return make_certificate(
        keystore.handle_for({j}).sign(j, committee_message(pid))
        for j in range(t + 1)
    )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=1000),
)
def test_chain_roundtrip_arbitrary_signers(signers, value):
    """Any build sequence decodes to exactly its signer sequence, and
    validity-at-length holds iff signers are distinct."""
    t = 2
    ks = KeyStore(8, seed=4)
    chain = start_chain(value, _cert(ks, signers[0], t), ks.handle_for({signers[0]}), signers[0])
    for signer in signers[1:]:
        chain = extend_chain(chain, _cert(ks, signer, t), ks.handle_for({signer}), signer)
    info = inspect_chain(chain, t, ks)
    assert info is not None
    assert info.value == value
    assert info.starter == signers[0]
    assert list(info.signers) == signers
    assert info.is_valid_length(len(signers)) == (
        len(set(signers)) == len(signers)
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_run_exactly_consumes_exact_round_count(sub_rounds, budget):
    """run_exactly yields exactly `budget` rounds for any sub-protocol
    length, completing iff the sub-protocol fits."""

    def sub():
        for _ in range(sub_rounds):
            yield []
        return "done"

    def outer():
        result, finished = yield from run_exactly(budget, sub(), "fb")
        return result, finished

    gen = outer()
    rounds = 0
    try:
        out = gen.send(None)
        while True:
            # An Idle(k) yield stands for k rounds and is resumed with None.
            idling = isinstance(out, Idle)
            rounds += out.rounds if idling else 1
            out = gen.send(None if idling else [])
    except StopIteration as stop:
        result, finished = stop.value
    assert rounds == budget
    assert finished == (sub_rounds <= budget)
    assert result == ("done" if finished else "fb")


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=4, max_value=9),
    st.integers(min_value=0, max_value=9999),
)
def test_conciliation_agreement_under_conditions(n, seed):
    """Random honest-only listen sets with a shared core: all honest
    processes return the same value (Lemma 13), regardless of inputs."""
    from repro.conciliate import conciliate
    from repro.core.api import run_protocol

    rng = random.Random(seed)
    k = 1
    core = [0, 1, 2]  # 2k+1 shared honest ids
    listen = {}
    for pid in range(n):
        extra = rng.choice([j for j in range(n) if j not in core])
        listen[pid] = core + [extra]
    values = [rng.randrange(3) for _ in range(n)]

    def factory(ctx):
        return conciliate(ctx, ("c",), values[ctx.pid], k, listen[ctx.pid])

    result = run_protocol(n, 0, [], factory)
    assert len(set(result.decisions.values())) == 1


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=7, max_value=12),
    st.integers(min_value=0, max_value=9999),
)
def test_core_set_gc_coherence_random_listen_sets(n, seed):
    """Algorithm 3 under its conditions with randomized extras: coherence
    holds for every seed (Lemma 9)."""
    from repro.gradecast import graded_consensus_with_core_set
    from repro.core.api import run_protocol

    rng = random.Random(seed)
    k = 1
    t = 1
    faulty = [n - 1]
    core = [0, 1, 2]
    listen = {}
    for pid in range(n):
        extra = rng.choice([j for j in range(3, n - 1)])
        listen[pid] = core + [extra]
    values = [rng.randrange(2) for _ in range(n)]

    def factory(ctx):
        return graded_consensus_with_core_set(
            ctx, ("g",), values[ctx.pid], k, listen[ctx.pid]
        )

    result = run_protocol(n, t, faulty, factory)
    graded = {v for v, g in result.decisions.values() if g == 1}
    if graded:
        assert {v for v, _ in result.decisions.values()} == graded
