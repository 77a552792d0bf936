"""Tests for the graded consensus family: full-network unauthenticated
(grades {0,1} and {0,1,2}), certified authenticated, and Algorithm 3
(core-set) variants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import (
    RandomNoiseAdversary,
    ScriptedAdversary,
    SplitWorldAdversary,
)
from repro.crypto import KeyStore, Signature
from repro.gradecast import (
    graded_consensus,
    graded_consensus_3,
    graded_consensus_auth,
    graded_consensus_with_core_set,
)
from repro.gradecast.auth import echo_quorum
from repro.net.message import Envelope, reduce_by_tag, tagged
from repro.util import is_hashable

from helpers import honest_ids, run_sub

TAG = ("gc",)


def gc_factory(values, variant="binary", keystore=None, k=None, listen=None):
    def factory(ctx):
        value = values[ctx.pid]
        if variant == "binary":
            return graded_consensus(ctx, TAG, value)
        if variant == "three":
            return graded_consensus_3(ctx, TAG, value)
        if variant == "auth":
            return graded_consensus_auth(ctx, TAG, value, keystore)
        if variant == "core":
            return graded_consensus_with_core_set(ctx, TAG, value, k, listen[ctx.pid])
        raise AssertionError(variant)

    return factory


def check_strong_unanimity(decisions, value, top_grade):
    assert all(d == (value, top_grade) for d in decisions.values())


def check_coherence(decisions):
    """If any honest output has the top grade, all values agree."""
    graded = [v for v, g in decisions.values() if g >= 1]
    if graded:
        values = {v for v, _ in decisions.values()}
        if any(g == max(g for _, g in decisions.values()) for _, g in decisions.values()):
            pass
    top = max(g for _, g in decisions.values())
    if top >= 1:
        one_value = {v for v, g in decisions.values() if g >= 1}
        assert len(one_value) == 1


@pytest.mark.parametrize("variant", ["binary", "three"])
class TestUnauthGradedConsensus:
    def top(self, variant):
        return 1 if variant == "binary" else 2

    def test_strong_unanimity(self, variant):
        n, faulty = 7, [5, 6]
        values = ["v"] * n
        result = run_sub(n, 2, faulty, gc_factory(values, variant))
        check_strong_unanimity(result.decisions, "v", self.top(variant))

    def test_two_rounds_quadratic_messages(self, variant):
        n = 7
        result = run_sub(n, 2, [], gc_factory(["v"] * n, variant))
        assert result.rounds == 2
        assert result.messages == 2 * n * n

    def test_split_inputs_terminate_with_grades(self, variant):
        n, faulty = 10, [8, 9]
        values = [0] * 5 + [1] * 5
        result = run_sub(n, 3, faulty, gc_factory(values, variant))
        assert len(result.decisions) == 8
        check_coherence(result.decisions)

    def test_coherence_under_split_world(self, variant):
        n, faulty = 10, [7, 8, 9]
        values = [0] * n
        values[0] = 1  # almost unanimous
        protocol = graded_consensus if variant == "binary" else graded_consensus_3
        result = run_sub(
            n, 3, faulty, gc_factory(values, variant),
            adversary=SplitWorldAdversary(0, 1),
            scenario={"protocol_builder": lambda ctx, v: protocol(ctx, TAG, v)},
        )
        check_coherence(result.decisions)

    def test_noise_does_not_break_unanimity(self, variant):
        n, faulty = 7, [6]
        result = run_sub(
            n, 2, faulty, gc_factory(["u"] * n, variant),
            adversary=RandomNoiseAdversary(seed=3),
        )
        check_strong_unanimity(result.decisions, "u", self.top(variant))

    def test_equivocating_round1_cannot_fake_unanimity(self, variant):
        """A faulty process voting differently to each recipient cannot give
        two honest processes top-grade on different values."""
        n, t = 4, 1
        values = [0, 0, 1, None]

        def equivocate(view, world):
            round_tag = TAG + ("r1",) if view.round_no == 1 else TAG + ("r2",)
            return [
                Envelope(3, pid, tagged(round_tag, pid % 2))
                for pid in range(3)
            ]

        result = run_sub(
            n, t, [3], gc_factory(values, variant),
            adversary=ScriptedAdversary(equivocate),
        )
        check_coherence(result.decisions)


class TestAuthGradedConsensus:
    def make(self, n):
        return KeyStore(n, seed=1)

    def test_strong_unanimity(self):
        n, faulty = 7, [5, 6]
        ks = self.make(n)
        result = run_sub(
            n, 2, faulty, gc_factory(["v"] * n, "auth", keystore=ks), keystore=ks
        )
        check_strong_unanimity(result.decisions, "v", 1)

    def test_coherence_split_world(self):
        n, faulty = 10, [7, 8, 9]
        ks = self.make(n)
        values = [0] * n
        result = run_sub(
            n, 3, faulty, gc_factory(values, "auth", keystore=ks),
            adversary=SplitWorldAdversary(0, 1), keystore=ks,
            scenario={
                "protocol_builder": lambda ctx, v: graded_consensus_auth(
                    ctx, TAG, v, ks
                )
            },
        )
        check_strong_unanimity(result.decisions, 0, 1)

    def test_forged_certificate_rejected(self):
        """A faulty process cannot certify a value without n - t honest-or-
        replayed echo signatures for it."""
        n, t = 4, 1
        ks = self.make(n)
        values = [0, 0, 0, 1]

        def forge(view, world):
            if view.round_no != 2:
                return []
            signer = world.signer
            # Sign echoes for value 1 with the only key it has (pid 3),
            # then claim a "certificate" -- too few distinct signers.
            sig = signer.sign(3, (TAG, "echo", 1))
            cert = (sig, sig, sig)
            return [
                Envelope(3, pid, tagged(TAG + ("r2",), (1, cert)))
                for pid in range(3)
            ]

        result = run_sub(
            n, t, [3], gc_factory(values, "auth", keystore=ks),
            adversary=ScriptedAdversary(forge), keystore=ks,
        )
        check_strong_unanimity(result.decisions, 0, 1)

    def test_noise_robustness(self):
        n, faulty = 7, [6]
        ks = self.make(n)
        result = run_sub(
            n, 2, faulty, gc_factory([5] * n, "auth", keystore=ks),
            adversary=RandomNoiseAdversary(seed=9), keystore=ks,
        )
        check_strong_unanimity(result.decisions, 5, 1)


def reference_echo_quorum(pairs, tag, quorum, keystore):
    """Round 1 of ``graded_consensus_auth`` as each recipient computed it
    before the read was shared: the per-recipient loop, unmemoized."""
    echo_sigs = {}
    for sender, body in pairs:
        if not (isinstance(body, tuple) and len(body) == 2
                and is_hashable(body[0])):
            continue
        echoed, sig = body
        if (isinstance(sig, Signature) and sig.signer == sender
                and keystore.verify(sig, (tag, "echo", echoed))):
            echo_sigs.setdefault(echoed, {})[sender] = sig
    for candidate, sigs in echo_sigs.items():
        if len(sigs) >= quorum:
            return candidate, tuple(sigs[s] for s in sorted(sigs))
    return None, None


def first_per_sender(envelopes, tag):
    seen, out = set(), []
    for env in envelopes:
        env_tag, body = env.parts()
        if env_tag == tag and env.sender not in seen:
            seen.add(env.sender)
            out.append((env.sender, body))
    return out


ECHO_TAG = ("gc-echo",)
ROUND1 = ECHO_TAG + ("r1",)
#: Adversary round-1 envelopes: a replayed honest signature (wrong
#: signer), a tampered digest, an unhashable value, a non-pair body, two
#: echoes from one sender, and a valid faulty echo.
ECHO_FAULTS = ("wrong-signer", "tampered", "unhashable", "non-pair",
               "duplicate", "valid")


@st.composite
def echo_rounds(draw):
    n = draw(st.integers(4, 10))
    t = (n - 1) // 3
    faulty = sorted(draw(st.sets(st.integers(0, n - 1), max_size=t)))
    honest = [pid for pid in range(n) if pid not in faulty]
    ones = draw(st.integers(0, len(honest)))
    values = {pid: int(i < ones) for i, pid in enumerate(honest)}
    attacks = []
    if faulty:
        attacks = draw(st.lists(st.tuples(
            st.sampled_from(ECHO_FAULTS), st.sampled_from(faulty),
            st.sampled_from(honest), st.sampled_from((0, 1, 2)),
        ), max_size=3 * n))
    return n, t, faulty, honest, values, attacks


def echo_attack(keystore, world, kind, sender, recipient, value, honest):
    def echo(pid, echoed):
        return keystore.handle_for({pid}).sign(pid, (ECHO_TAG, "echo", echoed))

    def env(body):
        return Envelope(sender, recipient, (ROUND1, body))

    own = world.signer.sign(sender, (ECHO_TAG, "echo", value))
    if kind == "wrong-signer":
        return [env((value, echo(honest[value % len(honest)], value)))]
    if kind == "tampered":
        digest = bytes([own.digest[0] ^ 1]) + own.digest[1:]
        return [env((value, Signature(sender, digest)))]
    if kind == "unhashable":
        return [env(([1], own))]
    if kind == "non-pair":
        return [env((value,)), env((value, own, 0)), env(value)]
    if kind == "duplicate":
        return [env((value, own)), env(((value + 1) % 3, own))]
    return [env((value, own))]


@settings(max_examples=150, deadline=None)
@given(echo_rounds())
def test_shared_echo_quorum_equals_per_recipient_loop(round_):
    n, t, faulty, honest, values, attacks = round_
    quorum = n - t
    ks = KeyStore(n, seed=5)
    reference_ks = KeyStore(n, seed=5, cache=False)

    def probe(ctx):
        value = values[ctx.pid]
        sig = ctx.signer.sign(ctx.pid, (ECHO_TAG, "echo", value))
        inbox = yield ctx.broadcast(ROUND1, (value, sig))
        return (reduce_by_tag(inbox, ROUND1, echo_quorum, ECHO_TAG, quorum, ks),
                list(inbox))

    def script(view, world):
        if view.round_no != 1:
            return []
        out = []
        for attack in attacks:
            out += echo_attack(ks, world, *attack, honest)
        return out

    result = run_sub(n, t, faulty, probe, ScriptedAdversary(script), keystore=ks)

    attacked = {recipient for _, _, recipient, _ in attacks}
    shared = []
    for pid in honest:
        got, inbox = result.decisions[pid]
        pairs = first_per_sender(inbox, ROUND1)
        assert got == reference_echo_quorum(pairs, ECHO_TAG, quorum, reference_ks)
        if pid not in attacked:
            shared.append(got)
    # Every recipient on the shared view holds the one result object.
    assert all(got is shared[0] for got in shared)
    assert all(got[1] is shared[0][1] for got in shared)


class TestCoreSetGradedConsensus:
    """Algorithm 3 under its stated conditions: |L_i| = 3k+1 with a common
    core of >= 2k+1 honest ids."""

    def setup_case(self, n=12, t=2, k=1):
        faulty = list(range(n - t, n))
        listen = {pid: list(range(3 * k + 1)) for pid in range(n)}
        return n, t, k, faulty, listen

    def test_strong_unanimity(self):
        n, t, k, faulty, listen = self.setup_case()
        values = ["x"] * n
        result = run_sub(
            n, t, faulty, gc_factory(values, "core", k=k, listen=listen)
        )
        check_strong_unanimity(result.decisions, "x", 1)

    def test_coherence_with_diverging_listen_sets(self):
        """Listen sets differing outside the core still give coherence."""
        n, t, k = 12, 2, 1
        faulty = [10, 11]
        core = [0, 1, 2]  # 2k+1 honest ids in every L_i
        listen = {}
        for pid in range(n):
            extra = 3 + (pid % 3)  # varies per process
            listen[pid] = core + [extra]
        values = [0] * n
        values[5] = 1
        result = run_sub(
            n, t, faulty, gc_factory(values, "core", k=k, listen=listen)
        )
        check_coherence(result.decisions)

    def test_non_listeners_send_nothing(self):
        n, t, k, faulty, listen = self.setup_case()
        values = ["x"] * n
        result = run_sub(
            n, t, faulty, gc_factory(values, "core", k=k, listen=listen)
        )
        speakers = set(range(3 * k + 1))
        for pid, count in result.metrics.per_process.items():
            if pid not in speakers:
                assert count == 0

    def test_messages_ignored_from_outside_listen_set(self):
        """A faulty process outside every L_i cannot influence outputs."""
        n, t, k, faulty, listen = self.setup_case()
        values = ["x"] * n

        def shout(view, world):
            round_tag = TAG + ("r1",) if view.round_no == 1 else TAG + ("r2",)
            return [
                Envelope(11, pid, tagged(round_tag, "evil"))
                for pid in range(n)
                for _ in range(3)
            ]

        result = run_sub(
            n, t, faulty, gc_factory(values, "core", k=k, listen=listen),
            adversary=ScriptedAdversary(shout),
        )
        check_strong_unanimity(result.decisions, "x", 1)

    def test_faulty_inside_listen_set_cannot_break_coherence(self):
        n, t, k = 12, 2, 1
        faulty = [3, 11]  # 3 sits inside the leader block
        listen = {pid: [0, 1, 2, 3] for pid in range(n)}
        values = [0] * n
        values[1] = 1

        def equivocate(view, world):
            round_tag = TAG + ("r1",) if view.round_no == 1 else TAG + ("r2",)
            return [
                Envelope(3, pid, tagged(round_tag, pid % 2)) for pid in range(n)
            ]

        result = run_sub(
            n, t, faulty, gc_factory(values, "core", k=k, listen=listen),
            adversary=ScriptedAdversary(equivocate),
        )
        check_coherence(result.decisions)
