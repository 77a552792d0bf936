"""Tests for Byzantine broadcast: Algorithm 6 (implicit committee) and the
classic Dolev-Strong baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import RandomNoiseAdversary, ScriptedAdversary
from repro.broadcast import (
    BB_DEFAULT,
    DS_DEFAULT,
    bb_with_implicit_committee,
    dolev_strong,
)
from repro.broadcast.implicit_committee import _valid_chains, bb_instances
from repro.crypto import (
    KeyStore,
    committee_message,
    extend_chain,
    inspect_chain,
    make_certificate,
    start_chain,
)
from repro.net.message import Envelope, reduce_by_tag, tagged
from repro.util import is_hashable

from helpers import first_per_sender, run_sub

TAG = ("bb",)


def build_cert(keystore, pid, t, signers=None):
    signers = signers if signers is not None else list(range(t + 1))
    return make_certificate(
        keystore.handle_for({j}).sign(j, committee_message(pid))
        for j in signers
    )


def bb_factory(keystore, sender, values, k, certs):
    def factory(ctx):
        return bb_with_implicit_committee(
            ctx, TAG, sender, values[ctx.pid], k, certs.get(ctx.pid), keystore
        )

    return factory


class TestImplicitCommittee:
    """n=8, t=2, k=1; committee = {0, 1, 2} with at most one faulty."""

    def setup_case(self, committee=(0, 1, 2), faulty=(6, 7), n=8, t=2):
        ks = KeyStore(n, seed=11)
        certs = {pid: build_cert(ks, pid, t) for pid in committee}
        return n, t, ks, certs, list(faulty)

    def test_validity_with_sender_certificate(self):
        n, t, ks, certs, faulty = self.setup_case()
        values = [f"v{pid}" for pid in range(n)]
        result = run_sub(
            n, t, faulty, bb_factory(ks, 0, values, 1, certs), keystore=ks
        )
        assert all(v == "v0" for v in result.decisions.values())

    def test_rounds_exactly_k_plus_1(self):
        n, t, ks, certs, faulty = self.setup_case()
        values = ["x"] * n
        for k in (1, 2, 3):
            result = run_sub(
                n, t, faulty, bb_factory(ks, 0, values, k, certs), keystore=ks
            )
            assert result.rounds == k + 1

    def test_default_without_sender_certificate(self):
        n, t, ks, certs, faulty = self.setup_case()
        values = ["x"] * n
        # Sender 5 has no certificate.
        result = run_sub(
            n, t, faulty, bb_factory(ks, 5, values, 1, certs), keystore=ks
        )
        assert all(v == BB_DEFAULT for v in result.decisions.values())

    def test_faulty_sender_without_cert_cannot_inject(self):
        n, t, ks, certs, faulty = self.setup_case(faulty=(5, 7))

        def inject(view, world):
            # 5 fakes a "chain" without a committee certificate.
            fake = ("chain-start", "evil", frozenset(), None)
            return [Envelope(5, pid, tagged(TAG, fake)) for pid in range(n)]

        values = ["x"] * n
        result = run_sub(
            n, t, faulty, bb_factory(ks, 5, values, 1, certs), keystore=ks,
            adversary=ScriptedAdversary(inject),
        )
        assert all(v == BB_DEFAULT for v in result.decisions.values())

    def test_committee_agreement_under_equivocating_sender(self):
        """Faulty certified sender (the only faulty committee member, k=1)
        equivocates; all honest certified processes return the same output."""
        n, t = 8, 2
        ks = KeyStore(n, seed=11)
        committee = (0, 1, 2)
        faulty = [0, 7]  # sender 0 is the one faulty committee member
        certs = {pid: build_cert(ks, pid, t) for pid in committee}

        def equivocate(view, world):
            if view.round_no != 1:
                return []
            out = []
            chain_a = start_chain("A", certs[0], world.signer, 0)
            chain_b = start_chain("B", certs[0], world.signer, 0)
            for pid in range(n):
                chain = chain_a if pid < 4 else chain_b
                out.append(Envelope(0, pid, tagged(TAG, chain)))
            return out

        values = ["x"] * n
        result = run_sub(
            n, t, faulty, bb_factory(ks, 0, values, 1, certs), keystore=ks,
            adversary=ScriptedAdversary(equivocate),
        )
        certified_honest = [1, 2]
        outputs = {result.decisions[pid] for pid in certified_honest}
        assert len(outputs) == 1

    def test_late_injection_needs_honest_link(self):
        """A value first appearing in the final round must ride a chain of
        k+1 distinct certified signers; with only one faulty certified
        process it cannot exist, so honest outputs are unaffected."""
        n, t = 8, 2
        ks = KeyStore(n, seed=11)
        committee = (0, 1, 2)
        faulty = [2, 7]  # 2 is certified and faulty
        certs = {pid: build_cert(ks, pid, t) for pid in committee}

        def late(view, world):
            if view.round_no != 2:
                return []
            # Faulty 2 starts a fresh chain for "evil" at the last round --
            # its length is 1, not 2, so receivers must reject it.
            chain = start_chain("evil", certs[2], world.signer, 2)
            return [Envelope(2, pid, tagged(TAG, chain)) for pid in range(n)]

        values = ["x"] * n
        result = run_sub(
            n, t, faulty, bb_factory(ks, 0, values, 1, certs), keystore=ks,
            adversary=ScriptedAdversary(late),
        )
        assert all(v == "x" for v in result.decisions.values())

    def test_noise_robustness(self):
        n, t, ks, certs, faulty = self.setup_case()
        values = ["x"] * n
        result = run_sub(
            n, t, faulty, bb_factory(ks, 0, values, 1, certs), keystore=ks,
            adversary=RandomNoiseAdversary(seed=5),
        )
        assert all(v == "x" for v in result.decisions.values())


def reference_valid_chains(pairs, sender, length, t, keystore):
    """A round of Algorithm 6 as each recipient read it before the read
    was shared: the per-recipient loop, unmemoized."""
    chains = []
    for _, body in pairs:
        info = inspect_chain(body, t, keystore)
        if info is None or info.starter != sender:
            continue
        if not is_hashable(info.value):
            continue
        if not info.is_valid_length(length):
            continue
        chains.append((info.value, body))
    return chains


def exact_chains(chains):
    """Chains by value (type spelled out) and object identity."""
    return [(repr(value), id(chain)) for value, chain in chains]


#: Adversary chains under instance ``s``'s tag in some round: a chain a
#: faulty process started (a foreign starter), an honest chain of the
#: round extended by a faulty link (the wrong length), a faulty sender's
#: own chain for an unhashable value, and an honest chain of the round
#: or of the round before replayed from a faulty id.
CHAIN_FAULTS = ("foreign-starter", "wrong-length", "unhashable",
                "replayed-relay", "stale-relay")


@st.composite
def chain_rounds(draw):
    n = draw(st.integers(4, 8))
    t = (n - 1) // 3
    k = draw(st.integers(1, 2))
    faulty = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=t)))
    honest = [pid for pid in range(n) if pid not in faulty]
    values = {pid: draw(st.integers(0, 1)) for pid in honest}
    attacks = draw(st.lists(st.tuples(
        st.sampled_from(CHAIN_FAULTS), st.sampled_from(faulty),
        st.sampled_from(honest), st.integers(0, n - 1), st.integers(1, k + 1),
    ), max_size=3 * n))
    return n, t, k, faulty, honest, values, attacks


@settings(max_examples=100, deadline=None)
@given(chain_rounds())
def test_shared_chain_read_equals_per_recipient_loop(round_):
    n, t, k, faulty, honest, values, attacks = round_
    ks = KeyStore(n, seed=7)
    reference_ks = KeyStore(n, seed=7, cache=False)
    certs = {pid: build_cert(ks, pid, t) for pid in range(n)}
    instances = [(TAG + ("bb", s), s) for s in range(n)]

    def probe(ctx):
        # The real protocol, with each round read through the shared
        # reducer first: on the shared view the protocol gets this object.
        protocol = bb_instances(
            ctx, instances, values[ctx.pid], k, certs[ctx.pid], ks
        )
        outgoing, reads = protocol.send(None), []
        for length in range(1, k + 2):
            inbox = yield outgoing
            reads.append(([
                reduce_by_tag(inbox, tag, _valid_chains, s, length, ctx.t, ks)
                for tag, s in instances
            ], list(inbox)))
            if length <= k:
                outgoing = protocol.send(inbox)
        with pytest.raises(StopIteration):
            protocol.send(inbox)
        return reads

    seen = {}  # round -> tag -> honest chains of that round

    def script(view, world):
        r = view.round_no
        seen[r] = {}
        for send in view.honest_sends:
            tag, chain = send.payload
            seen[r].setdefault(tag, []).append(chain)
        out = []
        for kind, sender, recipient, s, round_no in attacks:
            if round_no != r:
                continue
            tag = TAG + ("bb", s)
            current = seen[r].get(tag, [])
            stale = seen.get(r - 1, {}).get(tag, [])
            if kind == "foreign-starter":
                chain = start_chain(s, certs[sender], world.signer, sender)
            elif kind == "unhashable":
                tag = TAG + ("bb", sender)
                chain = start_chain([s], certs[sender], world.signer, sender)
            elif kind == "wrong-length" and current:
                chain = extend_chain(current[0], certs[sender], world.signer, sender)
            elif kind == "replayed-relay" and current:
                chain = current[-1]
            elif kind == "stale-relay" and stale:
                chain = stale[-1]
            else:
                continue
            out.append(Envelope(sender, recipient, tagged(tag, chain)))
        return out

    result = run_sub(n, t, faulty, probe, ScriptedAdversary(script), keystore=ks)

    for length in range(1, k + 2):
        for index, (tag, s) in enumerate(instances):
            shared = []
            for pid in honest:
                got, inbox = result.decisions[pid][length - 1]
                reference = reference_valid_chains(
                    first_per_sender(inbox, tag), s, length, t, reference_ks
                )
                assert exact_chains(got[index]) == exact_chains(reference)
                if not any(env.sender in faulty and env.parts()[0] == tag
                           for env in inbox):
                    shared.append(got[index])
            # Every recipient on the shared view holds the one result.
            assert all(chains is shared[0] for chains in shared)


def ds_factory(keystore, sender, values):
    def factory(ctx):
        return dolev_strong(ctx, TAG, sender, values[ctx.pid], keystore)

    return factory


class TestDolevStrong:
    def test_honest_sender_validity(self):
        n, t = 6, 2
        ks = KeyStore(n, seed=3)
        values = [f"v{pid}" for pid in range(n)]
        result = run_sub(n, t, [4, 5], ds_factory(ks, 0, values), keystore=ks)
        assert all(v == "v0" for v in result.decisions.values())

    def test_rounds_exactly_t_plus_1(self):
        n = 6
        for t in (1, 2, 3):
            ks = KeyStore(n, seed=3)
            result = run_sub(n, t, [], ds_factory(ks, 0, ["x"] * n), keystore=ks)
            assert result.rounds == t + 1

    def test_silent_faulty_sender_yields_default(self):
        n, t = 6, 2
        ks = KeyStore(n, seed=3)
        result = run_sub(n, t, [0], ds_factory(ks, 0, ["x"] * n), keystore=ks)
        assert all(v == DS_DEFAULT for v in result.decisions.values())

    def test_equivocating_sender_all_agree(self):
        n, t = 6, 2
        ks = KeyStore(n, seed=3)

        def equivocate(view, world):
            if view.round_no != 1:
                return []
            out = []
            for pid in range(n):
                value = "A" if pid < 3 else "B"
                sig = world.signer.sign(0, ("ds-val", TAG, value))
                out.append(Envelope(0, pid, tagged(TAG, (value, (sig,)))))
            return out

        result = run_sub(
            n, t, [0], ds_factory(ks, 0, ["x"] * n), keystore=ks,
            adversary=ScriptedAdversary(equivocate),
        )
        outputs = set(result.decisions.values())
        assert len(outputs) == 1  # agreement; both values seen -> default

    def test_forged_relay_signature_rejected(self):
        n, t = 5, 1
        ks = KeyStore(n, seed=3)

        def forge(view, world):
            if view.round_no != 2:
                return []
            # Faulty 4 fabricates a 2-signature chain for "evil" claiming
            # honest signer 1 -- verification must fail.
            sig0 = world.signer.sign(4, ("ds-val", TAG, "evil"))
            fake0 = type(sig0)(signer=0, digest=sig0.digest)
            sig1 = world.signer.sign(4, ("ds-ext", TAG, "evil", (fake0,)))
            fake1 = type(sig1)(signer=1, digest=sig1.digest)
            return [
                Envelope(4, pid, tagged(TAG, ("evil", (fake0, fake1))))
                for pid in range(n)
            ]

        values = ["x"] * n
        result = run_sub(
            n, t, [4], ds_factory(ks, 0, values), keystore=ks,
            adversary=ScriptedAdversary(forge),
        )
        assert all(v == "x" for v in result.decisions.values())
