"""Cache-safety tests for the hot-path memoization layer (repro.perf).

The caching contract: identical verification results to the uncached seed
implementation, with no way for an adversary to poison a cache -- a
tampered signature, spliced chain, or mutated object must always be
re-judged on its true content.
"""

import pytest

from repro.crypto import (
    KeyStore,
    Signature,
    committee_message,
    extend_chain,
    inspect_chain,
    is_committee_certificate,
    make_certificate,
    start_chain,
)
from repro.crypto.keys import canonical_encode
from repro.net.message import Envelope, by_tag
from repro.net.metrics import MetricsCollector, payload_bits
from repro.perf import MISS, CacheStats, IdentityMemo, cache_report
from repro.runtime import ScenarioSpec, execute_spec

T = 2
N = 8


@pytest.fixture
def keystore():
    return KeyStore(N, seed=21)


def build_cert(ks, pid, t=T):
    return make_certificate(
        ks.handle_for({j}).sign(j, committee_message(pid)) for j in range(t + 1)
    )


def build_chain(ks, value="v", signers=(0, 1)):
    certs = {pid: build_cert(ks, pid) for pid in signers}
    chain = start_chain(value, certs[signers[0]], ks.handle_for({signers[0]}), signers[0])
    for pid in signers[1:]:
        chain = extend_chain(chain, certs[pid], ks.handle_for({pid}), pid)
    return chain


class TestDigestCache:
    def test_cached_and_uncached_digests_identical(self):
        message = ("tag", 1, ("nested", frozenset({2, 3})), b"bytes")
        cached = KeyStore(N, seed=5)
        uncached = KeyStore(N, seed=5, cache=False)
        for _ in range(3):  # repeated to exercise warm-cache paths
            sig_c = cached.handle_for({1}).sign(1, message)
            sig_u = uncached.handle_for({1}).sign(1, message)
            assert sig_c == sig_u
            assert cached.verify(sig_u, message)
            assert uncached.verify(sig_c, message)

    def test_structurally_equal_objects_hash_once(self, keystore):
        handle = keystore.handle_for({0})
        a = ("msg", (1, 2), frozenset({3}))
        b = ("msg", (1, 2), frozenset({3}))
        assert a is not b
        handle.sign(0, a)
        before = keystore.sign_stats.misses
        handle.sign(0, b)  # distinct object, same encoding: digest cache hit
        assert keystore.sign_stats.misses == before
        assert keystore.sign_stats.hits >= 1

    def test_bool_vs_int_disambiguation_survives_caching(self, keystore):
        handle = keystore.handle_for({0})
        sig_true = handle.sign(0, ("flag", True))
        sig_one = handle.sign(0, ("flag", 1))
        assert sig_true.digest != sig_one.digest
        assert keystore.verify(sig_true, ("flag", True))
        assert not keystore.verify(sig_true, ("flag", 1))
        assert not keystore.verify(sig_one, ("flag", True))

    def test_encoding_matches_canonical_encode(self, keystore):
        # The identity-cached encoder must agree with the public function.
        samples = [
            None, True, False, 0, -7, "s", b"b",
            ("a", ("b", 2)), [1, [2, 3]], frozenset({1, "x"}),
            Signature(1, b"d"), {True, 2},
        ]
        for obj in samples:
            sig = keystore.handle_for({2}).sign(2, obj)
            import hashlib
            expected = hashlib.sha256(
                keystore._secrets[2] + canonical_encode(obj)
            ).digest()
            assert sig.digest == expected

    def test_tampered_signature_fails_after_cache_warm(self, keystore):
        message = ("payload", 9)
        sig = keystore.handle_for({4}).sign(4, message)
        assert keystore.verify(sig, message)  # warm every cache layer
        tampered = Signature(signer=4, digest=b"x" + sig.digest[1:])
        wrong_signer = Signature(signer=5, digest=sig.digest)
        assert not keystore.verify(tampered, message)
        assert not keystore.verify(wrong_signer, message)
        assert keystore.verify(sig, message)  # original still verifies


class TestChainCache:
    def test_chain_verified_once_per_object(self, keystore):
        chain = build_chain(keystore)
        first = inspect_chain(chain, T, keystore)
        hits_before = keystore.memo("inspect_chain").stats.hits
        second = inspect_chain(chain, T, keystore)
        assert first == second
        assert first.signers == (0, 1)
        assert keystore.memo("inspect_chain").stats.hits == hits_before + 1

    def test_spliced_chain_rejected_even_with_warm_cache(self, keystore):
        chain_a = build_chain(keystore, value="a", signers=(0, 1))
        chain_b = build_chain(keystore, value="b", signers=(2, 3))
        assert inspect_chain(chain_a, T, keystore) is not None
        assert inspect_chain(chain_b, T, keystore) is not None
        # Splice: b's outer link wrapped around a's inner start link.
        kind, _, cert, sig = chain_b
        spliced = (kind, chain_a, cert, sig)
        assert inspect_chain(spliced, T, keystore) is None
        # Negative result is cached and stays negative.
        assert inspect_chain(spliced, T, keystore) is None

    def test_forged_lookalike_misses_cache_and_fails(self, keystore):
        chain = build_chain(keystore, value="v", signers=(0, 1))
        assert inspect_chain(chain, T, keystore) is not None
        kind, content, cert, sig = chain
        forged = (kind, (content[0], "other", content[2], content[3]), cert, sig)
        assert inspect_chain(forged, T, keystore) is None

    def test_mutable_chain_positive_result_not_cached(self, keystore):
        # A valid chain carrying a *list* certificate is mutable: the
        # positive verdict must be recomputed, never served stale.
        cert = list(build_cert(keystore, 0))
        chain = start_chain("v", cert, keystore.handle_for({0}), 0)
        assert inspect_chain(chain, T, keystore) is not None
        del cert[:]  # strip the certificate in place
        assert inspect_chain(chain, T, keystore) is None

    def test_cross_keystore_isolation(self):
        ks_a = KeyStore(N, seed=1)
        ks_b = KeyStore(N, seed=2)
        chain = build_chain(ks_a)
        assert inspect_chain(chain, T, ks_a) is not None
        # Different PKI: the same object must be re-verified and rejected.
        assert inspect_chain(chain, T, ks_b) is None
        # And the verdict under ks_a is unaffected by ks_b's lookup.
        assert inspect_chain(chain, T, ks_a) is not None

    def test_echo_adversary_chains_hit_the_memo(self):
        # The echo adversary replays the last honest payload to
        # everyone, in its round and in later ones, so one chain object
        # reaches several reads (the honest read of its round and the
        # views echo's copies make) and the memo answers the repeats.
        # The split adversary no longer hits it: its faulty chains now
        # reach each honest half through one shared read per round.
        row = execute_spec(
            ScenarioSpec(n=7, t=2, f=2, mode="authenticated", adversary="echo"),
            collect_perf=True,
        )
        assert row["perf"]["inspect_chain"]["hits"] > 0


class TestCertificateCache:
    def test_certificate_verified_once_per_object(self, keystore):
        cert = build_cert(keystore, 3)
        assert is_committee_certificate(cert, 3, T, keystore)
        hits_before = keystore.memo("committee_cert").stats.hits
        assert is_committee_certificate(cert, 3, T, keystore)
        assert keystore.memo("committee_cert").stats.hits == hits_before + 1

    def test_subject_is_part_of_the_key(self, keystore):
        cert = build_cert(keystore, 3)
        assert is_committee_certificate(cert, 3, T, keystore)
        assert not is_committee_certificate(cert, 4, T, keystore)

    def test_mutable_cert_acceptance_not_cached(self, keystore):
        cert = list(build_cert(keystore, 3))
        assert is_committee_certificate(cert, 3, T, keystore)
        del cert[0]
        assert not is_committee_certificate(cert, 3, T, keystore)

    def test_uncached_keystore_agrees(self):
        plain = KeyStore(N, seed=3, cache=False)
        cert = build_cert(plain, 2)
        assert is_committee_certificate(cert, 2, T, plain)
        assert not is_committee_certificate(cert, 5, T, plain)
        assert plain.cache_stats()["sign_digest"]["hits"] == 0


class TestIdentityMemo:
    def test_disabled_memo_always_misses(self):
        memo = IdentityMemo(CacheStats("x"), enabled=False)
        obj = ("k",)
        memo.store(obj, 1, "value")
        assert memo.lookup(obj, 1) is MISS
        assert len(memo) == 0

    def test_strong_reference_pins_identity(self):
        import gc
        import weakref

        class Payload:
            pass

        memo = IdentityMemo(CacheStats("x"))
        obj = Payload()
        ref = weakref.ref(obj)
        memo.store(obj, 0, "cached")
        del obj
        gc.collect()
        # The memo's strong reference must keep the object alive: that is
        # what guarantees its id() can never be recycled by a lookalike.
        survivor = ref()
        assert survivor is not None
        assert memo.lookup(survivor, 0) == "cached"
        # A distinct (equal-by-construction) object still misses.
        assert memo.lookup(Payload(), 0) is MISS


class TestMetricsPayloadCache:
    def test_bits_identical_to_direct_computation(self):
        payload = (("tag", 1), ["body", (2, 3), frozenset({4})])
        collector = MetricsCollector()
        collector.record_round()
        for recipient in range(5):
            collector.record_send(Envelope(0, recipient, payload))
        assert collector.honest_bits == 5 * payload_bits(payload)

    def test_batched_and_single_recording_agree(self):
        payload_a = (("a",), "x" * 20)
        payload_b = (("b",), 12345)
        envs = [Envelope(0, r, payload_a) for r in range(4)]
        envs += [Envelope(1, r, payload_b) for r in range(4)]
        one = MetricsCollector()
        one.record_round()
        for env in envs:
            one.record_send(env)
        batched = MetricsCollector()
        batched.record_round()
        batched.record_sends(envs)
        assert one.honest_bits == batched.honest_bits
        assert one.honest_messages == batched.honest_messages
        assert one.per_round == batched.per_round
        assert one.per_process == batched.per_process
        assert one.per_component == batched.per_component


class TestEnvelopeFastPath:
    def test_parts_tag_body_consistency(self):
        good = Envelope(0, 1, (("t",), "body"))
        assert good.parts() == (("t",), "body")
        assert good.tag() == ("t",)
        assert good.body() == "body"
        for malformed in (None, "x", (1, 2, 3), [("t",), "body"]):
            env = Envelope(0, 1, malformed)
            assert env.parts() == (None, None)
            assert env.tag() is None
            assert env.body() is None

    def test_envelope_has_no_instance_dict(self):
        env = Envelope(0, 1, "p")
        assert not hasattr(env, "__dict__")  # __slots__ fast path
        with pytest.raises((AttributeError, TypeError)):
            env.extra = 1  # frozen + __slots__: no stray attributes

    def test_by_tag_dedup_and_filtering_unchanged(self):
        tag = ("t", 1)
        inbox = [
            Envelope(0, 9, (tag, "first")),
            Envelope(0, 9, (tag, "dup-dropped")),
            Envelope(1, 9, (("other",), "wrong-tag")),
            Envelope(2, 9, "malformed"),
            Envelope(3, 9, (tag, "kept")),
        ]
        assert by_tag(inbox, tag) == [(0, "first"), (3, "kept")]


class TestCacheReport:
    def test_report_shapes(self, keystore):
        chain = build_chain(keystore)
        inspect_chain(chain, T, keystore)
        inspect_chain(chain, T, keystore)
        report = cache_report(keystore=keystore)
        assert {"canonical_encode", "sign_digest", "inspect_chain",
                "committee_cert"} <= set(report)
        for stats in report.values():
            assert {"hits", "misses", "hit_rate"} == set(stats)
        assert report["inspect_chain"]["hits"] == 1
