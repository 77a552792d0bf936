"""Unit tests for the simulated cryptographic substrate."""

from collections import namedtuple
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    ForgeryError,
    KeyStore,
    Signature,
    canonical_encode,
    certificate_signers,
    committee_message,
    extend_chain,
    inspect_chain,
    is_committee_certificate,
    make_certificate,
    start_chain,
)
from repro.crypto.keys import _encode_cached
from repro.perf import CacheStats


@pytest.fixture
def keystore():
    return KeyStore(8, seed=7)


class TestCanonicalEncode:
    def test_deterministic(self):
        obj = ("x", 3, (True, None), frozenset({1, 2}))
        assert canonical_encode(obj) == canonical_encode(obj)

    def test_distinguishes_types(self):
        assert canonical_encode(1) != canonical_encode("1")
        assert canonical_encode(True) != canonical_encode(1)
        assert canonical_encode(()) != canonical_encode(None)

    def test_set_order_normalized(self):
        assert canonical_encode(frozenset([1, 2, 3])) == canonical_encode(
            frozenset([3, 2, 1])
        )

    def test_nested_structures_differ(self):
        assert canonical_encode(((1, 2), 3)) != canonical_encode((1, (2, 3)))

    def test_string_length_prefix_prevents_ambiguity(self):
        assert canonical_encode(("ab", "c")) != canonical_encode(("a", "bc"))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_encode(object())


def reference_encode(obj):
    """``(encoding, immutable)`` by ``isinstance`` dispatch alone: the
    canonical encoding as it was defined before the exact-type path."""
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
    if isinstance(obj, Signature):
        signer_enc, signer_imm = reference_encode(obj.signer)
        return (b"G(" + signer_enc + obj.digest + b")",
                signer_imm and type(obj.digest) is bytes)
    if isinstance(obj, (tuple, list, set, frozenset)):
        parts = [reference_encode(item) for item in obj]
        pieces = [enc for enc, _ in parts]
        immutable = (isinstance(obj, (tuple, frozenset))
                     and all(imm for _, imm in parts))
        if isinstance(obj, (tuple, list)):
            return b"(" + b"".join(pieces) + b")", immutable
        return b"{" + b"".join(sorted(pieces)) + b"}", immutable
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    """A ``str`` subclass."""


Pair = namedtuple("Pair", "left right")

ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2 ** 80), 2 ** 80),
    st.text(max_size=6), st.binary(max_size=6), st.sampled_from(Level),
    st.text(max_size=4).map(Label),
    st.builds(Signature, st.one_of(st.integers(0, 9), st.booleans(),
                                   st.sampled_from(Level)),
              st.binary(min_size=4, max_size=4)),
)
HASHABLE = st.recursive(
    ATOMS, lambda inner: st.one_of(st.lists(inner, max_size=3).map(tuple),
                                   st.frozensets(inner, max_size=3)),
    max_leaves=6)
VALUES = st.recursive(
    ATOMS, lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4),
        st.builds(Pair, inner, inner),
        st.sets(HASHABLE, max_size=3),
        st.frozensets(HASHABLE, max_size=3),
    ), max_leaves=12)


class TestExactTypeEncoding:
    @settings(max_examples=400, deadline=None)
    @given(VALUES)
    def test_matches_isinstance_reference(self, obj):
        expected = reference_encode(obj)
        cache, stats = {}, CacheStats("t")
        assert _encode_cached(obj, cache, stats) == expected
        # Served from the identity cache the second time, if cached at all.
        assert _encode_cached(obj, cache, stats) == expected
        assert canonical_encode(obj) == expected[0]

    @pytest.mark.parametrize("obj", [
        1.5, {1: 2}, object(), (1, "a", 2.5), ["x", (3, {4: 5})],
        frozenset({(1, 2.0)}), Pair(1, {}),
    ])
    def test_unsupported_types_still_raise(self, obj):
        with pytest.raises(TypeError):
            _encode_cached(obj, {}, CacheStats("t"))
        with pytest.raises(TypeError):
            reference_encode(obj)


class TestSignatures:
    def test_sign_verify_roundtrip(self, keystore):
        handle = keystore.handle_for({3})
        sig = handle.sign(3, ("hello", 1))
        assert keystore.verify(sig, ("hello", 1))

    def test_verify_fails_on_wrong_message(self, keystore):
        sig = keystore.handle_for({3}).sign(3, "msg")
        assert not keystore.verify(sig, "other")

    def test_verify_fails_on_wrong_signer(self, keystore):
        sig = keystore.handle_for({3}).sign(3, "msg")
        forged = Signature(signer=4, digest=sig.digest)
        assert not keystore.verify(forged, "msg")

    def test_handle_cannot_sign_for_others(self, keystore):
        handle = keystore.handle_for({3})
        with pytest.raises(ForgeryError):
            handle.sign(4, "msg")

    def test_verify_tolerates_junk(self, keystore):
        assert not keystore.verify("not a signature", "msg")
        assert not keystore.verify(Signature(99, b"x"), "msg")
        assert not keystore.verify(Signature(1, b"short"), object())

    def test_different_seeds_different_keys(self):
        sig_a = KeyStore(4, seed=1).handle_for({0}).sign(0, "m")
        sig_b = KeyStore(4, seed=2).handle_for({0}).sign(0, "m")
        assert sig_a.digest != sig_b.digest


class TestCommitteeCertificates:
    def test_valid_certificate(self, keystore):
        t = 2
        sigs = [
            keystore.handle_for({j}).sign(j, committee_message(5))
            for j in range(t + 1)
        ]
        cert = make_certificate(sigs)
        assert is_committee_certificate(cert, 5, t, keystore)
        assert certificate_signers(cert, 5, keystore) == frozenset({0, 1, 2})

    def test_too_few_signers(self, keystore):
        t = 2
        sigs = [
            keystore.handle_for({j}).sign(j, committee_message(5))
            for j in range(t)
        ]
        assert not is_committee_certificate(make_certificate(sigs), 5, t, keystore)

    def test_duplicate_signers_do_not_count_twice(self, keystore):
        t = 2
        sig = keystore.handle_for({0}).sign(0, committee_message(5))
        assert not is_committee_certificate(
            (sig, sig, sig), 5, t, keystore
        )

    def test_wrong_subject_rejected(self, keystore):
        t = 1
        sigs = [
            keystore.handle_for({j}).sign(j, committee_message(5))
            for j in range(t + 1)
        ]
        assert not is_committee_certificate(make_certificate(sigs), 6, t, keystore)

    def test_junk_entries_ignored(self, keystore):
        t = 1
        good = [
            keystore.handle_for({j}).sign(j, committee_message(5))
            for j in range(t + 1)
        ]
        cert = tuple(good) + ("junk", 42, None)
        assert is_committee_certificate(cert, 5, t, keystore)

    def test_malformed_certificate_object(self, keystore):
        assert not is_committee_certificate(42, 5, 1, keystore)
        assert certificate_signers("junk", 5, keystore) is None


def _cert_for(keystore, pid, t):
    sigs = [
        keystore.handle_for({j}).sign(j, committee_message(pid))
        for j in range(t + 1)
    ]
    return make_certificate(sigs)


class TestMessageChains:
    def test_start_and_inspect(self, keystore):
        t = 2
        cert = _cert_for(keystore, 3, t)
        chain = start_chain("val", cert, keystore.handle_for({3}), 3)
        info = inspect_chain(chain, t, keystore)
        assert info is not None
        assert info.value == "val"
        assert info.starter == 3
        assert info.signers == (3,)
        assert info.is_valid_length(1)

    def test_extension_accumulates_signers(self, keystore):
        t = 2
        chain = start_chain("v", _cert_for(keystore, 3, t), keystore.handle_for({3}), 3)
        chain = extend_chain(chain, _cert_for(keystore, 4, t), keystore.handle_for({4}), 4)
        chain = extend_chain(chain, _cert_for(keystore, 5, t), keystore.handle_for({5}), 5)
        info = inspect_chain(chain, t, keystore)
        assert info.signers == (3, 4, 5)
        assert info.is_valid_length(3)
        assert not info.is_valid_length(2)

    def test_duplicate_signer_invalidates_length(self, keystore):
        t = 2
        cert3 = _cert_for(keystore, 3, t)
        chain = start_chain("v", cert3, keystore.handle_for({3}), 3)
        chain = extend_chain(chain, cert3, keystore.handle_for({3}), 3)
        info = inspect_chain(chain, t, keystore)
        assert info is not None
        assert info.length == 2
        assert not info.is_valid_length(2)  # signers not distinct

    def test_missing_certificate_rejected(self, keystore):
        t = 2
        bogus_cert = frozenset()
        chain = start_chain("v", bogus_cert, keystore.handle_for({3}), 3)
        assert inspect_chain(chain, t, keystore) is None

    def test_tampered_value_rejected(self, keystore):
        t = 2
        cert = _cert_for(keystore, 3, t)
        chain = start_chain("v", cert, keystore.handle_for({3}), 3)
        tampered = (chain[0], "evil", chain[2], chain[3])
        assert inspect_chain(tampered, t, keystore) is None

    def test_junk_rejected(self, keystore):
        assert inspect_chain("junk", 2, keystore) is None
        assert inspect_chain(("chain-start", "v"), 2, keystore) is None
        assert inspect_chain(("weird", "v", None, None), 2, keystore) is None

    def test_faulty_cannot_forge_honest_link(self, keystore):
        """A chain link claiming an honest signer fails verification."""
        t = 2
        cert3 = _cert_for(keystore, 3, t)
        chain = start_chain("v", cert3, keystore.handle_for({3}), 3)
        # Adversary (controls 6) tries to append a link "signed by 5".
        fake_sig = keystore.handle_for({6}).sign(6, (chain, _cert_for(keystore, 5, t)))
        forged_link = ("chain-ext", chain, _cert_for(keystore, 5, t),
                       Signature(signer=5, digest=fake_sig.digest))
        assert inspect_chain(forged_link, t, keystore) is None
