"""Broadcast-once delivery is envelope-for-envelope the expanded delivery.

The engine keeps each honest broadcast as one object: accounting counts it
``n`` times, every honest inbox reads it through one shared per-round tag
index, and the adversary's view expands it on demand.  The reference here
is the per-envelope engine it replaced: every broadcast expanded to ``n``
envelopes, each recipient's inbox its honest envelopes in send order
followed by the adversary's, read by the plain ``by_tag`` loops below.
Shared reads (``reduce_by_tag``) and per-tag accounting are held to the
same reference, and signatures are charged the length of their ``repr``.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.adversary import ScriptedAdversary, SplitWorldAdversary
from repro.core.api import run_protocol
from repro.crypto import Signature
from repro.crypto.keys import signature_repr_len
from repro.net import Broadcast, Envelope, by_tag, by_tag_all, reduce_by_tag
from repro.net.message import tags_of
from repro.net import metrics as metrics_module
from repro.net.metrics import _component_of, payload_bits

TAGS = [("a",), ("b", 1), ("ba", 2, "gc1", "r1")]
UNHASHABLE = [1, 2]
QUERIES = TAGS + [UNHASHABLE, None, ("nobody",)]
MALFORMED = [None, 42, "x", (1, 2, 3)]


def reference_by_tag(inbox, tag):
    seen = set()
    out = []
    for env in inbox:
        env_tag, body = env.parts()
        if env_tag != tag or env.sender in seen:
            continue
        seen.add(env.sender)
        out.append((env.sender, body))
    return out


def reference_by_tag_all(inbox, tag):
    out = []
    for env in inbox:
        env_tag, body = env.parts()
        if env_tag == tag:
            out.append((env.sender, body))
    return out


def expand(n, sends, honest):
    """The honest envelopes of the round in the per-envelope engine's order."""
    out = []
    for pid in honest:
        for item in sends[pid]:
            if isinstance(item, Broadcast):
                out.extend(Envelope(pid, j, item.payload) for j in range(n))
            else:
                out.append(item)
    return out


@st.composite
def rounds(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    faulty = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
    honest = [pid for pid in range(n) if pid not in faulty]
    body = st.integers(0, 3)
    payload = st.one_of(st.tuples(st.sampled_from(TAGS), body),
                        st.sampled_from(MALFORMED))
    sends = {}
    for pid in honest:
        sends[pid] = draw(st.lists(st.one_of(
            st.builds(Broadcast, st.just(pid), payload),
            st.builds(Envelope, st.just(pid), st.integers(0, n - 1), payload),
        ), max_size=4))
    # One honest sender broadcasts the same tag twice in the round, as
    # Dolev-Strong and implicit-committee relays do.
    relay = draw(st.sampled_from(honest))
    for copy in ("relay-1", "relay-2"):
        at = draw(st.integers(0, len(sends[relay])))
        sends[relay].insert(at, Broadcast(relay, (TAGS[0], copy)))
    if draw(st.integers(0, 3)) == 0:
        # An unhashable honest tag leaves the round unindexed.
        sends[relay].append(Broadcast(relay, (["h"], 0)))
    faulty_out = []
    if faulty:
        adversarial = st.one_of(st.tuples(st.sampled_from(TAGS), body),
                                st.sampled_from(MALFORMED),
                                st.tuples(st.just(UNHASHABLE), body))
        faulty_out = draw(st.lists(st.builds(
            Envelope, st.sampled_from(faulty), st.integers(0, n - 1),
            adversarial), max_size=12))
        sender = draw(st.sampled_from(faulty))
        recipient = draw(st.sampled_from(honest))
        tag = draw(st.sampled_from(TAGS + [UNHASHABLE]))
        faulty_out += [Envelope(sender, recipient, (tag, "double-1")),
                       Envelope(sender, recipient, (tag, "double-2"))]
    return n, faulty, honest, sends, faulty_out


@settings(max_examples=300, deadline=None)
@given(rounds())
def test_broadcast_once_round_equals_expanded_round(round_):
    n, faulty, honest, sends, faulty_out = round_
    seen = {}

    def held(inbox):
        tags = tags_of(inbox)
        return None if tags is None else set(tags)

    def probe(ctx):
        inbox = yield sends[ctx.pid]
        return (list(inbox), len(inbox),
                [by_tag(inbox, tag) for tag in QUERIES],
                [by_tag_all(inbox, tag) for tag in QUERIES],
                held(inbox), held(list(inbox)))

    def script(view, world):
        if view.round_no != 1:
            return []
        seen["outgoing"] = (len(view.honest_outgoing), list(view.honest_outgoing))
        seen["to_faulty"] = list(view.inbox_to_faulty)
        seen["sends"] = list(view.honest_sends)
        return faulty_out

    result = run_protocol(n, len(faulty), faulty, probe, ScriptedAdversary(script))

    honest_env = expand(n, sends, honest)
    assert seen["outgoing"] == (len(honest_env), honest_env)
    assert seen["to_faulty"] == [e for e in honest_env if e.recipient in faulty]
    assert seen["sends"] == [item for pid in honest for item in sends[pid]]
    for pid in honest:
        old_inbox = ([e for e in honest_env if e.recipient == pid]
                     + [e for e in faulty_out if e.recipient == pid])
        got_list, got_len, got_first, got_all, *got_held = result.decisions[pid]
        assert got_list == old_inbox
        assert got_len == len(old_inbox)
        assert got_first == [reference_by_tag(old_inbox, tag) for tag in QUERIES]
        assert got_all == [reference_by_tag_all(old_inbox, tag) for tag in QUERIES]
        # tags_of answers exactly, or not at all (an unhashable or
        # unindexed tag); the plain-list path agrees with the inbox's.
        for held in got_held:
            assert held is None or held == {e.parts()[0] for e in old_inbox}

    metrics = result.metrics
    assert metrics.honest_messages == len(honest_env)
    assert metrics.honest_bits == sum(payload_bits(e.payload) for e in honest_env)
    assert metrics.per_round == [len(honest_env)]
    per_process = Counter(e.sender for e in honest_env)
    per_component = Counter(_component_of(e.payload) for e in honest_env)
    # Insertion order too: summaries emit these counters as dicts.
    assert list(metrics.per_process.items()) == list(per_process.items())
    assert list(metrics.per_component.items()) == list(per_component.items())


def count_bodies(pairs):
    return Counter(body for _, body in pairs)


def senders_below(pairs, bound):
    return tuple(sender for sender, _ in pairs if sender < bound)


def view_key(sends, honest, faulty_out, pid, tag):
    """What ``pid``'s read under ``tag`` is shared by: ``None`` when it
    reads alone -- the round is unindexed, ``tag`` is unhashable, or an
    honest point-to-point envelope under ``tag`` reaches ``pid`` --
    otherwise its view: the first per sender of the adversary's envelopes
    to it under ``tag``, taken as ``(sender, body)`` identities."""
    items = [item for p in honest for item in sends[p]]
    try:
        hash(tag)
        for item in items:
            if isinstance(item, Broadcast):
                hash(item.parts()[0])
    except TypeError:
        return None
    if any(isinstance(item, Envelope) and item.recipient == pid
           and item.parts()[0] == tag for item in items):
        return None
    own = reference_by_tag([e for e in faulty_out if e.recipient == pid], tag)
    return tuple((id(sender), id(body)) for sender, body in own)


@settings(max_examples=300, deadline=None)
@given(rounds())
def test_shared_reads_equal_per_recipient_reads(round_):
    n, faulty, honest, sends, faulty_out = round_
    calls = Counter()

    def counted(reduce):
        def wrapper(pairs, *args):
            calls[reduce.__name__] += 1
            return reduce(pairs, *args)
        return wrapper

    counting, bounded = counted(count_bodies), counted(senders_below)

    def bound_of(pid):
        return 2 + pid % 2

    def probe(ctx):
        inbox = yield sends[ctx.pid]
        return {tag_no: (reduce_by_tag(inbox, tag, counting),
                         reduce_by_tag(inbox, tag, bounded, bound_of(ctx.pid)))
                for tag_no, tag in enumerate(QUERIES)}

    result = run_protocol(n, len(faulty), faulty, probe,
                          ScriptedAdversary(lambda view, world: faulty_out))

    honest_env = expand(n, sends, honest)
    expected_calls = {"count_bodies": 0, "senders_below": 0}
    for tag_no, tag in enumerate(QUERIES):
        shared_count, shared_bounded = {}, {}
        for pid in honest:
            old_inbox = ([e for e in honest_env if e.recipient == pid]
                         + [e for e in faulty_out if e.recipient == pid])
            reference = reference_by_tag(old_inbox, tag)
            got_count, got_bounded = result.decisions[pid][tag_no]
            assert got_count == count_bodies(reference)
            assert got_bounded == senders_below(reference, bound_of(pid))
            view = view_key(sends, honest, faulty_out, pid, tag)
            if view is None:
                expected_calls["count_bodies"] += 1
                expected_calls["senders_below"] += 1
            else:
                shared_count.setdefault(view, []).append(got_count)
                shared_bounded.setdefault((view, bound_of(pid)), []).append(
                    got_bounded)
        # One reduction per distinct view (and args), and every recipient
        # with that view holds its one result.
        for group in (*shared_count.values(), *shared_bounded.values()):
            assert all(got is group[0] for got in group)
        expected_calls["count_bodies"] += len(shared_count)
        expected_calls["senders_below"] += len(shared_bounded)
    assert calls["count_bodies"] == expected_calls["count_bodies"]
    assert calls["senders_below"] == expected_calls["senders_below"]


def test_views_are_told_apart_by_identity_not_equality():
    """``1 == True``, yet a reducer may tell them apart: recipients whose
    adversary bodies are equal but distinct objects read alone, and those
    whose bodies are the same object share one read."""
    runs = []

    def body_types(pairs):
        runs.append(len(pairs))
        return tuple(type(body).__name__ for _, body in pairs)

    def probe(ctx):
        inbox = yield []
        return reduce_by_tag(inbox, ("t",), body_types)

    def script(view, world):
        if view.round_no != 1:
            return []
        return [Envelope(3, 0, (("t",), 1)), Envelope(3, 1, (("t",), True)),
                Envelope(3, 2, (("t",), 1))]

    result = run_protocol(4, 1, [3], probe, ScriptedAdversary(script))
    assert result.decisions[0] == ("int",)
    assert result.decisions[1] == ("bool",)
    assert result.decisions[0] is result.decisions[2]
    assert runs == [1, 1]


def test_ghosts_share_reads_with_their_world():
    """Under ``split`` at n = 10, each world's ghosts and the honest half
    that world talks to read the same view: the round's honest votes,
    then that world's ghost votes, each ghost's one payload object.  So a
    round's read runs once per world, not once per ghost or recipient."""
    n, faulty, rounds_ = 10, [7, 8, 9], 3
    calls = Counter()

    def senders(pairs, round_no):
        calls[round_no] += 1
        return tuple(sender for sender, _ in pairs)

    def vote(ctx, value):
        heard = []
        for round_no in range(rounds_):
            tag = ("v", round_no)
            # A fresh body per sender and round: sharing rests on identity.
            inbox = yield ctx.broadcast(tag, [ctx.pid, value])
            heard.append(reduce_by_tag(inbox, tag, senders, round_no))
        return heard

    result = run_protocol(
        n, len(faulty), faulty, lambda ctx: vote(ctx, ctx.pid % 2),
        SplitWorldAdversary(0, 1),
        scenario={"protocol_builder": vote})
    assert all(heard == [tuple(range(n))] * rounds_
               for heard in result.decisions.values())
    # Ghosts read round r in round r + 1, so they read every round but
    # the last; the honest halves read every round.
    assert calls == {round_no: 2 for round_no in range(rounds_)}


def test_adversary_only_round_still_shares_the_read():
    """A round without honest sends is indexed too: the honest recipients
    that no adversary envelope under the tag reaches share one reduction."""
    runs = []

    def counting(pairs):
        runs.append(len(pairs))
        return tuple(pairs)

    def probe(ctx):
        inbox = yield []
        return reduce_by_tag(inbox, ("t",), counting)

    def script(view, world):
        return [Envelope(3, 0, (("t",), "x"))]

    result = run_protocol(4, 1, [3], probe, ScriptedAdversary(script))
    assert result.decisions[0] == ((3, "x"),)
    assert result.decisions[1] == ()
    assert result.decisions[1] is result.decisions[2]
    assert runs == [1, 0]  # process 0's own read, one shared by 1 and 2


def test_plain_envelope_lists_reduce_per_call():
    inbox = [Envelope(1, 0, (("t",), "a")), Envelope(1, 0, (("t",), "b")),
             Envelope(2, 0, (("t",), "a")), Envelope(3, 0, (("u",), "c"))]
    assert reduce_by_tag(inbox, ("t",), count_bodies) == Counter({"a": 2})
    assert reduce_by_tag(inbox, ("t",), senders_below, 2) == (1,)


def walker_bits(payload):
    """The isinstance walker ``payload_bits`` has always been defined by."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length())
    if isinstance(payload, (str, bytes)):
        return 8 * len(payload)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(walker_bits(item) for item in payload) + 2
    if isinstance(payload, dict):
        return sum(walker_bits(k) + walker_bits(v)
                   for k, v in payload.items()) + 2
    return 8 * len(repr(payload))


class Label(str):
    """A ``str`` subclass: equal to its text, yet not exactly a ``str``."""


#: Tags that compare equal across types (``1 == True == 1.0``) and tags
#: the memo must never hold.
ACCOUNTING_TAGS = [("b", 1), ("b", True), ("b", 1.0), ("b", Label("s")),
                   ("b", "s"), (("b",), 1), (), "plain"]


def test_accounting_charges_each_tag_exactly():
    n = 4
    body_parts = (-5, True, None, 2.5, "xy", Label("ab"), [1, (2,)],
                  {3: "c"}, frozenset({4}), b"zz", 2 ** 70)

    def proc(ctx):
        for round_no in (1, 2):
            # The second round reverses the order, so every one of the
            # equal-comparing tags is charged first in some round.
            tags = ACCOUNTING_TAGS if round_no == 1 else ACCOUNTING_TAGS[::-1]
            sends = []
            for tag in tags:
                sends += ctx.broadcast(tag, (ctx.pid, round_no) + body_parts)
            sends.append(ctx.send((ctx.pid + 1) % n, ("b", True), round_no))
            sends.append(Broadcast(ctx.pid, ("malformed", 1, 2)))
            yield sends

    result = run_protocol(n, 0, [], proc)

    envelopes = []
    for round_no in (1, 2):
        tags = ACCOUNTING_TAGS if round_no == 1 else ACCOUNTING_TAGS[::-1]
        for pid in range(n):
            for tag in tags:
                payload = (tag, (pid, round_no) + body_parts)
                envelopes += [Envelope(pid, j, payload) for j in range(n)]
            envelopes.append(Envelope(pid, (pid + 1) % n,
                                      (("b", True), round_no)))
            envelopes += [Envelope(pid, j, ("malformed", 1, 2))
                          for j in range(n)]
    metrics = result.metrics
    assert metrics.honest_messages == len(envelopes)
    assert metrics.honest_bits == sum(walker_bits(e.payload) for e in envelopes)
    per_process = Counter(e.sender for e in envelopes)
    per_component = Counter(_component_of(e.payload) for e in envelopes)
    assert list(metrics.per_process.items()) == list(per_process.items())
    assert list(metrics.per_component.items()) == list(per_component.items())
    # ("b", 1) and ("b", True) must be told apart.
    assert {"b:1", "b:True", "b", "b:s", "<untagged>", "plain"} <= set(per_component)


#: Bytes that change a digest's ``repr``: its quote choice, escapes, and
#: the ``\x..`` form of control and high bytes.
REPR_BYTES = b"'\"\\\n\x7f\x80\xa7\xff"


@st.composite
def digests(draw):
    digest = bytearray(draw(st.binary(min_size=32, max_size=32)))
    forced = draw(st.lists(st.sampled_from(REPR_BYTES), min_size=1, max_size=8))
    for byte in forced:
        digest[draw(st.integers(0, 31))] = byte
    return bytes(digest)


SIGNERS = st.one_of(st.integers(min_value=-(2 ** 70), max_value=-1), st.just(0),
                    st.integers(0, 200),
                    st.integers(min_value=2 ** 64 + 1, max_value=2 ** 200))


@settings(max_examples=300, deadline=None)
@given(SIGNERS, digests())
def test_signature_charged_as_its_repr(signer, digest):
    sig = Signature(signer, digest)
    assert signature_repr_len(sig) == len(repr(sig))
    assert payload_bits(sig) == 8 * len(repr(sig))
    assert payload_bits((("t",), (signer, sig))) == walker_bits((("t",), (signer, sig)))


class NamedSignature(Signature):
    """A subclass: its ``repr`` carries its own class name."""


def test_other_signatures_are_walked(monkeypatch):
    walked = []
    walk = metrics_module._walk_bits

    def spy(payload):
        walked.append(payload)
        return walk(payload)

    monkeypatch.setattr(metrics_module, "_walk_bits", spy)
    digest = b"\x00'\"" * 8
    others = [NamedSignature(3, digest), Signature(True, digest),
              Signature("3", digest), Signature(3, "digest")]
    for sig in others:
        assert signature_repr_len(sig) is None
        assert payload_bits(sig) == 8 * len(repr(sig))
    assert walked == others
