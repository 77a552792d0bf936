"""Broadcast-once delivery is envelope-for-envelope the expanded delivery.

The engine keeps each honest broadcast as one object: accounting counts it
``n`` times, every honest inbox reads it through one shared per-round tag
index, and the adversary's view expands it on demand.  The reference here
is the per-envelope engine it replaced: every broadcast expanded to ``n``
envelopes, each recipient's inbox its honest envelopes in send order
followed by the adversary's, read by the plain ``by_tag`` loops below.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.adversary import ScriptedAdversary
from repro.core.api import run_protocol
from repro.net import Broadcast, Envelope, by_tag, by_tag_all
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

    def probe(ctx):
        inbox = yield sends[ctx.pid]
        return (list(inbox), len(inbox),
                [by_tag(inbox, tag) for tag in QUERIES],
                [by_tag_all(inbox, tag) for tag in QUERIES])

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
        got_list, got_len, got_first, got_all = result.decisions[pid]
        assert got_list == old_inbox
        assert got_len == len(old_inbox)
        assert got_first == [reference_by_tag(old_inbox, tag) for tag in QUERIES]
        assert got_all == [reference_by_tag_all(old_inbox, tag) for tag in QUERIES]

    metrics = result.metrics
    assert metrics.honest_messages == len(honest_env)
    assert metrics.honest_bits == sum(payload_bits(e.payload) for e in honest_env)
    assert metrics.per_round == [len(honest_env)]
    per_process = Counter(e.sender for e in honest_env)
    per_component = Counter(_component_of(e.payload) for e in honest_env)
    # Insertion order too: summaries emit these counters as dicts.
    assert list(metrics.per_process.items()) == list(per_process.items())
    assert list(metrics.per_component.items()) == list(per_component.items())
