"""Unit tests for the synchronous round engine and composition helpers."""

import pytest

from repro.net import (
    Adversary,
    Broadcast,
    Envelope,
    Network,
    SimulationTimeout,
    by_tag,
    idle,
    run_exactly,
    run_parallel,
    tagged,
)
from repro.net.adversary import AdversaryView
from repro.net.metrics import payload_bits

from helpers import run_sub


def echo_once(ctx):
    """Broadcast own pid; return the sorted set of pids heard."""
    inbox = yield ctx.broadcast(("echo",), ctx.pid)
    return tuple(sorted(body for _, body in by_tag(inbox, ("echo",))))


class TestDelivery:
    def test_same_round_delivery_including_self(self):
        result = run_sub(4, 1, [], echo_once)
        assert all(v == (0, 1, 2, 3) for v in result.decisions.values())

    def test_faulty_processes_silent_by_default(self):
        result = run_sub(4, 1, [3], echo_once)
        assert all(v == (0, 1, 2) for v in result.decisions.values())

    def test_rounds_counted_exactly(self):
        result = run_sub(3, 0, [], echo_once)
        assert result.rounds == 1
        assert result.metrics.rounds_to_last_decision == 1

    def test_two_round_protocol_counts_two_rounds(self):
        def two_rounds(ctx):
            yield ctx.broadcast(("a",), 1)
            inbox = yield ctx.broadcast(("b",), 2)
            return len(inbox)

        result = run_sub(3, 0, [], two_rounds)
        assert result.rounds == 2

    def test_messages_counted_only_for_honest(self):
        class Chatty(Adversary):
            def step(self, view):
                return [Envelope(3, 0, tagged(("x",), 0))] * 5

        result = run_sub(4, 1, [3], echo_once, adversary=Chatty())
        assert result.messages == 3 * 4  # three honest broadcasters

    def test_decision_round_recorded_per_process(self):
        def staggered(ctx):
            yield []
            if ctx.pid == 0:
                return "early"
            yield []
            return "late"

        result = run_sub(2, 0, [], staggered)
        assert result.metrics.decision_round[0] == 1
        assert result.metrics.decision_round[1] == 2


class TestValidation:
    def test_adversary_cannot_spoof_honest_sender(self):
        class Spoofer(Adversary):
            def step(self, view):
                return [Envelope(0, 1, "forged")]

        with pytest.raises(ValueError, match="spoof"):
            run_sub(4, 1, [3], echo_once, adversary=Spoofer())

    def test_honest_process_cannot_missend(self):
        def bad(ctx):
            yield [Envelope(ctx.pid + 1, 0, "oops")]

        with pytest.raises(ValueError, match="tried to send"):
            run_sub(3, 0, [], bad)

    def test_honest_process_cannot_broadcast_as_another(self):
        def bad(ctx):
            yield [Broadcast((ctx.pid + 1) % ctx.n, tagged(("t",), "oops"))]

        with pytest.raises(ValueError, match="tried to send"):
            run_sub(3, 0, [], bad)

    def test_invalid_recipient_rejected(self):
        def bad(ctx):
            yield [Envelope(ctx.pid, 99, "oops")]

        with pytest.raises(ValueError, match="recipient"):
            run_sub(3, 0, [], bad)

    def test_timeout_guard(self):
        def forever(ctx):
            while True:
                yield []

        with pytest.raises(SimulationTimeout):
            run_sub(2, 0, [], forever, max_rounds=10)


class TestAdversaryView:
    def test_rushing_adversary_sees_honest_round_traffic(self):
        seen = {}

        class Peek(Adversary):
            def step(self, view):
                if view.round_no == 1:
                    seen["bodies"] = sorted(
                        e.body() for e in view.honest_outgoing
                    )
                    seen["to_me"] = len(view.messages_to(3))
                return []

        run_sub(4, 1, [3], echo_once, adversary=Peek())
        assert seen["bodies"] == [0] * 4 + [1] * 4 + [2] * 4
        assert seen["to_me"] == 3

    def test_adversary_message_influences_same_round(self):
        class Inject(Adversary):
            def step(self, view):
                return [
                    Envelope(2, pid, tagged(("echo",), 2))
                    for pid in range(3)
                ]

        result = run_sub(3, 1, [2], echo_once, adversary=Inject())
        assert all(v == (0, 1, 2) for v in result.decisions.values())


class TestCompositionHelpers:
    def test_run_exactly_pads_early_finisher(self):
        def outer(ctx):
            result, done = yield from run_exactly(5, echo_once(ctx), "fb")
            return (result, done)

        result = run_sub(3, 0, [], outer)
        assert result.rounds == 5
        assert all(v == ((0, 1, 2), True) for v in result.decisions.values())

    def test_run_exactly_aborts_late_finisher(self):
        def slow(ctx):
            for _ in range(10):
                yield []
            return "finished"

        def outer(ctx):
            result, done = yield from run_exactly(3, slow(ctx), "fallback")
            return (result, done)

        result = run_sub(2, 0, [], outer)
        assert result.rounds == 3
        assert all(v == ("fallback", False) for v in result.decisions.values())

    def test_run_exactly_zero_rounds(self):
        def outer(ctx):
            result, done = yield from run_exactly(0, echo_once(ctx), None)
            inbox = yield ctx.broadcast(("t",), 1)
            return (result, done, len(by_tag(inbox, ("t",))))

        result = run_sub(2, 0, [], outer)
        assert all(v == (None, False, 2) for v in result.decisions.values())

    def test_idle_consumes_rounds_silently(self):
        def outer(ctx):
            yield from idle(4)
            return "done"

        result = run_sub(2, 0, [], outer)
        assert result.rounds == 4
        assert result.messages == 0

    def test_run_parallel_merges_and_filters(self):
        def tagged_echo(ctx, tag):
            inbox = yield ctx.broadcast(tag, ctx.pid)
            return tuple(sorted(b for _, b in by_tag(inbox, tag)))

        def outer(ctx):
            results = yield from run_parallel(
                [tagged_echo(ctx, ("a",)), tagged_echo(ctx, ("b",))]
            )
            return tuple(results)

        result = run_sub(3, 0, [], outer)
        expected = ((0, 1, 2), (0, 1, 2))
        assert all(v == expected for v in result.decisions.values())

    def test_run_parallel_uneven_lengths(self):
        def short(ctx):
            yield []
            return "s"

        def long(ctx):
            for _ in range(3):
                yield []
            return "l"

        def outer(ctx):
            results = yield from run_parallel([short(ctx), long(ctx)])
            return tuple(results)

        result = run_sub(2, 0, [], outer)
        assert result.rounds == 3
        assert all(v == ("s", "l") for v in result.decisions.values())


class TestMessageHelpers:
    def test_by_tag_dedupes_per_sender(self):
        inbox = [
            Envelope(1, 0, tagged(("t",), "first")),
            Envelope(1, 0, tagged(("t",), "second")),
            Envelope(2, 0, tagged(("t",), "x")),
            Envelope(2, 0, tagged(("u",), "other-tag")),
            Envelope(3, 0, "malformed"),
        ]
        got = by_tag(inbox, ("t",))
        assert got == [(1, "first"), (2, "x")]

    def test_payload_bits_monotone_in_size(self):
        small = payload_bits(tagged(("t",), (0, 1)))
        large = payload_bits(tagged(("t",), tuple(range(100))))
        assert large > small

    def test_envelope_tag_body_malformed(self):
        assert Envelope(0, 1, 42).tag() is None
        assert Envelope(0, 1, 42).body() is None
