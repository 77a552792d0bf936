"""Unit tests for the synchronous round engine and composition helpers."""

import dataclasses

import pytest

from repro.adversary import GhostRunner
from repro.core.api import run_protocol
from repro.net import (
    Adversary,
    Broadcast,
    Envelope,
    Idle,
    Network,
    SimulationTimeout,
    Tracer,
    by_tag,
    idle,
    run_exactly,
    tagged,
)
from repro.net import engine
from repro.net.adversary import AdversaryView, AdversaryWorld
from repro.net.metrics import payload_bits

from helpers import round_view, run_sub


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


def napping(sleep):
    """Broadcast, nap ``pid + 1`` rounds -- one ``Idle`` when ``sleep``,
    else that many ``yield []`` -- then broadcast again; return what the
    nap was resumed with and what each broadcast round delivered."""

    def protocol(ctx):
        inbox = yield ctx.broadcast(("a",), ctx.pid)
        seen = [by_tag(inbox, ("a",))]
        naps = ctx.pid + 1
        if sleep:
            seen.append((yield Idle(naps)))
        else:
            for _ in range(naps):
                yield []
            seen.append(None)
        inbox = yield ctx.broadcast(("b",), ctx.pid)
        seen.append(by_tag(inbox, ("b",)))
        return seen

    return protocol


class Clock(Adversary):
    """Records each round it is stepped in, and the honest ``("b",)``
    senders of that round; injects one envelope to process 0."""

    def bind(self, world):
        super().bind(world)
        self.rounds, self.b_senders = [], {}

    def step(self, view):
        self.rounds.append(view.round_no)
        for send in view.honest_sends:
            if send.tag() == ("b",):
                self.b_senders.setdefault(view.round_no, []).append(send.sender)
        return [Envelope(3, 0, tagged(("x",), view.round_no))]


class TestSleep:
    def test_idle_equals_padding_with_empty_yields(self):
        runs = {}
        for sleep in (False, True):
            adversary, tracer = Clock(), Tracer()
            result = run_protocol(4, 1, [3], napping(sleep), adversary,
                                  observer=tracer)
            metrics = result.metrics
            runs[sleep] = (
                result.decisions, metrics.summary(), metrics.per_round,
                list(metrics.per_process.items()),
                list(metrics.per_component.items()),
                list(metrics.decision_round.items()),
                adversary.rounds, adversary.b_senders, tracer.rounds,
            )
        assert runs[True] == runs[False]
        # Sends after an Idle(k) taken after round 1 land in round k + 2.
        assert adversary.b_senders == {3: [0], 4: [1], 5: [2]}

    def test_sleeper_is_resumed_with_none_only_when_it_wakes(self, monkeypatch):
        adversary, resumes = Clock(), []
        resume = engine._HonestDriver.resume

        def spy(driver, inbox):
            resumes.append((driver.pid, adversary.rounds[-1], type(inbox).__name__))
            return resume(driver, inbox)

        monkeypatch.setattr(engine._HonestDriver, "resume", spy)
        result = run_protocol(4, 1, [3], napping(True), adversary)
        assert [(r, kind) for pid, r, kind in resumes if pid == 1] == [
            (1, "Inbox"), (3, "NoneType"), (4, "Inbox")]
        assert [(r, kind) for pid, r, kind in resumes if pid == 2] == [
            (1, "Inbox"), (4, "NoneType"), (5, "Inbox")]
        assert result.decisions[2][1] is None

    def test_round_nobody_listens_to_still_counts(self):
        def protocol(ctx):
            yield Idle(3)
            return "up"

        adversary, tracer = Clock(), Tracer()
        result = run_protocol(4, 1, [3], protocol, adversary, observer=tracer)
        assert result.rounds == 3
        assert result.metrics.per_round == [0, 0, 0]
        assert adversary.rounds == [1, 2, 3]
        assert [(r.round_no, r.faulty_messages) for r in tracer.rounds] == [
            (1, 1), (2, 1), (3, 1)]
        assert tracer.decision_rounds() == {0: 3, 1: 3, 2: 3}
        assert set(result.decisions.values()) == {"up"}

    def test_run_exactly_counts_an_inner_idle_as_its_rounds(self):
        def sub(ctx):
            yield Idle(2)
            inbox = yield ctx.broadcast(("s",), ctx.pid)
            return len(by_tag(inbox, ("s",)))

        def outer(ctx):
            result = yield from run_exactly(5, sub(ctx), "fb")
            inbox = yield ctx.broadcast(("after",), ctx.pid)
            return result, len(by_tag(inbox, ("after",)))

        tracer = Tracer()
        result = run_protocol(2, 0, [], outer, observer=tracer)
        assert result.rounds == 6
        assert set(result.decisions.values()) == {((2, True), 2)}
        assert [r.round_no for r in tracer.rounds if r.honest_messages] == [3, 6]

    @pytest.mark.parametrize("nap, outcome", [
        (3, ("woke", True)),     # wakes on the budget's last round
        (10, ("fb", False)),     # would run past the budget: cut, closed
    ])
    def test_run_exactly_cuts_an_inner_idle_to_the_budget(self, nap, outcome):
        closed = []

        def sub():
            try:
                yield []
                yield Idle(nap)
                return "woke"
            finally:
                closed.append(True)

        gen = run_exactly(4, sub(), "fb")
        assert gen.send(None) == []
        assert gen.send([]) == Idle(3)
        assert not closed
        with pytest.raises(StopIteration) as stop:
            gen.send(None)
        assert stop.value.value == outcome
        assert closed == [True]

    @pytest.mark.parametrize("sub_rounds", [0, 1])
    def test_run_exactly_pads_with_one_idle(self, sub_rounds):
        def sub():
            for _ in range(sub_rounds):
                yield []
            return "done"

        gen = run_exactly(5, sub(), "fb")
        yields = [gen.send(None)]
        with pytest.raises(StopIteration) as stop:
            while True:
                yields.append(gen.send(None if type(yields[-1]) is Idle else []))
        assert yields == [[]] * sub_rounds + [Idle(5 - sub_rounds)]
        assert stop.value.value == ("done", True)

    def test_idle_rejects_fewer_than_one_round(self):
        with pytest.raises(ValueError, match="rounds >= 1"):
            Idle(0)

    def test_ghost_runner_skips_a_sleeping_ghost(self):
        received = []

        def ghost(ctx):
            received.append((yield [ctx.send(0, ("a",), 1)]))
            received.append((yield Idle(3)))
            yield [ctx.send(0, ("b",), 2)]

        world = AdversaryWorld(n=2, t=1, faulty_ids=frozenset({1}))
        runner = GhostRunner(world, [1], factory=ghost)
        to_ghost = [Envelope(0, 1, tagged(("x",), 0))]
        steps = [runner.start()] + [
            runner.step(round_view(2, [1], {0: to_ghost})) for _ in range(5)]
        # Idle(3) yielded in step 1: steps 2 and 3 skip the ghost, step 4
        # resumes it with None, and step 5 delivers to it again.
        assert [[env.body() for env in out] for out in steps] == [
            [1], [], [], [], [2], []]
        assert [None if inbox is None else list(inbox)
                for inbox in received] == [to_ghost, None]


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

    def test_messages_keep_their_dataclass_semantics(self):
        env = Envelope(1, 2, tagged(("t",), 3))
        assert env == Envelope(sender=1, recipient=2, payload=(("t",), 3))
        assert hash(env) == hash(Envelope(1, 2, (("t",), 3)))
        assert repr(env) == "Envelope(sender=1, recipient=2, payload=(('t',), 3))"
        assert dataclasses.replace(env, recipient=0) == Envelope(1, 0, (("t",), 3))
        cast = Broadcast(1, "p")
        assert repr(cast) == "Broadcast(sender=1, payload='p')"
        assert dataclasses.replace(cast, sender=2) == Broadcast(2, "p")
        for message in (env, cast):
            assert not hasattr(message, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                message.sender = 0

    def test_envelope_tag_body_malformed(self):
        assert Envelope(0, 1, 42).tag() is None
        assert Envelope(0, 1, 42).body() is None
