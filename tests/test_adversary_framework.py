"""Unit tests for the adversary framework: ghosts, mutators, strategies."""

import hashlib
import json
import random
from collections import Counter

import pytest

from repro.adversary import (
    CrashAdversary,
    EchoAdversary,
    GhostHonestAdversary,
    GhostRunner,
    RandomNoiseAdversary,
    ScriptedAdversary,
    SilentAdversary,
    inverted_prediction_mutator,
)
from repro.adversary.registry import adversary_names
from repro.core import api as core_api
from repro.core.wrapper import MODES
from repro.crypto.keys import KeyStore
from repro.gradecast import graded_consensus
from repro.net.adversary import AdversaryView, AdversaryWorld
from repro.net.engine import Network
from repro.net.message import Broadcast, Envelope, tagged
from repro.runtime.execute import execute_spec
from repro.runtime.scenario import ScenarioSpec

from helpers import assert_agreement, round_view, run_sub

TAG = ("gc",)


def gc_factory(values):
    def factory(ctx):
        return graded_consensus(ctx, TAG, values[ctx.pid])

    return factory


def gc_builder(values):
    return lambda ctx, v: graded_consensus(ctx, TAG, v)


class TestGhostRunner:
    def make_world(self, n=5, faulty=(3, 4), values=None):
        values = values or [0] * n
        return AdversaryWorld(
            n=n,
            t=1,
            faulty_ids=frozenset(faulty),
            scenario={
                "protocol_factory": gc_factory(values),
                "protocol_builder": gc_builder(values),
            },
        )

    def test_ghosts_produce_honest_traffic(self):
        world = self.make_world()
        runner = GhostRunner(world, world.faulty_ids)
        outgoing = runner.start()
        # Two ghosts broadcasting to 3 external (honest) recipients each.
        assert len(outgoing) == 2 * 3
        assert all(env.sender in world.faulty_ids for env in outgoing)
        assert all(env.recipient not in world.faulty_ids for env in outgoing)

    def test_internal_routing_between_ghosts(self):
        world = self.make_world()
        runner = GhostRunner(world, world.faulty_ids)
        runner.start()
        # Ghost-to-ghost messages are held, binned by recipient.
        assert {pid: len(envs) for pid, envs in runner._internal.items()} == {
            3: 2, 4: 2}
        outgoing = runner.step(round_view(5, world.faulty_ids, {}))
        # Ghosts got each other's round-1 messages internally; with only 2
        # votes they cannot lock, so round 2 is silent.
        assert outgoing == []

    def test_step_delivers_each_ghost_its_envelopes_in_order(self):
        world = self.make_world()
        inboxes = {}

        def record(ctx):
            inboxes[ctx.pid] = yield [ctx.send(j, ("r",), ctx.pid)
                                      for j in (4, 3, 0)]

        runner = GhostRunner(world, world.faulty_ids, factory=record)
        runner.start()
        vote = Broadcast(1, (("b",), 1))
        runner.step(round_view(5, world.faulty_ids, {
            0: [Envelope(0, 4, "a"), Envelope(0, 3, "d")],
            1: [vote],
            2: [Envelope(2, 4, "c")],
        }))
        # The round's honest envelopes first, then ghost-to-ghost, each
        # in send order.
        assert list(inboxes[3]) == [
            Envelope(0, 3, "d"), Envelope(1, 3, vote.payload),
            Envelope(3, 3, (("r",), 3)), Envelope(4, 3, (("r",), 4))]
        assert list(inboxes[4]) == [
            Envelope(0, 4, "a"), Envelope(1, 4, vote.payload),
            Envelope(2, 4, "c"),
            Envelope(3, 4, (("r",), 3)), Envelope(4, 4, (("r",), 4))]

    def test_input_overrides_via_builder(self):
        world = self.make_world()
        runner = GhostRunner(
            world, world.faulty_ids, inputs={3: "a", 4: "b"}
        )
        outgoing = runner.start()
        bodies = {env.sender: env.body() for env in outgoing}
        assert bodies[3] == "a" and bodies[4] == "b"

    def test_requires_some_factory(self):
        world = AdversaryWorld(n=3, t=1, faulty_ids=frozenset({2}))
        with pytest.raises(ValueError, match="factory"):
            GhostRunner(world, {2})

    def test_input_override_requires_builder(self):
        world = self.make_world()
        del world.scenario["protocol_builder"]
        with pytest.raises(ValueError, match="protocol_builder"):
            GhostRunner(world, world.faulty_ids, inputs={3: 1})


#: Rows of ghost-backed scenarios, recorded before ``GhostRunner.step``
#: binned its inbox by recipient in one pass.
GHOST_ROWS = [
    (dict(n=13, t=4, f=4, budget=13, mode="unauthenticated", adversary="split"),
     {"B": 13, "B/n": 1.0, "adversary": "split", "agreed": True,
      "bits": 403221, "budget": 13, "decision": 0, "f": 4,
      "generator": "concentrated", "lb_rounds": 2, "lemma1_kA_bound": 4,
      "messages": 4420, "mode": "unauthenticated", "n": 13,
      "pattern": "split", "rounds": 98,
      "scenario": "ec1d84f91e554a78933a523379b213a19d3529f4c7ec71f38f7302c76d045e91",
      "schema": 1, "seed": 0, "t": 4, "valid": True}),
    (dict(n=13, t=4, f=4, budget=13, mode="authenticated", adversary="liar"),
     {"B": 13, "B/n": 1.0, "adversary": "liar", "agreed": True,
      "bits": 13916842, "budget": 13, "decision": 0, "f": 4,
      "generator": "concentrated", "lb_rounds": 2, "lemma1_kA_bound": 4,
      "messages": 3829, "mode": "authenticated", "n": 13,
      "pattern": "split", "rounds": 67,
      "scenario": "37f64b026ef740eda2ce075da50203f0342f3c33d9d94f015c34845e535be960",
      "schema": 1, "seed": 0, "t": 4, "valid": True}),
]


@pytest.mark.parametrize("spec, row", GHOST_ROWS,
                         ids=[spec["adversary"] for spec, _ in GHOST_ROWS])
def test_ghost_backed_rows_are_unchanged(spec, row):
    assert execute_spec(ScenarioSpec(**spec)) == row


#: sha256 of the rows of every registered adversary in both modes over
#: n in {4, 7, 10} (t = f = (n - 1) // 3), B in {0, n}, the split and ones
#: patterns and seed 0: 168 executions.  The benchmark lists run only
#: silent, stalling and noise, so this pins the paths they skip (ghosts,
#: echo, mutating).  Re-record it only with a change that means to alter
#: rows, and say so.
ALL_ADVERSARY_ROWS_SHA256 = (
    "de723bf8f8fbc40d724f5bfb974e4bfe1a5f1590640f044d9591d41f75b0284c")


def test_rows_of_every_registered_adversary_are_unchanged():
    assert adversary_names() == [
        "echo", "liar", "mutating", "noise", "silent", "split", "stalling"]
    rows = [
        execute_spec(ScenarioSpec(
            n=n, t=(n - 1) // 3, f=(n - 1) // 3, budget=budget, mode=mode,
            adversary=adversary, pattern=pattern, seed=0))
        for mode in MODES
        for adversary in adversary_names()
        for n in (4, 7, 10)
        for budget in (0, n)
        for pattern in ("split", "ones")
    ]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == (
        ALL_ADVERSARY_ROWS_SHA256)


def test_reference_delivery_gives_the_same_rows(monkeypatch):
    """Shared reads change no row.

    The reference hands every honest process and every ghost a plain
    list of its envelopes, so no read is shared, and builds
    ``KeyStore(cache=False)``, so the key store's memo tables are off.
    Over n in {4, 7}, both modes, every registered adversary, B in
    {0, n}, the split and ones patterns and seed 0 (112 executions) its
    rows must equal the normal path's.  This catches the mutant that
    ignores a view's own pairs and hands every recipient the honest-only
    result: it changes 45 of these 112 rows (288 of 672 on a grid that
    adds n in {5, 10}, the alternating pattern and seed 1).  A mutant
    that keys own pairs by equality instead of identity passes here,
    since no registered adversary sends equal but distinct bodies;
    ``tests/test_inbox.py``'s identity test catches that one.
    """
    specs = [
        ScenarioSpec(n=n, t=(n - 1) // 3, f=(n - 1) // 3, budget=budget,
                     mode=mode, adversary=adversary, pattern=pattern, seed=0)
        for mode in MODES
        for adversary in adversary_names()
        for n in (4, 7)
        for budget in (0, n)
        for pattern in ("split", "ones")
    ]
    fast = [execute_spec(spec) for spec in specs]

    plain = Counter()
    deliver, ghost_inbox = Network._deliver, AdversaryView.inbox

    def listed_deliver(self, *args):
        plain["honest"] += 1
        return {pid: list(inbox) for pid, inbox in deliver(self, *args).items()}

    def listed_ghost_inbox(self, pid, extra=()):
        plain["ghost"] += 1
        return list(ghost_inbox(self, pid, extra))

    def uncached_keystore(n, seed=0, cache=True):
        plain["keystore"] += 1
        return KeyStore(n, seed=seed, cache=False)

    monkeypatch.setattr(Network, "_deliver", listed_deliver)
    monkeypatch.setattr(AdversaryView, "inbox", listed_ghost_inbox)
    monkeypatch.setattr(core_api, "KeyStore", uncached_keystore)
    reference = [execute_spec(spec) for spec in specs]
    assert all(plain[path] for path in ("honest", "ghost", "keystore")), plain
    assert len(specs) == 112
    assert reference == fast


class TestCrashAdversary:
    def run_with(self, adversary, n=6, faulty=(4, 5)):
        values = [1] * n
        return run_sub(
            n, 2, list(faulty), gc_factory(values), adversary=adversary,
            scenario={"protocol_builder": gc_builder(values)},
        )

    def test_crash_before_start_equals_silent(self):
        result = self.run_with(CrashAdversary({4: 1, 5: 1}))
        assert_agreement(result)

    def test_crash_later_sends_early_rounds(self):
        seen = []

        class Probe(CrashAdversary):
            def filter_outgoing(self, outgoing, view):
                kept = super().filter_outgoing(outgoing, view)
                seen.append((view.round_no, len(kept)))
                return kept

        self.run_with(Probe({4: 2, 5: 2}))
        by_round = dict(seen)
        assert by_round[1] > 0  # round 1 traffic flows
        assert by_round[2] == 0  # crashed at round 2

    def test_mid_crash_cutoff_partial_broadcast(self):
        seen = []

        class Probe(CrashAdversary):
            def filter_outgoing(self, outgoing, view):
                kept = super().filter_outgoing(outgoing, view)
                if view.round_no == 1:
                    seen.extend(env.recipient for env in kept)
                return kept

        self.run_with(Probe({4: 1, 5: 1}, mid_crash_cutoff=2))
        assert seen and all(recipient < 2 for recipient in seen)


class TestMutators:
    def test_inverted_prediction_mutator_only_touches_classify(self):
        mutator = inverted_prediction_mutator()
        world = AdversaryWorld(n=4, t=1, faulty_ids=frozenset({3}))
        classify_env = Envelope(3, 0, tagged(("classify",), (1, 1, 1, 1)))
        other_env = Envelope(3, 0, tagged(("gc", "r1"), 1))
        mutated = mutator(classify_env, world, 1)
        assert mutated.body() == (0, 0, 0, 1)  # faulty claimed honest
        assert mutator(other_env, world, 1) is other_env

    def test_ghost_honest_with_dropping_mutator(self):
        def drop_everything(env, world, round_no):
            return None

        values = [2] * 6
        result = run_sub(
            6, 1, [5], gc_factory(values),
            adversary=GhostHonestAdversary([drop_everything]),
            scenario={"protocol_builder": gc_builder(values)},
        )
        assert_agreement(result)

    def test_mutator_chain_applies_in_order(self):
        calls = []

        def first(env, world, round_no):
            calls.append("first")
            return env

        def second(env, world, round_no):
            calls.append("second")
            return None

        def third(env, world, round_no):  # must never run after a drop
            calls.append("third")
            return env

        values = [0] * 4
        run_sub(
            4, 1, [3], gc_factory(values),
            adversary=GhostHonestAdversary([first, second, third]),
            scenario={"protocol_builder": gc_builder(values)},
        )
        assert "first" in calls and "second" in calls
        assert "third" not in calls


class TestSimpleStrategies:
    def test_silent_sends_nothing(self):
        adversary = SilentAdversary()
        adversary.bind(AdversaryWorld(n=3, t=1, faulty_ids=frozenset({2})))
        view = AdversaryView(round_no=1, honest_outgoing=[], inbox_to_faulty=[])
        assert adversary.step(view) == []

    def test_echo_replays_last_honest_payload(self):
        adversary = EchoAdversary()
        adversary.bind(AdversaryWorld(n=3, t=1, faulty_ids=frozenset({2})))
        env = Envelope(0, 1, tagged(("x",), 9))
        view = AdversaryView(round_no=1, honest_outgoing=[env], inbox_to_faulty=[])
        produced = adversary.step(view)
        assert len(produced) == 3
        assert all(e.payload == env.payload for e in produced)
        assert all(e.sender == 2 for e in produced)

    def test_echo_silent_before_any_traffic(self):
        adversary = EchoAdversary()
        adversary.bind(AdversaryWorld(n=3, t=1, faulty_ids=frozenset({2})))
        view = AdversaryView(round_no=1, honest_outgoing=[], inbox_to_faulty=[])
        assert adversary.step(view) == []

    def test_scripted_gets_view_and_world(self):
        captured = {}

        def script(view, world):
            captured["round"] = view.round_no
            captured["faulty"] = world.faulty_ids
            return []

        values = [1] * 4
        run_sub(
            4, 1, [3], gc_factory(values),
            adversary=ScriptedAdversary(script),
        )
        assert captured["round"] >= 1
        assert captured["faulty"] == frozenset({3})


class RandrangeNoise:
    """:class:`RandomNoiseAdversary`'s draws spelled with ``randrange``:
    the reference its random stream must follow."""

    def __init__(self, seed, n, faulty, messages_per_faulty=4):
        self.rng = random.Random(seed)
        self.n, self.faulty = n, faulty
        self.messages_per_faulty = messages_per_faulty

    def junk(self):
        choice = self.rng.randrange(6)
        if choice == 0:
            return self.rng.randrange(1_000_000)
        if choice == 1:
            return ("classify",), tuple(
                self.rng.randrange(2) for _ in range(self.n))
        if choice == 2:
            return (("ba", 1, "gc1", "r1"), self.rng.randrange(2))
        if choice == 3:
            return None
        if choice == 4:
            return ("x" * self.rng.randrange(1, 8), [1, 2, {3: 4}])
        return ((), ())

    def step(self):
        outgoing = []
        for pid in sorted(self.faulty):
            for _ in range(self.messages_per_faulty):
                recipient = self.rng.randrange(self.n)
                outgoing.append(Envelope(pid, recipient, self.junk()))
        return outgoing


@pytest.mark.parametrize("n", [4, 7, 13, 21, 100])
def test_noise_stream_equals_randrange_reference(n):
    t = (n - 1) // 3
    faulty = frozenset(range(n - t, n))
    world = AdversaryWorld(n=n, t=t, faulty_ids=faulty)
    view = AdversaryView(round_no=1, honest_outgoing=[], inbox_to_faulty=[])
    for seed in range(100):
        adversary = RandomNoiseAdversary(seed=seed)
        adversary.bind(world)
        reference = RandrangeNoise(seed, n, faulty)
        for _ in range(3):
            assert adversary.step(view) == reference.step()
        assert adversary.rng.getstate() == reference.rng.getstate()
