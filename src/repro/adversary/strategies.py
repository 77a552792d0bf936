"""Byzantine adversary strategies.

Each strategy personifies all faulty processes (see
:mod:`repro.net.adversary`).  The library ships the attack families the
paper's analyses quantify over:

* :class:`SilentAdversary` -- crash at time zero (weakest; also the default).
* :class:`CrashAdversary` -- behave honestly, then crash at chosen rounds,
  optionally mid-broadcast (classic crash-failure semantics).
* :class:`GhostHonestAdversary` -- run the honest protocol but pass every
  outgoing envelope through mutators (drop / replace / redirect), the
  scaffold for targeted deviations.
* :class:`SplitWorldAdversary` -- the classic equivocation attack: behave
  like an honest process with input ``v0`` toward one half of the honest
  processes and input ``v1`` toward the other half.
* :class:`PredictionLiarAdversary` -- honest-looking except the
  classification vote, where it broadcasts adversarial prediction vectors
  (inverted truth by default) to maximize classification divergence.
* :class:`RandomNoiseAdversary` -- seeded random garbage, stress-testing
  untrusted-input handling in every protocol parser.
* :class:`MutatingAdversary` -- replays honest payloads verbatim *and* as
  mutable clones it keeps mutating in place after sending, probing the
  verification caches' immutability gate (see :mod:`repro.perf`) in full
  executions rather than only unit tests.
* :class:`ScriptedAdversary` -- run an arbitrary per-round callable; used
  by the lower-bound constructions and targeted protocol tests.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..net.adversary import Adversary, AdversaryView, AdversaryWorld
from ..net.message import Envelope
from .ghost import GhostRunner


class SilentAdversary(Adversary):
    """Faulty processes send nothing at all."""


class _GhostBackedAdversary(Adversary):
    """Shared plumbing for strategies that run ghost protocol instances."""

    def bind(self, world: AdversaryWorld) -> None:
        super().bind(world)
        self._last_view: Optional[AdversaryView] = None

    def _make_runner(self) -> GhostRunner:
        return GhostRunner(self.world, self.world.faulty_ids)

    def step(self, view: AdversaryView) -> List[Envelope]:
        """Advance the ghosts over the previous round and emit their
        (filtered) outgoing envelopes."""
        if self._last_view is None:
            self._runner = self._make_runner()
            outgoing = self._runner.start()
        else:
            outgoing = self._runner.step(self._last_view)
        self._last_view = view
        return self.filter_outgoing(outgoing, view)

    def filter_outgoing(
        self, outgoing: List[Envelope], view: AdversaryView
    ) -> List[Envelope]:
        """Strategy hook: mutate/drop the ghosts' honest-looking envelopes
        before delivery.  The base implementation passes them through."""
        return outgoing


class GhostHonestAdversary(_GhostBackedAdversary):
    """Faulty processes behave exactly like honest ones, except that each
    outgoing envelope is passed through ``mutators`` in order.

    A mutator is ``(envelope, world, round_no) -> Envelope | None``; ``None``
    drops the envelope.
    """

    def __init__(
        self,
        mutators: Sequence[Callable[[Envelope, AdversaryWorld, int], Optional[Envelope]]] = (),
    ) -> None:
        self.mutators = list(mutators)

    def filter_outgoing(
        self, outgoing: List[Envelope], view: AdversaryView
    ) -> List[Envelope]:
        """Apply every mutator to each envelope; ``None`` drops it."""
        result = []
        for env in outgoing:
            mutated: Optional[Envelope] = env
            for mutator in self.mutators:
                if mutated is None:
                    break
                mutated = mutator(mutated, self.world, view.round_no)
            if mutated is not None:
                result.append(mutated)
        return result


class CrashAdversary(_GhostBackedAdversary):
    """Behave honestly until a per-process crash round, then go silent.

    ``crash_rounds`` maps pid to the round in which it crashes; during the
    crash round only recipients with id below ``mid_crash_cutoff`` still
    receive messages (modelling a crash mid-broadcast).
    """

    def __init__(
        self,
        crash_rounds: Dict[int, int],
        mid_crash_cutoff: int = 0,
    ) -> None:
        self.crash_rounds = dict(crash_rounds)
        self.mid_crash_cutoff = mid_crash_cutoff

    def filter_outgoing(
        self, outgoing: List[Envelope], view: AdversaryView
    ) -> List[Envelope]:
        """Suppress envelopes from processes at or past their crash round."""
        kept = []
        for env in outgoing:
            crash_at = self.crash_rounds.get(env.sender)
            if crash_at is None or view.round_no < crash_at:
                kept.append(env)
            elif view.round_no == crash_at and env.recipient < self.mid_crash_cutoff:
                kept.append(env)
        return kept


class SplitWorldAdversary(Adversary):
    """Equivocate: look honest-with-input-``v0`` to half the honest
    processes and honest-with-input-``v1`` to the rest.

    The two ghost worlds receive identical inboxes (the real messages sent
    to the faulty processes); only the pretended input differs.  This is
    the strongest generic attack on agreement among the classic families.
    """

    def __init__(self, value_a: Any, value_b: Any) -> None:
        self.value_a = value_a
        self.value_b = value_b

    def bind(self, world: AdversaryWorld) -> None:
        """Split the honest processes into the two target halves."""
        super().bind(world)
        honest = world.honest_ids
        half = len(honest) // 2
        self.group_a = frozenset(honest[:half])
        self._last_view: Optional[AdversaryView] = None

    def _start_runners(self) -> None:
        faulty = self.world.faulty_ids
        inputs_a = {pid: self.value_a for pid in faulty}
        inputs_b = {pid: self.value_b for pid in faulty}
        self.runner_a = GhostRunner(self.world, faulty, inputs=inputs_a)
        self.runner_b = GhostRunner(self.world, faulty, inputs=inputs_b)

    def step(self, view: AdversaryView) -> List[Envelope]:
        if self._last_view is None:
            self._start_runners()
            out_a = self.runner_a.start()
            out_b = self.runner_b.start()
        else:
            out_a = self.runner_a.step(self._last_view)
            out_b = self.runner_b.step(self._last_view)
        self._last_view = view
        kept = [env for env in out_a if env.recipient in self.group_a]
        kept.extend(
            env for env in out_b if env.recipient not in self.group_a
        )
        return kept


def inverted_prediction_mutator(
    classify_tag: tuple = ("classify",),
) -> Callable[[Envelope, AdversaryWorld, int], Optional[Envelope]]:
    """Mutator replacing classification votes with the inverted truth.

    The lie depends on the world alone, so it is built once per world and
    every vote carries the same payload object.
    """
    built_for: Optional[AdversaryWorld] = None
    lie: Any = None

    def mutate(
        env: Envelope, world: AdversaryWorld, round_no: int
    ) -> Optional[Envelope]:
        nonlocal built_for, lie
        if env.tag() != classify_tag:
            return env
        if built_for is not world:
            built_for = world
            lie = (classify_tag, tuple(
                1 if j in world.faulty_ids else 0 for j in range(world.n)
            ))
        return Envelope(env.sender, env.recipient, lie)

    return mutate


class PredictionLiarAdversary(GhostHonestAdversary):
    """Honest-looking except for adversarial classification votes."""

    def __init__(self, classify_tag: tuple = ("classify",)) -> None:
        super().__init__([inverted_prediction_mutator(classify_tag)])


class RandomNoiseAdversary(Adversary):
    """Seeded random garbage to random recipients, every round."""

    def __init__(self, seed: int = 0, messages_per_faulty: int = 4) -> None:
        self.rng = random.Random(seed)
        self.messages_per_faulty = messages_per_faulty

    def _below(self, m: int) -> int:
        """``self.rng.randrange(m)`` for ``m > 0``, without its argument
        checks: CPython's ``_randbelow_with_getrandbits`` loop on the same
        ``getrandbits`` stream, so draws and generator state are equal."""
        getrandbits = self.rng.getrandbits
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        return r

    def step(self, view: AdversaryView) -> List[Envelope]:
        # The hot draws are :meth:`_below` spelled inline, on the same
        # ``getrandbits`` calls in the same order: ``randrange(n)`` for the
        # recipient, ``randrange(6)`` for the kind of junk, and n draws of
        # ``randrange(2)`` for a classification vote.
        getrandbits = self.rng.getrandbits
        n = self.world.n
        n_bits = n.bit_length()
        outgoing = []
        for pid in sorted(self.world.faulty_ids):
            for _ in range(self.messages_per_faulty):
                recipient = getrandbits(n_bits)
                while recipient >= n:
                    recipient = getrandbits(n_bits)
                choice = getrandbits(3)
                while choice >= 6:
                    choice = getrandbits(3)
                if choice == 0:
                    junk: Any = self._below(1_000_000)
                elif choice == 1:
                    votes: List[int] = []
                    while len(votes) < n:
                        r = getrandbits(2)
                        if r < 2:
                            votes.append(r)
                    junk = (("classify",), tuple(votes))
                elif choice == 2:
                    junk = (("ba", 1, "gc1", "r1"), self._below(2))
                elif choice == 3:
                    junk = None
                elif choice == 4:
                    junk = ("x" * (1 + self._below(7)), [1, 2, {3: 4}])
                else:
                    junk = ((), ())
                outgoing.append(Envelope(pid, recipient, junk))
        return outgoing


def _listify(obj: Any) -> Any:
    """Deep-copy ``obj`` with every tuple turned into a (mutable) list.

    Leaves (ints, strings, signatures, frozensets) are shared, which is
    fine: mutation happens on the list spines this function creates.
    """
    if isinstance(obj, tuple):
        return [_listify(item) for item in obj]
    return obj


class MutatingAdversary(Adversary):
    """Replay honest payloads, then mutate the sent objects in place.

    The hot-path caches (:mod:`repro.perf`) memoize verification verdicts
    by object identity, guarded by an immutability gate: *positive*
    verdicts are cached only for deeply immutable objects, because a
    mutable object could be validated once and then changed.  This
    strategy attacks exactly that gate inside real executions.  Each
    round, every faulty process:

    1. re-sends recent honest payloads *verbatim* to every process --
       immutable, honest-built objects, so verifiers may legitimately
       serve cached positive verdicts for them;
    2. sends *mutable clones* of those payloads (tuple bodies deep-copied
       into lists) and keeps references to the clones;
    3. corrupts every previously sent clone in place -- overwriting list
       slots with garbage -- and re-sends the same (now different)
       objects.

    Mutations only ever make a clone *more* corrupt, never restore valid
    content, so honest verifiers must reject the clones whether or not a
    verdict was cached -- which is why executions under this adversary
    are required (and tested) to be row-identical with caching on and
    off.  If the immutability gate ever cached a positive verdict for a
    mutable object, step 3 would desynchronize cached and uncached runs.
    """

    #: Clones kept under in-place mutation (bounds per-round traffic).
    MAX_TRACKED = 4
    #: How many of the round's honest payloads each faulty pid replays.
    REPLAYS = 2

    def bind(self, world: AdversaryWorld) -> None:
        """Reset the tracked-clone buffer for a fresh execution."""
        super().bind(world)
        self._clones: List[Any] = []

    def step(self, view: AdversaryView) -> List[Envelope]:
        # Mutate everything we sent in earlier rounds, in place.
        for clone in self._clones:
            self._corrupt(clone, view.round_no)
        fresh = [env.payload for env in view.honest_outgoing[-self.REPLAYS:]]
        outgoing: List[Envelope] = []
        appended = 0  # clones tracked *this* round (not every replay is)
        for payload in fresh:
            tag, body = payload if (
                isinstance(payload, tuple) and len(payload) == 2
            ) else (None, None)
            if tag is None:
                continue
            clone_body = _listify(body)
            if isinstance(clone_body, list):
                self._clones.append(clone_body)
                appended += 1
            for pid in sorted(self.world.faulty_ids):
                for recipient in range(self.world.n):
                    # Verbatim replay: immutable, may hit positive caches.
                    outgoing.append(Envelope(pid, recipient, payload))
                    # Mutable clone: must never be positively cached.
                    outgoing.append(
                        Envelope(pid, recipient, (tag, clone_body))
                    )
        # Re-send earlier clones after their in-place mutation: same
        # objects, different content -- the cache-poisoning attempt.
        # Slice by the count actually appended this round: replays with
        # non-tuple bodies track no clone, and cutting by replay count
        # would wrongly exempt earlier clones from the re-send.
        for clone in self._clones[:-appended or None]:
            for pid in sorted(self.world.faulty_ids):
                recipient = (view.round_no + pid) % self.world.n
                outgoing.append(
                    Envelope(pid, recipient,
                             (("mutated", view.round_no), clone))
                )
        del self._clones[:-self.MAX_TRACKED or None]
        return outgoing

    @staticmethod
    def _corrupt(clone: Any, round_no: int) -> None:
        """Overwrite one list slot per level with unmistakable garbage."""
        if not isinstance(clone, list) or not clone:
            return
        for item in clone:
            MutatingAdversary._corrupt(item, round_no)
        clone[0] = f"mutated-round-{round_no}"


class ScriptedAdversary(Adversary):
    """Delegate each round to ``script(view, world) -> [Envelope]``."""

    def __init__(
        self,
        script: Callable[[AdversaryView, AdversaryWorld], List[Envelope]],
    ) -> None:
        self.script = script

    def step(self, view: AdversaryView) -> List[Envelope]:
        return self.script(view, self.world)


class EchoAdversary(Adversary):
    """Replay the last honest message seen, to everyone, from every faulty
    process -- a cheap replay attack exercising tag/signature freshness."""

    def bind(self, world: AdversaryWorld) -> None:
        """Reset the replay buffer for a fresh execution."""
        super().bind(world)
        self._last_payload: Any = None

    def step(self, view: AdversaryView) -> List[Envelope]:
        if view.honest_outgoing:
            self._last_payload = view.honest_outgoing[-1].payload
        if self._last_payload is None:
            return []
        return [
            Envelope(pid, j, self._last_payload)
            for pid in sorted(self.world.faulty_ids)
            for j in range(self.world.n)
        ]
