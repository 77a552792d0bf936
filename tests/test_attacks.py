"""Precondition-necessity attacks: the conditional protocols really do
need their hypotheses, and the wrapper really does absorb the failures."""

import pytest

from repro.adversary import StallingAdversary
from repro.adversary.attacks import CommitteeInfiltrationAttack
from repro.api import Experiment
from repro.core import ba_with_classification_auth
from repro.crypto import KeyStore
from repro.predictions import correct_prediction

from helpers import honest_ids, run_sub

TAG = ("cls", 1)  # embeds k=1 for the attack's tag parser


class TestCommitteeInfiltration:
    """n=8, t=3, k=1: three hidden faulty ids fill the whole 2k+1 = 3
    committee prefix -- Algorithm 7's `k bounds misclassifications`
    hypothesis is violated (k_A = 3 > 1)."""

    N, T, K = 8, 3, 1
    FAULTY = [0, 1, 2]

    def classification(self):
        # Everyone (wrongly) classifies the faulty trio as honest.
        return correct_prediction(self.N, range(self.N))

    def run_standalone(self):
        ks = KeyStore(self.N, seed=33)
        c = self.classification()

        def factory(ctx):
            return ba_with_classification_auth(
                ctx, TAG, ctx.pid % 2, c, self.K, ks
            )

        return run_sub(
            self.N, self.T, self.FAULTY, factory,
            adversary=CommitteeInfiltrationAttack("evil-a", "evil-b"),
            keystore=ks,
        )

    def test_standalone_algorithm7_breaks(self):
        """With the hypothesis violated, honest processes disagree --
        the precondition is load-bearing, exactly as Theorem 6 is scoped."""
        result = self.run_standalone()
        values = set(result.decisions.values())
        assert values == {"evil-a", "evil-b"}

    def test_wrapper_absorbs_the_same_attack(self):
        """Algorithm 1 runs the same conditional arm but never trusts its
        output without a graded-consensus confirmation: the identical
        attack configuration stays safe end to end."""
        predictions = [self.classification() for _ in range(self.N)]
        report = (
            Experiment(n=self.N, t=self.T, mode="authenticated")
            .with_inputs([pid % 2 for pid in range(self.N)])
            .with_faults(faulty=self.FAULTY)
            .with_adversary(CommitteeInfiltrationAttack("evil-a", "evil-b"))
            .with_predictions(predictions)
            .solve_one()
        )
        # Agreement holds (with split inputs, *which* value wins is
        # unconstrained -- Byzantine agreement only promises unanimity).
        assert report.agreed

    def test_wrapper_validity_survives_the_attack(self):
        """With unanimous honest inputs, Strong Unanimity pins the decision
        even while the committee equivocates adversarial values."""
        predictions = [self.classification() for _ in range(self.N)]
        report = (
            Experiment(n=self.N, t=self.T, mode="authenticated")
            .with_inputs(["real"] * self.N)
            .with_faults(faulty=self.FAULTY)
            .with_adversary(CommitteeInfiltrationAttack("evil-a", "evil-b"))
            .with_predictions(predictions)
            .solve_one()
        )
        assert report.agreed
        assert report.decision == "real"

    def test_attack_inert_when_hypothesis_holds(self):
        """With correct classifications the faulty trio gets no votes, so
        the attack has no certificates to equivocate with."""
        ks = KeyStore(self.N, seed=33)
        honest = honest_ids(self.N, self.FAULTY)
        c = correct_prediction(self.N, honest)

        def factory(ctx):
            return ba_with_classification_auth(
                ctx, TAG, 5, c, self.K, ks
            )

        result = run_sub(
            self.N, self.T, self.FAULTY, factory,
            adversary=CommitteeInfiltrationAttack("evil-a", "evil-b"),
            keystore=ks,
        )
        assert set(result.decisions.values()) == {5}


class TestStallingAdversaryContract:
    """The stalling adversary is the strongest strategy shipped; it must
    never break safety, only burn rounds."""

    @pytest.mark.parametrize("mode", ["unauthenticated", "authenticated"])
    def test_safety_under_stalling(self, mode):
        n, t, f = 13, 4, 4
        faulty = list(range(f))
        honest = [pid for pid in range(n) if pid >= f]
        hidden = set(faulty)
        vector = tuple(
            1 if (j in set(honest) or j in hidden) else 0 for j in range(n)
        )
        report = (
            Experiment(n=n, t=t, mode=mode)
            .with_inputs([pid % 2 for pid in range(n)])
            .with_faults(faulty=faulty)
            .with_adversary(StallingAdversary(0, 1))
            .with_predictions([vector] * n)
            .solve_one()
        )
        assert report.agreed

    def test_stalling_costs_rounds_vs_silent(self):
        n, t, f = 33, 10, 10
        faulty = list(range(f))
        hidden = set(faulty)
        honest = [pid for pid in range(n) if pid >= f]
        vector = tuple(
            1 if (j in set(honest) or j in hidden) else 0 for j in range(n)
        )
        experiment = (
            Experiment(n=n, t=t)
            .with_inputs([pid % 2 for pid in range(n)])
            .with_faults(faulty=faulty)
            .with_predictions([vector] * n)
        )
        stalled = (
            experiment.with_adversary(StallingAdversary(0, 1)).solve_one()
        )
        silent = experiment.solve_one()
        assert stalled.agreed and silent.agreed
        assert stalled.rounds > silent.rounds

    def test_validity_immune_to_stalling(self):
        """Unanimous honest input survives every stall component (the
        conciliation min-injection must not leak into the decision)."""
        n, t, f = 13, 4, 4
        faulty = list(range(f))
        hidden = set(faulty)
        honest = [pid for pid in range(n) if pid >= f]
        vector = tuple(
            1 if (j in set(honest) or j in hidden) else 0 for j in range(n)
        )
        report = (
            Experiment(n=n, t=t)
            .with_inputs([7] * n)
            .with_faults(faulty=faulty)
            .with_adversary(StallingAdversary(0, 1))
            .with_predictions([vector] * n)
            .solve_one()
        )
        assert report.agreed
        assert report.decision == 7


class TestMutatingAdversary:
    """The cache-aware `mutating` strategy: replay honest payloads, then
    mutate the sent objects in place -- an end-to-end probe of the
    PR 2 immutability gate (positive verdicts cached only for deeply
    immutable objects; see repro.perf)."""

    def fingerprint(self, cache):
        from repro.adversary.registry import make_adversary

        report = (
            Experiment(n=7, t=2, mode="authenticated")
            .with_inputs([0, 0, 0, 1, 1, 0, 1])
            .with_faults(faulty=[5, 6])
            .with_adversary(make_adversary("mutating"))
            .with_options(key_seed=9, cache=cache)
            .solve_one()
        )
        return (
            sorted(report.decisions.items()), report.rounds,
            report.messages, report.bits, report.agreed,
        )

    def test_agreement_survives_in_both_modes(self):
        from repro.adversary.registry import make_adversary

        for mode in ("unauthenticated", "authenticated"):
            report = (
                Experiment(n=7, t=2, mode=mode)
                .with_inputs([pid % 2 for pid in range(7)])
                .with_faults(faulty=[5, 6])
                .with_adversary(make_adversary("mutating"))
                .solve_one()
            )
            assert report.agreed

    def test_cached_and_uncached_executions_identical(self):
        """If the immutability gate ever served a stale positive verdict
        for a mutated object, the cached run would diverge from the
        uncached seed path -- they must stay bit-identical."""
        cached = self.fingerprint(cache=True)
        uncached = self.fingerprint(cache=False)
        assert cached == uncached
        assert cached[-1] is True  # and the execution itself agreed

    def test_registered_and_campaign_runnable(self):
        from repro.adversary.registry import adversary_names
        from repro.runtime import ScenarioSpec, execute_spec

        assert "mutating" in adversary_names()
        spec = ScenarioSpec(n=6, t=1, f=1, budget=2, adversary="mutating")
        row = execute_spec(spec)
        assert row["agreed"] and row["valid"]
        assert row == execute_spec(spec)  # deterministic like any other
