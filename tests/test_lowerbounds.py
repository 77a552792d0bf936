"""Tests for the lower-bound formulas and demonstrators (Section 10)."""

import pytest

from repro.adversary import ScriptedAdversary
from repro.api import Experiment
from repro.lowerbounds import (
    hiding_predictions,
    ignore_then_silence_attack,
    lazy_trusting_broadcast,
    max_hidable_faults,
    message_lower_bound,
    round_lower_bound,
)
from repro.predictions import count_errors, perfect_predictions

from helpers import honest_ids, run_sub, split_inputs


class TestRoundLowerBound:
    def test_zero_budget_zero_faults(self):
        # min{2, t+1, 2, 1} = 1
        assert round_lower_bound(10, 3, 0, 0) == 1

    def test_perfect_predictions_with_faults(self):
        # B=0 hides nothing: min{f+2, t+1, 2, 1} = 1
        assert round_lower_bound(10, 3, 3, 0) == 1

    def test_large_budget_recovers_classic_bound(self):
        n, t, f = 10, 3, 2
        budget = f * (n - f) + 100
        assert round_lower_bound(n, t, f, budget) == min(f + 2, t + 1)

    def test_intermediate_budget_interpolates(self):
        n, t, f = 12, 5, 5
        budget = 2 * (n - f)  # hides 2 of 5 faults
        assert round_lower_bound(n, t, f, budget) == min(
            f + 2, t + 1, 2 + 2, budget // (n - t) + 1
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            round_lower_bound(5, 4, 1, 0)  # t = n - 1
        with pytest.raises(ValueError):
            round_lower_bound(5, 1, 2, 0)  # f > t

    def test_monotone_in_budget(self):
        n, t, f = 12, 4, 4
        values = [round_lower_bound(n, t, f, b) for b in range(0, 60, 4)]
        assert values == sorted(values)


class TestHidingConstruction:
    def test_budget_accounting_matches_proof(self):
        # (n - f) * |hidden| wrong bits; hiding nothing is perfect.
        for n, honest, hidden, expected in (
            (10, list(range(7)), [7, 8], 7 * 2),
            (8, list(range(1, 8)), [], 0),
        ):
            assignment, burned = hiding_predictions(n, honest, hidden)
            assert burned == expected
            assert count_errors(assignment, honest).total == burned
            assert count_errors(assignment, honest).missed_faulty == burned

    def test_hidden_must_be_faulty(self):
        with pytest.raises(ValueError):
            hiding_predictions(5, [0, 1, 2], [2])

    def test_max_hidable(self):
        assert max_hidable_faults(10, 4, 0) == 0
        assert max_hidable_faults(10, 4, 6) == 1
        assert max_hidable_faults(10, 4, 1000) == 4


class TestMessageLowerBound:
    def test_formula_shapes(self):
        assert message_lower_bound(100, 0) == 25
        assert message_lower_bound(16, 10) == 25  # (t/2)^2 dominates
        assert message_lower_bound(8, 2) == 2

    def test_our_protocol_meets_bound_with_perfect_predictions(self):
        """Theorem 14's point: even with 100% correct predictions, a correct
        protocol pays Omega(n + t^2) messages -- and ours does."""
        for n, t, faulty in ((10, 3, [8, 9]), (13, 4, [11, 12])):
            report = (
                Experiment(n=n, t=t)
                .with_inputs(split_inputs(n))
                .with_faults(faulty=faulty)
                .with_predictions(
                    perfect_predictions(n, honest_ids(n, faulty))
                )
                .solve_one()
            )
            assert report.agreed
            assert report.messages >= message_lower_bound(n, t)


class TestStrawmanViolation:
    """The cheap prediction-trusting broadcast breaks exactly as the
    Dolev-Reischuk-style construction predicts."""

    def lazy_factory(self, n, sender, value, predictions):
        def factory(ctx):
            return lazy_trusting_broadcast(
                ctx, sender, value, predictions[ctx.pid]
            )

        return factory

    def test_honest_sender_cheap_and_correct(self):
        n, t, sender = 10, 3, 0
        honest = list(range(n))
        predictions = perfect_predictions(n, honest)
        result = run_sub(
            n, t, [], self.lazy_factory(n, sender, "m", predictions)
        )
        assert all(v == "m" for v in result.decisions.values())
        assert result.messages == n  # sender's broadcast only

    def test_equivocating_sender_breaks_agreement(self):
        n, t, sender = 10, 3, 9
        honest = honest_ids(n, [sender])
        # Predictions are wrong about the sender (it acts maliciously),
        # which costs the adversary only n - 1 bits.
        predictions = perfect_predictions(n, list(range(n)))
        attack = ignore_then_silence_attack("zero", "one")
        result = run_sub(
            n, t, [sender],
            self.lazy_factory(n, sender, "m", predictions),
            adversary=ScriptedAdversary(attack),
        )
        values = set(result.decisions.values())
        assert len(values) == 2  # agreement violated
        assert result.messages == 0  # honest sent nothing at all

    def test_accurate_suspicion_gives_default_but_silence_is_fatal(self):
        """Even 100% correct predictions cannot save an o(n^2) protocol:
        a *silent* faulty sender with correct predictions yields default
        everywhere, but the protocol cannot distinguish 'faulty and silent'
        from 'honest whose message was suppressed' -- the indistinguishable
        pair at the heart of Theorem 14's Egood/Ebad."""
        n, t, sender = 10, 3, 9
        truthful = perfect_predictions(n, honest_ids(n, [sender]))
        result = run_sub(
            n, t, [sender], self.lazy_factory(n, sender, "m", truthful)
        )
        assert all(v == 0 for v in result.decisions.values())
