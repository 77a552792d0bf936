"""End-to-end tests for Algorithm 1 (guess-and-double wrapper) via the
public :class:`repro.api.Experiment` front door."""

import random

import pytest

from repro.adversary import (
    CrashAdversary,
    PredictionLiarAdversary,
    RandomNoiseAdversary,
    SilentAdversary,
    SplitWorldAdversary,
)
from repro.api import Experiment
from repro.core.wrapper import (
    classification_budget,
    early_stopping_budget,
    num_phases,
    phase_rounds,
    total_round_bound,
)
from repro.predictions import generate, perfect_predictions

from helpers import honest_ids, split_inputs

MODES = ["unauthenticated", "authenticated"]


def adversaries():
    return {
        "silent": SilentAdversary(),
        "split": SplitWorldAdversary(0, 1),
        "liar": PredictionLiarAdversary(),
        "noise": RandomNoiseAdversary(seed=13),
        "crash": CrashAdversary({8: 3, 9: 7}, mid_crash_cutoff=4),
    }


class TestBudgetHelpers:
    @pytest.mark.parametrize("t,expected", [(0, 1), (1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (8, 4), (9, 5)])
    def test_num_phases(self, t, expected):
        assert num_phases(t) == expected

    def test_final_phase_covers_t(self):
        for t in range(1, 30):
            k_final = 2 ** (num_phases(t) - 1)
            assert k_final >= t

    def test_budgets_positive_and_monotone(self):
        for mode in MODES:
            previous = 0
            for phase in range(1, 6):
                rounds = phase_rounds(phase, 40, mode)
                assert rounds > previous
                previous = rounds

    def test_total_round_bound_accumulates(self):
        assert total_round_bound(4, "unauthenticated") == 1 + sum(
            phase_rounds(p, 4, "unauthenticated") for p in (1, 2, 3)
        )

    def test_classification_budget_modes(self):
        assert classification_budget(2, "unauthenticated") == 25
        assert classification_budget(2, "authenticated") == 5

    def test_early_stopping_budget_caps_at_t(self):
        assert early_stopping_budget(64, 5) == early_stopping_budget(5, 5)


@pytest.mark.parametrize("mode", MODES)
class TestEndToEnd:
    def test_validity_unanimous_inputs(self, mode):
        report = (
            Experiment(n=10, t=3, mode=mode)
            .with_inputs([4] * 10)
            .with_faults(faulty=[7, 8, 9])
            .with_options(key_seed=0)
            .solve_one()
        )
        assert report.agreed
        assert report.decision == 4

    def test_agreement_split_inputs(self, mode):
        report = (
            Experiment(n=10, t=3, mode=mode)
            .with_inputs(split_inputs(10))
            .with_faults(faulty=[7, 8, 9])
            .with_adversary(SplitWorldAdversary(0, 1))
            .solve_one()
        )
        assert report.agreed
        assert report.decision in (0, 1)

    @pytest.mark.parametrize("name", ["silent", "split", "liar", "noise", "crash"])
    def test_agreement_under_every_adversary(self, mode, name):
        report = (
            Experiment(n=10, t=3, mode=mode)
            .with_inputs(split_inputs(10))
            .with_faults(faulty=[8, 9])
            .with_adversary(adversaries()[name])
            .solve_one()
        )
        assert report.agreed

    def test_round_bound_respected(self, mode):
        report = (
            Experiment(n=10, t=3, mode=mode)
            .with_inputs(split_inputs(10))
            .with_faults(faulty=[7, 8, 9])
            .with_adversary(SplitWorldAdversary(0, 1))
            .solve_one()
        )
        assert report.rounds <= total_round_bound(3, mode)

    def test_no_faults_terminates_in_first_phase(self, mode):
        report = (
            Experiment(n=10, t=3, mode=mode)
            .with_inputs(split_inputs(10))
            .with_faults(faulty=[])
            .with_options(key_seed=0)
            .solve_one()
        )
        assert report.agreed
        assert report.rounds <= 1 + phase_rounds(1, 3, mode) + phase_rounds(2, 3, mode)

    def test_bad_predictions_do_not_break_safety(self, mode):
        n, t, f = 10, 3, 3
        faulty = [7, 8, 9]
        honest = honest_ids(n, faulty)
        rng = random.Random(5)
        predictions = generate("concentrated", n, honest, 40, rng)
        report = (
            Experiment(n=n, t=t, mode=mode)
            .with_inputs(split_inputs(n))
            .with_faults(faulty=faulty)
            .with_adversary(SplitWorldAdversary(0, 1))
            .with_predictions(predictions)
            .solve_one()
        )
        assert report.agreed

    def test_report_metrics_populated(self, mode):
        report = (
            Experiment(n=7, t=2, mode=mode)
            .with_inputs(split_inputs(7))
            .with_faults(faulty=[6])
            .with_options(key_seed=0)
            .solve_one()
        )
        assert report.rounds > 0
        assert report.messages > 0
        assert report.bits > report.messages  # multi-bit payloads
        assert report.prediction_errors == 0
        assert set(report.decisions) == set(honest_ids(7, [6]))


class TestPredictionQualityScaling:
    """Perfect predictions + few faults should finish in early phases; the
    helping-phase pattern makes rounds grow with B."""

    def test_rounds_monotone_in_budget_shape(self):
        n, t, f = 13, 4, 4
        faulty = list(range(n - f, n))
        honest = honest_ids(n, faulty)
        rounds_by_budget = []
        for budget in (0, 3 * n, 6 * n):
            predictions = generate(
                "concentrated", n, honest, budget, random.Random(budget)
            )
            report = (
                Experiment(n=n, t=t, mode="unauthenticated")
                .with_inputs(split_inputs(n))
                .with_faults(faulty=faulty)
                .with_adversary(SplitWorldAdversary(0, 1))
                .with_predictions(predictions)
                .solve_one()
            )
            assert report.agreed
            rounds_by_budget.append(report.rounds)
        assert rounds_by_budget[0] <= rounds_by_budget[-1]

    def test_prediction_errors_reported(self):
        n, faulty = 8, [7]
        honest = honest_ids(n, faulty)
        predictions = generate("random", n, honest, 9, random.Random(1))
        report = (
            Experiment(n=n, t=2)
            .with_inputs(split_inputs(n))
            .with_faults(faulty=faulty)
            .with_predictions(predictions)
            .solve_one()
        )
        assert report.prediction_errors == 9


class TestInputValidation:
    def test_wrong_input_count(self):
        with pytest.raises(ValueError, match="inputs"):
            Experiment(n=5, t=1).with_inputs([0, 1]).with_faults(
                faulty=[]).solve_one()

    def test_too_many_faulty(self):
        with pytest.raises(ValueError, match="exceeds"):
            Experiment(n=5, t=1).with_inputs([0] * 5).with_faults(
                faulty=[3, 4]).with_options(key_seed=0).solve_one()

    def test_faulty_out_of_range(self):
        with pytest.raises(ValueError, match="0..n-1"):
            Experiment(n=5, t=2).with_inputs([0] * 5).with_faults(
                faulty=[9]).solve_one()

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            Experiment(n=5, t=1, mode="quantum")

    def test_bad_predictions_shape(self):
        with pytest.raises(ValueError):
            Experiment(n=5, t=1).with_inputs([0] * 5).with_faults(
                faulty=[]).with_predictions([(1, 1)] * 5).solve_one()

    def test_decision_property_raises_on_disagreement(self):
        from repro.core.api import SolveReport
        from repro.net.metrics import MetricsCollector

        report = SolveReport(
            decisions={0: "a", 1: "b"}, honest_ids=[0, 1], faulty_ids=[],
            mode="unauthenticated", rounds=1, messages=0, bits=0,
            prediction_errors=0, metrics=MetricsCollector(),
        )
        assert not report.agreed
        with pytest.raises(ValueError, match="disagree"):
            _ = report.decision
