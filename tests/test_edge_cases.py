"""Edge-case coverage: degenerate sizes, exotic value types, boundary
parameters."""

import pytest

from repro.api import Experiment
from repro.classify import classify, priority_order, vote_threshold
from repro.core.api import run_protocol
from repro.core.wrapper import num_phases, total_round_bound
from repro.earlystop import ba_early_stopping
from repro.gradecast import graded_consensus
from repro.predictions import perfect_predictions


class TestDegenerateSizes:
    def test_single_process(self):
        report = (
            Experiment(n=1, t=0)
            .with_inputs(["only"])
            .with_faults(faulty=[])
            .with_options(key_seed=0)
            .solve_one()
        )
        assert report.agreed
        assert report.decision == "only"

    def test_two_processes_no_faults(self):
        report = (
            Experiment(n=2, t=0)
            .with_inputs(["a", "a"])
            .with_faults(faulty=[])
            .solve_one()
        )
        assert report.decision == "a"

    def test_four_processes_one_fault(self):
        report = (
            Experiment(n=4, t=1)
            .with_inputs([1, 1, 1, 1])
            .with_faults(faulty=[3])
            .solve_one()
        )
        assert report.decision == 1

    def test_t_zero_with_split_inputs(self):
        report = (
            Experiment(n=3, t=0)
            .with_inputs([0, 1, 0])
            .with_faults(faulty=[])
            .solve_one()
        )
        assert report.agreed

    def test_minimum_unauth_resilience_boundary(self):
        # n = 3t + 1 is the boundary for t < n/3.
        report = (
            Experiment(n=7, t=2)
            .with_inputs([0, 1, 0, 1, 0, 1, 0])
            .with_faults(faulty=[5, 6])
            .solve_one()
        )
        assert report.agreed


class TestValueTypes:
    @pytest.mark.parametrize(
        "value",
        ["string", 42, -7, (1, 2, "tuple"), None, True, b"bytes"],
    )
    def test_unanimous_arbitrary_values(self, value):
        report = (
            Experiment(n=5, t=1)
            .with_inputs([value] * 5)
            .with_faults(faulty=[4])
            .with_options(key_seed=0)
            .solve_one()
        )
        assert report.agreed
        assert report.decision == value

    def test_mixed_types_still_agree(self):
        inputs = ["a", 1, (2,), None, "a"]
        report = (
            Experiment(n=5, t=1)
            .with_inputs(inputs)
            .with_faults(faulty=[])
            .solve_one()
        )
        assert report.agreed

    def test_auth_mode_with_tuple_values(self):
        report = (
            Experiment(n=7, t=2, mode="authenticated")
            .with_inputs([("block", 7)] * 7)
            .with_faults(faulty=[6])
            .with_options(key_seed=0)
            .solve_one()
        )
        assert report.decision == ("block", 7)


class TestBoundaryParameters:
    def test_num_phases_t_zero_and_one(self):
        assert num_phases(0) == 1
        assert num_phases(1) == 1

    def test_total_round_bound_positive_small_t(self):
        for t in range(0, 5):
            for mode in ("unauthenticated", "authenticated"):
                assert total_round_bound(t, mode) > 0

    def test_vote_threshold_n1(self):
        assert vote_threshold(1) == 1

    def test_priority_order_empty(self):
        assert priority_order(()) == ()

    def test_classify_n1(self):
        def factory(ctx):
            return classify(ctx, ("c",), (1,))

        result = run_protocol(1, 0, [], factory)
        assert result.decisions[0] == (1,)

    def test_early_stopping_n1(self):
        def factory(ctx):
            return ba_early_stopping(ctx, ("e",), "v")

        result = run_protocol(1, 0, [], factory)
        assert result.decisions[0] == "v"

    def test_gc_all_faulty_peers(self):
        """A single honest process among faulty ones still terminates
        (grades are meaningless but termination must hold)."""
        def factory(ctx):
            return graded_consensus(ctx, ("g",), "x")

        result = run_protocol(4, 1, [1, 2, 3], factory, max_rounds=100)
        assert 0 in result.decisions

    def test_solve_max_rounds_override(self):
        report = (
            Experiment(n=4, t=1)
            .with_inputs([0] * 4)
            .with_faults(faulty=[])
            .with_options(max_rounds=5000)
            .solve_one()
        )
        assert report.agreed

    def test_arms_validation(self):
        experiment = (
            Experiment(n=4, t=1).with_inputs([0] * 4).with_faults(faulty=[])
        )
        with pytest.raises(ValueError, match="arms"):
            experiment.with_arms().solve_one()
        with pytest.raises(ValueError, match="arms"):
            experiment.with_arms("bogus").solve_one()

    def test_single_arm_configurations_work(self):
        for arms in (("early",), ("class",)):
            report = (
                Experiment(n=7, t=2)
                .with_inputs([3] * 7)
                .with_faults(faulty=[6])
                .with_arms(*arms)
                .solve_one()
            )
            assert report.decision == 3
