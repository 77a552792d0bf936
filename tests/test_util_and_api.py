"""Tests for shared utilities and API report surfaces."""

import pytest

import repro
from repro.api import Experiment
from repro.util import (
    most_frequent_value,
    value_sort_key,
    values_with_count_at_least,
)


class TestValueSortKey:
    def test_total_order_over_mixed_types(self):
        values = [3, "a", None, (1, 2), True, b"x"]
        ordered = sorted(values, key=value_sort_key)
        assert sorted(ordered, key=value_sort_key) == ordered

    def test_type_groups_kept_together(self):
        ordered = sorted([2, "b", 1, "a"], key=value_sort_key)
        type_names = [type(v).__name__ for v in ordered]
        assert type_names == sorted(type_names)


class TestMostFrequentValue:
    def test_plurality(self):
        assert most_frequent_value([1, 2, 2, 3]) == 2

    def test_tie_breaks_to_smallest(self):
        assert most_frequent_value([2, 1, 2, 1]) == 1

    def test_min_count_filter(self):
        assert most_frequent_value([1, 1, 2], min_count=3) is None
        assert most_frequent_value([1, 1, 2], min_count=2) == 1

    def test_empty(self):
        assert most_frequent_value([]) is None


class TestValuesWithCount:
    def test_threshold(self):
        values = [1, 1, 1, 2, 2, 3]
        assert sorted(values_with_count_at_least(values, 2)) == [1, 2]
        assert values_with_count_at_least(values, 4) == []

    def test_threshold_one_returns_all_distinct(self):
        assert sorted(values_with_count_at_least([3, 1, 3], 1)) == [1, 3]


class TestSolveReportSummary:
    def test_summary_fields(self):
        report = (
            Experiment(n=7, t=2)
            .with_inputs([0, 1] * 3 + [0])
            .with_faults(faulty=[6])
            .solve_one()
        )
        summary = report.summary()
        assert summary["n"] == 7
        assert summary["f"] == 1
        assert summary["agreed"] is True
        assert summary["rounds"] == report.rounds
        assert summary["messages"] == report.messages
        assert summary["B"] == 0

    def test_summary_of_baseline(self):
        report = (
            Experiment(n=7, t=2)
            .with_inputs([1] * 7)
            .with_faults(faulty=[6])
            .baseline()
        )
        summary = report.summary()
        assert summary["mode"] == "baseline-early-stopping"
        assert summary["B"] == 0


class TestModeValidation:
    """Regression: an unknown mode must raise, never silently run the
    unauthenticated suite with no keystore."""

    def test_experiment_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            Experiment(n=7, mode="quantum")
        with pytest.raises(ValueError, match="unknown mode"):
            Experiment(n=7).with_mode("quantum")
        with pytest.raises(ValueError, match="unknown mode"):
            Experiment(n=7).grid(mode=["unauthenticated", "quantum"])

    def test_engine_rejects_unknown_mode(self):
        from repro.core.api import _solve

        with pytest.raises(ValueError, match="unknown mode"):
            _solve(5, 1, [0] * 5, mode="quantum")

    def test_known_modes_are_canonical(self):
        assert repro.MODES == ("unauthenticated", "authenticated")


class TestMainModule:
    def test_python_dash_m_entry(self, capsys):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "bound",
             "--n", "10", "--t", "3", "--f", "2"],
            capture_output=True, text=True,
        )
        assert completed.returncode == 0
        assert "Thm 13" in completed.stdout
