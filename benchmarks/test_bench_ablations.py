"""Ablations: what each arm of the guess-and-double wrapper buys.

Algorithm 1 has two load-bearing design choices:

* the **early-stopping arm** guarantees ``O(f)`` rounds when predictions
  are useless;
* the **classification arm** guarantees ``O(B/n + 1)`` rounds when
  predictions are good, independent of ``f``.

This benchmark removes each arm (the ``arms`` ablation hook) and compares
against the full wrapper and the no-predictions baseline on two extreme
workloads: perfect predictions with many faults, and fully-hidden faults.
"""

import pytest

from repro.api import Experiment
from repro.adversary import StallingAdversary
from repro.lowerbounds import hiding_predictions

from conftest import print_table

N, T, F = 33, 10, 10
FAULTY = list(range(F))
HONEST = [pid for pid in range(N) if pid >= F]
INPUTS = [pid % 2 for pid in range(N)]

VARIANTS = [
    ("full wrapper", ("early", "class")),
    ("no early arm", ("class",)),
    ("no class arm", ("early",)),
]


def run_matrix():
    rows = []
    for workload, hide in (("B=0 (perfect)", 0), ("B=max (hidden)", F)):
        predictions, _ = hiding_predictions(N, HONEST, FAULTY[:hide])
        for name, arms in VARIANTS:
            report = (
                Experiment(n=N, t=T)
                .with_inputs(INPUTS)
                .with_faults(faulty=FAULTY)
                .with_adversary(StallingAdversary(0, 1))
                .with_predictions(predictions)
                .with_arms(*arms)
                .solve_one()
            )
            rows.append(
                {
                    "workload": workload,
                    "variant": name,
                    "agreed": report.agreed,
                    "rounds": report.rounds,
                    "messages": report.messages,
                }
            )
        baseline = (
            Experiment(n=N, t=T)
            .with_inputs(INPUTS)
            .with_faults(faulty=FAULTY)
            .with_adversary(StallingAdversary(0, 1))
            .baseline()
        )
        rows.append(
            {
                "workload": workload,
                "variant": "baseline (no predictions)",
                "agreed": baseline.agreed,
                "rounds": baseline.rounds,
                "messages": baseline.messages,
            }
        )
    return rows


@pytest.mark.benchmark(group="ablations")
def test_arm_ablations(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    print_table(
        rows,
        ["workload", "variant", "agreed", "rounds", "messages"],
        f"Ablations (n={N}, t=f={F}, stalling adversary)",
    )
    by = {(r["workload"], r["variant"]): r for r in rows}
    # Safety holds in every ablation on these workloads.
    assert all(r["agreed"] for r in rows)
    perfect = "B=0 (perfect)"
    hidden = "B=max (hidden)"
    # The class-only variant is prediction-sensitive: its rounds grow with
    # B (it lost the O(f) fallback, so hidden faults cost extra phases).
    assert (
        by[(hidden, "no early arm")]["rounds"]
        > by[(perfect, "no early arm")]["rounds"]
    )
    # The early-only variant is prediction-blind: identical cost on both
    # workloads (predictions bought nothing without the class arm).
    assert (
        by[(perfect, "no class arm")]["rounds"]
        == by[(hidden, "no class arm")]["rounds"]
    )
    # With perfect predictions, removing the class arm costs rounds
    # relative to the full wrapper (the class arm is the fast path).
    assert (
        by[(perfect, "no class arm")]["rounds"]
        >= by[(perfect, "full wrapper")]["rounds"]
    )
    # The full wrapper is within the sum of its parts on both workloads
    # (arms are time-boxed, so composition adds, never multiplies).
    for workload in (perfect, hidden):
        full = by[(workload, "full wrapper")]["rounds"]
        parts = (
            by[(workload, "no early arm")]["rounds"]
            + by[(workload, "no class arm")]["rounds"]
        )
        assert full <= parts
