"""Theorem 13 (paper Theorem 4): the round-complexity lower bound.

Paper claim: every deterministic agreement algorithm with classification
predictions has an execution with ``f`` faults taking at least
``min{f + 2, t + 1, floor(B/(n-f)) + 2, floor(B/(n-t)) + 1}`` rounds --
i.e., the upper bound ``O(min{B/n + 1, f})`` is tight.

This benchmark evaluates the bound over a ``(f, B)`` grid and verifies our
implementation respects it: measured rounds (under the stalling adversary,
using the proof's hiding construction as the prediction workload) dominate
the bound everywhere, and both surfaces share the ``min``-staircase shape:
increasing in ``B`` at fixed large ``f``, saturating at the ``f``-cap.
"""

import pytest

from repro.api import Experiment
from repro.adversary import StallingAdversary
from repro.lowerbounds import hiding_predictions, round_lower_bound

from conftest import print_table

N, T = 25, 7
INPUTS = [pid % 2 for pid in range(N)]


def run_grid():
    rows = []
    for f in (1, 4, 7):
        faulty = list(range(f))
        honest = [pid for pid in range(N) if pid >= f]
        for hide in sorted({0, f // 2, f}):
            predictions, budget = hiding_predictions(N, honest, faulty[:hide])
            report = (
                Experiment(n=N, t=T)
                .with_inputs(INPUTS)
                .with_faults(faulty=faulty)
                .with_adversary(StallingAdversary(0, 1))
                .with_predictions(predictions)
                .solve_one()
            )
            assert report.agreed
            bound = round_lower_bound(N, T, f, budget)
            rows.append(
                {
                    "f": f,
                    "B": budget,
                    "lb_rounds": bound,
                    "measured": report.rounds,
                    "ratio": round(report.rounds / max(1, bound), 1),
                }
            )
    return rows


@pytest.mark.benchmark(group="t13")
def test_t13_round_lower_bound_grid(benchmark):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    print_table(
        rows,
        ["f", "B", "lb_rounds", "measured", "ratio"],
        f"Theorem 13: measured rounds vs lower bound (n={N}, t={T})",
    )
    # Soundness: no execution beats the lower bound.
    assert all(r["measured"] >= r["lb_rounds"] for r in rows)
    # Shape: the bound is monotone in B at fixed f and capped by f + 2.
    for f in (1, 4, 7):
        bounds = [r["lb_rounds"] for r in rows if r["f"] == f]
        assert bounds == sorted(bounds)
        assert all(b <= f + 2 for b in bounds)
    # Tightness direction: with B = 0 the bound collapses to O(1) while
    # with full hiding it reaches min{f + 2, t + 1} -- the classic bound.
    full = [r for r in rows if r["f"] == 7][-1]
    assert full["lb_rounds"] == min(7 + 2, T + 1)
