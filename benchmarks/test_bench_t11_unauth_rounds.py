"""Theorem 11 (paper Theorem 2): unauthenticated rounds vs prediction error.

Paper claim: with ``B`` incorrect prediction bits and ``B = O(n^{3/2})``,
every honest process decides in ``O(min{B/n + 1, f})`` rounds with
``O(n^2 log(min{B/n, f}))`` messages; otherwise ``O(f)`` rounds.

Workload: ``n = 33``, ``t = f = 10``; the faulty processes are the first
``f`` ids (so they own the early phase-king slots) and run the protocol-
aware :class:`~repro.adversary.StallingAdversary`.  ``B`` is swept by
hiding ``0..f`` faulty processes in the predictions (the Theorem 13
construction).  Expected shape: rounds flat and minimal while predictions
identify the faults, stepping up to the early-stopping ``O(f)`` path as
``B`` grows; messages stay ``Theta(n^2)`` per phase throughout.
"""

import pytest

from repro.api import Experiment
from repro.adversary import StallingAdversary
from repro.core.wrapper import total_round_bound
from repro.lowerbounds import hiding_predictions

from conftest import print_table

N, T, F = 33, 10, 10
FAULTY = list(range(F))
HONEST = [pid for pid in range(N) if pid >= F]
INPUTS = [pid % 2 for pid in range(N)]


def run_sweep():
    rows = []
    for hide in (0, 2, 5, 8, F):
        predictions, budget = hiding_predictions(N, HONEST, FAULTY[:hide])
        report = (
            Experiment(n=N, t=T)
            .with_inputs(INPUTS)
            .with_faults(faulty=FAULTY)
            .with_adversary(StallingAdversary(0, 1))
            .with_predictions(predictions)
            .solve_one()
        )
        assert report.agreed
        rows.append(
            {
                "hidden": hide,
                "B": budget,
                "B/n": round(budget / N, 1),
                "rounds": report.rounds,
                "messages": report.messages,
                "msgs/n^2": round(report.messages / N**2, 1),
            }
        )
    return rows


@pytest.mark.benchmark(group="t11")
def test_t11_rounds_vs_prediction_error(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_table(
        rows,
        ["hidden", "B", "B/n", "rounds", "messages", "msgs/n^2"],
        f"Theorem 11: rounds vs B (unauth, n={N}, t=f={F}, stalling adversary)",
    )
    from repro.experiments import ascii_plot

    print()
    print(ascii_plot(rows, "B", "rounds", width=40, height=8))
    # Shape 1: accurate predictions decide in the first phases.
    assert rows[0]["rounds"] <= rows[-1]["rounds"]
    # Shape 2: rounds never exceed the prediction-free guess-and-double cap.
    bound = total_round_bound(T, "unauthenticated")
    assert all(r["rounds"] <= bound for r in rows)
    # Shape 3: the fully-hidden case pays strictly more than the fully-
    # identified case (the predictions actually buy rounds).
    assert rows[-1]["rounds"] > rows[0]["rounds"]
    # Shape 4: message volume stays quadratic -- within a log-ish factor of
    # n^2 (Theorem 11's envelope), never cubic.
    assert all(r["messages"] <= 40 * N**2 for r in rows)
