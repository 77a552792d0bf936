"""Scaling: complexity versus system size n.

The paper's complexity envelopes are stated asymptotically in ``n``; this
benchmark fixes the *relative* workload (``f/n ~ 0.2`` faulty, all hidden
by the predictions, stalling adversary) and sweeps ``n``, verifying that

* messages grow quadratically (the Theorem 11 envelope, and never cubically
  in the unauthenticated suite), and
* rounds are governed by ``min{B/n + 1, f}``, not by ``n``.
"""

import pytest

from repro.api import Experiment
from repro.adversary import StallingAdversary
from repro.lowerbounds import hiding_predictions

from conftest import print_table


def run_sweep():
    rows = []
    for n in (15, 21, 33, 45):
        t = (n - 1) // 3
        f = max(1, n // 5)
        faulty = list(range(f))
        honest = [pid for pid in range(n) if pid >= f]
        predictions, budget = hiding_predictions(n, honest, faulty)
        report = (
            Experiment(n=n, t=t)
            .with_inputs([pid % 2 for pid in range(n)])
            .with_faults(faulty=faulty)
            .with_adversary(StallingAdversary(0, 1))
            .with_predictions(predictions)
            .solve_one()
        )
        assert report.agreed
        rows.append(
            {
                "n": n,
                "t": t,
                "f": f,
                "B": budget,
                "rounds": report.rounds,
                "messages": report.messages,
                "msgs/n^2": round(report.messages / n**2, 1),
                "bits/n^3": round(report.bits / n**3, 2),
            }
        )
    return rows


@pytest.mark.benchmark(group="scaling")
def test_scaling_with_n(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_table(
        rows,
        ["n", "t", "f", "B", "rounds", "messages", "msgs/n^2", "bits/n^3"],
        "Scaling: fixed f/n = 0.2 (hidden faults, stalling adversary)",
    )
    # Messages are Theta(n^2)-ish: the per-n^2 ratio varies by phase count,
    # not polynomially in n.
    ratios = [r["msgs/n^2"] for r in rows]
    assert max(ratios) / min(ratios) < 6
    # Rounds depend on f (through phases), not on n directly: the largest
    # n must not be the round maximum by construction of the phase budgets.
    assert all(r["rounds"] <= 500 for r in rows)
    # Communication bits include the n-bit prediction broadcasts, so total
    # bits grow strictly faster than messages with n (the paper's closing
    # observation that the voting step alone is Theta(n^3) bits).
    first, last = rows[0], rows[-1]
    bits_growth = (last["bits/n^3"] * last["n"] ** 3) / (
        first["bits/n^3"] * first["n"] ** 3
    )
    msg_growth = last["messages"] / first["messages"]
    assert bits_growth > msg_growth
