"""Theorem 12 (paper Theorem 3): authenticated rounds vs prediction error.

Paper claim: with signatures, ``O(min{B/n + 1, f})`` rounds for *every*
``B`` (no ``n^{3/2}`` ceiling), with ``O(n^3 log(...))`` messages.  The
committee-based conditional arm (Algorithm 7) costs only ``k + 3`` rounds
per phase versus Algorithm 5's ``5(2k + 1)``.

Workload: ``n = 21``, ``t = f = 6``, stalling adversary, faulty ids first.
Expected shape: same staircase as Theorem 11 (flat under accurate
predictions, early-stopping path when fully hidden), with the
authenticated suite paying fewer rounds per conditional arm.  See
"Substitutions" in docs/ARCHITECTURE.md for the graded-consensus
substitution (our auth pipeline runs at ``t < n/3``).
"""

import pytest

from repro.api import Experiment
from repro.adversary import StallingAdversary
from repro.core.wrapper import classification_budget, total_round_bound
from repro.lowerbounds import hiding_predictions

from conftest import print_table

N, T, F = 21, 6, 6
FAULTY = list(range(F))
HONEST = [pid for pid in range(N) if pid >= F]
INPUTS = [pid % 2 for pid in range(N)]


def run_sweep():
    rows = []
    for hide in (0, 3, F):
        predictions, budget = hiding_predictions(N, HONEST, FAULTY[:hide])
        for mode in ("authenticated", "unauthenticated"):
            report = (
                Experiment(n=N, t=T, mode=mode)
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
                    "mode": mode[:6],
                    "rounds": report.rounds,
                    "messages": report.messages,
                }
            )
    return rows


@pytest.mark.benchmark(group="t12")
def test_t12_auth_rounds_vs_prediction_error(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_table(
        rows,
        ["hidden", "B", "mode", "rounds", "messages"],
        f"Theorem 12: auth vs unauth (n={N}, t=f={F}, stalling adversary)",
    )
    auth = [r for r in rows if r["mode"] == "authen"]
    # Shape 1: monotone degradation with B, capped by the wrapper bound.
    assert auth[0]["rounds"] <= auth[-1]["rounds"]
    assert all(
        r["rounds"] <= total_round_bound(T, "authenticated") for r in auth
    )
    # Shape 2: the conditional arm's per-phase round budget is smaller in
    # the authenticated suite for every k >= 1 (k+3 vs 5(2k+1)).
    for k in (1, 2, 4, 8):
        assert classification_budget(k, "authenticated") < classification_budget(
            k, "unauthenticated"
        )
    # Shape 3: with accurate predictions, the authenticated pipeline
    # finishes in fewer rounds than the unauthenticated one.
    unauth = [r for r in rows if r["mode"] == "unauth"]
    assert auth[0]["rounds"] <= unauth[0]["rounds"]
