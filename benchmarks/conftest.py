"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts
(Theorems 11-14, Lemma 1) as a measured table; see EXPERIMENTS.md for the
recorded paper-vs-measured comparison.  Tables print with ``-s`` and are
also summarized through loose shape assertions so regressions fail loudly.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.runtime import ScenarioGrid


def campaign_grid() -> ScenarioGrid:
    """The shared campaign-runtime workload: sizes x budgets x all five
    classic adversary families x input patterns x seeds (270 scenarios)."""
    return ScenarioGrid(
        n=[5, 6, 7],
        budget=[0, 2, 4],
        adversary=["silent", "split", "liar", "noise", "stalling"],
        pattern=["split", "ones"],
        seeds=3,
    )


def print_table(rows: List[dict], columns: List[str], title: str) -> None:
    from repro.experiments import format_table

    print()
    print(format_table(rows, columns, title=title))
