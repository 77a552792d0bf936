"""Experiment harness: sweeps and table formatting."""

from .sweeps import (
    default_inputs,
    make_adversary,
    run_once,
    sweep_budget,
    sweep_faults,
    sweep_scale,
)
from ..reporting.render import ascii_plot, format_markdown, format_table, sparkline
from .montecarlo import (
    TrialStats,
    run_single_trial,
    run_trials,
    sample_scenario,
    sample_trials,
    trial_stats,
)

__all__ = [
    "ascii_plot",
    "sample_scenario",
    "sample_trials",
    "trial_stats",
    "default_inputs",
    "format_markdown",
    "run_single_trial",
    "run_trials",
    "TrialStats",
    "format_table",
    "make_adversary",
    "run_once",
    "sweep_budget",
    "sweep_faults",
    "sweep_scale",
    "sparkline",
]
