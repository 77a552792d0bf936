"""The paper's primary contribution: conditional BAs and the wrapper."""

from .api import SolveReport, run_protocol
from .auth import ba_with_classification_auth
from .unauth import ba_with_classification_unauth
from .wrapper import (
    AUTHENTICATED,
    UNAUTHENTICATED,
    ba_with_predictions,
    classification_budget,
    early_stopping_budget,
    num_phases,
    phase_rounds,
    total_round_bound,
)

__all__ = [
    "AUTHENTICATED",
    "SolveReport",
    "UNAUTHENTICATED",
    "ba_with_classification_auth",
    "ba_with_classification_unauth",
    "ba_with_predictions",
    "classification_budget",
    "early_stopping_budget",
    "num_phases",
    "phase_rounds",
    "run_protocol",
    "total_round_bound",
]
