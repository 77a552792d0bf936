"""Byzantine Agreement with Predictions (PODC 2025) -- full reproduction.

Public API highlights:

* :class:`repro.Experiment` (canonical home :mod:`repro.api`) -- the one
  front door: a declarative builder that compiles to scenario grids,
  runs single executions (:meth:`~repro.api.Experiment.solve_one`),
  campaigns over any backend (:meth:`~repro.api.Experiment.run`), and
  store-fed reports (:meth:`~repro.api.Experiment.report`).
* :mod:`repro.predictions` -- prediction generators with exact error budgets.
* :mod:`repro.adversary` -- pluggable Byzantine strategies.
* :mod:`repro.lowerbounds` -- the paper's lower-bound constructions.

docs/API.md maps the entry points removed in earlier API versions to
their :class:`Experiment` replacements.

See README.md for a quickstart and docs/ARCHITECTURE.md for the layer map
and the two sub-protocol substitutions.
"""

from .api import API_VERSION, Campaign, Experiment
from .core.api import SolveReport, run_protocol
from .core.wrapper import AUTHENTICATED, MODES, UNAUTHENTICATED, ba_with_predictions
from .perf import CacheStats, cache_report
from .runtime.execute import SCHEMA_VERSION

__version__ = "1.1.0"

__all__ = [
    "API_VERSION",
    "AUTHENTICATED",
    "CacheStats",
    "Campaign",
    "Experiment",
    "MODES",
    "SCHEMA_VERSION",
    "SolveReport",
    "UNAUTHENTICATED",
    "ba_with_predictions",
    "cache_report",
    "run_protocol",
    "__version__",
]
