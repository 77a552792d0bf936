"""Parameter sweeps regenerating the paper's evaluation (Theorems 11-14).

Each sweep expands a parameter grid into :class:`ScenarioSpec` scenarios
and executes them through the v1 front door
(:class:`repro.api.Experiment`), reporting one row per configuration with
exact measured complexity, prediction-quality accounting (``B``, ``k_A``),
and the matching theoretical envelopes.  Benchmarks and examples are thin
wrappers over these functions, so the numbers in EXPERIMENTS.md are
regenerable from one place -- and any sweep accepts ``workers``/``store``
to fan out on a pool or resume from a cache.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..adversary.registry import make_adversary as _registry_make_adversary
from ..net.adversary import Adversary
from ..runtime.scenario import ScenarioSpec, default_t, pattern_inputs


def default_inputs(n: int, pattern: str = "split") -> List[int]:
    """Standard input vectors: ``split`` (half 0 / half 1), ``zeros``,
    ``ones``, or ``alternating``."""
    return pattern_inputs(n, pattern)


def make_adversary(kind: str, seed: int = 0) -> Adversary:
    """Construct any registered adversary (see
    :mod:`repro.adversary.registry`); ``seed`` feeds seeded families such
    as ``noise``."""
    return _registry_make_adversary(kind, seed=seed)


def run_once(
    n: int,
    t: int,
    f: int,
    budget: int,
    *,
    mode: str = "unauthenticated",
    generator: str = "concentrated",
    adversary_kind: str = "silent",
    inputs: Optional[Sequence[Any]] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """One execution; returns a result row (see
    :func:`repro.runtime.execute.execute_spec`)."""
    return _run_specs([_spec(
        n, t, f, budget,
        mode=mode, generator=generator, adversary_kind=adversary_kind,
        inputs=inputs, seed=seed,
    )])[0]


def _run_specs(
    specs: List[ScenarioSpec],
    workers: int = 1,
    store: Optional[Any] = None,
) -> List[Dict[str, Any]]:
    from ..api import Experiment

    campaign = Experiment.from_specs(specs).run(store=store, workers=workers)
    return campaign.raise_on_failure().rows


def sweep_budget(
    n: int,
    t: int,
    f: int,
    budgets: Iterable[int],
    *,
    workers: int = 1,
    store: Optional[Any] = None,
    **kwargs: Any,
) -> List[Dict[str, Any]]:
    """Theorems 11/12 main axis: rounds and messages versus ``B``."""
    specs = [_spec(n, t, f, budget, **kwargs) for budget in budgets]
    return _run_specs(specs, workers, store)


def sweep_faults(
    n: int,
    t: int,
    fault_counts: Iterable[int],
    budget: int = 0,
    *,
    workers: int = 1,
    store: Optional[Any] = None,
    **kwargs: Any,
) -> List[Dict[str, Any]]:
    """Early-stopping axis: rounds versus ``f`` at a fixed budget."""
    specs = [_spec(n, t, f, budget, **kwargs) for f in fault_counts]
    return _run_specs(specs, workers, store)


def sweep_scale(
    sizes: Iterable[int],
    budget_per_n: float = 0.0,
    fault_fraction: float = 0.2,
    *,
    workers: int = 1,
    store: Optional[Any] = None,
    **kwargs: Any,
) -> List[Dict[str, Any]]:
    """Scaling axis: complexity versus ``n`` at fixed ``B/n`` and ``f/n``."""
    specs = []
    for n in sizes:
        t = default_t(n)
        f = min(t, max(0, int(n * fault_fraction)))
        budget = int(budget_per_n * n)
        specs.append(_spec(n, t, f, budget, **kwargs))
    return _run_specs(specs, workers, store)


def _spec(
    n: int,
    t: int,
    f: int,
    budget: int,
    *,
    mode: str = "unauthenticated",
    generator: str = "concentrated",
    adversary_kind: str = "silent",
    inputs: Optional[Sequence[Any]] = None,
    seed: int = 0,
) -> ScenarioSpec:
    return ScenarioSpec(
        n=n,
        t=t,
        f=f,
        budget=budget,
        mode=mode,
        generator=generator,
        adversary=adversary_kind,
        seed=seed,
        inputs=tuple(inputs) if inputs is not None else None,
    )
