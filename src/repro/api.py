"""Public API: one composable, versioned front door.

Every way of running this reproduction -- a single execution, a scenario
campaign over any backend, a rendered report -- is one
:class:`Experiment` away::

    from repro.api import Experiment

    exp = (Experiment(mode="authenticated", n=9, t=2)
           .with_adversary("mutating")
           .with_predictions("hiding", B=3)
           .grid(n=[10, 20, 40]))

    grid = exp.compile()                  # -> ScenarioGrid (declarative)
    one = exp.with_seeds([0]).solve_one() # -> SolveReport (single run)
    campaign = exp.run(store="out.jsonl") # -> Campaign (rows + stats)
    report = exp.report(spec)             # -> Report (tables + claims)

An ``Experiment`` is an immutable description: every ``with_*``/``grid``
call returns a new instance, so partial experiments can be shared and
specialized.  Its single compile target is the
:class:`~repro.runtime.scenario.ScenarioGrid` /
:class:`~repro.runtime.scenario.ScenarioSpec` layer -- the content-hashed
identity that the result store, the wire protocol, and the reports all
key on -- which is what makes an experiment the thing you can hash,
shard, cache, diff, and render.

Two ingredient styles coexist:

* **declarative** (names and budgets: ``with_adversary("stalling")``,
  ``with_predictions("hiding", B=3)``) -- serializable, hashable,
  grid-able; execution randomness derives from each scenario's content
  hash, so results are independent of where and when they run;
* **object overrides** (an :class:`~repro.net.adversary.Adversary`
  instance, an explicit prediction assignment, a pinned ``key_seed``) --
  for one-off runs and interop with hand-built components.  These cannot
  be compiled to a grid; :meth:`Experiment.solve_one` and
  :meth:`Experiment.baseline` accept them, :meth:`Experiment.compile` /
  :meth:`Experiment.run` refuse them loudly.

Versioning: :data:`API_VERSION` tracks this surface (snapshot-tested in
``tests/golden/api_surface.txt``); :data:`SCHEMA_VERSION` stamps every
result row (the ``schema`` column) so stores and wire peers can detect
incompatible layouts.  docs/API.md maps every entry point removed by a
version bump to its replacement here.
"""

from __future__ import annotations

import itertools
import random
from contextlib import ExitStack
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .adversary.registry import adversary_spec, make_adversary
from .core.api import SolveReport, _solve, _solve_baseline
from .core.wrapper import AUTHENTICATED, MODES, UNAUTHENTICATED
from .net.adversary import Adversary
from .obs import Telemetry
from .predictions.generators import GENERATORS, generate
from .reporting.render import write_report
from .reporting.spec import Report, ReportSpec, TableSpec, build_report
from .runtime.aggregate import check_envelopes, summarize
from .runtime.backends import Backend, make_backend
from .runtime.execute import SCHEMA_VERSION, solve_spec
from .runtime.runner import CampaignResult, CampaignRunner, CampaignStats
from .runtime.scenario import (
    INPUT_PATTERNS,
    ScenarioGrid,
    ScenarioSpec,
    _axis,
    default_t,
    pattern_inputs,
)
from .runtime.store import ResultStore, open_store

#: Version of the public surface in this module.  Bump on any breaking
#: signature change; the API snapshot test pins the current surface.
API_VERSION = 4

_SEED_SPACE = 2**30

#: Axis-bearing experiment fields, in ScenarioGrid declaration order.
_AXIS_FIELDS = (
    "n", "t", "f", "budget", "mode", "adversary", "generator", "pattern",
    "seed",
)

#: Default row columns for auto-generated single-table reports.
_DEFAULT_COLUMNS = [
    "n", "t", "f", "B", "mode", "adversary", "agreed", "rounds",
    "messages", "lb_rounds",
]


class Experiment:
    """An immutable, composable description of agreement experiments.

    Constructor arguments mirror :class:`ScenarioSpec`/:class:`ScenarioGrid`
    fields; every axis argument accepts a scalar or an iterable of
    values (``Experiment(n=[10, 20, 40])`` is a three-point grid).
    ``t``/``f`` entries of ``None`` derive the conventional values
    (``max(1, (n-1)//3)`` and ``t`` -- or the explicit fault-set size --
    respectively).  See the module docstring for the lifecycle.
    """

    def __init__(
        self,
        n: Any = 7,
        t: Any = None,
        f: Any = None,
        *,
        budget: Any = 0,
        mode: Any = UNAUTHENTICATED,
        adversary: Any = "silent",
        generator: Any = "concentrated",
        pattern: Any = "split",
        seed: Any = 0,
        arms: Sequence[str] = ("early", "class"),
        faulty: Optional[Iterable[int]] = None,
        inputs: Optional[Sequence[Any]] = None,
        skip_invalid: bool = False,
    ) -> None:
        self._axes: Dict[str, Tuple[Any, ...]] = {
            "n": _axis(n),
            "t": _axis(t),
            "f": _axis(f),
            "budget": _axis(budget),
            "mode": _axis(mode),
            "adversary": _axis(adversary),
            "generator": _axis(generator),
            "pattern": _axis(pattern),
            # A scalar seed is one literal seed value (ScenarioSpec
            # semantics); use with_seeds(count) for range expansion.
            "seed": _axis(seed),
        }
        self._arms: Tuple[str, ...] = tuple(arms)
        self._faulty: Optional[Tuple[int, ...]] = (
            tuple(faulty) if faulty is not None else None
        )
        self._inputs: Optional[Tuple[Any, ...]] = (
            tuple(inputs) if inputs is not None else None
        )
        self._skip_invalid = bool(skip_invalid)
        # Explicit scenario list (from_specs); bypasses the axis product.
        self._specs: Optional[Tuple[ScenarioSpec, ...]] = None
        # Object-level overrides and execution options (solve_one only).
        self._adversary_obj: Optional[Adversary] = None
        self._predictions_obj: Optional[Any] = None
        self._key_seed: Optional[int] = None
        self._max_rounds: Optional[int] = None
        self._cache: bool = True
        self._validate_categoricals()

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Experiment":
        """An experiment describing exactly one existing scenario."""
        return cls.from_specs([spec])

    @classmethod
    def from_specs(cls, specs: Iterable[ScenarioSpec]) -> "Experiment":
        """An experiment over an explicit scenario list.

        For scenario sets no cartesian grid expresses (coupled axes,
        Monte-Carlo samples).  ``scenarios()``/``run()``/``report()``
        work as usual; :meth:`compile` raises, because there is no grid
        form to compile to.
        """
        experiment = cls()
        experiment._specs = tuple(spec.validate() for spec in specs)
        return experiment

    def _clone(self, **updates: Any) -> "Experiment":
        """Copy-with-updates; the engine of every fluent method."""
        twin = Experiment.__new__(Experiment)
        twin._axes = dict(self._axes)
        twin._arms = self._arms
        twin._faulty = self._faulty
        twin._inputs = self._inputs
        twin._skip_invalid = self._skip_invalid
        twin._specs = self._specs
        twin._adversary_obj = self._adversary_obj
        twin._predictions_obj = self._predictions_obj
        twin._key_seed = self._key_seed
        twin._max_rounds = self._max_rounds
        twin._cache = self._cache
        for name, value in updates.items():
            setattr(twin, name, value)
        twin._validate_categoricals()
        return twin

    def _validate_categoricals(self) -> None:
        """Eager validation: a typo'd name fails at build time, not after
        half a campaign has executed."""
        for mode in self._axes["mode"]:
            if mode not in MODES:
                raise ValueError(
                    f"unknown mode {mode!r} (known modes: {', '.join(MODES)})"
                )
        for adversary in self._axes["adversary"]:
            adversary_spec(adversary)  # raises on unknown kinds
        for generator in self._axes["generator"]:
            if generator not in GENERATORS:
                raise ValueError(f"unknown generator kind {generator!r}")
        if self._inputs is None:
            for pattern in self._axes["pattern"]:
                if pattern not in INPUT_PATTERNS:
                    raise ValueError(f"unknown input pattern {pattern!r}")

    # -- fluent builders -----------------------------------------------

    def grid(self, **axes: Any) -> "Experiment":
        """Replace any axis with a value list (``grid(n=[10, 20, 40])``).

        Accepts every axis field (``n``/``t``/``f``/``budget``/``mode``/
        ``adversary``/``generator``/``pattern``/``seed``); ``seeds`` is
        an alias of ``seed`` accepting an int count (expanded to
        ``range(count)``).
        """
        self._require_axes("grid()")
        updates = dict(self._axes)
        for name, value in axes.items():
            if name == "seeds":
                name, value = "seed", (
                    tuple(range(value)) if isinstance(value, int) else value
                )
            if name not in _AXIS_FIELDS:
                raise ValueError(
                    f"unknown grid axis {name!r} "
                    f"(known: {', '.join(_AXIS_FIELDS)}, seeds)"
                )
            updates[name] = _axis(value)
        return self._clone(_axes=updates)

    def with_mode(self, mode: Any) -> "Experiment":
        """Set the protocol mode (or mode axis)."""
        return self.grid(mode=mode)

    def with_adversary(
        self, adversary: Union[str, Adversary, Sequence[str]]
    ) -> "Experiment":
        """Set the adversary by registry name (or name axis), or -- for
        single executions only -- an :class:`Adversary` instance."""
        if isinstance(adversary, Adversary):
            self._require_axes("adversary object overrides")
            return self._clone(_adversary_obj=adversary)
        # Last call wins: a declarative name replaces any earlier object
        # override instead of being silently shadowed by it.
        return self.grid(adversary=adversary)._clone(_adversary_obj=None)

    def with_predictions(
        self, predictions: Any, B: Optional[Any] = None
    ) -> "Experiment":
        """Set the prediction workload.

        ``with_predictions("hiding", B=3)`` declares a generator name
        plus error budget (both may be axes); ``with_predictions(
        assignment)`` pins an explicit prediction assignment for single
        executions.
        """
        if isinstance(predictions, str):
            experiment = self.grid(generator=predictions)
            if B is not None:
                experiment = experiment.grid(budget=B)
            # Last call wins over any earlier explicit assignment.
            return experiment._clone(_predictions_obj=None)
        if B is not None:
            raise ValueError(
                "B= only applies to generator names, not explicit "
                "prediction assignments"
            )
        self._require_axes("prediction object overrides")
        return self._clone(_predictions_obj=predictions)

    def with_budget(self, B: Any) -> "Experiment":
        """Set the prediction error budget ``B`` (or budget axis)."""
        return self.grid(budget=B)

    def with_faults(
        self,
        f: Any = None,
        faulty: Optional[Iterable[int]] = None,
    ) -> "Experiment":
        """Set the fault count axis and/or an explicit fault set.

        With only ``faulty`` given, ``f`` derives the set's size.
        """
        self._require_axes("with_faults()")
        experiment = self
        if faulty is not None:
            experiment = experiment._clone(_faulty=tuple(faulty))
            if f is None:
                f = len(set(experiment._faulty))
        if f is not None:
            experiment = experiment.grid(f=f)
        return experiment

    def with_inputs(self, inputs: Sequence[Any]) -> "Experiment":
        """Pin the exact proposal vector (overrides ``pattern``)."""
        self._require_axes("with_inputs()")
        return self._clone(_inputs=tuple(inputs))

    def with_pattern(self, pattern: Any) -> "Experiment":
        """Set the input pattern (or pattern axis); see
        :data:`~repro.runtime.scenario.INPUT_PATTERNS`."""
        return self.grid(pattern=pattern)

    def with_arms(self, *arms: str) -> "Experiment":
        """Set the wrapper arms raced inside each phase."""
        self._require_axes("with_arms()")
        return self._clone(_arms=tuple(arms))

    def with_seeds(self, seeds: Any) -> "Experiment":
        """Set the seed axis: an int expands to ``range(seeds)``."""
        return self.grid(seeds=seeds)

    def with_options(
        self,
        *,
        key_seed: Optional[int] = None,
        max_rounds: Optional[int] = None,
        cache: Optional[bool] = None,
    ) -> "Experiment":
        """Set single-execution engine options (:meth:`solve_one` /
        :meth:`baseline` only).

        ``key_seed`` pins the simulated-PKI key material explicitly --
        setting it (even to 0) switches :meth:`solve_one` from the
        scenario-derived randomness convention to the engine path with
        this seed.  ``max_rounds`` caps the engine; ``cache`` toggles
        the authenticated-mode verification caches (results are
        identical either way).
        """
        if key_seed is not None:
            self._require_axes("key_seed overrides")
        updates: Dict[str, Any] = {}
        if key_seed is not None:
            updates["_key_seed"] = key_seed
        if max_rounds is not None:
            updates["_max_rounds"] = max_rounds
        if cache is not None:
            updates["_cache"] = cache
        return self._clone(**updates)

    def skip_invalid(self, skip: bool = True) -> "Experiment":
        """Drop numerically infeasible grid combinations instead of
        raising (typo'd categorical values still raise)."""
        return self._clone(_skip_invalid=bool(skip))

    # -- compilation ---------------------------------------------------

    def compile(self) -> ScenarioGrid:
        """Compile to the single declarative target: a
        :class:`ScenarioGrid` whose expansion is this experiment's
        scenario list.  Raises for experiments that have no grid form
        (explicit spec lists, object overrides, engine options)."""
        self._require_declarative("compile()")
        if self._specs is not None:
            raise ValueError(
                "explicit scenario lists have no grid form; use scenarios()"
            )
        return self._grid()

    def _grid(self) -> ScenarioGrid:
        """The grid form of the axis state, unchecked (scenario identity
        ignores solve_one-only engine options, so :meth:`spec` may
        compile while they are set; the public :meth:`compile` and the
        campaign entries go through :meth:`_require_declarative`)."""
        return ScenarioGrid(
            n=self._axes["n"],
            t=self._axes["t"],
            f=self._axes["f"],
            budget=self._axes["budget"],
            mode=self._axes["mode"],
            adversary=self._axes["adversary"],
            generator=self._axes["generator"],
            pattern=self._axes["pattern"],
            seeds=self._axes["seed"],
            arms=self._arms,
            faulty=self._faulty,
            inputs=self._inputs,
            skip_invalid=self._skip_invalid,
        )

    def scenarios(self) -> List[ScenarioSpec]:
        """Every concrete scenario this experiment describes, in
        deterministic order."""
        if self._specs is not None:
            return list(self._specs)
        self._require_no_objects("scenarios()")
        return self._grid().expand()

    def spec(self) -> ScenarioSpec:
        """The single scenario of a one-point experiment (raises if the
        experiment describes zero or several)."""
        specs = self.scenarios()
        if len(specs) != 1:
            raise ValueError(
                f"experiment describes {len(specs)} scenarios, not 1; "
                "pin every axis (and the seed) before spec()/solve_one()"
            )
        return specs[0]

    def size(self) -> int:
        """Number of scenarios described (after ``skip_invalid``)."""
        return len(self.scenarios())

    # -- execution -----------------------------------------------------

    def solve_one(self) -> SolveReport:
        """Run one execution end to end; return its :class:`SolveReport`.

        Fully declarative experiments run the exact scenario row path
        (identical randomness and results to :meth:`run`); experiments
        carrying object overrides (an adversary/prediction instance, an
        explicit ``key_seed``) run the engine directly with those
        objects and the given ``key_seed`` (0 when unset).  Only that
        path accepts a single process (``n=1``) or proposals JSON cannot
        encode (``bytes``), which no scenario can carry.
        """
        if not self._has_overrides():
            return solve_spec(
                self.spec(), cache=self._cache, max_rounds=self._max_rounds
            )
        n, t = self._single("n"), self._single("t")
        if t is None:
            t = default_t(n)
        inputs, faulty, kwargs = self._override_ingredients(n, t)
        return _solve(
            n,
            t,
            inputs,
            faulty_ids=faulty,
            mode=self._single("mode"),
            arms=self._arms,
            key_seed=self._key_seed or 0,
            max_rounds=self._max_rounds,
            cache=self._cache,
            **kwargs,
        )

    def baseline(self) -> SolveReport:
        """Run the prediction-free early-stopping baseline on this
        experiment's workload (what a system without a security monitor
        deploys; ``O(f)`` rounds always)."""
        self._require_axes("baseline()")
        n, t = self._single("n"), self._single("t")
        if t is None:
            t = default_t(n)
        inputs, faulty, kwargs = self._override_ingredients(n, t)
        kwargs.pop("predictions", None)
        return _solve_baseline(
            n,
            t,
            inputs,
            faulty_ids=faulty,
            max_rounds=(
                self._max_rounds if self._max_rounds is not None else 100_000
            ),
            **kwargs,
        )

    def run(
        self,
        *,
        store: Optional[Union[str, ResultStore]] = None,
        workers: int = 1,
        backend: Optional[Union[str, Backend]] = None,
        telemetry: Optional[Union[str, Telemetry]] = None,
        live: bool = False,
    ) -> "Campaign":
        """Execute every scenario (cached rows served from ``store``).

        Args:
            store: result store path or instance; completed scenarios
                are served from it and fresh rows persisted to it.  A
                store opened from a path is closed when the run ends.
            workers: local worker count for a backend built by name.
            backend: a :class:`Backend` instance (e.g. a
                :class:`~repro.runtime.backends.SocketBackend` over
                remote workers), or a name (``"serial"``/``"pool"``/
                ``"auto"``, the default ``None`` meaning ``"auto"``)
                handed with ``workers`` to
                :func:`~repro.runtime.backends.make_backend`.  A backend
                built by name is closed after the run; an instance is
                the caller's to close.
            telemetry: observability sidecar -- a JSONL sink path
                (render it with ``python -m repro stats PATH``) or a
                :class:`~repro.obs.Telemetry` instance.  Phase timings
                and worker utilization are recorded alongside the run;
                result rows are byte-identical with telemetry on or off.
            live: render a live progress line (throughput, ETA,
                per-worker state) to stderr while the campaign runs;
                rows stay byte-identical with the live view on or off.

        Returns:
            A :class:`Campaign` with rows in scenario order.
        """
        self._require_declarative("run()")
        with ExitStack() as stack:
            if not isinstance(backend, Backend):
                backend = stack.enter_context(
                    make_backend(backend, workers=workers)
                )
            opened = stack.enter_context(open_store(store))
            runner = CampaignRunner(
                store=opened, backend=backend, telemetry=telemetry, live=live,
            )
            result = runner.run(self.scenarios())
            summary = backend.summary()
        return Campaign(
            experiment=self, result=result, store=opened,
            backend_summary=summary,
            telemetry=telemetry if isinstance(telemetry, Telemetry) else None,
        )

    def report(
        self,
        spec: Optional[ReportSpec] = None,
        *,
        store: Optional[Union[str, ResultStore]] = None,
        backend: Optional[Union[str, Backend]] = None,
    ) -> Report:
        """Build a report, executing only scenarios the store is missing.

        With ``spec=None`` a single-table :class:`ReportSpec` over this
        experiment's scenarios is synthesized; otherwise the given spec's
        scenarios are used and this experiment only supplies the
        execution context (store/backend) -- the ``python -m repro
        report`` path.  ``store`` and ``backend`` are taken as in
        :meth:`run`.
        """
        self._require_declarative("report()")
        if spec is None:
            spec = ReportSpec(
                title="Experiment report",
                scale="adhoc",
                preamble="",
                tables=[
                    TableSpec(
                        name="experiment",
                        title="Experiment results",
                        scenarios=self.scenarios(),
                        columns=list(_DEFAULT_COLUMNS),
                    )
                ],
            )
        with ExitStack() as stack:
            if not isinstance(backend, Backend):
                backend = stack.enter_context(make_backend(backend))
            return build_report(spec, store=store, backend=backend)

    # -- internals -----------------------------------------------------

    def _has_overrides(self) -> bool:
        return (
            self._adversary_obj is not None
            or self._predictions_obj is not None
            or self._key_seed is not None
        )

    def _require_no_objects(self, what: str) -> None:
        if self._adversary_obj is not None or self._predictions_obj is not None:
            raise ValueError(
                f"{what} requires a declarative experiment; adversary/"
                "prediction object overrides only support solve_one()/"
                "baseline()"
            )

    def _require_declarative(self, what: str) -> None:
        self._require_no_objects(what)
        if (
            self._key_seed is not None
            or self._max_rounds is not None
            or not self._cache
        ):
            # Campaign rows are pure functions of each spec's content
            # hash; per-call engine options cannot ride along, and
            # silently dropping them would make run() rows diverge from
            # solve_one() with no error.
            raise ValueError(
                f"{what} requires a declarative experiment; "
                "with_options(key_seed/max_rounds/cache) only supports "
                "solve_one()/baseline()"
            )

    def _require_axes(self, what: str) -> None:
        """Explicit-scenario experiments (``from_specs``) carry their
        whole identity in the specs; axis/override state would be
        silently ignored, so setting it must fail loudly."""
        if self._specs is not None:
            raise ValueError(
                f"{what} does not apply to explicit-scenario experiments "
                "(from_spec/from_specs): the specs carry the full "
                "configuration; build an Experiment from fields instead"
            )

    def _single(self, axis: str) -> Any:
        values = self._axes[axis]
        if len(values) != 1:
            raise ValueError(
                f"single executions need exactly one {axis!r} value, "
                f"got {len(values)}"
            )
        return values[0]

    def _override_ingredients(
        self, n: int, t: int
    ) -> Tuple[List[Any], List[int], Dict[str, Any]]:
        """Concrete engine ingredients for the object/explicit path."""
        if self._inputs is not None:
            inputs = list(self._inputs)
        else:
            inputs = pattern_inputs(n, self._single("pattern"))
        if self._faulty is not None:
            faulty = sorted(set(self._faulty))
        else:
            # Same f = t default as ScenarioGrid.expand.
            f = self._single("f")
            if f is None:
                f = t
            faulty = list(range(n - f, n))
        kwargs: Dict[str, Any] = {}
        adversary = self._adversary_obj
        if adversary is None and self._axes["adversary"] != ("silent",):
            adversary = make_adversary(
                self._single("adversary"), seed=self._single("seed")
            )
        kwargs["adversary"] = adversary
        predictions = self._predictions_obj
        if predictions is None:
            budget = self._single("budget")
            # Same per-n-fraction convention as ScenarioGrid.expand, so
            # one Experiment means one budget on either execution path.
            if isinstance(budget, float):
                budget = int(budget * n)
            if budget:
                honest = [pid for pid in range(n) if pid not in set(faulty)]
                predictions = generate(
                    self._single("generator"), n, honest, budget,
                    random.Random(self._single("seed")),
                )
        kwargs["predictions"] = predictions
        return inputs, faulty, kwargs

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-stable description of a declarative experiment (the
        compiled scenarios' ``to_dict`` forms, plus the API version)."""
        self._require_declarative("to_dict()")
        return {
            "api": API_VERSION,
            "schema": SCHEMA_VERSION,
            "scenarios": [spec.to_dict() for spec in self.scenarios()],
        }

    def __len__(self) -> int:
        return self.size()

    def __repr__(self) -> str:
        if self._specs is not None:
            return f"<Experiment specs={len(self._specs)}>"
        axes = ", ".join(
            f"{name}={list(values)!r}" if len(values) > 1
            else f"{name}={values[0]!r}"
            for name, values in self._axes.items()
        )
        return f"<Experiment {axes}>"


class Campaign:
    """The outcome of :meth:`Experiment.run`: ordered rows plus context.

    Wraps the runner's :class:`CampaignResult` with the experiment that
    produced it, the store that cached it, and aggregation shortcuts.
    """

    def __init__(
        self,
        experiment: Experiment,
        result: CampaignResult,
        store: Optional[ResultStore] = None,
        backend_summary: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.experiment = experiment
        self.result = result
        self.store = store
        #: One human line from the backend that ran the pending set
        #: (``None`` when it has nothing to report, as for serial).
        self.backend_summary = backend_summary
        #: The :class:`~repro.obs.Telemetry` the campaign recorded into,
        #: when the caller passed an instance (sink paths are closed
        #: after the run; read them with ``repro.obs.load_telemetry`` or
        #: ``python -m repro stats``).
        self.telemetry = telemetry

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """Result rows, one per scenario, in scenario order."""
        return self.result.rows

    @property
    def stats(self) -> CampaignStats:
        """Execution accounting (executed/cached/deduplicated/failed)."""
        return self.result.stats

    def ok_rows(self) -> List[Dict[str, Any]]:
        """Rows of successfully executed scenarios (no ``error`` key)."""
        return self.result.ok_rows()

    def raise_on_failure(self) -> "Campaign":
        """Raise if any scenario failed; returns self for chaining."""
        self.result.raise_on_failure()
        return self

    def summarize(
        self, by: Sequence[str] = ("n", "mode", "adversary")
    ) -> List[Dict[str, Any]]:
        """Group-by summary statistics over the successful rows."""
        return summarize(self.ok_rows(), by=list(by))

    def check_envelopes(self) -> List[Dict[str, Any]]:
        """Measured-vs-theory violations over the successful rows."""
        return check_envelopes(self.ok_rows())

    def __iter__(self):
        return iter(self.result.rows)

    def __len__(self) -> int:
        return len(self.result.rows)

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"<Campaign rows={len(self)} executed={stats.executed} "
            f"cached={stats.cached} failed={stats.failed}>"
        )


__all__ = [
    "API_VERSION",
    "AUTHENTICATED",
    "Campaign",
    "Experiment",
    "MODES",
    "Report",
    "ReportSpec",
    "ResultStore",
    "SCHEMA_VERSION",
    "ScenarioGrid",
    "ScenarioSpec",
    "SolveReport",
    "Telemetry",
    "UNAUTHENTICATED",
    "build_report",
    "solve_spec",
    "write_report",
]
