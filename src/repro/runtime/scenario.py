"""Declarative scenario layer: specs, grids, and derived seeds.

A :class:`ScenarioSpec` is a frozen, hashable description of exactly one
agreement execution -- sizes, fault set, inputs, protocol mode and arms,
plus the prediction workload and adversary by name.  Its content hash is
the campaign runtime's unit of identity: the :class:`ResultStore
<repro.runtime.store.ResultStore>` caches rows by it, and the
per-scenario RNG seed is derived from it, which is what makes a campaign
bit-identical whether it runs serially or on N workers.

A :class:`ScenarioGrid` is the cartesian product of per-field axes.  It
expands combinations no hand-written sweep expressed before (for example
authenticated-mode Monte-Carlo grids under the stalling adversary) in a
deterministic order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.wrapper import AUTHENTICATED, MODES, UNAUTHENTICATED
from ..adversary.registry import adversary_spec
from ..predictions.generators import GENERATORS

INPUT_PATTERNS = ("split", "zeros", "ones", "alternating")


def pattern_inputs(n: int, pattern: str = "split") -> List[int]:
    """Standard input vectors: ``split`` (half 0 / half 1), ``zeros``,
    ``ones``, or ``alternating``."""
    if pattern == "zeros":
        return [0] * n
    if pattern == "ones":
        return [1] * n
    if pattern == "alternating":
        return [pid % 2 for pid in range(n)]
    if pattern == "split":
        return [0 if pid < n // 2 else 1 for pid in range(n)]
    raise ValueError(f"unknown input pattern {pattern!r}")


def default_t(n: int) -> int:
    """The conventional fault bound ``max(1, (n - 1) // 3)``."""
    return max(1, (n - 1) // 3)


@dataclass(frozen=True)
class ScenarioSpec:
    """One concrete, hashable agreement scenario.

    ``faulty`` overrides the highest-ids-faulty convention with an explicit
    fault set; ``inputs`` overrides ``pattern`` with an explicit proposal
    vector.  Both stay part of the content hash, so randomized Monte-Carlo
    trials are cacheable scenarios like any other.
    """

    n: int
    t: int
    f: int
    budget: int = 0
    mode: str = UNAUTHENTICATED
    adversary: str = "silent"
    generator: str = "concentrated"
    pattern: str = "split"
    seed: int = 0
    arms: Tuple[str, ...] = ("early", "class")
    faulty: Optional[Tuple[int, ...]] = None
    inputs: Optional[Tuple[Any, ...]] = None

    def validate(self) -> "ScenarioSpec":
        """Check internal consistency; returns self for chaining."""
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not 0 <= self.f <= self.t:
            raise ValueError(f"need 0 <= f <= t, got f={self.f}, t={self.t}")
        if self.t >= self.n:
            raise ValueError(f"need t < n, got t={self.t}, n={self.n}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        adversary_spec(self.adversary)  # raises on unknown kinds
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator kind {self.generator!r}")
        if self.inputs is None and self.pattern not in INPUT_PATTERNS:
            raise ValueError(f"unknown input pattern {self.pattern!r}")
        if self.faulty is not None:
            if len(set(self.faulty)) != self.f:
                raise ValueError(
                    f"explicit faulty set has {len(set(self.faulty))} ids, "
                    f"but f={self.f}"
                )
            if any(pid < 0 or pid >= self.n for pid in self.faulty):
                raise ValueError("faulty ids must lie in 0..n-1")
        if self.inputs is not None:
            if len(self.inputs) != self.n:
                raise ValueError(
                    f"expected {self.n} inputs, got {len(self.inputs)}"
                )
            try:
                json.dumps(self.inputs, sort_keys=True)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"inputs must be JSON-encodable: {exc}"
                ) from None
        return self

    def faulty_ids(self) -> List[int]:
        """The concrete fault set (explicit, or the highest ``f`` ids)."""
        if self.faulty is not None:
            return sorted(self.faulty)
        return list(range(self.n - self.f, self.n))

    def input_vector(self) -> List[Any]:
        """The concrete proposal vector (explicit, or from ``pattern``)."""
        if self.inputs is not None:
            return list(self.inputs)
        return pattern_inputs(self.n, self.pattern)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-stable dict of every identity-bearing field.

        This is the *one* serialized form of a scenario: the wire
        protocol ships it in ``job`` frames, :meth:`scenario_hash`
        content-addresses it, and the public API
        (:class:`repro.api.Experiment`) exposes it for caching/diffing.
        :meth:`from_dict` is its exact inverse.
        """
        doc: Dict[str, Any] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        doc["arms"] = list(self.arms)
        doc["faulty"] = list(self.faulty) if self.faulty is not None else None
        doc["inputs"] = list(self.inputs) if self.inputs is not None else None
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a validated spec from its :meth:`to_dict` dict.

        The inverse of :meth:`to_dict` modulo JSON's tuple/list
        conflation (``arms``/``faulty``/``inputs`` come back as lists and
        are re-frozen here, tuple-valued inputs at every depth), so
        ``from_dict(spec.to_dict())`` has the same content hash as
        ``spec`` -- which is what lets the socket backend ship specs over
        the wire and workers cross-check the driver's scenario key.
        Unknown fields raise: a driver/worker version skew must fail
        loudly, not drop identity-bearing state.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        doc = dict(doc)
        if "arms" in doc:
            doc["arms"] = tuple(doc["arms"])
        if doc.get("faulty") is not None:
            doc["faulty"] = tuple(doc["faulty"])
        if doc.get("inputs") is not None:
            doc["inputs"] = _freeze(doc["inputs"])
        return cls(**doc).validate()

    def scenario_hash(self) -> str:
        """Content address: sha256 over the canonical JSON encoding."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def derived_seed(self) -> int:
        """Deterministic per-scenario RNG seed, derived from the content
        hash so it is identical on any worker, in any execution order."""
        return int(self.scenario_hash()[:16], 16)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy of this spec with ``seed`` replaced (new content hash)."""
        return replace(self, seed=seed)


def _freeze(value: Any) -> Any:
    """Undo JSON's tuple-to-list conversion at every depth."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def _axis(value: Any) -> Tuple[Any, ...]:
    """Normalize a grid axis: scalars become singleton tuples."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return (value,)
    return tuple(value)


@dataclass
class ScenarioGrid:
    """Cartesian product of scenario axes.

    Every axis accepts either a scalar or an iterable of values.  ``t``
    entries of ``None`` derive ``max(1, (n - 1) // 3)``; ``f`` entries of
    ``None`` derive ``t``.  ``budget`` entries may be floats, interpreted
    as a per-``n`` fraction (``budget = int(frac * n)``), which lets one
    grid sweep sizes at a fixed relative prediction error.  ``seeds`` may
    be an int (expanded to ``range(seeds)``) or an iterable of seeds.

    ``skip_invalid`` drops numerically infeasible combinations (for
    example an explicit ``f`` axis value above an explicit ``t``) instead
    of raising, which is what a crossed grid usually wants.  Unknown
    categorical values (mode, adversary, generator, pattern) always
    raise: a typo should never silently shrink a campaign.

    ``faulty``/``inputs`` are *fixed* (non-axis) overrides applied to
    every expanded spec -- an explicit fault set or proposal vector, as
    in :class:`ScenarioSpec`.  With ``faulty`` set, ``f`` axis entries of
    ``None`` derive the fault-set size instead of ``t``.  This is what
    lets :meth:`repro.api.Experiment.compile` target one grid type even
    for experiments pinned to concrete faults or inputs.
    """

    n: Any = (7,)
    t: Any = (None,)
    f: Any = (None,)
    budget: Any = (0,)
    mode: Any = (UNAUTHENTICATED,)
    adversary: Any = ("silent",)
    generator: Any = ("concentrated",)
    pattern: Any = ("split",)
    seeds: Any = (0,)
    arms: Tuple[str, ...] = ("early", "class")
    faulty: Optional[Tuple[int, ...]] = None
    inputs: Optional[Tuple[Any, ...]] = None
    skip_invalid: bool = False

    def __post_init__(self) -> None:
        for name in ("n", "t", "f", "budget", "mode", "adversary",
                     "generator", "pattern"):
            setattr(self, name, _axis(getattr(self, name)))
        if isinstance(self.seeds, int):
            self.seeds = tuple(range(self.seeds))
        else:
            self.seeds = _axis(self.seeds)
        self.arms = tuple(self.arms)
        if self.faulty is not None:
            self.faulty = tuple(self.faulty)
        if self.inputs is not None:
            self.inputs = tuple(self.inputs)

    def size(self) -> int:
        """Number of raw combinations (before ``skip_invalid`` filtering)."""
        total = 1
        for axis in (self.n, self.t, self.f, self.budget, self.mode,
                     self.adversary, self.generator, self.pattern, self.seeds):
            total *= len(axis)
        return total

    def __len__(self) -> int:
        return self.size()

    def _check_categorical_axes(self) -> None:
        for mode in self.mode:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
        for adversary in self.adversary:
            adversary_spec(adversary)  # raises on unknown kinds
        for generator in self.generator:
            if generator not in GENERATORS:
                raise ValueError(f"unknown generator kind {generator!r}")
        for pattern in self.pattern:
            if pattern not in INPUT_PATTERNS:
                raise ValueError(f"unknown input pattern {pattern!r}")

    def expand(self) -> List[ScenarioSpec]:
        """All concrete scenarios, in deterministic axis-product order."""
        self._check_categorical_axes()
        specs: List[ScenarioSpec] = []
        for (n, t, f, budget, mode, adversary, generator, pattern,
             seed) in itertools.product(
                 self.n, self.t, self.f, self.budget, self.mode,
                 self.adversary, self.generator, self.pattern, self.seeds):
            t_val = default_t(n) if t is None else t
            if f is None:
                f_val = (
                    len(set(self.faulty)) if self.faulty is not None else t_val
                )
            else:
                f_val = f
            budget_val = (
                int(budget * n) if isinstance(budget, float) else budget
            )
            spec = ScenarioSpec(
                n=n,
                t=t_val,
                f=f_val,
                budget=budget_val,
                mode=mode,
                adversary=adversary,
                generator=generator,
                pattern=pattern,
                seed=seed,
                arms=self.arms,
                faulty=self.faulty,
                inputs=self.inputs,
            )
            try:
                spec.validate()
            except ValueError:
                if self.skip_invalid:
                    continue
                raise
            specs.append(spec)
        return specs

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self.expand())
