"""Declarative report specifications and the store-fed build step.

A :class:`ReportSpec` declares *what* a report contains -- tables fed by
scenario lists, figures over those tables, and paper claims checked
against the measured rows -- without saying anything about where the rows
come from.  :func:`build_report` supplies the rows: it pushes every
scenario through a :class:`~repro.runtime.runner.CampaignRunner` backed by
an optional :class:`~repro.runtime.store.ResultStore`, so a cold store
executes the missing scenarios once and a warm store renders the whole
report without a single protocol execution.  Because every row is a pure
function of its scenario's content hash, the built report -- and any
document rendered from it -- is byte-identical run over run.

The v1 front door wraps this layer: :meth:`repro.api.Experiment.report`
is :func:`build_report` on a backend it may build by name, and with no
explicit spec it synthesizes a single-table report over the experiment's
own scenarios.  Rows served here carry the ``schema`` stamp
(:data:`repro.runtime.execute.SCHEMA_VERSION`) when freshly executed;
legacy schema-less store rows render identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..runtime.backends import Backend
from ..runtime.runner import CampaignRunner, CampaignStats
from ..runtime.scenario import ScenarioSpec
from ..runtime.store import ResultStore, open_store

Row = Dict[str, Any]
#: Optional per-row enrichment: ``derive(row, scenario)`` returns extra
#: columns merged over a copy of the raw row (renames, lower bounds, ...).
DeriveFn = Callable[[Row, ScenarioSpec], Row]
#: Claim verdict: ``check(rows)`` returns a :class:`ClaimResult`.
CheckFn = Callable[[List[Row]], "ClaimResult"]

#: Claim table sentinel: check runs over every table's rows concatenated.
ALL_TABLES = "*"


@dataclass
class TableSpec:
    """One result table: the scenarios that feed it and how to render it.

    Args:
        name: stable identifier (also the per-table output file stem).
        title: section heading in the rendered report.
        scenarios: the exact :class:`ScenarioSpec` list feeding the table,
            one row per scenario, in order.
        columns: columns to render, drawn from the (derived) rows.
        derive: optional ``(row, scenario) -> extra columns`` enrichment;
            the result is merged over a copy of the raw row, so raw
            columns stay available to claims and figures.
        note: one-paragraph caption rendered under the heading.
    """

    name: str
    title: str
    scenarios: List[ScenarioSpec]
    columns: List[str]
    derive: Optional[DeriveFn] = None
    note: str = ""


@dataclass
class FigureSpec:
    """One figure: a plot of ``y`` against ``x`` over a table's rows.

    ``where`` optionally restricts the plotted rows (e.g. only the
    worst-case runs of a table that also carries baselines); renderers
    apply it to every output medium (embedded ASCII, figure files, PNG).
    """

    name: str
    table: str
    x: str
    y: str
    title: str
    where: Optional[Callable[[Row], bool]] = None


@dataclass(frozen=True)
class ClaimResult:
    """The verdict of one claim check: PASS/FAIL plus a measured summary."""

    passed: bool
    measured: str

    @property
    def status(self) -> str:
        """``"PASS"`` or ``"FAIL"`` (the string rendered in reports)."""
        return "PASS" if self.passed else "FAIL"


@dataclass
class ClaimSpec:
    """One paper claim checked against measured rows.

    Args:
        claim_id: stable identifier (e.g. ``"T13-round-lb"``); rendered in
            the claim checklist and greppable by CI.
        statement: the paper's claim, quoted or paraphrased.
        table: name of the table whose rows feed the check, or
            :data:`ALL_TABLES` to check every table's rows at once.
        check: ``rows -> ClaimResult`` verdict function.
    """

    claim_id: str
    statement: str
    table: str
    check: CheckFn


@dataclass
class ReportSpec:
    """A full report: metadata plus tables, figures, and claims."""

    title: str
    scale: str
    preamble: str
    tables: List[TableSpec]
    figures: List[FigureSpec] = field(default_factory=list)
    claims: List[ClaimSpec] = field(default_factory=list)
    regen_command: str = ""

    def scenarios(self) -> List[ScenarioSpec]:
        """Every scenario the report needs, in table order."""
        return [spec for table in self.tables for spec in table.scenarios]


@dataclass
class Report:
    """A built report: the spec plus measured rows and claim verdicts."""

    spec: ReportSpec
    tables: Dict[str, List[Row]]
    claims: List[Tuple[ClaimSpec, ClaimResult]]
    stats: CampaignStats

    @property
    def passed(self) -> bool:
        """Whether every claim check passed."""
        return all(result.passed for _, result in self.claims)

    def failed_claims(self) -> List[str]:
        """Claim ids whose checks failed."""
        return [
            claim.claim_id for claim, result in self.claims
            if not result.passed
        ]

    def table_rows(self, name: str) -> List[Row]:
        """The derived rows of one table (:data:`ALL_TABLES` for all)."""
        if name == ALL_TABLES:
            return [row for rows in self.tables.values() for row in rows]
        return self.tables[name]


def table_rows(
    table: TableSpec,
    store: Optional[Union[str, ResultStore]] = None,
    backend: Optional[Backend] = None,
) -> List[Row]:
    """Build one table's derived rows (convenience for single-table use)."""
    spec = ReportSpec(
        title=table.title, scale="adhoc", preamble="", tables=[table]
    )
    built = build_report(spec, store=store, backend=backend)
    return built.tables[table.name]


def build_report(
    spec: ReportSpec,
    store: Optional[Union[str, ResultStore]] = None,
    backend: Optional[Backend] = None,
) -> Report:
    """Materialize a :class:`ReportSpec` into measured rows and verdicts.

    Args:
        spec: the report declaration.
        store: optional result store (path or instance).  Rows already in
            the store are served without execution; missing scenarios are
            executed through :class:`CampaignRunner` and persisted.  A
            store opened from a path is closed before returning.
        backend: optional execution backend for the missing scenarios
            (e.g. a connected :class:`SocketBackend
            <repro.runtime.backends.SocketBackend>`); serial when
            ``None``.  The same interface serves campaigns and reports,
            so a warm store renders identically whichever backend
            filled it.

    Returns:
        A :class:`Report`; ``report.stats.executed`` is 0 when the store
        already held every row.

    Raises:
        RuntimeError: if any scenario fails to execute (failed rows are
        never persisted, so the next build retries them).
    """
    with open_store(store) as opened:
        runner = CampaignRunner(store=opened, backend=backend)
        result = runner.run(spec.scenarios()).raise_on_failure()

    tables: Dict[str, List[Row]] = {}
    cursor = 0
    for table in spec.tables:
        raw = result.rows[cursor:cursor + len(table.scenarios)]
        cursor += len(table.scenarios)
        derived = []
        for row, scenario in zip(raw, table.scenarios):
            row = dict(row)
            if table.derive is not None:
                row.update(table.derive(row, scenario))
            derived.append(row)
        tables[table.name] = derived

    report = Report(spec=spec, tables=tables, claims=[], stats=result.stats)
    for claim in spec.claims:
        report.claims.append((claim, claim.check(report.table_rows(claim.table))))
    return report
