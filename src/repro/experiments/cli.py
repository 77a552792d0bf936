"""Command-line interface: run executions, sweeps, and campaigns.

Examples::

    python -m repro solve --n 10 --t 3 --faulty 7,8,9 --budget 12
    python -m repro sweep-budget --n 33 --t 10 --f 10 --budgets 0,115,230
    python -m repro sweep-faults --n 25 --t 8 --faults 0,2,4,8
    python -m repro bound --n 33 --t 10 --f 10 --budget 230
    python -m repro campaign --n 9,15 --budgets 0,10 \
        --adversaries silent,stalling --seeds 5 --workers 4 \
        --store campaign.jsonl
    python -m repro report --scale small --store reports/campaign-small.jsonl

    # Distributed: terminal 1+2 serve workers, terminal 3 drives them.
    python -m repro worker --serve 127.0.0.1:7501
    python -m repro worker --serve 127.0.0.1:7502
    python -m repro campaign --n 9,15 --seeds 5 --backend socket \
        --connect 127.0.0.1:7501,127.0.0.1:7502 --store campaign.jsonl

    # Store maintenance: drop superseded/duplicate lines, merge shards.
    python -m repro store compact campaign.jsonl --dry-run
    python -m repro store merge all.jsonl shard-a.jsonl shard-b.jsonl

    # Observability: record a telemetry sidecar, then ask where the
    # wall-clock went (phase breakdown, per-worker utilization).
    python -m repro campaign --n 9,15 --seeds 5 --workers 4 \
        --store campaign.jsonl --telemetry tele.jsonl
    python -m repro stats tele.jsonl

The CLI is a thin shell over the v1 front door
(:class:`repro.api.Experiment` -- ``campaign`` and ``report`` are
``Experiment.run()`` / ``Experiment.report()`` on the backend
:func:`~repro.runtime.backends.make_backend` builds from the flags) plus
:mod:`repro.experiments.sweeps` for the small historical subcommands;
anything it prints can be reproduced programmatically.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Any, List, Optional, Sequence

from ..adversary.registry import adversary_names
from ..api import Experiment
from ..core.wrapper import AUTHENTICATED, UNAUTHENTICATED, total_round_bound
from ..lowerbounds.messages import message_lower_bound
from ..lowerbounds.rounds import round_lower_bound
from ..obs.logsetup import LOG_LEVELS, configure_logging
from ..predictions.generators import GENERATORS
from ..reporting.paper import SCALES as REPORT_SCALES, paper_report_spec
from ..reporting.render import format_table, write_report
from ..runtime.backends import (
    BACKEND_NAMES,
    Backend,
    BackendError,
    make_backend,
)
from ..runtime.scenario import INPUT_PATTERNS
from ..runtime.store import ResultStore, StoreLockError
from .sweeps import run_once, sweep_budget, sweep_faults

_ROW_COLUMNS = [
    "n", "t", "f", "B", "mode", "adversary", "agreed", "rounds", "messages",
    "lb_rounds",
]

GENERATOR_CHOICES = sorted(GENERATORS)


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _auto_int_list(text: str) -> List[Optional[int]]:
    """Comma list of ints or ``auto`` (derive the conventional value)."""
    values: List[Optional[int]] = []
    for part in text.split(","):
        if part == "":
            continue
        if part == "auto":
            values.append(None)
            continue
        try:
            values.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer or 'auto', got {part!r}"
            ) from None
    return values


def _budget_list(text: str) -> List[Any]:
    """Comma list of budgets: ints, or floats read as per-n fractions."""
    values: List[Any] = []
    for part in text.split(","):
        if part == "":
            continue
        try:
            values.append(float(part) if "." in part else int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an int or float budget, got {part!r}"
            ) from None
    return values


def _str_list(text: str) -> List[str]:
    return [part for part in text.split(",") if part != ""]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="process count")
    parser.add_argument("--t", type=int, required=True, help="fault bound")
    parser.add_argument(
        "--mode",
        choices=[UNAUTHENTICATED, AUTHENTICATED],
        default=UNAUTHENTICATED,
    )
    parser.add_argument(
        "--generator",
        choices=GENERATOR_CHOICES,
        default="concentrated",
        help="prediction corruption pattern",
    )
    parser.add_argument(
        "--adversary", choices=adversary_names(), default="silent"
    )
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Byzantine Agreement with Predictions (PODC 2025) runner",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="run one execution")
    _add_common(solve)
    solve.add_argument("--f", type=int, default=0, help="actual fault count")
    solve.add_argument("--budget", type=int, default=0, help="wrong bits B")

    budget = commands.add_parser("sweep-budget", help="rounds/messages vs B")
    _add_common(budget)
    budget.add_argument("--f", type=int, required=True)
    budget.add_argument("--budgets", type=_int_list, required=True)

    faults = commands.add_parser("sweep-faults", help="rounds vs f")
    _add_common(faults)
    faults.add_argument("--faults", type=_int_list, required=True)
    faults.add_argument("--budget", type=int, default=0)

    bound = commands.add_parser("bound", help="print theoretical envelopes")
    bound.add_argument("--n", type=int, required=True)
    bound.add_argument("--t", type=int, required=True)
    bound.add_argument("--f", type=int, required=True)
    bound.add_argument("--budget", type=int, default=0)

    campaign = commands.add_parser(
        "campaign",
        help="expand a scenario grid and run it on the campaign runtime",
    )
    campaign.add_argument(
        "--n", type=_int_list, required=True, help="process counts, e.g. 7,15"
    )
    campaign.add_argument(
        "--t", type=_auto_int_list, default=[None],
        help="fault bounds; 'auto' derives (n-1)//3",
    )
    campaign.add_argument(
        "--f", type=_auto_int_list, default=[None],
        help="fault counts; 'auto' derives t",
    )
    campaign.add_argument(
        "--budgets", type=_budget_list, default=[0],
        help="error budgets B; floats are per-n fractions",
    )
    campaign.add_argument(
        "--modes", type=_str_list, default=[UNAUTHENTICATED],
        help=f"comma list of {UNAUTHENTICATED},{AUTHENTICATED}",
    )
    campaign.add_argument(
        "--adversaries", type=_str_list, default=["silent"],
        help="comma list of " + ",".join(adversary_names()),
    )
    campaign.add_argument(
        "--generators", type=_str_list, default=["concentrated"],
        help="comma list of " + ",".join(GENERATOR_CHOICES),
    )
    campaign.add_argument(
        "--patterns", type=_str_list, default=["split"],
        help="comma list of " + ",".join(INPUT_PATTERNS),
    )
    campaign.add_argument(
        "--seeds", type=int, default=1,
        help="seeds per configuration (expands to 0..seeds-1)",
    )
    campaign.add_argument(
        "--workers", type=int, default=1, help="worker pool size"
    )
    _add_backend_flags(campaign)
    campaign.add_argument(
        "--store", default=None,
        help="JSONL result store path (resumable cache)",
    )
    campaign.add_argument(
        "--group-by", type=_str_list, default=["n", "mode", "adversary"],
        help="summary grouping columns",
    )
    campaign.add_argument(
        "--rows", action="store_true", help="also print every result row"
    )
    campaign.add_argument(
        "--profile", type=int, nargs="?", const=25, default=None, metavar="N",
        help="cProfile the grid's first scenario and print the top-N "
        "cumulative entries plus cache statistics (skips the campaign)",
    )
    campaign.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write a JSONL telemetry sidecar (span/event rows; result "
        "rows are unaffected); inspect it with: python -m repro stats PATH",
    )
    campaign.add_argument(
        "--live", action="store_true",
        help="render live progress on stderr while the campaign runs "
        "(single-line redraw on a TTY, plain 'live:' lines otherwise); "
        "result rows are unaffected",
    )
    campaign.add_argument(
        "--log-level", choices=sorted(LOG_LEVELS), default=None,
        help="structured log verbosity on stderr for the repro logging "
        "tree (driver retry/reconnect/requeue lines at warning+)",
    )

    report = commands.add_parser(
        "report",
        help="render EXPERIMENTS.md, tables, and figures from the "
        "result store (missing scenarios are executed once and cached)",
    )
    report.add_argument(
        "--scale", choices=list(REPORT_SCALES), default="small",
        help="small finishes in seconds; full matches the committed "
        "EXPERIMENTS.md",
    )
    report.add_argument(
        "--store", default=None,
        help="JSONL result store feeding the report "
        "(default: reports/campaign-<scale>.jsonl)",
    )
    report.add_argument(
        "--out", default="reports",
        help="output directory; use '.' to regenerate the committed "
        "EXPERIMENTS.md in place",
    )
    report.add_argument(
        "--format", choices=["md", "html"], default="md",
        help="main document format (per-table files are always Markdown)",
    )
    report.add_argument(
        "--workers", type=int, default=1,
        help="worker pool size for missing scenarios",
    )
    _add_backend_flags(report)
    report.add_argument(
        "--mpl", action="store_true",
        help="also render PNG figures when matplotlib is importable",
    )
    report.add_argument(
        "--log-level", choices=sorted(LOG_LEVELS), default=None,
        help="structured log verbosity on stderr for the repro logging "
        "tree while filling in missing scenarios",
    )

    worker = commands.add_parser(
        "worker",
        help="serve scenario executions over TCP for --backend socket "
        "campaigns (length-prefixed JSON frames, one process per worker)",
    )
    worker.add_argument(
        "--serve", required=True, metavar="HOST:PORT",
        help="interface and port to listen on (port 0 picks a free one; "
        "the bound address is printed on startup)",
    )
    worker.add_argument(
        "--die-after-jobs", type=int, default=None, metavar="N",
        help="failure injection for tests/CI: accept N jobs, then drop "
        "dead without replying",
    )
    worker.add_argument(
        "--log-level", choices=sorted(LOG_LEVELS), default="info",
        help="structured log verbosity on stderr (accept/handshake/"
        "disconnect lines); debug adds per-connection detail",
    )
    worker.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="fault injection on outbound frames, e.g. "
        "'drop=0.05,delay=0.2,delay_s=0.1,reset=0.02,seed=7' "
        "(keys: drop/delay/stall/corrupt/truncate/reset probabilities, "
        "delay_s/stall_s durations, seed; see docs/RESILIENCE.md)",
    )

    stats = commands.add_parser(
        "stats",
        help="render a telemetry sidecar (phase breakdown, per-worker "
        "utilization, where the wall-clock went)",
    )
    stats.add_argument(
        "telemetry", metavar="TELEMETRY",
        help="JSONL telemetry file written by campaign --telemetry",
    )

    store_cmd = commands.add_parser(
        "store",
        help="result-store maintenance (compaction, merging)",
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    compact = store_sub.add_parser(
        "compact",
        help="rewrite a JSONL store dropping superseded/duplicate rows "
        "(last-write-wins by scenario hash) and corrupt lines",
    )
    compact.add_argument("path", help="JSONL result store to compact")
    compact.add_argument(
        "--dry-run", action="store_true",
        help="print line/row counts without rewriting",
    )
    merge = store_sub.add_parser(
        "merge",
        help="merge stores into OUT (inputs win over OUT, later inputs "
        "win over earlier, last-write-wins by scenario hash)",
    )
    merge.add_argument("out", help="destination store (created if missing)")
    merge.add_argument("inputs", nargs="+", help="source stores to fold in")
    merge.add_argument(
        "--dry-run", action="store_true",
        help="print merge counts without writing",
    )

    lint = commands.add_parser(
        "lint",
        help="run the repo's invariant lint: determinism (D), lock "
        "discipline (C), wire/schema hygiene (W), exception hygiene (E)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="diagnostic format (text: `RULE file:line message`)",
    )
    lint.add_argument(
        "--select", type=_str_list, default=None, metavar="RULES",
        help="comma list of rules or families to run (e.g. D,E-bare)",
    )
    lint.add_argument(
        "--write", action="store_true",
        help="regenerate tests/golden/frame_schema.txt from the linted "
        "tree instead of checking against it",
    )
    lint.add_argument(
        "--golden", default=None, metavar="PATH",
        help="override the frame-schema golden path (tests)",
    )

    commands.add_parser(
        "version",
        help="print every wire/schema version constant as one JSON "
        "object (what `lint` gates against the frame-schema golden)",
    )
    return parser


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    """The execution-backend surface shared by campaign and report."""
    parser.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default="auto",
        help="execution backend; auto picks serial for --workers 1, "
        "socket when --connect is given, else pool",
    )
    parser.add_argument(
        "--connect", type=_str_list, default=[], metavar="HOST:PORT[,...]",
        help="socket-backend worker endpoints "
        "(start each with: python -m repro worker --serve HOST:PORT)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=300.0, metavar="SECONDS",
        help="socket backend: seconds before an unresponsive worker is "
        "pinged and, absent a heartbeat, its scenarios requeued",
    )
    parser.add_argument(
        "--require-all", action="store_true",
        help="socket backend: fail fast unless every --connect endpoint "
        "is reachable (default tolerates a partial fleet)",
    )
    parser.add_argument(
        "--connect-retries", type=int, default=2, metavar="N",
        help="socket backend: extra connect rounds for unreachable "
        "workers, with exponential backoff (default: 2)",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.5, metavar="SECONDS",
        help="socket backend: base backoff for connect retries and "
        "mid-campaign reconnects (doubles per failure; default: 0.5)",
    )


def _backend_from_flags(args: argparse.Namespace) -> Backend:
    """The backend the shared ``--backend``/``--workers``/socket flags
    select; the command closes it when its run ends."""
    return make_backend(
        args.backend,
        workers=args.workers,
        connect=args.connect,
        job_timeout=args.job_timeout,
        require_all=args.require_all,
        connect_retries=args.connect_retries,
        backoff=args.backoff,
    )


def _profile_scenario(experiment: Experiment, top: int) -> int:
    """Profile the experiment's first scenario; print top-``top`` stats."""
    import cProfile
    import io
    import pstats

    from ..runtime.execute import execute_spec

    specs = experiment.scenarios()
    if not specs:
        print("error: empty scenario grid", file=sys.stderr)
        return 2
    spec = specs[0]
    profiler = cProfile.Profile()
    profiler.enable()
    row = execute_spec(spec, collect_perf=True)
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(top)
    print(f"profile of scenario {spec.scenario_hash()[:12]} "
          f"(n={spec.n} t={spec.t} f={spec.f} mode={spec.mode} "
          f"adversary={spec.adversary}):")
    print(stream.getvalue())
    perf = row.get("perf") or {}
    if perf:
        cache_rows = [
            {"cache": name, **stats} for name, stats in sorted(perf.items())
        ]
        print(format_table(
            cache_rows, ["cache", "hits", "misses", "hit_rate"],
            title="cache statistics",
        ))
    return 0


def _campaign_command(args: argparse.Namespace) -> int:
    try:
        experiment = Experiment(
            n=args.n,
            t=args.t,
            f=args.f,
            budget=args.budgets,
            mode=args.modes,
            adversary=args.adversaries,
            generator=args.generators,
            pattern=args.patterns,
            skip_invalid=True,
        ).with_seeds(args.seeds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.profile is not None:
        return _profile_scenario(experiment, args.profile)
    if args.log_level is not None:
        configure_logging(args.log_level)
    try:
        with _backend_from_flags(args) as backend:
            campaign = experiment.run(
                store=args.store or None,
                backend=backend,
                telemetry=args.telemetry or None,
                live=args.live,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BackendError, StoreLockError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats = campaign.stats
    quarantined = (f" (quarantined {stats.quarantined})"
                   if stats.quarantined else "")
    print(
        f"campaign: {stats.total} scenarios | executed {stats.executed} | "
        f"cached {stats.cached} | deduplicated {stats.deduplicated} | "
        f"failed {stats.failed}{quarantined}"
    )
    if campaign.backend_summary:
        print(campaign.backend_summary)
    if args.telemetry:
        print(f"telemetry: wrote {args.telemetry} "
              f"(inspect with: python -m repro stats {args.telemetry})")
    rows = campaign.ok_rows()
    if args.rows:
        print(format_table(rows, _ROW_COLUMNS, title="scenarios"))
    summary = campaign.summarize(by=args.group_by)
    columns = list(args.group_by) + [
        "count", "agreed%", "validity_viol",
        "rounds_mean", "rounds_p95", "rounds_max",
        "messages_mean", "messages_max",
    ]
    print(format_table(summary, columns, title="campaign summary"))
    violations = campaign.check_envelopes()
    if violations or stats.failed:
        for violation in violations:
            scenario = (violation["scenario"] or "")[:12]
            print(f"ENVELOPE VIOLATION {scenario}: "
                  + "; ".join(violation["problems"]))
        if stats.failed:
            print(f"{stats.failed} scenario(s) failed to execute")
        if stats.quarantined:
            for row in campaign.rows:
                block = row.get("quarantine")
                if block:
                    print(f"QUARANTINED {block['scenario'][:12]}: crashed "
                          f"{len(block['executors'])} executor(s) "
                          f"({', '.join(block['executors'])})")
        return 1
    return 0


def _report_command(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.log_level is not None:
        configure_logging(args.log_level)
    spec = paper_report_spec(args.scale)
    store_path = args.store or f"reports/campaign-{args.scale}.jsonl"
    with ResultStore(store_path) as store:
        print(f"report[{args.scale}]: store {store_path} holds "
              f"{len(store)} row(s)")
        try:
            with _backend_from_flags(args) as backend:
                report = Experiment().report(spec, store=store,
                                             backend=backend)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (RuntimeError, StoreLockError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        stats = report.stats
        print(
            f"report: {stats.total} scenarios | executed {stats.executed} | "
            f"cached {stats.cached} | deduplicated {stats.deduplicated} | "
            f"failed {stats.failed}"
        )
        written = write_report(report, Path(args.out), fmt=args.format,
                               mpl=args.mpl)
    for path in written:
        print(f"wrote {path}")
    for claim, result in report.claims:
        print(f"claim {claim.claim_id}: {result.status} ({result.measured})")
    if not report.passed:
        failed = ", ".join(report.failed_claims())
        print(f"error: claim check(s) failed: {failed}", file=sys.stderr)
        return 1
    return 0


def _worker_command(args: argparse.Namespace) -> int:
    from ..runtime.backends.chaos import ChaosPolicy
    from ..runtime.backends.worker import serve

    try:
        chaos = ChaosPolicy.parse(args.chaos) if args.chaos else None
        return serve(args.serve, die_after_jobs=args.die_after_jobs,
                     log_level=args.log_level, chaos=chaos)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@contextmanager
def _locked_store(path: Any) -> Any:
    """The store-maintenance writer-exclusion sequence, stated once: take
    the exclusive lock *first*, then parse the file exactly once under it
    (loading before the lock would let a concurrent writer's rows vanish
    in the rewrite).  Releases the lock however the body exits."""
    store = ResultStore(path, load=False)
    store.acquire_lock()
    try:
        store.reload()
        yield store
    finally:
        store.release_lock()


def _store_counts(store: ResultStore) -> str:
    return (
        f"{store.total_lines} line(s) -> {len(store)} row(s) | "
        f"{store.superseded_lines} superseded | "
        f"{store.corrupt_lines} corrupt"
    )


def _store_command(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.store_command == "compact":
        if not Path(args.path).exists():
            print(f"error: no such store: {args.path}", file=sys.stderr)
            return 2
        if args.dry_run:
            # Advisory counts only: no lock, no rewrite.
            store = ResultStore(args.path)
            print(f"store compact {args.path}: {_store_counts(store)}")
            print("dry run: store unchanged")
            return 0
        try:
            with _locked_store(args.path) as store:
                print(f"store compact {args.path}: {_store_counts(store)}")
                dropped = store.superseded_lines + store.corrupt_lines
                store.compact()
        except StoreLockError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"compacted: {len(store)} row(s), {dropped} line(s) dropped")
        return 0
    if args.store_command == "merge":
        missing = [path for path in args.inputs if not Path(path).exists()]
        if missing:
            # A typo'd shard must not silently merge as an empty store.
            print(f"error: no such store: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
        sources = []
        for path in args.inputs:
            source = ResultStore(path)
            sources.append(source)
            print(f"store merge: {path}: {_store_counts(source)}")
        added = overwritten = 0
        if args.dry_run:
            # Throwaway in-memory instance driven through the real merge
            # rules, so advisory counts cannot drift from a real merge.
            out = ResultStore(args.out)
            before = len(out)
            for source in sources:
                got_added, got_overwritten = out.merge_from(
                    source, dry_run=True
                )
                added += got_added
                overwritten += got_overwritten
            print(f"dry run: {args.out}: {before} existing + {added} new | "
                  f"{overwritten} overwritten -> {len(out)} row(s)")
            return 0
        try:
            with _locked_store(args.out) as out:
                before = len(out)
                for source in sources:
                    got_added, got_overwritten = out.merge_from(source)
                    added += got_added
                    overwritten += got_overwritten
                out.compact()
        except StoreLockError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"merged into {args.out}: {before} existing + {added} new | "
              f"{overwritten} overwritten -> {len(out)} row(s)")
        return 0
    raise AssertionError(args.store_command)


def _version_command() -> int:
    """One JSON object with every version constant a peer can diverge
    on -- the human-readable face of the frame-schema golden."""
    import json

    from ..api import API_VERSION
    from ..obs.spans import TELEMETRY_SCHEMA_VERSION
    from ..runtime.backends.wire import PROTOCOL_VERSION
    from ..runtime.execute import SCHEMA_VERSION

    print(json.dumps(
        {
            "API_VERSION": API_VERSION,
            "PROTOCOL_VERSION": PROTOCOL_VERSION,
            "SCHEMA_VERSION": SCHEMA_VERSION,
            "TELEMETRY_SCHEMA_VERSION": TELEMETRY_SCHEMA_VERSION,
        },
        indent=2, sort_keys=True,
    ))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "campaign":
        return _campaign_command(args)
    if args.command == "report":
        return _report_command(args)
    if args.command == "worker":
        return _worker_command(args)
    if args.command == "store":
        return _store_command(args)
    if args.command == "stats":
        # Imported directly (not via repro.obs) -- see repro.obs.stats.
        from ..obs.stats import main_stats

        return main_stats(args.telemetry)
    if args.command == "lint":
        # Lazy, like stats: the lint engine is a dev-time tool
        # and must not tax `repro solve` startup.
        from ..analysis.engine import main_lint

        return main_lint(
            args.paths, fmt=args.format, select=args.select,
            golden=args.golden, write=args.write,
        )
    if args.command == "version":
        return _version_command()
    common = dict(
        mode=getattr(args, "mode", UNAUTHENTICATED),
        generator=getattr(args, "generator", "concentrated"),
        adversary_kind=getattr(args, "adversary", "silent"),
        seed=getattr(args, "seed", 0),
    )
    if args.command == "solve":
        row = run_once(args.n, args.t, args.f, args.budget, **common)
        print(format_table([row], _ROW_COLUMNS, title="execution"))
        return 0 if row["agreed"] else 1
    if args.command == "sweep-budget":
        rows = sweep_budget(args.n, args.t, args.f, args.budgets, **common)
        print(format_table(rows, _ROW_COLUMNS, title="sweep over B"))
        return 0 if all(r["agreed"] for r in rows) else 1
    if args.command == "sweep-faults":
        rows = sweep_faults(
            args.n, args.t, args.faults, budget=args.budget, **common
        )
        print(format_table(rows, _ROW_COLUMNS, title="sweep over f"))
        return 0 if all(r["agreed"] for r in rows) else 1
    if args.command == "bound":
        rows = [
            {
                "quantity": "round lower bound (Thm 13)",
                "value": round_lower_bound(args.n, args.t, args.f, args.budget),
            },
            {
                "quantity": "message lower bound (Thm 14)",
                "value": message_lower_bound(args.n, args.t),
            },
            {
                "quantity": "wrapper round cap (unauth)",
                "value": total_round_bound(args.t, UNAUTHENTICATED),
            },
            {
                "quantity": "wrapper round cap (auth)",
                "value": total_round_bound(args.t, AUTHENTICATED),
            },
        ]
        print(format_table(rows, ["quantity", "value"], title="envelopes"))
        return 0
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
