"""Backend throughput: serial vs pool vs TCP socket workers.

Not a paper table -- the scaling acceptance bar for the backend
subsystem: the same campaign grid through all three execution backends
must produce row-for-row identical results, with the socket backend
driving real worker *processes* (spawned via ``python -m repro worker
--serve 127.0.0.1:0``, exactly the production path) at throughput
comparable to the in-tree multiprocessing pool.

Results are written to ``BENCH_backends.json`` at the repo root.
Unlike ``BENCH_hotpath.json`` (gitignored, per-machine), this file is
*committed*: the CI ``backend-smoke`` job regenerates it and fails if
the socket backend's ``vs_serial`` speedup regresses below the
committed value, so dispatch-path regressions surface as a diff.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import Telemetry
from repro.obs.stats import phase_breakdown, wallclock_summary
from repro.obs.trend import append_record, cache_hit_rates, make_record, phase_shares
from repro.runtime import (
    CampaignRunner,
    PoolBackend,
    ScenarioGrid,
    SerialBackend,
    SocketBackend,
    run_campaign,
)

from conftest import print_table

WORKERS = 2
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_backends.json"
#: Cross-run trend history (committed): one ``repro.obs.trend`` record
#: per backend row per benchmark run.  The CI bench-trend step gates on
#: ``python -m repro trend BENCH_trend.jsonl --check`` instead of ad-hoc
#: ``vs_serial`` parsing -- same record format as ``campaign --trend``.
TREND_PATH = Path(__file__).resolve().parent.parent / "BENCH_trend.jsonl"

#: Stable per-row trend labels (worker counts are configuration, not
#: identity: the trend must keep comparing like with like if WORKERS is
#: ever tuned).  The socket row keeps the ``socket-unbatched`` label:
#: its history is this same one-scenario-per-frame path.
TREND_LABELS = ("bench:serial", "bench:pool", "bench:socket-unbatched")

#: Enough work for per-scenario cost to dominate setup, small enough for
#: CI: 3 sizes x 2 budgets x 2 adversaries x 2 patterns x 3 seeds = 72.
GRID = ScenarioGrid(
    n=[7, 9, 11],
    budget=[0, 3],
    adversary=["silent", "stalling"],
    pattern=["split", "ones"],
    seeds=3,
)


def spawn_worker() -> "tuple[subprocess.Popen, str]":
    """Start a real worker process on a free port; returns (proc, addr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--serve", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=str(BENCH_PATH.parent),
        env={**os.environ, "PYTHONPATH": "src"},
    )
    line = proc.stdout.readline()  # "worker listening on HOST:PORT"
    if "listening on" not in line:
        proc.kill()
        raise RuntimeError(f"worker failed to start: {line!r}")
    return proc, line.rsplit(" ", 1)[-1].strip()


def timed(backend, label):
    start = time.perf_counter()
    result = run_campaign(GRID, backend=backend)
    wall = time.perf_counter() - start
    assert result.stats.failed == 0
    assert result.stats.executed == GRID.size()
    return result, {
        "backend": label,
        "scenarios": GRID.size(),
        "wall_s": round(wall, 3),
        "scen_per_s": round(GRID.size() / wall, 1),
    }


@pytest.mark.benchmark(group="backends")
def test_backend_throughput_and_equivalence():
    serial, serial_row = timed(SerialBackend(), "serial")
    pool, pool_row = timed(PoolBackend(workers=WORKERS), f"pool[{WORKERS}]")

    procs, addresses = [], []
    try:
        for _ in range(WORKERS):
            proc, address = spawn_worker()
            procs.append(proc)
            addresses.append(address)
        backend = SocketBackend(addresses, job_timeout=120.0)
        sock, sock_row = timed(backend, f"socket[{WORKERS}]")
        # Separate instrumented pass (workers still alive): the timed run
        # above stays untouched by telemetry overhead, and this one
        # decomposes the socket pipeline into phases for the JSON.
        telemetry = Telemetry()
        CampaignRunner(
            backend=SocketBackend(addresses, job_timeout=120.0),
            telemetry=telemetry,
        ).run(GRID)
        phase_rows = phase_breakdown(telemetry.rows)
        phase_summary = wallclock_summary(telemetry.rows)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=10)

    # Equivalence: every backend, one row stream.
    assert pool.rows == serial.rows
    assert sock.rows == serial.rows
    per_worker = backend.last_stats["per_worker"]
    assert all(count > 0 for count in per_worker.values()), per_worker

    for row in (pool_row, sock_row):
        row["vs_serial"] = round(
            serial_row["wall_s"] / row["wall_s"], 2
        )
    serial_row["vs_serial"] = 1.0
    rows = [serial_row, pool_row, sock_row]
    BENCH_PATH.write_text(
        json.dumps(
            {
                "backends": rows,
                "cpu_count": os.cpu_count(),
                "socket_phases": phase_rows,
                "socket_summary": phase_summary,
            },
            indent=2, sort_keys=True,
        ) + "\n"
    )
    # One trend record per backend row, appended to the committed
    # history: `repro trend BENCH_trend.jsonl` renders the trajectory,
    # `--check` is the CI regression gate.  The instrumented socket pass
    # contributes phase shares and cache hit rates to the socket row.
    for label, row in zip(TREND_LABELS, rows):
        socket_row = row is sock_row
        append_record(TREND_PATH, make_record(
            label=label,
            scenarios=row["scenarios"],
            wall_s=row["wall_s"],
            backend=row["backend"],
            phase_share=phase_shares(telemetry.rows) if socket_row else None,
            cache_hit_rate=(cache_hit_rates(telemetry.rows)
                            if socket_row else None),
        ))
    print_table(
        rows,
        ["backend", "scenarios", "wall_s", "scen_per_s", "vs_serial"],
        f"Campaign backends: {GRID.size()} scenarios, "
        f"pool vs {WORKERS} TCP worker processes",
    )
    print_table(
        phase_rows,
        ["phase", "count", "total_s", "mean_ms", "share_%"],
        f"Socket pipeline phases ({WORKERS} workers, instrumented pass)",
    )
    # Speedup bar: protocol overhead must not dominate.  What that
    # means is CPU-bound: scenarios are pure compute, so on a
    # single-core box a worker fleet *cannot* beat serial (there is no
    # second core to run it on) and the bar is "total overhead under
    # ~15%"; with 2+ cores the fleet must genuinely beat serial.  The
    # CI bench-trend step separately refuses throughput regressions.
    floor = 1.2 if (os.cpu_count() or 1) >= 2 else 0.85
    assert sock_row["scen_per_s"] >= floor * serial_row["scen_per_s"], rows
    # Phase shares are wall-clock fractions (union of intervals), so no
    # phase may claim more than 100% of the wall -- the share_% fix this
    # PR regression-tests.
    for row in phase_rows:
        assert row["share_%"] == "" or row["share_%"] <= 100.0, row
