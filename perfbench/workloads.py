"""Workloads of the benchmark: scenario lists, passes and the worker fleet.

Every workload is a closed-loop batch campaign: one process submits the
whole scenario list at once and the next pass starts only when the last
row is in.  The workload seed reaches only the scenario generators here;
the program receives nothing but the generated :class:`ScenarioSpec`
list.

The untraced passes call only the program's public entry points
(``execute_spec``, ``CampaignRunner``, ``SocketBackend``,
``ResultStore``).  The traced passes run the same calls under a
:class:`layertrace.Tracer` and add the instrumentation the program already
has: ``collect_perf`` cache statistics, the telemetry timing sidecar and
the metrics registry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import select
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hostspeed import Interleaved, Samplers
from repro.reporting.paper import hiding_scenario
from repro.runtime import (
    CampaignRunner,
    ResultStore,
    ScenarioGrid,
    ScenarioSpec,
    SocketBackend,
    check_envelopes,
    default_t,
    execute_spec,
)

SERIAL_WORKLOADS = {"unauth-serial": "unauthenticated",
                    "auth-serial": "authenticated"}
SOCKET_WORKLOAD = "socket-campaign"
WORKLOADS = (*SERIAL_WORKLOADS, SOCKET_WORKLOAD)

#: Scenario seeds per pass.  A serial pass is 15 scenarios per seed
#: (3 sizes x 5 scenarios), a socket pass 24 per seed (the bench grid).
SERIAL_SEEDS = 5
SOCKET_SEEDS = 12
#: Scenario lists the passes of a ``socket-campaign`` run take in turn,
#: each on its own seeds.  The socket backend shards by scenario hash,
#: so each list hands the two workers a different share of the work;
#: taking turns averages that share over four lists within every run.
SOCKET_LISTS = 4
SERIAL_SIZES = (7, 13, 21)
WORKERS = 2

_SEED_SPACE = 2**31


def spec_seeds(seed: int, count: int) -> List[int]:
    """The scenario seeds a workload seed stands for."""
    rng = random.Random(seed)
    return [rng.randrange(_SEED_SPACE) for _ in range(count)]


def serial_specs(mode: str, seed: int) -> List[ScenarioSpec]:
    """EXPERIMENTS.md's scenario families at n in {7, 13, 21}, f = t.

    Per size: perfect predictions under ``silent``; the Theorem 13
    hiding construction with none and with all f faults hidden under
    ``stalling``; scattered ``random`` predictions with B = n under the
    seeded ``noise`` adversary, whose behaviour the seed changes.  The
    noise family runs twice, on two seeds: that doubles the samples of
    seed-dependent behaviour, and 15 equally large groups put the median
    scenario inside one group instead of on the edge between two.
    """
    specs = []
    seeds = spec_seeds(seed, 2 * SERIAL_SEEDS)
    for first, second in zip(seeds[::2], seeds[1::2]):
        for n in SERIAL_SIZES:
            t = default_t(n)
            noise = ScenarioSpec(n=n, t=t, f=t, budget=n, generator="random",
                                 adversary="noise")
            for base, scenario_seed in (
                (ScenarioSpec(n=n, t=t, f=t, adversary="silent",
                              pattern="alternating"), first),
                (hiding_scenario(n, t, t, 0), first),
                (hiding_scenario(n, t, t, t), first),
                (noise, first),
                (noise, second),
            ):
                specs.append(dataclasses.replace(base, mode=mode,
                                                 seed=scenario_seed))
    return specs


def socket_specs(seeds: List[int]) -> List[ScenarioSpec]:
    """The committed bench grid with more seeds."""
    return ScenarioGrid(
        n=[7, 9, 11],
        budget=[0, 3],
        adversary=["silent", "stalling"],
        pattern=["split", "ones"],
        seeds=seeds,
    ).expand()


def build_lists(workload: str, seed: int) -> List[List[ScenarioSpec]]:
    """The scenario lists a workload's passes take in turn."""
    if workload == SOCKET_WORKLOAD:
        seeds = spec_seeds(seed, SOCKET_LISTS * SOCKET_SEEDS)
        return [socket_specs(seeds[k:k + SOCKET_SEEDS])
                for k in range(0, len(seeds), SOCKET_SEEDS)]
    return [serial_specs(SERIAL_WORKLOADS[workload], seed)]


def one_of_each(workload: str, specs: List[ScenarioSpec]) -> List[ScenarioSpec]:
    """One scenario of every kind in ``specs`` (the warm-up set)."""
    if workload == SOCKET_WORKLOAD:
        return specs[::SOCKET_SEEDS]
    return specs[:len(specs) // SERIAL_SEEDS]


# -- correctness gate ------------------------------------------------------


def rows_digest(rows: Sequence[Dict[str, Any]]) -> str:
    """sha256 over the rows as sorted-key JSON."""
    blob = json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def gate(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One problem entry per failed row: error rows, quarantines and
    rows that break agreement, validity, the Theorem 13 bound or the
    wrapper cap."""
    return check_envelopes(rows, check_lower_bound=True)


@dataclasses.dataclass
class PassResult:
    """One measured pass over the scenario list, gated and hashed.

    The rows themselves are not kept: a run holds only what it reports,
    so the benchmark's own memory does not grow with the number of
    passes that fit in a run.
    """

    #: Measured wall seconds of the pass.
    wall_s: float
    #: The same in nominal-host seconds (see :mod:`hostspeed`).
    nominal_s: float
    #: Per-scenario nominal-host seconds: execute time (serial) or time
    #: from grid submission until the row was stored (socket).
    times: List[float]
    #: Rows the pass returned.
    count: int
    #: The rows' honest message count.
    messages: int
    problems: List[Dict[str, Any]]
    digest: str
    #: Index of the scenario list the pass ran (see :func:`build_lists`).
    variant: int = 0

    @classmethod
    def make(cls, wall_s: float, nominal_s: float, times: List[float],
             rows: List[Dict[str, Any]]) -> "PassResult":
        return cls(wall_s, nominal_s, times, len(rows),
                   sum(row.get("messages", 0) for row in rows),
                   gate(rows), rows_digest(rows))

    @classmethod
    def serial(cls, times: List[float], rows: List[Dict[str, Any]],
               host: Interleaved) -> "PassResult":
        """A serial pass: its wall time is the sum of the execute times."""
        nominal = [took * host.around(i) for i, took in enumerate(times)]
        return cls.make(sum(times), sum(nominal), nominal, rows)


# -- serial passes -----------------------------------------------------------


def serial_pass(specs: Sequence[ScenarioSpec]) -> PassResult:
    """Every scenario in-process, a reference slice before each one; the
    pass's wall time is the sum of the execute times."""
    clock = time.perf_counter
    host = Interleaved()
    rows, times = [], []
    for spec in specs:
        host.sample()
        began = clock()
        rows.append(execute_spec(spec))
        times.append(clock() - began)
    host.sample()
    return PassResult.serial(times, rows, host)


def traced_serial_pass(specs: Sequence[ScenarioSpec], tracer: Any,
                       spans_out: Any) -> Tuple[PassResult, Dict[str, Any]]:
    """The serial pass under ``tracer`` with cache statistics and an
    activated metrics registry; returns the pass and its measurements."""
    from repro.obs import metrics as obs_metrics

    clock = time.perf_counter
    host = Interleaved()
    rows, times = [], []
    caches: Dict[str, List[int]] = {}
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.activate(registry):
        with tracer.span("pass", anchor=True):
            for spec in specs:
                host.sample()
                began = clock()
                with tracer.span("runtime.execute"):
                    row = execute_spec(spec, collect_perf=True)
                times.append(clock() - began)
                # Popped before hashing, as timed_execute_job does: the
                # perf block never belongs to the row.
                _add_caches(caches, row.pop("perf", None))
                rows.append(row)
    host.sample()
    return PassResult.serial(times, rows, host), {
        "cold": tracer.collect(spans_out),
        "caches": caches,
        **_registry_counts(registry),
    }


def _registry_counts(registry: Any) -> Dict[str, float]:
    return {
        "requeues": registry.value("socket.requeues"),
        "appends": registry.value("store.appends"),
        "append_bytes": registry.value("store.append_bytes"),
    }


def _add_caches(caches: Dict[str, List[int]], perf: Optional[Dict[str, Any]]) -> None:
    for name, stats in (perf or {}).items():
        entry = caches.setdefault(name, [0, 0])
        entry[0] += int(stats.get("hits", 0))
        entry[1] += int(stats.get("misses", 0))


# -- socket passes -----------------------------------------------------------


class _StampedStore(ResultStore):
    """A result store that notes when each row was stored: the runner
    stores every row the moment the backend yields it."""

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self.stamps: List[float] = []

    def put(self, key: str, row: Dict[str, Any]) -> None:
        super().put(key, row)
        self.stamps.append(time.perf_counter())


def clear_store(scratch: Path) -> Path:
    """Delete the scratch store and its lockfile; returns the store path."""
    path = scratch / "store.jsonl"
    for stale in (path, path.with_name(path.name + ".lock")):
        if stale.exists():
            stale.unlink()
    return path


def socket_pass(specs: Sequence[ScenarioSpec], addresses: Sequence[str],
                scratch: Path, samplers: Samplers,
                ) -> Tuple[PassResult, Dict[str, Any]]:
    """A cold campaign into an empty store, then the warm re-run.

    Returns the cold pass and the warm pass's outcome (scenarios
    executed, rows equal to the cold rows).
    """
    path = clear_store(scratch)
    store = _StampedStore(path)
    runner = CampaignRunner(store=store, backend=SocketBackend(addresses))
    result, start, wall, nominal = _timed_campaign(runner, specs, samplers)
    store.close()
    scale = nominal / wall
    times = [(stamp - start) * scale for stamp in store.stamps]
    cold = PassResult.make(wall, nominal, times, result.rows)
    if len(times) != len(specs):
        cold.problems.append({"scenario": None,
                              "problems": [f"{len(times)} rows stored of {len(specs)}"]})
    return cold, warm_pass(specs, addresses, path, result.rows)


def _timed_campaign(runner: CampaignRunner, specs: Sequence[ScenarioSpec],
                    samplers: Samplers) -> Tuple[Any, float, float, float]:
    """Run a campaign; returns its result, start, wall seconds and
    nominal-host seconds (from the samplers' slices during the run)."""
    began = time.monotonic()
    start = time.perf_counter()
    result = runner.run(specs)
    wall = time.perf_counter() - start
    return result, start, wall, wall * samplers.factor(began, time.monotonic())


def warm_pass(specs: Sequence[ScenarioSpec], addresses: Sequence[str],
              path: Path, cold_rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reopen the store from disk and re-run the grid: nothing executes."""
    store = ResultStore(path)
    result = CampaignRunner(store=store, backend=SocketBackend(addresses)).run(specs)
    store.close()
    return {"executed": result.stats.executed,
            "identical": result.rows == cold_rows}


def traced_socket_pass(specs: Sequence[ScenarioSpec], addresses: Sequence[str],
                       scratch: Path, samplers: Samplers, tracer: Any,
                       spans_out: Any) -> Tuple[PassResult, Dict[str, Any]]:
    """The cold + warm socket pass under ``tracer``, with the telemetry
    sidecar and an activated metrics registry; returns the cold pass and
    the socket-path layer measurements."""
    from repro.obs import Telemetry
    from repro.obs import metrics as obs_metrics

    path = clear_store(scratch)
    telemetry = Telemetry()
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.activate(registry):
        with tracer.span("pass", anchor=True):
            store = ResultStore(path)
            runner = CampaignRunner(store=store, backend=SocketBackend(addresses),
                                    telemetry=telemetry)
            result, _, wall, nominal = _timed_campaign(runner, specs, samplers)
            store.close()
        cold_totals = tracer.collect(spans_out)
        with tracer.span("pass", anchor=True):
            warm = warm_pass(specs, addresses, path, result.rows)
        warm_totals = tracer.collect(spans_out)
    cold = PassResult.make(wall, nominal, [], result.rows)
    if warm["executed"] or not warm["identical"]:
        cold.problems.append({"scenario": None, "problems": ["warm pass differs"]})
    jobs = [row["attrs"] for row in telemetry.rows
            if row.get("kind") == "event" and row.get("name") == "job"]
    caches: Dict[str, List[int]] = {}
    for attrs in jobs:
        _add_caches(caches, attrs.get("perf"))
    return cold, {
        "cold": cold_totals,
        "warm": warm_totals,
        "caches": caches,
        "worker_exec_s": sum(float(a.get("exec_s") or 0.0) for a in jobs),
        "worker_queue_s": sum(float(a.get("worker_queue_s") or 0.0) for a in jobs),
        **_registry_counts(registry),
    }


# -- the worker fleet ----------------------------------------------------------


class Fleet:
    """``WORKERS`` ``python -m repro worker`` processes, owned by this
    object: :meth:`close` kills and reaps every one, on any exit path."""

    START_TIMEOUT_S = 60.0

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root = root
        self.log_path = log_path
        self.procs: List[subprocess.Popen] = []
        self.addresses: List[str] = []

    def start(self) -> List[str]:
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "ab") as log:
            for _ in range(WORKERS):
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--serve", "127.0.0.1:0"],
                    stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
                    cwd=str(self.root), env=env,
                ))
        deadline = time.monotonic() + self.START_TIMEOUT_S
        for proc in self.procs:
            line = read_line(proc, deadline)
            if "listening on" not in line:
                raise RuntimeError(f"worker failed to start: {line!r}")
            self.addresses.append(line.rsplit(" ", 1)[-1].strip())
        for address in self.addresses:
            handshake(address)
        return self.addresses

    def peak_rss_mb(self) -> float:
        """The largest worker's peak resident set (VmHWM), in MB."""
        peaks = []
        for proc in self.procs:
            status = Path(f"/proc/{proc.pid}/status").read_text()
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    peaks.append(int(line.split()[1]) / 1024.0)
        if len(peaks) != len(self.procs):
            raise RuntimeError("worker peak RSS unavailable")
        return max(peaks)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait()
            proc.stdout.close()
        self.procs = []

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """One stdout line from ``proc``, or ``""`` past ``deadline``."""
    data = b""
    fd = proc.stdout.fileno()
    while not data.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            break
        chunk = os.read(fd, 1)
        if not chunk:
            break
        data += chunk
    return data.decode("utf-8", "replace")


def handshake(address: str) -> None:
    """Complete the hello/welcome exchange with one worker, then leave."""
    from repro.runtime.backends.wire import (
        PROTOCOL_VERSION, parse_address, recv_frame, send_frame)

    host, port = parse_address(address)
    with socket.create_connection((host, port), timeout=30.0) as sock:
        send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION,
                          "driver_pid": os.getpid()})
        doc = recv_frame(sock)
        if not doc or doc.get("type") != "welcome":
            raise RuntimeError(f"worker {address} refused the handshake: {doc!r}")
        send_frame(sock, {"type": "bye"})
