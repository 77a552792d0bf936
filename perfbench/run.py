"""Benchmark of record: run one workload, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload unauth-serial --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures untraced passes and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run's stamp (seed, environment, sample counts, rows
digest).  Spans, the full result record and the worker log go under
``--out`` (default ``.perfbench/``).  The exit code is 0 only when every
row of every pass passed the correctness gate; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
#: Setup probes per run, after one discarded probe that fills the
#: bytecode cache.
SETUP_SAMPLES = 11
#: Passes (untraced) or untraced/traced pairs (traced) per run, at least.
MIN_PASSES = {0: 3, 1: 2}
#: Percentile the p95 metric caps at, and the samples it needs beyond it.
TAIL_PERCENTILE = 95
TAIL_BEYOND = 10

END_TO_END = (
    ("scen_per_s", "scen/s"),
    ("scenario_ms_p50", "ms"),
    ("scenario_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)

PER_LAYER = (
    ("net.engine.rounds", "count"),
    ("net.engine.envelopes", "count"),
    ("net.engine.self_s", "s"),
    ("net.metrics.busy_s", "s"),
    ("net.metrics.payload_hit_rate", "fraction"),
    ("protocol.resumes", "count"),
    ("protocol.self_s", "s"),
    ("adversary.busy_s", "s"),
    ("adversary.envelopes", "count"),
    ("crypto.sign_calls", "count"),
    ("crypto.verify_calls", "count"),
    ("crypto.busy_s", "s"),
    ("crypto.encode_hit_rate", "fraction"),
    ("crypto.sign_hit_rate", "fraction"),
    ("crypto.memo_hit_rate", "fraction"),
    ("runtime.execute.resolve_s", "s"),
    ("runtime.scenario.hash_s", "s"),
    ("runtime.runner.self_s", "s"),
    ("runtime.backends.frames", "count"),
    ("runtime.backends.send_s", "s"),
    ("runtime.backends.recv_wait_s", "s"),
    ("runtime.backends.worker_exec_s", "s"),
    ("runtime.backends.worker_queue_s", "s"),
    ("runtime.backends.worker_util", "fraction"),
    ("runtime.backends.requeues", "count"),
    ("runtime.store.appends", "count"),
    ("runtime.store.append_bytes", "bytes"),
    ("runtime.store.put_s", "s"),
    ("runtime.store.sync_s", "s"),
    ("runtime.store.load_s", "s"),
    ("obs.trace_overhead", "fraction"),
    ("obs.layer_coverage", "fraction"),
)

#: Cache names in ``collect_perf`` statistics that are not verification
#: memos.
_NON_MEMO_CACHES = ("canonical_encode", "sign_digest", "payload_bits")
_CRYPTO_LAYERS = ("crypto.sign", "crypto.verify", "crypto.encode")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="unauth-serial, auth-serial, socket-campaign or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run, set-up probes included "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench",
                        help="directory for spans, result records and logs")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(
            json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Ctrl-C raises KeyboardInterrupt; SIGTERM gets the same unwinding,
    # so every owned worker is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    args.out.mkdir(parents=True, exist_ok=True)
    report = Run(args).execute()
    line = json.dumps(report["result"], sort_keys=True)
    for name, metric in report["result"]["metrics"].items():
        print(f"{args.workload}  {name:34s} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps({"stamp": report["stamp"]}, sort_keys=True))
    print(line, flush=True)
    return 0 if report["result"]["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one combined result line."""
    import workloads

    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                                "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(args.out)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT), check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        if not lines or proc.returncode not in (0, 1):
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined, sort_keys=True), flush=True)
    return status


def setup_probe(args: argparse.Namespace) -> int:
    """Fresh interpreter until the first scenario is ready, then exit."""
    import workloads

    lists = workloads.build_lists(args.workload, args.seed)
    if args.workload == workloads.SOCKET_WORKLOAD:
        with workloads.Fleet(ROOT, args.out / "worker.log") as fleet:
            fleet.start()
            print(f"ready {len(lists[0])}", flush=True)
    else:
        print(f"ready {len(lists[0])}", flush=True)
    return 0


def measure_setup(args: argparse.Namespace) -> List[float]:
    """Nominal-host seconds from launching a fresh interpreter until it
    reports the first scenario ready, per probe: each probe's wall time
    over the mean of the reference start-ups on either side of it (see
    :mod:`hostspeed`)."""
    import hostspeed

    probe = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(args.out), "--setup-probe"]
    reference = [sys.executable, str(HERE / "hostspeed.py"), "--startup"]
    refs = [time_to_ready(reference)]
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        took = time_to_ready(probe)
        refs.append(time_to_ready(reference))
        if index:
            samples.append(took * 2.0 * hostspeed.REF_STARTUP_NOMINAL_S
                           / (refs[-2] + refs[-1]))
    return samples


def time_to_ready(cmd: List[str]) -> float:
    """Wall seconds from launching ``cmd`` until it prints ``ready``; the
    process is then left to exit and reaped."""
    import workloads

    began = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, cwd=str(ROOT))
    try:
        line = workloads.read_line(proc, time.monotonic() + 120.0)
        elapsed = time.perf_counter() - began
        proc.wait(timeout=60.0)
    finally:
        stop(proc)
        proc.stdout.close()
    if not line.startswith("ready") or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} did not get ready: {line!r}")
    return elapsed


def stop(proc: subprocess.Popen) -> None:
    """End ``proc`` and reap it: SIGTERM first, so a setup probe closes
    its own workers on the way out, then SIGKILL."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Run:
    """One invocation: set up, measure passes until time is up, judge."""

    def __init__(self, args: argparse.Namespace) -> None:
        import workloads

        self.args = args
        self.workload = args.workload
        self.socket = args.workload == workloads.SOCKET_WORKLOAD
        self.lists = workloads.build_lists(args.workload, args.seed)
        self.fleet: Optional[Any] = None
        self.samplers: Optional[Any] = None
        self.untraced: List[Any] = []
        self.traced: List[Tuple[Any, Dict[str, float]]] = []
        self.warm: List[Dict[str, Any]] = []

    # -- passes ----------------------------------------------------------

    def untraced_pass(self, index: int) -> Any:
        """Pass number ``index`` of the run, on its turn's scenario list."""
        import layertrace
        import workloads

        variant = index % len(self.lists)
        layertrace.assert_pristine()
        gc.collect()
        if self.socket:
            cold, warm = workloads.socket_pass(
                self.lists[variant], self.fleet.addresses, self.args.out,
                self.samplers)
            self.warm.append(warm)
        else:
            cold = workloads.serial_pass(self.lists[variant])
        cold.variant = variant
        return cold

    def traced_pass(self, index: int,
                    spans_out: Any) -> Tuple[Any, Dict[str, float]]:
        import layertrace
        import workloads

        variant = index % len(self.lists)
        tracer = layertrace.Tracer()
        gc.collect()
        with tracer.installed():
            if self.socket:
                cold, measured = workloads.traced_socket_pass(
                    self.lists[variant], self.fleet.addresses, self.args.out,
                    self.samplers, tracer, spans_out)
            else:
                cold, measured = workloads.traced_serial_pass(
                    self.lists[variant], tracer, spans_out)
        layertrace.assert_pristine()
        cold.variant = variant
        return cold, self.layer_metrics(cold, measured)

    def open_fleet(self) -> None:
        """The two workers, and one host-speed sampler per processor."""
        import hostspeed
        import workloads

        self.fleet = workloads.Fleet(ROOT, self.args.out / "worker.log")
        self.samplers = hostspeed.Samplers(self.args.out)
        self.fleet.start()
        self.samplers.start()

    def close_fleet(self) -> None:
        import workloads

        for owned in (self.samplers, self.fleet):
            if owned is not None:
                owned.close()
        workloads.clear_store(self.args.out)

    def warm_up(self) -> None:
        """Fill caches and finish lazy set-up before anything is timed."""
        import workloads

        sample = workloads.one_of_each(self.workload, self.lists[0])
        if self.socket:
            workloads.socket_pass(sample, self.fleet.addresses, self.args.out,
                                  self.samplers)
        else:
            workloads.serial_pass(sample)

    def measure(self, one: Callable[[int], None], deadline: float) -> None:
        """Call ``one`` with 0, 1, 2, ... until the next call would end
        past ``deadline``, and at least ``MIN_PASSES`` times."""
        began = time.perf_counter()
        done = 0
        while True:
            one(done)
            done += 1
            now = time.perf_counter()
            if (done >= MIN_PASSES[self.args.trace]
                    and now + (now - began) / done > deadline):
                return

    def execute(self) -> Dict[str, Any]:
        deadline = time.perf_counter() + self.args.seconds
        setup = [] if self.args.trace else measure_setup(self.args)
        spans_path = self.args.out / f"spans-{self.workload}-seed{self.args.seed}.tsv.gz"
        try:
            if self.socket:
                self.open_fleet()
            self.warm_up()
            if self.args.trace:
                import layertrace

                with layertrace.open_spans_file(spans_path) as spans_out:
                    def pair(index: int) -> None:
                        self.untraced.append(self.untraced_pass(index))
                        self.traced.append(self.traced_pass(index, spans_out))
                    self.measure(pair, deadline)
            else:
                self.measure(
                    lambda index: self.untraced.append(self.untraced_pass(index)),
                    deadline)
            rss = (self.fleet.peak_rss_mb() if self.socket else
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        finally:
            self.close_fleet()
        report = self.judge(setup, rss, spans_path if self.args.trace else None)
        record = self.args.out / (f"result-{self.workload}-seed{self.args.seed}"
                                  f"-trace{self.args.trace}.json")
        record.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        return report

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, cold: Any, measured: Dict[str, Any]) -> Dict[str, float]:
        import workloads

        totals = measured["cold"]
        self_s, calls, counters = totals.self_s, totals.calls, totals.counters
        caches = measured["caches"]
        if not self.socket and counters["net.metrics.envelopes"] != cold.messages:
            cold.problems.append({"scenario": None, "problems": [
                f"traced honest envelopes {counters['net.metrics.envelopes']} "
                f"!= rows' messages {cold.messages}"]})
        outer = "runtime.runner" if self.socket else "runtime.execute"
        worker_exec = measured.get("worker_exec_s", 0.0)
        return {
            "net.engine.rounds": counters["net.engine.rounds"],
            "net.engine.envelopes": (counters["net.metrics.envelopes"]
                                     + counters["adversary.envelopes"]),
            "net.engine.self_s": self_s["net.engine"],
            "net.metrics.busy_s": self_s["net.metrics"],
            "net.metrics.payload_hit_rate": _hit_rate(caches, ("payload_bits",)),
            "protocol.resumes": calls["protocol"],
            "protocol.self_s": self_s["protocol"],
            "adversary.busy_s": self_s["adversary"],
            "adversary.envelopes": counters["adversary.envelopes"],
            "crypto.sign_calls": calls["crypto.sign"],
            "crypto.verify_calls": calls["crypto.verify"],
            "crypto.busy_s": sum(self_s[layer] for layer in _CRYPTO_LAYERS),
            "crypto.encode_hit_rate": _hit_rate(caches, ("canonical_encode",)),
            "crypto.sign_hit_rate": _hit_rate(caches, ("sign_digest",)),
            "crypto.memo_hit_rate": _hit_rate(
                caches, tuple(c for c in caches if c not in _NON_MEMO_CACHES)),
            "runtime.execute.resolve_s": self_s["runtime.execute.resolve"],
            "runtime.scenario.hash_s": self_s["runtime.scenario.hash"],
            "runtime.runner.self_s": self_s["runtime.runner"],
            "runtime.backends.frames": (calls["runtime.backends.send"]
                                        + calls["runtime.backends.recv"]),
            "runtime.backends.send_s": self_s["runtime.backends.send"],
            "runtime.backends.recv_wait_s": self_s["runtime.backends.recv"],
            "runtime.backends.worker_exec_s": worker_exec,
            "runtime.backends.worker_queue_s": measured.get("worker_queue_s", 0.0),
            "runtime.backends.worker_util": (
                worker_exec / (workloads.WORKERS * cold.wall_s)
                if self.socket else 0.0),
            "runtime.backends.requeues": measured["requeues"],
            "runtime.store.appends": measured["appends"],
            "runtime.store.append_bytes": measured["append_bytes"],
            "runtime.store.put_s": self_s["runtime.store.put"],
            "runtime.store.sync_s": self_s["runtime.store.sync"],
            "runtime.store.load_s": (measured["warm"].self_s["runtime.store.open"]
                                     if "warm" in measured else 0.0),
            "obs.layer_coverage": (1.0 - self_s[outer] / totals.total_s[outer]
                                   if totals.total_s[outer] else 0.0),
        }

    def judge(self, setup: List[float], rss: float,
              spans_path: Optional[Path]) -> Dict[str, Any]:
        passes = self.untraced + [cold for cold, _ in self.traced]
        attempted = sum(one.count for one in passes)
        problems = [p for one in passes for p in one.problems]
        failed = len(problems)
        # One reference digest per scenario list: the recorded one on the
        # default seed, else that of the list's first pass.
        expected: Optional[List[str]] = None
        if self.args.seed == DEFAULT_SEED:
            recorded = json.loads((HERE / "digests.json").read_text())
            expected = recorded.get(self.workload, [])
        first: Dict[int, str] = {}
        for one in passes:
            if expected is None:
                reference = first.setdefault(one.variant, one.digest)
            elif one.variant < len(expected):
                reference = expected[one.variant]
            else:
                reference = "unrecorded"
            if one.digest != reference:
                # Rows that differ from the reference cannot be told
                # apart from the rest: the whole pass fails.
                failed += one.count
                problems.append({"scenario": None, "problems": [
                    f"rows digest {one.digest} != {reference}"]})
        for warm in self.warm:
            if warm["executed"] or not warm["identical"]:
                failed += len(self.lists[0])
                problems.append({"scenario": None, "problems": ["warm pass differs"]})
        failed = min(failed, attempted)
        correct = not problems
        if self.args.trace:
            metrics, samples = self.per_layer()
        else:
            metrics, samples = self.end_to_end(setup, rss, attempted, failed)
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        stamp = {
            "workload": self.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "seconds": self.args.seconds,
            "scenarios_per_pass": len(self.lists[0]),
            "scenario_lists": len(self.lists),
            "passes": len(passes),
            "samples": samples,
            "rows_digest": [sorted({one.digest for one in passes
                                    if one.variant == variant})
                            for variant in range(len(self.lists))],
            "expected_digest": expected,
            "problems": problems[:10],
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "host_speed": sorted(one.nominal_s / one.wall_s for one in passes),
            "measured_scen_per_s": statistics.median(
                one.count / one.wall_s for one in passes),
            "commit": _commit(),
            "source_sha256": _source_digest(),
            "spans": str(spans_path) if spans_path else None,
        }
        return {"result": result, "stamp": stamp}

    def end_to_end(self, setup: List[float], rss: float, attempted: int,
                   failed: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        rates = [one.count / one.nominal_s for one in self.untraced]
        times = [t for one in self.untraced for t in one.times]
        level = tail_level(len(times))
        values = {
            "scen_per_s": statistics.median(rates),
            "scenario_ms_p50": percentile(times, 50) * 1000.0,
            "scenario_ms_p95": percentile(times, level) * 1000.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "ok_frac": 1.0 - failed / attempted,
        }
        samples = {
            "scen_per_s": len(rates),
            "scenario_ms_p50": len(times),
            "scenario_ms_p95": {"samples": len(times), "percentile": level},
            "setup_s": len(setup),
            "peak_rss_mb": 1,
            "ok_frac": attempted,
        }
        units = dict(END_TO_END)
        return ({name: {"value": values[name], "unit": units[name]}
                 for name, _ in END_TO_END}, samples)

    def per_layer(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        layers = [metrics for _, metrics in self.traced]
        untraced = statistics.median(one.nominal_s for one in self.untraced)
        traced = statistics.median(cold.nominal_s for cold, _ in self.traced)
        values = {name: statistics.median(m[name] for m in layers)
                  for name in layers[0]}
        for name, unit in PER_LAYER:
            if unit == "count" and name in values:
                values[name] = int(values[name])
        values["obs.trace_overhead"] = traced / untraced - 1.0
        samples = {name: len(layers) for name in values}
        samples["obs.trace_overhead"] = {"traced": len(self.traced),
                                         "untraced": len(self.untraced)}
        samples["repeatable_counts"] = all(
            m[name] == layers[0][name] for m in layers for name in
            ("net.engine.rounds", "net.engine.envelopes", "protocol.resumes",
             "crypto.sign_calls", "crypto.verify_calls", "runtime.store.appends"))
        return ({name: {"value": values[name], "unit": unit}
                 for name, unit in PER_LAYER}, samples)


def tail_level(count: int) -> int:
    """The highest whole percentile, up to p95, with at least
    ``TAIL_BEYOND`` samples beyond it (nearest-rank)."""
    level = TAIL_PERCENTILE
    while level > 50 and count - _rank(count, level) < TAIL_BEYOND:
        level -= 1
    return level


def _rank(count: int, level: float) -> int:
    return max(1, -(-count * level // 100))


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[int(_rank(len(ordered), level)) - 1]


def _hit_rate(caches: Dict[str, List[int]], names: Sequence[str]) -> float:
    hits = sum(caches[name][0] for name in names if name in caches)
    lookups = hits + sum(caches[name][1] for name in names if name in caches)
    return hits / lookups if lookups else 0.0


def _commit() -> Optional[str]:
    """The checkout's commit, when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the program's source files, which identifies the
    measured code where no commit is at hand."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
