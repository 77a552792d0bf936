"""Self-test of the benchmark: layer bypasses and sensitivity.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks, on the default seed:

* ``crypto.*`` counts are exactly 0 on ``unauth-serial`` and not 0 on
  ``auth-serial``;
* ``runtime.backends.*`` and ``runtime.store.*`` counts are exactly 0 on
  both serial workloads and not 0 on ``socket-campaign``;
* ``net.engine.envelopes`` is identical from pass to pass;
* a 20% slowdown injected from outside into
  ``MetricsCollector.record_sends`` (the call takes 1.2 times as long)
  lowers ``unauth-serial``'s ``scen_per_s`` by more than its bound in
  ``BENCHMARK.json`` and raises ``net.metrics.busy_s``.

Baseline and slowed passes alternate in one process, so drift of the
host's speed falls on both sides alike.  Exit code 0 when every check
holds, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

import run

#: The injected slowdown: each call takes this much longer, relatively.
SLOWDOWN = 0.2
#: Baseline/slowed pairs of untraced passes.
PAIRS = 8

BACKEND_STORE_COUNTS = ("runtime.backends.frames", "runtime.backends.requeues",
                        "runtime.store.appends", "runtime.store.append_bytes")
CRYPTO_COUNTS = ("crypto.sign_calls", "crypto.verify_calls")


@contextmanager
def slowed_record_sends(fraction: float) -> Iterator[None]:
    """Make every ``record_sends`` call take ``1 + fraction`` times as long."""
    from repro.net.metrics import MetricsCollector

    original = vars(MetricsCollector)["record_sends"]
    clock = time.perf_counter

    def slowed(self: Any, envelopes: Any) -> None:
        began = clock()
        original(self, envelopes)
        until = clock() + (clock() - began) * fraction
        while clock() < until:
            pass

    MetricsCollector.record_sends = slowed
    try:
        yield
    finally:
        MetricsCollector.record_sends = original


class SelfTest:
    def __init__(self) -> None:
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {message}", flush=True)
        if not ok:
            self.failures.append(message)

    def workload(self, name: str) -> "run.Run":
        args = run.parse_args(["--workload", name, "--trace", "1"])
        args.out.mkdir(parents=True, exist_ok=True)
        return run.Run(args)

    def traced(self, bench: "run.Run", passes: int = 2) -> List[Dict[str, float]]:
        layers = []
        for _ in range(passes):
            cold, metrics = bench.traced_pass(0, None)
            self.check(not cold.problems, f"{bench.workload}: traced rows pass the gate")
            layers.append(metrics)
        return layers

    def bypasses(self) -> None:
        import workloads

        for name in workloads.SERIAL_WORKLOADS:
            layers = self.traced(self.workload(name))
            first = layers[0]
            envelopes = {m["net.engine.envelopes"] for m in layers}
            self.check(len(envelopes) == 1 and first["net.engine.envelopes"] > 0,
                       f"{name}: net.engine.envelopes repeats exactly ({envelopes})")
            counts = {c: first[c] for c in BACKEND_STORE_COUNTS}
            self.check(not any(counts.values()),
                       f"{name}: backend and store counts are 0 ({counts})")
            crypto = {c: first[c] for c in CRYPTO_COUNTS}
            if name == "unauth-serial":
                self.check(not any(crypto.values()) and first["crypto.busy_s"] == 0,
                           f"{name}: crypto counts are 0 ({crypto})")
            else:
                self.check(all(crypto.values()), f"{name}: crypto is exercised ({crypto})")
        bench = self.workload(workloads.SOCKET_WORKLOAD)
        try:
            bench.open_fleet()
            first = self.traced(bench, passes=1)[0]
        finally:
            bench.close_fleet()
        counts = {c: first[c] for c in BACKEND_STORE_COUNTS}
        self.check(first["runtime.backends.frames"] > 0
                   and first["runtime.store.appends"] == len(bench.lists[0]),
                   f"socket-campaign: backend and store are exercised ({counts})")

    def sensitivity(self) -> None:
        bound = next(m["bound"] for m in json.loads(
            (run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
            if m["name"] == "scen_per_s")
        bench = self.workload("unauth-serial")
        bench.warm_up()
        base: List[float] = []
        slow: List[float] = []
        for index in range(PAIRS):
            for slowed in ((False, True) if index % 2 else (True, False)):
                if slowed:
                    with slowed_record_sends(SLOWDOWN):
                        one = bench.untraced_pass(0)
                    slow.append(one.count / one.nominal_s)
                else:
                    one = bench.untraced_pass(0)
                    base.append(one.count / one.nominal_s)
        drop = 1.0 - statistics.median(slow) / statistics.median(base)
        self.check(drop > bound,
                   f"unauth-serial: scen_per_s falls {drop:.3f} under a "
                   f"{SLOWDOWN:.0%} record_sends slowdown (bound {bound})")
        busy_base = self.traced(bench, passes=1)[0]["net.metrics.busy_s"]
        with slowed_record_sends(SLOWDOWN):
            busy_slow = self.traced(bench, passes=1)[0]["net.metrics.busy_s"]
        self.check(busy_slow > busy_base,
                   f"unauth-serial: net.metrics.busy_s rises {busy_base:.3f} -> "
                   f"{busy_slow:.3f} s")


def main() -> int:
    if not (run.ROOT / "src" / "repro" / "__init__.py").is_file():
        print("selftest: no program to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    test = SelfTest()
    test.bypasses()
    test.sensitivity()
    print(f"selftest: {len(test.failures)} failure(s)")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
