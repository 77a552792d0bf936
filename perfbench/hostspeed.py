"""The host's speed while a measurement runs.

The host is shared: other tenants change how fast the same code runs by
up to twice within minutes.  A fixed reference slice -- interpreter work
in the style of the simulator's own, with the cyclic collector off --
timed at the same moments as the measured work says how fast the host
is right now.  Measured seconds times ``REF_NOMINAL_S`` over the slice's
duration are *nominal-host seconds*: the time the work would have taken
on a host that runs one slice in ``REF_NOMINAL_S``.  The program never
runs inside a slice, so a change to the program moves the measured time
and never the reference.

Two ways to take slices:

* :class:`Interleaved` -- one slice before every scenario of a serial
  pass, in the measuring process itself;
* :class:`Samplers` -- while a socket campaign keeps every processor
  busy, one process per processor takes a slice every
  ``SAMPLE_PERIOD_S`` and logs it (``python3 hostspeed.py LOG``).

Interpreter start-up is a different kind of work (reading and
unmarshalling bytecode, running module bodies), which a slice tracks
poorly.  Set-up time is scaled by a reference start-up instead: a fresh
interpreter that imports ``STARTUP_MODULES`` from the standard library
and reports ready (``python3 hostspeed.py --startup``), timed on either
side of each set-up probe; one takes ``REF_STARTUP_NOMINAL_S`` on the
nominal host.

This module imports nothing from the program, so a sampler starts fast.
"""

from __future__ import annotations

import gc
import importlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

#: Rounds of one reference slice.
REF_ROUNDS = 2000
#: One reference slice's duration on the nominal host.
REF_NOMINAL_S = 0.00075
#: Pause between a sampler's slices: each sampler takes ~3% of a processor.
SAMPLE_PERIOD_S = 0.025
#: Standard-library modules the reference start-up imports: those the
#: program's set-up imports beyond a bare interpreter's, as a fixed list.
STARTUP_MODULES = (
    "ast", "dataclasses", "decimal", "fractions", "hashlib", "inspect",
    "json", "logging", "multiprocessing", "pickle", "socket", "statistics",
    "subprocess", "textwrap", "tokenize", "traceback",
)
#: One reference start-up's duration on the nominal host.
REF_STARTUP_NOMINAL_S = 0.1


def reference(rounds: int = REF_ROUNDS) -> int:
    """Fixed interpreter work: tuples, dict updates, type checks."""
    counts: Dict[Tuple[str, int], int] = {}
    total = 0
    for i in range(rounds):
        key = ("ref", i & 63)
        entry = (i & 7, key, i)
        counts[key] = counts.get(key, 0) + 1
        if isinstance(entry[2], int):
            total += entry[0]
    return total


def timed_slice() -> float:
    """Seconds one reference slice takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    reference()
    took = time.perf_counter() - began
    if enabled:
        gc.enable()
    return took


class Interleaved:
    """Slices taken between the scenarios of a serial pass."""

    def __init__(self) -> None:
        self.slices: List[float] = []

    def sample(self) -> None:
        self.slices.append(timed_slice())

    def around(self, index: int) -> float:
        """Nominal-host seconds per measured second for the work done
        between slices ``index`` and ``index + 1``: contention changes
        within a pass, so each scenario is scaled by its neighbours."""
        return 2.0 * REF_NOMINAL_S / (self.slices[index] + self.slices[index + 1])


class Samplers:
    """One sampler process per processor, owned by this object."""

    def __init__(self, log_dir: Path) -> None:
        count = os.cpu_count() or 1
        self.logs = [log_dir / f"hostspeed-{index}.log" for index in range(count)]
        self.procs: List[subprocess.Popen] = []

    def start(self, timeout: float = 30.0) -> None:
        """Start the samplers; return once each has logged a slice."""
        for log in self.logs:
            self.procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(log)],
                stdin=subprocess.DEVNULL))
        deadline = time.monotonic() + timeout
        while not all(log.exists() and "\n" in log.read_text() for log in self.logs):
            if time.monotonic() > deadline:
                raise RuntimeError("host-speed samplers did not start")
            time.sleep(0.01)

    def factor(self, began: float, ended: float) -> float:
        """Nominal-host seconds per measured second between two
        ``time.monotonic()`` readings."""
        slices = []
        for log in self.logs:
            # The last piece is empty or a line still being written.
            for line in log.read_text().split("\n")[:-1]:
                stamp, took = line.split()
                if began <= float(stamp) <= ended:
                    slices.append(float(took))
        if not slices:
            raise RuntimeError("no host-speed samples during the pass")
        return REF_NOMINAL_S / statistics.mean(slices)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs = []
        for log in self.logs:
            if log.exists():
                log.unlink()

    def __enter__(self) -> "Samplers":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def sample_forever(log: Path) -> None:
    """Append ``monotonic-time slice-seconds`` lines until killed, or
    until the benchmark that started this sampler is gone."""
    parent = os.getppid()
    with open(log, "w", buffering=1) as out:
        while os.getppid() == parent:
            took = timed_slice()
            out.write(f"{time.monotonic():.6f} {took:.9f}\n")
            time.sleep(SAMPLE_PERIOD_S)


def startup_reference() -> None:
    """The reference start-up: import ``STARTUP_MODULES``, report ready."""
    for name in STARTUP_MODULES:
        importlib.import_module(name)
    print("ready", flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--startup":
        startup_reference()
    else:
        sample_forever(Path(sys.argv[1]))
