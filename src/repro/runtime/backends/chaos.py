"""Fault-injection transport: deterministic chaos for the socket backend.

The paper's protocols are judged by how they behave while an adversary
misbehaves; this module applies the same standard to the campaign
runtime itself.  A :class:`ChaosPolicy` is a seeded description of how a
link misbehaves -- per-frame drop, delay, stall, byte corruption, torn
frames, connection resets -- and a :class:`ChaosSocket` wraps a real TCP
socket to act it out, so every recovery path in the driver and worker
(heartbeat pings, job resends, dead-link requeue, reconnect, checksum
refusal) is exercised systematically instead of only by hand-rigged
``--die-after-jobs`` workers.

Where the chaos lands:

* the *driver* side wraps each worker connection when ``SocketBackend``
  is built with ``chaos=``, perturbing driver-to-worker frames (jobs,
  pings, byes);
* the *worker* side wraps each accepted connection when started with
  ``python -m repro worker --serve HOST:PORT --chaos SPEC``, perturbing
  worker-to-driver frames (results, pongs).

Only *sends* are perturbed -- every frame crosses exactly one chaos
point per armed side, which keeps the fault model countable.  A frame
is one ``sendall`` and (protocol v7) carries one scenario, so a dropped
or corrupted ``job``/``result`` frame costs exactly that scenario a
resend or a requeue, while a reset costs every job in flight on the
link.  The handshake is exempt (wrappers start disarmed and are armed after the
hello/welcome exchange): connection-establishment failures are the
reconnect machinery's department and are injected by killing workers,
not by making the version check flaky.

Faults are *detectable by construction*: corruption flips body bytes
(caught by the frame checksum, see :mod:`~repro.runtime.backends.wire`),
truncation and reset tear the connection (caught by framing/EOF), and a
drop starves the peer into its timeout path.  A chaos campaign therefore
completes with rows byte-identical to a serial run -- chaos can destroy
progress, never corrupt results.

Spec grammar (``ChaosPolicy.parse``)::

    drop=0.05,delay=0.2,delay_s=0.1,reset=0.02,seed=7

``drop``/``delay``/``stall``/``corrupt``/``truncate``/``reset`` are
per-frame probabilities (at most one fault fires per frame; they must
sum to <= 1), ``delay_s``/``stall_s`` are durations in seconds, and
``seed`` makes the whole fault sequence reproducible.
"""

from __future__ import annotations

import random
import socket
import struct
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from .wire import _HEADER

#: Fault kinds, in the order ``draw`` walks their cumulative thresholds.
ACTIONS = ("drop", "delay", "stall", "corrupt", "truncate", "reset")

_PROBABILITY_FIELDS = set(ACTIONS)
_DURATION_FIELDS = {"delay_s", "stall_s"}


class ChaosInjected(ConnectionResetError):
    """An injected connection fault (``reset``/``truncate``).

    Subclasses :class:`ConnectionResetError` so every caller's existing
    ``except OSError`` recovery path fires exactly as it would for a
    real peer reset.
    """


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded, deterministic per-frame fault distribution.

    Args:
        drop: probability a frame is silently swallowed (the peer
            starves into its timeout/ping/resend path).
        delay: probability a frame is delayed by ``uniform(0, delay_s)``
            seconds before sending.
        delay_s: maximum delay in seconds.
        stall: probability a frame is held for a full ``stall_s`` --
            long enough to trip heartbeat timeouts deliberately.
        stall_s: stall duration in seconds.
        corrupt: probability one body byte is flipped (the frame
            checksum catches it; the peer sees a :class:`WireError
            <repro.runtime.backends.wire.WireError>` and drops the
            session).
        truncate: probability the frame is torn -- a prefix is sent and
            the connection is reset mid-frame.
        reset: probability the connection is reset instead of sending.
        seed: base seed; every :meth:`wrap` derives an independent but
            reproducible stream from it.
    """

    drop: float = 0.0
    delay: float = 0.0
    delay_s: float = 0.05
    stall: float = 0.0
    stall_s: float = 1.0
    corrupt: float = 0.0
    truncate: float = 0.0
    reset: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in sorted(_PROBABILITY_FIELDS):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"chaos probability {name}={value} outside [0, 1]"
                )
        for name in sorted(_DURATION_FIELDS):
            if getattr(self, name) < 0:
                raise ValueError(f"chaos duration {name} must be >= 0")
        if self.fault_rate() > 1.0:
            raise ValueError(
                f"chaos fault probabilities sum to {self.fault_rate():.3f} "
                "> 1 (at most one fault fires per frame)"
            )

    def fault_rate(self) -> float:
        """Total per-frame fault probability."""
        return sum(getattr(self, name) for name in ACTIONS)

    def is_null(self) -> bool:
        """Whether this policy never injects anything."""
        return self.fault_rate() == 0.0

    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        """Build a policy from the ``key=value[,key=value...]`` grammar."""
        known = {f.name for f in fields(cls)}
        kwargs: Dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, value = part.partition("=")
            if not sep or name not in known:
                raise ValueError(
                    f"bad chaos spec entry {part!r} (known keys: "
                    f"{', '.join(sorted(known))})"
                )
            try:
                kwargs[name] = int(value) if name == "seed" else float(value)
            except ValueError:
                raise ValueError(
                    f"bad chaos spec value {part!r}"
                ) from None
        return cls(**kwargs)

    def describe(self) -> str:
        """The non-default knobs, in spec grammar (log/summary line)."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return ",".join(parts) or "null"

    def draw(self, rng: random.Random) -> Optional[str]:
        """One per-frame decision: a fault name, or ``None`` to pass."""
        u = rng.random()
        acc = 0.0
        for name in ACTIONS:
            acc += getattr(self, name)
            if u < acc:
                return name
        return None

    def wrap(self, sock: socket.socket, label: str = "",
             armed: bool = True) -> "ChaosSocket":
        """Wrap ``sock`` in a :class:`ChaosSocket` with a fault stream
        derived deterministically from ``(seed, label)``."""
        rng = random.Random(f"{self.seed}:{label}")
        return ChaosSocket(sock, self, rng, label=label, armed=armed)


class ChaosSocket:
    """Socket proxy acting out a :class:`ChaosPolicy` on outbound frames.

    Each :meth:`sendall` call is one wire frame (``send_frame`` writes
    header + body in a single call), so the policy is applied per frame.
    Reads and every other socket method pass through untouched.  The
    wrapper starts ``armed=False`` on the worker side so handshakes are
    exempt; call :meth:`arm` once the session is established.
    """

    def __init__(self, sock: socket.socket, policy: ChaosPolicy,
                 rng: random.Random, label: str = "",
                 armed: bool = True) -> None:
        self._sock = sock
        self._policy = policy
        self._rng = rng
        self.label = label
        self.armed = armed
        #: Injected-fault tally: ``{action: count}`` (passes not counted).
        self.counts: Dict[str, int] = {}

    def arm(self) -> None:
        """Start injecting faults (the post-handshake switch)."""
        self.armed = True

    def sendall(self, data: bytes) -> None:
        if not self.armed or self._policy.is_null():
            self._sock.sendall(data)
            return
        action = self._policy.draw(self._rng)
        if action is None:
            self._sock.sendall(data)
            return
        self.counts[action] = self.counts.get(action, 0) + 1
        if action == "drop":
            return
        if action == "delay":
            time.sleep(self._rng.uniform(0.0, self._policy.delay_s))
            self._sock.sendall(data)
            return
        if action == "stall":
            time.sleep(self._policy.stall_s)
            self._sock.sendall(data)
            return
        if action == "corrupt":
            # Flip one body byte, never the header: the length must stay
            # honest so the peer reads a complete frame and refuses it on
            # checksum, instead of blocking on a phantom length.
            mutated = bytearray(data)
            if len(mutated) > _HEADER.size:
                index = self._rng.randrange(_HEADER.size, len(mutated))
                mutated[index] ^= 0xFF
            self._sock.sendall(bytes(mutated))
            return
        if action == "truncate":
            cut = self._rng.randrange(1, max(len(data), 2))
            try:
                self._sock.sendall(data[:cut])
            except OSError:
                pass
            self._abort(f"torn frame after {cut}/{len(data)} bytes")
        if action == "reset":
            self._abort("connection reset")

    def _abort(self, reason: str) -> None:
        """Hard-close with RST (SO_LINGER 0) and raise into the caller's
        normal dead-peer recovery path."""
        try:
            self._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        raise ChaosInjected(f"chaos[{self.label}]: {reason}")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __getattr__(self, name: str) -> Any:
        # recv/settimeout/setsockopt/fileno/...: plain passthrough.
        return getattr(self._sock, name)

    def __repr__(self) -> str:
        return (f"<ChaosSocket {self.label or '?'} "
                f"policy=({self._policy.describe()}) counts={self.counts}>")
