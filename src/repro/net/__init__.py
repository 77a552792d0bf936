"""Synchronous round-based network simulator (the paper's execution model)."""

from .adversary import Adversary, AdversaryView, AdversaryWorld
from .context import ProcessContext
from .engine import ExecutionResult, Network
from .message import (
    Broadcast,
    Envelope,
    by_tag,
    by_tag_all,
    reduce_by_tag,
    senders_of,
    tagged,
)
from .metrics import MetricsCollector, payload_bits
from .trace import RoundRecord, Tracer, render_trace
from .protocol import (
    SimulationTimeout,
    idle,
    run_exactly,
)

__all__ = [
    "Adversary",
    "AdversaryView",
    "AdversaryWorld",
    "Broadcast",
    "Envelope",
    "ExecutionResult",
    "MetricsCollector",
    "Network",
    "ProcessContext",
    "RoundRecord",
    "SimulationTimeout",
    "Tracer",
    "by_tag",
    "by_tag_all",
    "idle",
    "payload_bits",
    "reduce_by_tag",
    "run_exactly",
    "render_trace",
    "senders_of",
    "tagged",
]
