"""Per-process execution context handed to protocol coroutines.

A protocol in this library is a *generator function* taking a
:class:`ProcessContext` (plus protocol-specific arguments).  The generator
communicates with the round engine through its yield points::

    inbox = yield outgoing

Each ``yield`` of a send list corresponds to exactly one synchronous
round: the process transmits ``outgoing``, a list of
:class:`~repro.net.message.Envelope` (point-to-point, from
:meth:`ProcessContext.send`) and :class:`~repro.net.message.Broadcast` (to
every process, from :meth:`ProcessContext.broadcast`) objects, and
receives ``inbox``, the messages addressed to it in the same round, as
envelopes.  Read the inbox with :func:`~repro.net.message.by_tag` or
:func:`~repro.net.message.by_tag_all`.  ``yield Idle(k)`` (see
:class:`~repro.net.protocol.Idle`) instead spends ``k`` rounds sending
nothing and reading nothing, and is resumed with ``None``.  The
generator's return value is the protocol's output for this process.

Sub-protocols compose with ``yield from``, which keeps every honest process
on the same global round schedule -- exactly the paper's lock-step model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from .message import Broadcast, Envelope, tagged


@dataclass
class ProcessContext:
    """Identity and environment of one process inside a simulation.

    Attributes:
        pid: this process's identifier in ``0..n-1``.
        n: total number of processes.
        t: the protocol-known upper bound on faulty processes.
        signer: a signing handle (:class:`repro.crypto.keys.SignerHandle`)
            when the execution is authenticated, else ``None``.
    """

    pid: int
    n: int
    t: int
    signer: Optional[Any] = None

    def broadcast(self, tag: tuple, body: Any) -> List[Broadcast]:
        """A one-item send list carrying ``(tag, body)`` to every process
        (incl. self).

        The paper's ``broadcast`` includes the sender itself (e.g.
        Algorithm 2 counts the process's own prediction vector), so self
        delivery goes through the network like any other message.  The
        engine delivers and counts it as ``n`` envelopes.
        """
        return [Broadcast(self.pid, tagged(tag, body))]

    def send(self, recipient: int, tag: tuple, body: Any) -> Envelope:
        """A single point-to-point envelope."""
        return Envelope(self.pid, recipient, tagged(tag, body))
