"""Framing and message vocabulary for the socket backend.

Wire format: each frame is an 8-byte big-endian header -- a 4-byte body
length followed by the 4-byte CRC32 of the body -- then that many bytes
of UTF-8 JSON.  JSON keeps the protocol debuggable with ``nc``/``tcpdump``
and version-skew tolerant (unknown fields are ignored); the length prefix
makes frames self-delimiting over TCP's byte stream; the checksum turns
in-flight byte corruption (a broken middlebox) into a loud
:class:`WireError` instead of a silently wrong result row -- campaign
rows must be a pure function of scenario content, so a frame that cannot
prove its integrity is refused, never parsed.
Frames are modest (one scenario spec or one result row), so the cap
below is generous.

Message vocabulary (the ``type`` field):

===========  =========  ===================================================
type         direction  meaning
===========  =========  ===================================================
``hello``    driver →   handshake: ``protocol`` version, driver pid
``welcome``  → driver   handshake accepted: ``protocol`` version, worker pid
``error``    → driver   handshake refused (e.g. version skew); body says why
``job``      driver →   one scenario: ``key`` (scenario hash) + ``spec``
                        (canonical dict) + ``sent_at`` (driver wall clock,
                        diagnostic) + optional ``telemetry`` flag
                        requesting cache stats
``result``   → driver   the answer to one ``job``: ``key`` + ``ok`` +
                        ``row`` + ``timing``, the sidecar (``queue_s``,
                        ``deser_s``, ``exec_s``, and ``perf`` cache stats
                        when requested)
``ping``     driver →   liveness probe while a job is outstanding
``pong``     → driver   liveness answer (sent even mid-execution)
``bye``      driver →   orderly end of session; worker closes the socket
===========  =========  ===================================================

A frame is the unit of every fault: framing makes it one ``sendall``,
the CRC refuses a corrupted frame whole, and :func:`decode_job` /
:func:`decode_result` refuse a structurally malformed one -- a peer
never acts on half a frame.

Timestamps in frames are *diagnostic*: ``sent_at`` is driver wall clock
(clocks across hosts are not comparable), while the ``timing`` sidecar
carries worker-local monotonic durations, which transfer meaningfully.
The sidecar never touches ``row`` -- stored results stay byte-identical
with telemetry on or off.

Bump :data:`PROTOCOL_VERSION` on any incompatible change; the handshake
refuses mismatched peers on both sides, so a stale worker fails loudly at
connect time instead of corrupting a campaign.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Any, Dict, Optional

#: Handshake version; mismatched driver/worker pairs refuse to talk.
#: v2: result rows carry the ``schema`` stamp (see
#: :data:`repro.runtime.execute.SCHEMA_VERSION`) -- a v1 worker would
#: produce schema-less rows that break cross-backend byte-identity, so
#: the skew must be refused at connect time, not discovered in a store.
#: v3: ``job`` frames are timestamped (``sent_at``) and may request
#: telemetry; ``result`` frames carry a ``timing`` sidecar -- a v2
#: worker would silently return no timings, making telemetry campaigns
#: under-report worker phases, so the skew is refused up front.
#: v4: the frame header grew a CRC32 of the body -- a v3 peer's 4-byte
#: headers would be misparsed as half of an 8-byte one, so the formats
#: cannot coexist on one stream and the skew is refused at handshake.
#: v5: ``job``/``result`` frames became batched ``jobs``/``results``
#: frames (N entries per frame, N=1 when unbatched) and ``welcome`` may
#: advertise a result shard -- a v4 worker would ignore ``jobs`` frames
#: and never answer, hanging the driver until ``job_timeout``, so the
#: skew is refused at handshake.
#: v6: ``pong`` and ``results`` frames piggyback a compact worker
#: ``metrics`` snapshot (queue depth, jobs done, cumulative exec
#: seconds, uptime) -- a v5 worker would silently omit it, blinding the
#: driver's live view and ``repro stats`` to worker-side health while
#: appearing to work, so the skew is refused at handshake.
#: v7: back to one scenario per frame -- ``jobs``/``results`` lists
#: became single ``job``/``result`` frames keyed by scenario hash, and
#: ``welcome`` no longer advertises a result shard -- a v6 peer would
#: ignore the other side's frames and hang until ``job_timeout``, so the
#: skew is refused at handshake.
#: v8: ``pong`` and ``result`` frames dropped the v6 ``metrics``
#: snapshot; the driver keeps every per-worker number it shows itself
#: -- a v7 driver would render blank worker-side columns against a v8
#: worker, so the skew is refused at handshake.
PROTOCOL_VERSION = 8

#: Frame header: 4-byte body length + 4-byte CRC32 of the body, both
#: unsigned big-endian.
_HEADER = struct.Struct(">II")

#: Upper bound on one frame's JSON body (defense against garbage peers).
MAX_FRAME_BYTES = 32 * 1024 * 1024


class WireError(RuntimeError):
    """The peer violated the framing or message protocol."""


def send_frame(sock: socket.socket, doc: Dict[str, Any]) -> None:
    """Serialize ``doc`` and write one length-prefixed frame."""
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds cap")
    # One sendall per frame: both ends set TCP_NODELAY, so a separate
    # header write would leave as a segment of its own.
    sock.sendall(_HEADER.pack(len(body), zlib.crc32(body)) + body)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on orderly EOF at a frame boundary.

    Raises :class:`WireError` on torn frames (EOF mid-frame), oversized
    lengths, or non-JSON/non-object bodies.  A ``socket.timeout`` mid-read
    discards any partially consumed bytes and desynchronises the stream --
    only call this on sockets with no read timeout (or where a timeout
    already means the peer is abandoned, as in handshakes); timeout-driven
    callers that retry must use :class:`FrameReceiver` instead.
    """
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    length, crc = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds cap")
    body = _recv_exact(sock, length, eof_ok=False)
    return _decode_body(body, crc)


class FrameReceiver:
    """Resumable frame reader: a ``socket.timeout`` preserves the frame.

    :func:`recv_frame` keeps partially read bytes in locals, so a socket
    timeout mid-frame (a result row straggling across TCP segments just
    as the driver's ``job_timeout`` expires) would lose them and make the
    next read misparse body bytes as a length prefix -- killing a healthy
    worker over a ``WireError``.  This class buffers header and body
    bytes across calls: when :meth:`recv` raises ``socket.timeout`` the
    caller can ping the peer and simply call :meth:`recv` again, resuming
    exactly where the stream stopped.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buffer = bytearray()
        self._length: Optional[int] = None  # parsed header awaiting body
        self._crc = 0  # checksum from the parsed header

    def recv(self) -> Optional[Dict[str, Any]]:
        """One frame; ``None`` on orderly EOF at a frame boundary.

        Same contract as :func:`recv_frame` except that a
        ``socket.timeout`` leaves the partial frame buffered for the next
        call instead of corrupting the stream position.
        """
        if self._length is None:
            if not self._fill(_HEADER.size, eof_ok=True):
                return None
            length, crc = _HEADER.unpack(bytes(self._buffer[: _HEADER.size]))
            if length > MAX_FRAME_BYTES:
                raise WireError(f"frame length {length} exceeds cap")
            del self._buffer[: _HEADER.size]
            self._length = length
            self._crc = crc
        self._fill(self._length, eof_ok=False)
        body = bytes(self._buffer[: self._length])
        del self._buffer[: self._length]
        self._length = None
        return _decode_body(body, self._crc)

    def _fill(self, count: int, eof_ok: bool) -> bool:
        """Buffer at least ``count`` bytes; ``False`` on EOF before the
        first byte if ``eof_ok`` (a frame boundary), :class:`WireError`
        on any other EOF.  ``socket.timeout`` propagates with the buffer
        intact."""
        while len(self._buffer) < count:
            chunk = self.sock.recv(65536)
            if not chunk:
                if eof_ok and not self._buffer:
                    return False
                raise WireError(
                    f"connection closed mid-frame "
                    f"({len(self._buffer)}/{count} bytes)"
                )
            self._buffer.extend(chunk)
        return True


def _decode_body(body: bytes, crc: int) -> Dict[str, Any]:
    actual = zlib.crc32(body)
    if actual != crc:
        raise WireError(
            f"checksum mismatch: header says {crc:#010x}, "
            f"body hashes to {actual:#010x} ({len(body)} bytes)"
        )
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("type"), str):
        raise WireError("frame is not a typed JSON object")
    return doc


def _recv_exact(
    sock: socket.socket, count: int, eof_ok: bool
) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on immediate EOF if allowed."""
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(min(65536, count - got))
        if not chunk:
            if eof_ok and got == 0:
                return None
            raise WireError(
                f"connection closed mid-frame ({got}/{count} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def decode_job(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a ``job`` frame (``key`` string, ``spec`` object); return it.

    A malformed frame is a :class:`WireError`, so the worker drops the
    session before executing anything and the driver requeues the job.
    """
    if not isinstance(doc.get("key"), str) or not isinstance(doc.get("spec"), dict):
        raise WireError("job frame is not {key, spec}")
    return doc


def decode_result(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a ``result`` frame (``key`` string, ``ok`` bool, ``row``
    object); return it.

    Same contract as :func:`decode_job`: the driver never records a
    result it cannot read whole, it declares the link dead instead.
    """
    if (
        not isinstance(doc.get("key"), str)
        or not isinstance(doc.get("ok"), bool)
        or not isinstance(doc.get("row"), dict)
    ):
        raise WireError("result frame is not {key, ok, row}")
    return doc


def parse_address(text: str) -> tuple:
    """Parse ``HOST:PORT`` into ``(host, port)`` (IPv4/hostname form)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"invalid port in {text!r}") from None
