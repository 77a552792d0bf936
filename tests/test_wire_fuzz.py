"""Property-based wire-protocol fuzz tests (seeded, dependency-free).

Three properties over randomly generated v7 ``job``/``result`` frames,
each with a fixed seed so failures reproduce:

* **round-trip**: any frame -- random keys, arbitrarily nested JSON
  specs/rows -- survives framing byte-exact, and validates through
  :func:`decode_job` / :func:`decode_result`;
* **refusal**: any random byte corruption or truncation of a frame is
  refused as a :class:`WireError` (or clean EOF at a frame boundary) --
  never a half-decoded frame, never a silently different document --
  and a well-framed but structurally malformed frame is refused whole;
* **resumability**: a frame stream chopped at random byte positions and
  delivered across ``socket.timeout`` boundaries decodes to exactly the
  frames sent, in order, with no desync.
"""

import json
import random
import socket as socket_module
import struct
import zlib

import pytest

from repro.runtime.backends.wire import (
    FrameReceiver,
    MAX_FRAME_BYTES,
    WireError,
    decode_job,
    decode_result,
    recv_frame,
    send_frame,
)

TRIALS = 120


def frame_bytes(doc) -> bytes:
    """Frame ``doc`` exactly as :func:`send_frame` does."""
    body = json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


class ByteStream:
    """A closed socket replayed from memory: ``recv`` drains a buffer,
    then returns ``b""`` (EOF) forever."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0

    def recv(self, count: int) -> bytes:
        chunk = self._data[self._pos:self._pos + count]
        self._pos += len(chunk)
        return chunk


def random_json(rng: random.Random, depth: int = 0):
    """An arbitrary JSON value (finite floats only; depth-bounded)."""
    kinds = ["str", "int", "float", "bool", "null"]
    if depth < 3:
        kinds += ["dict", "list"]
    kind = rng.choice(kinds)
    if kind == "str":
        return "".join(
            rng.choice("abc é☃{}[]\"\\\n\t0")
            for _ in range(rng.randrange(0, 12))
        )
    if kind == "int":
        return rng.randrange(-10**9, 10**9)
    if kind == "float":
        return rng.uniform(-1e6, 1e6)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "null":
        return None
    if kind == "list":
        return [random_json(rng, depth + 1)
                for _ in range(rng.randrange(0, 4))]
    return {
        f"k{i}": random_json(rng, depth + 1)
        for i in range(rng.randrange(0, 4))
    }


def random_job_frame(rng: random.Random):
    doc = {"type": "job", "key": "%064x" % rng.getrandbits(256),
           "spec": {"n": rng.randrange(3, 50), "extra": random_json(rng)},
           "sent_at": rng.uniform(0, 2e9)}
    if rng.random() < 0.5:
        doc["telemetry"] = True
    return doc


def random_result_frame(rng: random.Random):
    return {"type": "result", "key": "%064x" % rng.getrandbits(256),
            "ok": rng.random() < 0.9,
            "row": {"agreed": True, "payload": random_json(rng)},
            "timing": {"exec_s": rng.uniform(0, 1)}}


def without(doc, field):
    """``doc`` minus one field."""
    return {key: value for key, value in doc.items() if key != field}


def random_frame(rng: random.Random):
    return (random_job_frame(rng) if rng.random() < 0.5
            else random_result_frame(rng))


class TestRoundTrip:
    def test_random_batch_frames_roundtrip_byte_exact(self):
        # A batch of TRIALS random frames, one after another on a socket.
        rng = random.Random(0xBA7C4)
        a, b = socket_module.socketpair()
        try:
            for _ in range(TRIALS):
                doc = random_frame(rng)
                send_frame(a, doc)
                received = recv_frame(b)
                assert received == doc
                decode = decode_job if doc["type"] == "job" else decode_result
                assert decode(received) == doc
        finally:
            a.close()
            b.close()

    def test_large_batch_roundtrips(self):
        # 500 job frames back to back in one stream, each carrying a
        # bulky spec, decode in order; then clean EOF at the boundary.
        rng = random.Random(5)
        docs = [{"type": "job", "key": "%064x" % rng.getrandbits(256),
                 "spec": {"n": 7, "blob": "x" * 20_000}, "sent_at": 0.0}
                for _ in range(500)]
        stream = ByteStream(b"".join(frame_bytes(doc) for doc in docs))
        assert [recv_frame(stream) for _ in docs] == docs
        assert recv_frame(stream) is None
        assert all(len(frame_bytes(doc)) < MAX_FRAME_BYTES for doc in docs)


class TestRefusal:
    def test_random_byte_corruption_never_half_decodes(self):
        # Any flipped byte -- header length, header CRC, or body -- must
        # surface as WireError.  It must never decode to a *different*
        # document than the one sent (the driver would record a result,
        # or the worker run a spec, that nobody sent).
        rng = random.Random(0xC0DE)
        for _ in range(TRIALS):
            doc = random_frame(rng)
            frame = bytearray(frame_bytes(doc))
            for _ in range(rng.randrange(1, 4)):
                position = rng.randrange(len(frame))
                frame[position] ^= rng.randrange(1, 256)
            try:
                decoded = recv_frame(ByteStream(bytes(frame)))
            except WireError:
                continue
            # Astronomically unlikely (a 2^-32 CRC collision), but the
            # contract if it ever happens is still all-or-nothing: the
            # flips must have cancelled out to the original bytes.
            assert decoded == doc

    def test_random_truncation_is_eof_or_wire_error(self):
        rng = random.Random(0x7E4)
        for _ in range(TRIALS):
            doc = random_job_frame(rng)
            frame = frame_bytes(doc)
            cut = rng.randrange(len(frame))
            stream = ByteStream(frame[:cut])
            if cut == 0:
                # Nothing arrived: clean EOF at a frame boundary.
                assert recv_frame(stream) is None
            else:
                with pytest.raises(WireError, match="mid-frame"):
                    recv_frame(stream)

    def test_structural_mutations_refused_whole(self):
        # decode_job/decode_result guard structure the checksum cannot:
        # a frame that *is* valid JSON but not a valid job or result.
        rng = random.Random(99)
        job = random_job_frame(rng)
        result = random_result_frame(rng)
        bad_jobs = [
            without(job, "key"),
            without(job, "spec"),
            {**job, "key": 7},
            {**job, "key": None},
            {**job, "spec": []},
            {**job, "spec": "not-a-dict"},
            {**job, "spec": None},
        ]
        for doc in bad_jobs:
            with pytest.raises(WireError):
                decode_job(doc)
        bad_results = [
            without(result, "key"),
            without(result, "ok"),
            without(result, "row"),
            {**result, "key": 7},
            {**result, "ok": "yes"},
            {**result, "ok": 1},
            {**result, "row": "not-a-dict"},
            {**result, "row": None},
        ]
        for doc in bad_results:
            with pytest.raises(WireError):
                decode_result(doc)


class TestResumability:
    def test_random_chunking_across_timeouts_preserves_stream(self):
        # A stream of frames delivered in random slices, with the reader
        # timing out between slices, must decode to exactly the frames
        # sent -- FrameReceiver's buffer keeps the stream position true.
        rng = random.Random(0xF10)
        for _ in range(10):
            docs = [random_frame(rng) for _ in range(rng.randrange(2, 6))]
            stream = b"".join(frame_bytes(doc) for doc in docs)
            cuts = sorted(
                rng.randrange(1, len(stream))
                for _ in range(rng.randrange(1, 12))
            )
            chunks = [
                stream[lo:hi]
                for lo, hi in zip([0] + cuts, cuts + [len(stream)])
            ]
            a, b = socket_module.socketpair()
            try:
                b.settimeout(0.02)
                receiver = FrameReceiver(b)
                decoded = []
                for chunk in chunks:
                    if chunk:
                        a.sendall(chunk)
                    while True:
                        try:
                            decoded.append(receiver.recv())
                        except socket_module.timeout:
                            break
                assert decoded == docs
            finally:
                a.close()
                b.close()
