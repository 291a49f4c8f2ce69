"""Online-batch TCP server.

Framing (all integers little-endian):

    magic   4 bytes  b"SG53"
    version u8       1
    type    u8       1 = batch request, 2 = batch response, 255 = error
    length  u32      payload byte count

Request payload is a JSON object; unset fields fall back to the server's
defaults: {"batch_size": int (1..4096), "variant": str, "seed": int,
"start_index": int (>= 0), "frame_len": int (>= dataset.MIN_FRAME_LEN)},
and a batch holds at most MAX_BATCH_SAMPLES = 4096 * 4096 samples
(batch_size * frame_len). Any other field is rejected, so a mistyped
name does not silently fall back to a default. Integer fields take JSON
integers only: booleans, floats and strings are rejected, not coerced.
Requests are capped at 1 MiB; responses are not. Waiting for the first
byte of a request is not limited, as trainers hold connections open
between batches, but a connection that then goes _FRAME_TIMEOUT_S
without a byte before its request frame is complete, or without taking
a byte of its reply, is closed.

Response payload is a JSON header line — {"count", "frame_len",
"dtype": "f32le-interleaved", "meta_bytes"} — terminated by "\n", then
count*frame_len*8 bytes of interleaved float32 IQ, then meta_bytes bytes
of JSONL metadata.

A batch is dataset.generate_range(config, start_index, batch_size) for
the DatasetConfig the request describes, so example k of a batch is
dataset example start_index+k of that variant and seed. BatchServer
generates it on a process pool with one worker per usable CPU, through
dataset.iter_range: the 8-example sub-ranges write_shards uses too, but
with each sub-range's bytes sent back through the pool's pipes. The
response is a pure function of the request: identical requests get
identical bytes no matter which client sends them, when, or which worker
generates them. A malformed header draws an error frame and a close; a
well-framed but invalid request draws an error frame and the connection
stays usable.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import socket
import socketserver
import struct

from sigforge.dataset import DatasetConfig, check_int, iter_range
from sigforge.frame import FRAME_LEN

MAGIC = b"SG53"
PROTOCOL_VERSION = 1
MSG_REQUEST = 1
MSG_RESPONSE = 2
MSG_ERROR = 255
MAX_BATCH = 4096
# the largest batch of default-length frames; a request may trade batch
# size for frame length but not ask for more samples than this
MAX_BATCH_SAMPLES = MAX_BATCH * FRAME_LEN
_MAX_REQUEST_BYTES = 1 << 20
_REQUEST_FIELDS = ("batch_size", "variant", "seed", "start_index", "frame_len")
# longest silence allowed partway through a request frame, and the
# longest a reply may wait for the peer to take its next chunk
_FRAME_TIMEOUT_S = 30.0

HEADER = struct.Struct("<4sBBI")


class ProtocolError(Exception):
    """Framing violation; the connection is beyond saving."""


class RequestError(Exception):
    """Bad request content on an intact connection."""


def pack_frame(message_type: int, payload: bytes) -> bytes:
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, message_type, len(payload)) + payload


def recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _send_frame(sock: socket.socket, message_type: int, payload: bytes) -> None:
    """Send one frame a chunk at a time, so the socket's timeout bounds
    each chunk rather than the whole frame; raises OSError on timeout."""
    view = memoryview(pack_frame(message_type, payload))
    while view:
        view = view[sock.send(view):]


def _error_payload(message: str) -> bytes:
    return json.dumps({"error": message}).encode("utf-8")


def _read_header(sock: socket.socket) -> tuple[int, int]:
    """Read and check one frame header; returns (type, payload length)."""
    magic, version, message_type, length = HEADER.unpack(recv_exact(sock, HEADER.size))
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported version {version}")
    return message_type, length


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one (type, payload) frame; raises ProtocolError on bad framing."""
    message_type, length = _read_header(sock)
    return message_type, recv_exact(sock, length)


def _check_request(variant: object, seed: object, frame_len: object,
                   batch_size: object) -> DatasetConfig:
    """The DatasetConfig a batch request describes; raises TypeError or
    ValueError if a field has the wrong type or is out of range."""
    check_int("batch_size", batch_size, 1, MAX_BATCH)
    config = DatasetConfig(variant=variant, examples_per_class=1, dataset_seed=seed,
                           frame_len=frame_len)
    if batch_size * frame_len > MAX_BATCH_SAMPLES:
        raise ValueError(f"batch_size * frame_len must be <= {MAX_BATCH_SAMPLES}, "
                         f"got {batch_size} * {frame_len}")
    return config


def build_batch(request: dict, defaults: "ServerDefaults",
                pool: multiprocessing.pool.Pool | None = None) -> bytes:
    """Generate the response payload for a request dict, on the pool's
    workers if one is given, else in this process; the bytes are the same.
    Raises RequestError if a field is unknown, has the wrong type or is out
    of range."""
    unknown = sorted(set(request) - set(_REQUEST_FIELDS))
    if unknown:
        raise RequestError(f"unknown request field(s) {', '.join(map(repr, unknown))}; "
                           f"expected any of {', '.join(_REQUEST_FIELDS)}")
    batch_size = request.get("batch_size", defaults.batch_size)
    start_index = request.get("start_index", 0)
    try:
        config = _check_request(request.get("variant", defaults.variant),
                                request.get("seed", defaults.seed),
                                request.get("frame_len", defaults.frame_len), batch_size)
        check_int("start_index", start_index, 0)
    except (TypeError, ValueError) as exc:
        raise RequestError(str(exc)) from exc
    parts = list(iter_range(config, start_index, batch_size, pool))
    iq_blob = b"".join(iq for iq, _meta in parts)
    meta_blob = b"".join(meta for _iq, meta in parts)
    header = json.dumps({
        "count": batch_size,
        "frame_len": config.frame_len,
        "dtype": "f32le-interleaved",
        "meta_bytes": len(meta_blob),
    }, sort_keys=True, separators=(",", ":")) + "\n"
    return header.encode("utf-8") + iq_blob + meta_blob


class ServerDefaults:
    def __init__(self, variant: str = "impaired-train", seed: int = 0,
                 frame_len: int = FRAME_LEN, batch_size: int = 32):
        # fail at start-up, not on every request that leaves a field unset
        _check_request(variant, seed, frame_len, batch_size)
        self.variant = variant
        self.seed = seed
        self.frame_len = frame_len
        self.batch_size = batch_size


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        sock = self.request
        while True:
            sock.settimeout(None)  # idle between requests: no limit
            try:
                if not sock.recv(1, socket.MSG_PEEK):
                    return
                # from the first byte through the reply, per read and per write chunk
                sock.settimeout(_FRAME_TIMEOUT_S)
                message_type, length = _read_header(sock)
                if length > _MAX_REQUEST_BYTES:
                    raise ProtocolError(f"payload of {length} bytes exceeds limit")
                payload = recv_exact(sock, length)
            except (ConnectionError, TimeoutError):
                return
            except ProtocolError as exc:
                with contextlib.suppress(OSError):
                    _send_frame(sock, MSG_ERROR, _error_payload(str(exc)))
                return
            try:
                if message_type != MSG_REQUEST:
                    raise RequestError(f"unexpected message type {message_type}")
                try:
                    request = json.loads(payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise RequestError(f"request is not valid JSON: {exc}") from exc
                if not isinstance(request, dict):
                    raise RequestError("request must be a JSON object")
                reply = MSG_RESPONSE, build_batch(request, self.server.defaults, self.server.pool)
            except RequestError as exc:
                reply = MSG_ERROR, _error_payload(str(exc))
            try:
                _send_frame(sock, *reply)
            except OSError:  # the peer is gone or stopped reading
                return


def _init_worker() -> None:
    """Pool workers die on the SIGTERM of Pool.terminate and leave Ctrl-C
    to the server, which then terminates them."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


class BatchServer(socketserver.ThreadingTCPServer):
    """One thread per connection; a connection handles one batch at a time,
    which bounds buffered memory per client. Batches are generated on a
    process pool of one worker per usable CPU (none on a single CPU), which
    lives until server_close()."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], defaults: ServerDefaults | None = None):
        self.defaults = defaults if defaults is not None else ServerDefaults()
        # Forked before the listening socket exists, so workers do not hold
        # it open, and before serve_forever starts any handler thread, as
        # forking a threaded process is unsafe. Forked workers inherit every
        # module this process has imported, so none re-imports numpy and
        # sigforge before its first batch.
        cpus = len(os.sched_getaffinity(0))
        self.pool = (multiprocessing.get_context("fork").Pool(cpus, _init_worker)
                     if cpus > 1 else None)
        super().__init__(address, _Handler)  # a failed bind calls server_close

    @property
    def port(self) -> int:
        return self.server_address[1]

    def server_close(self) -> None:
        """Close the listening socket, then terminate and join the pool."""
        super().server_close()
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()


def request_batch(host: str, port: int, **fields) -> tuple[dict, bytes, bytes]:
    """Client helper: one request, returns (header, iq bytes, meta bytes).
    Raises RequestError for an error frame and ProtocolError for a reply
    without a JSON header line or whose body is not the size it gives."""
    with socket.create_connection((host, port)) as sock:
        sock.sendall(pack_frame(MSG_REQUEST, json.dumps(fields).encode("utf-8")))
        message_type, payload = read_frame(sock)
    if message_type == MSG_ERROR:
        raise RequestError(json.loads(payload.decode("utf-8"))["error"])
    if message_type != MSG_RESPONSE:
        raise ProtocolError(f"unexpected message type {message_type}")
    head, newline, body = payload.partition(b"\n")
    if not newline:
        raise ProtocolError("response has no header line")
    try:
        header = json.loads(head.decode("utf-8"))
        iq_len = header["count"] * header["frame_len"] * 8
        size = iq_len + header["meta_bytes"]
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8, not JSON, not a header
        raise ProtocolError(f"bad response header: {exc!r}") from exc
    if len(body) != size:
        raise ProtocolError(f"response body is {len(body)} bytes, its header gives {size}")
    return header, body[:iq_len], body[iq_len:]
