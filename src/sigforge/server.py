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
(batch_size * frame_len) and ends at index 2**63 at the latest
(start_index + batch_size). Any other field is rejected, so a mistyped
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
dataset.iter_range, the loop write_shards runs too: its 8-example tasks
write their IQ into one memory file per batch (os.memfd_create, so Linux
with /proc mounted), and only metadata goes through the pool's pipes.
The server never reads that IQ itself: it sends the frame header and the
header line, then the IQ straight from the memory file with sendfile,
then the metadata, and closes the file. The response is a
pure function of the request: identical requests get identical bytes no
matter which client sends them, when, or which worker generates them. A
malformed header draws an error frame and a close; a well-framed but
invalid request draws an error frame and the connection stays usable;
any other failure to build a batch draws an "internal error: ..." error
frame and a close. A pool worker that dies, killed by the out-of-memory
killer say, fails the batches it was generating with
pool.WorkerLostError, each answered that way, and the server forks a
fresh pool in place of the lost one before it answers.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import socketserver
import struct
import threading
from dataclasses import asdict, dataclass
from typing import BinaryIO, Iterator

from sigforge.dataset import DatasetConfig, iter_range
from sigforge.frame import FRAME_LEN, check_int
from sigforge.pool import Executor, WorkerLostError, fork_pool

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
_DTYPE = "f32le-interleaved"
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


def _send_all(sock: socket.socket, data: bytes) -> None:
    """Send data a chunk at a time, so the socket's timeout bounds each
    chunk rather than the whole of it; raises OSError on timeout."""
    view = memoryview(data)
    while view:
        view = view[sock.send(view):]


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


def _check_request(variant: object, seed: object, frame_len: object, batch_size: object,
                   start_index: object) -> DatasetConfig:
    """The DatasetConfig a batch request describes; raises TypeError or
    ValueError if a field has the wrong type or is out of range."""
    check_int("batch_size", batch_size, 1, MAX_BATCH)
    config = DatasetConfig(variant=variant, examples_per_class=1, dataset_seed=seed,
                           frame_len=frame_len)
    if batch_size * frame_len > MAX_BATCH_SAMPLES:
        raise ValueError(f"batch_size * frame_len must be <= {MAX_BATCH_SAMPLES}, "
                         f"got {batch_size} * {frame_len}")
    # stream keys alias modulo 2**64, so no batch reaches index 2**63: past
    # it, a batch would serve lower indices' bytes under its own
    check_int("start_index", start_index, 0, 2**63 - batch_size)
    return config


# the fields a request may set are _check_request's parameters, so the
# unknown-field check and the checker cannot disagree
_REQUEST_FIELDS = _check_request.__code__.co_varnames[:_check_request.__code__.co_argcount]


@contextlib.contextmanager
def _batch(request: dict, defaults: "ServerDefaults", pool: Executor | None
           ) -> Iterator[tuple[bytes, BinaryIO, bytes]]:
    """Check a request dict and generate its batch into a memory file;
    yields (header line, IQ file, meta bytes), the three parts of the
    response payload in order, the IQ file holding exactly the batch's IQ
    and closed on exit. Raises as build_batch does."""
    unknown = sorted(set(request) - set(_REQUEST_FIELDS))
    if unknown:
        raise RequestError(f"unknown request field(s) {', '.join(map(repr, unknown))}; "
                           f"expected any of {', '.join(_REQUEST_FIELDS)}")
    fields = {**asdict(defaults), "start_index": 0, **request}
    try:
        config = _check_request(**fields)
    except (TypeError, ValueError) as exc:
        raise RequestError(str(exc)) from exc
    with os.fdopen(os.memfd_create("sigforge-batch"), "rb") as iq_file:
        meta_blob = b"".join(meta for _task, meta in iter_range(
            config, iq_file.fileno(), fields["start_index"], fields["batch_size"], pool))
        header = json.dumps({
            "count": fields["batch_size"],
            "frame_len": config.frame_len,
            "dtype": _DTYPE,
            "meta_bytes": len(meta_blob),
        }, sort_keys=True, separators=(",", ":")) + "\n"
        yield header.encode("utf-8"), iq_file, meta_blob


def build_batch(request: dict, defaults: "ServerDefaults", pool: Executor | None = None) -> bytes:
    """Generate the response payload for a request dict, on the pool's
    workers if one is given, else in this process; the bytes are the same.
    Raises RequestError if a field is unknown, has the wrong type or is out
    of range, and OSError if the batch's memory file cannot be made or
    its IQ never reached it. The memory file is read whole, as iter_range
    has checked that it holds exactly the batch's IQ."""
    with _batch(request, defaults, pool) as (header, iq_file, meta_blob):
        return header + iq_file.read() + meta_blob


def _send_batch(sock: socket.socket, header: bytes, iq_file: BinaryIO, meta_blob: bytes) -> None:
    """Send the response frame of a _batch: its IQ goes from the memory
    file to the socket by sendfile, never through this process's memory.
    The socket's timeout bounds each wait, as in _send_all. The three
    writes are corked into one stream, so Nagle's algorithm cannot hold the
    meta behind the IQ's last partial segment until the peer acknowledges
    it."""
    iq_size = os.fstat(iq_file.fileno()).st_size
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_CORK, 1)
    _send_all(sock, HEADER.pack(MAGIC, PROTOCOL_VERSION, MSG_RESPONSE,
                                len(header) + iq_size + len(meta_blob)) + header)
    sock.sendfile(iq_file)
    _send_all(sock, meta_blob)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_CORK, 0)


@dataclass(frozen=True)
class ServerDefaults:
    """The values of the request fields a request leaves unset; frozen, so
    they stay the ones checked at start-up."""

    variant: str = "impaired-train"
    seed: int = 0
    frame_len: int = FRAME_LEN
    batch_size: int = 32

    def __post_init__(self) -> None:
        # fail at start-up, not on every request that leaves a field unset
        _check_request(**asdict(self), start_index=0)


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
                if message_type != MSG_REQUEST:
                    raise RequestError(f"unexpected message type {message_type}")
                try:
                    request = json.loads(payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise RequestError(f"request is not valid JSON: {exc}") from exc
                if not isinstance(request, dict):
                    raise RequestError("request must be a JSON object")
                with _batch(request, self.server.defaults, pool := self.server.pool) as parts:
                    try:
                        _send_batch(sock, *parts)
                    except OSError:  # the peer is gone or stopped reading
                        return
            except (ConnectionError, TimeoutError):
                return
            except Exception as exc:  # a bad request keeps the connection; anything else closes it
                if isinstance(exc, WorkerLostError):  # first, so a retry finds a fresh pool
                    self.server.replace_pool(pool)
                known = isinstance(exc, (RequestError, ProtocolError))
                message = str(exc) if known else f"internal error: {exc!r}"
                try:
                    _send_all(sock, pack_frame(MSG_ERROR, json.dumps({"error": message}).encode()))
                except OSError:  # the peer is gone or stopped reading
                    return
                if not isinstance(exc, RequestError):
                    return


class BatchServer(socketserver.ThreadingTCPServer):
    """One thread per connection; a connection handles one batch at a time,
    which bounds buffered memory per client. Batches are generated on a
    process pool of one worker per usable CPU (none on a single CPU), which
    lives until server_close(), or until a worker dies: the batch that
    finds it lost is answered with an internal error, and the pool is
    replaced."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], defaults: ServerDefaults | None = None):
        check_int("port", address[1], 0, 65535)  # before the pool forks, not at bind
        self.defaults = defaults if defaults is not None else ServerDefaults()
        # Forked before the listening socket exists, so workers do not hold
        # it open, and before serve_forever starts any handler thread. A pool
        # that replace_pool forks later holds what the server has open then,
        # sockets and memory files of batches in flight included, until it
        # is shut down. Forked workers inherit every module this process has
        # imported, so none re-imports numpy and sigforge before its first
        # batch.
        self.pool = fork_pool(len(os.sched_getaffinity(0)))
        self._pool_lock = threading.Lock()
        super().__init__(address, _Handler)  # a failed bind calls server_close

    @property
    def port(self) -> int:
        return self.server_address[1]

    def replace_pool(self, lost: Executor) -> None:
        """Fork a fresh pool in place of lost, which lost a worker, and shut
        lost down; a handler that finds lost already replaced does
        nothing, so the pool is replaced once however many batches lost."""
        with self._pool_lock:
            if self.pool is lost:
                self.pool = fork_pool(len(os.sched_getaffinity(0)))
                lost.shutdown()

    def server_close(self) -> None:
        """Close the listening socket, then shut down the pool and join its
        workers; a batch still generating on it is answered with an
        internal error."""
        super().server_close()
        with self._pool_lock:
            if self.pool is not None:
                self.pool.shutdown(cancel_futures=True)


def _recv_into(sock: socket.socket, view: memoryview) -> None:
    """Fill view from sock; raises ConnectionError if the peer closes first."""
    while view:
        received = sock.recv_into(view)
        if not received:
            raise ConnectionError("peer closed mid-frame")
        view = view[received:]


def request_batch(host: str, port: int, **fields) -> tuple[dict, bytes, bytes]:
    """Client helper: one request, returns (header, iq bytes, meta bytes).
    Raises RequestError for an error frame and ProtocolError for an error
    frame that is not a JSON object with an "error" string, a reply
    without a JSON header line, whose header's count, frame_len or
    meta_bytes is not an int >= 0 or whose dtype is not f32le-interleaved,
    or whose body is not the size its header gives.
    The reply is read into one buffer of the length its frame header
    gives, and the IQ and meta are cut out of it."""
    with socket.create_connection((host, port)) as sock:
        sock.sendall(pack_frame(MSG_REQUEST, json.dumps(fields).encode("utf-8")))
        message_type, length = _read_header(sock)
        payload = bytearray(length)
        _recv_into(sock, memoryview(payload))
    if message_type == MSG_ERROR:
        try:
            message = json.loads(payload.decode("utf-8"))["error"]
        except (ValueError, KeyError, TypeError) as exc:  # not UTF-8, not JSON, no "error"
            raise ProtocolError(f"bad error frame: {exc!r}") from exc
        if not isinstance(message, str):
            raise ProtocolError(f"bad error frame: its error is {type(message).__name__}")
        raise RequestError(message)
    if message_type != MSG_RESPONSE:
        raise ProtocolError(f"unexpected message type {message_type}")
    newline = payload.find(b"\n")
    if newline < 0:
        raise ProtocolError("response has no header line")
    try:
        header = json.loads(payload[:newline].decode("utf-8"))
        for name in ("count", "frame_len", "meta_bytes"):
            check_int(name, header[name], 0)
        if header["dtype"] != _DTYPE:
            raise ValueError(f"dtype {header['dtype']!r} is not {_DTYPE!r}")
        iq_len = header["count"] * header["frame_len"] * 8
        size = iq_len + header["meta_bytes"]
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8, not JSON, not a header
        raise ProtocolError(f"bad response header: {exc!r}") from exc
    body = memoryview(payload)[newline + 1:]
    if len(body) != size:
        raise ProtocolError(f"response body is {len(body)} bytes, its header gives {size}")
    return header, bytes(body[:iq_len]), bytes(body[iq_len:])
