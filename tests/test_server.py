"""Wire protocol framing, request handling, and statelessness."""

import json
import multiprocessing
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigforge import server as server_module
from sigforge.dataset import (
    MIN_FRAME_LEN,
    VARIANTS,
    DatasetConfig,
    bytes_to_frames,
    frame_to_bytes,
    generate_example,
)
from sigforge.frame import FRAME_LEN
from sigforge.registry import NUM_CLASSES
from sigforge.rng import derive_stream
from sigforge.server import (
    HEADER,
    MAGIC,
    MAX_BATCH,
    MAX_BATCH_SAMPLES,
    MSG_ERROR,
    MSG_REQUEST,
    MSG_RESPONSE,
    PROTOCOL_VERSION,
    BatchServer,
    ProtocolError,
    RequestError,
    ServerDefaults,
    build_batch,
    pack_frame,
    read_frame,
    request_batch,
)


def _start(srv):
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def server():
    yield from _start(BatchServer(("127.0.0.1", 0)))


@pytest.fixture
def pooled_server(monkeypatch):
    """A server that sees three usable CPUs, so its pool has three workers
    on any host, possibly more than it has cores."""
    with monkeypatch.context() as patch:
        patch.setattr(server_module.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        srv = BatchServer(("127.0.0.1", 0))
    yield from _start(srv)


def _served_payload(port, request):
    """The payload of the response frame the server sends for request."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(pack_frame(MSG_REQUEST, json.dumps(request).encode()))
        message_type, payload = read_frame(sock)
    assert message_type == MSG_RESPONSE, payload
    return payload


def test_header_layout():
    frame = pack_frame(MSG_REQUEST, b"{}")
    assert frame[:4] == b"SG53"
    assert frame[4] == 1
    assert frame[5] == 1
    assert struct.unpack("<I", frame[6:10])[0] == 2
    assert HEADER.size == 10
    assert MAGIC == b"SG53" and PROTOCOL_VERSION == 1


def test_round_trip_matches_direct_generation(server):
    header, iq, meta = request_batch(
        "127.0.0.1", server.port,
        batch_size=4, variant="impaired-train", seed=9, frame_len=256)
    assert header == {"count": 4, "frame_len": 256,
                      "dtype": "f32le-interleaved", "meta_bytes": len(meta)}
    frames = bytes_to_frames(iq, 256)
    assert frames.shape == (4, 256)
    config = DatasetConfig(variant="impaired-train", examples_per_class=1,
                           dataset_seed=9, frame_len=256)
    for k in range(4):
        want_frame, want_meta = generate_example(
            k, k % NUM_CLASSES, derive_stream(9, k), config)
        assert frame_to_bytes(want_frame) == iq[k * 256 * 8:(k + 1) * 256 * 8]
        got_meta = json.loads(meta.splitlines()[k])
        assert got_meta == json.loads(json.dumps(want_meta))


def test_start_index_offsets_the_stream(server):
    _, iq_a, _ = request_batch("127.0.0.1", server.port, batch_size=2,
                               variant="clean-train", seed=3,
                               start_index=7, frame_len=128)
    _, iq_b, _ = request_batch("127.0.0.1", server.port, batch_size=1,
                               variant="clean-train", seed=3,
                               start_index=8, frame_len=128)
    assert iq_a[128 * 8:] == iq_b  # example 8 is example 8, however asked


def test_identical_requests_get_identical_bytes(server):
    kwargs = dict(batch_size=3, variant="impaired-val", seed=5, frame_len=192)
    a = request_batch("127.0.0.1", server.port, **kwargs)
    b = request_batch("127.0.0.1", server.port, **kwargs)
    assert a == b


def test_three_concurrent_clients_agree(server):
    kwargs = dict(batch_size=6, variant="impaired-train", seed=11, frame_len=256)
    results = [None] * 3

    def worker(i):
        results[i] = request_batch("127.0.0.1", server.port, **kwargs)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert results[0] is not None
    assert results[0] == results[1] == results[2]


def test_defaults_fill_unset_fields(server):
    header, iq, meta = request_batch("127.0.0.1", server.port, batch_size=1,
                                     frame_len=64)
    # defaults: impaired-train, seed 0
    config = DatasetConfig(variant="impaired-train", examples_per_class=1,
                           dataset_seed=0, frame_len=64)
    want, _ = generate_example(0, 0, derive_stream(0, 0), config)
    assert iq == frame_to_bytes(want)
    assert header["count"] == 1


def test_bad_request_keeps_connection_alive(server):
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(pack_frame(MSG_REQUEST,
                                json.dumps({"batch_size": 0}).encode()))
        message_type, payload = read_frame(sock)
        assert message_type == MSG_ERROR
        assert "batch_size" in json.loads(payload)["error"]
        # same connection, valid request
        sock.sendall(pack_frame(MSG_REQUEST,
                                json.dumps({"batch_size": 1, "frame_len": 64}).encode()))
        message_type, payload = read_frame(sock)
        assert message_type == MSG_RESPONSE


def test_unknown_field_draws_an_error_and_keeps_the_connection(server):
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        # a mistyped batch_size must not serve the default batch
        sock.sendall(pack_frame(MSG_REQUEST, json.dumps({"batchsize": 64}).encode()))
        message_type, payload = read_frame(sock)
        assert message_type == MSG_ERROR
        assert "'batchsize'" in json.loads(payload)["error"]
        sock.sendall(pack_frame(MSG_REQUEST,
                                json.dumps({"batch_size": 1, "frame_len": 64}).encode()))
        message_type, payload = read_frame(sock)
        assert message_type == MSG_RESPONSE


@pytest.mark.parametrize("request_blob", [
    b"not json at all",
    b"[1,2,3]",
    json.dumps({"variant": "p25"}).encode(),
    json.dumps({"batch_size": 5000}).encode(),
    json.dumps({"start_index": -1}).encode(),
    json.dumps({"frame_len": 32}).encode(),
])
def test_invalid_requests_draw_errors(server, request_blob):
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(pack_frame(MSG_REQUEST, request_blob))
        message_type, _ = read_frame(sock)
        assert message_type == MSG_ERROR


def test_bad_magic_closes_connection(server):
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(b"XX53" + bytes([1, 1]) + struct.pack("<I", 0))
        message_type, _ = read_frame(sock)
        assert message_type == MSG_ERROR
        # server hangs up after a framing violation
        assert sock.recv(1) == b""


def test_wrong_version_rejected(server):
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(MAGIC + bytes([9, MSG_REQUEST]) + struct.pack("<I", 0))
        message_type, _ = read_frame(sock)
        assert message_type == MSG_ERROR


def test_unexpected_message_type_is_request_error(server):
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(pack_frame(MSG_RESPONSE, b"{}"))
        message_type, _ = read_frame(sock)
        assert message_type == MSG_ERROR
        sock.sendall(pack_frame(MSG_REQUEST,
                                json.dumps({"batch_size": 1, "frame_len": 64}).encode()))
        message_type, _ = read_frame(sock)
        assert message_type == MSG_RESPONSE  # still alive


@pytest.mark.parametrize("over", [
    {"batch_size": MAX_BATCH, "frame_len": FRAME_LEN + 1},
    {"batch_size": 1, "frame_len": MAX_BATCH_SAMPLES + 1},
    {"batch_size": 2, "frame_len": MAX_BATCH_SAMPLES // 2 + 1},
])
def test_oversized_batch_draws_error_and_keeps_connection(server, over):
    # just over the bound (case 2 by one sample); rejected before generating
    assert over["batch_size"] * over["frame_len"] > MAX_BATCH_SAMPLES == MAX_BATCH * FRAME_LEN
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(pack_frame(MSG_REQUEST, json.dumps(over).encode()))
        message_type, payload = read_frame(sock)
        assert message_type == MSG_ERROR
        assert "batch_size * frame_len" in json.loads(payload)["error"]
        sock.sendall(pack_frame(MSG_REQUEST,
                                json.dumps({"batch_size": 1, "frame_len": 64}).encode()))
        message_type, _ = read_frame(sock)
        assert message_type == MSG_RESPONSE


def test_build_batch_validation():
    defaults = ServerDefaults()
    with pytest.raises(RequestError):
        build_batch({"batch_size": MAX_BATCH + 1}, defaults)
    with pytest.raises(RequestError):
        build_batch({"variant": "dirty"}, defaults)
    with pytest.raises(RequestError):
        build_batch({"frame_len": 8}, defaults)
    with pytest.raises(RequestError):
        build_batch({"frame_len": MIN_FRAME_LEN - 1}, defaults)
    with pytest.raises(RequestError):
        build_batch({"start_index": -3}, defaults)
    with pytest.raises(RequestError, match="unknown request field.*'batchsize'"):
        build_batch({"batchsize": 64}, defaults)
    with pytest.raises(RequestError, match="'count', 'x'"):
        build_batch({"batch_size": 1, "frame_len": MIN_FRAME_LEN, "x": 0, "count": 1}, defaults)
    # wrong types are request errors, not coerced and not crashes
    for field, value in [("seed", [1]), ("batch_size", "abc"), ("frame_len", 1.5),
                         ("frame_len", 256.0), ("batch_size", True),
                         ("start_index", "0"), ("variant", ["clean-train"])]:
        with pytest.raises(RequestError):
            build_batch({"frame_len": MIN_FRAME_LEN, field: value}, defaults)


def test_server_defaults_validation():
    with pytest.raises(ValueError):
        ServerDefaults(variant="raw")
    with pytest.raises(ValueError):
        ServerDefaults(frame_len=MIN_FRAME_LEN - 1)
    with pytest.raises(ValueError):
        ServerDefaults(batch_size=0)
    with pytest.raises(ValueError):
        ServerDefaults(batch_size=2, frame_len=MAX_BATCH_SAMPLES // 2 + 1)
    # the largest batch of default-length frames stays legal
    assert ServerDefaults(batch_size=MAX_BATCH, frame_len=FRAME_LEN).batch_size == MAX_BATCH
    defaults = ServerDefaults()
    assert (defaults.variant, defaults.seed, defaults.frame_len, defaults.batch_size) == (
        "impaired-train", 0, 4096, 32)


_json_scalars = (st.none() | st.booleans() | st.floats() | st.text(max_size=8)
                 | st.integers(-(2 ** 70), 2 ** 70))
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6)


def _field(valid_ints):
    # any JSON type, plus integers on both sides of each bound; valid
    # sizes stay small so that a passing request generates little
    return _json_values | valid_ints


@settings(max_examples=150, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    "batch_size": _field(st.integers(max_value=3) | st.integers(min_value=MAX_BATCH + 1)),
    "variant": _json_values | st.sampled_from(VARIANTS),
    "seed": _json_values,
    "start_index": _field(st.integers(-3, 3)),
    "frame_len": _field(st.integers(max_value=MIN_FRAME_LEN + 8)),
}))
def test_build_batch_returns_or_raises_request_error(fields):
    fields.setdefault("batch_size", 1)
    fields.setdefault("frame_len", MIN_FRAME_LEN)
    try:
        payload = build_batch(fields, ServerDefaults())
    except RequestError:
        return
    header = json.loads(payload[:payload.index(b"\n")])
    assert header["count"] == fields["batch_size"]
    assert header["frame_len"] == fields["frame_len"]


def _framed(message_type, length, body):
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, message_type, length) + body


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64)
       | st.builds(lambda head, body: MAGIC + head + body,
                   st.binary(min_size=2, max_size=2), st.binary(max_size=64))
       | st.builds(_framed, st.integers(0, 255), st.integers(0, 80), st.binary(max_size=80))
       | st.builds(_framed, st.integers(0, 255), st.integers(0, 2 ** 32 - 1),
                   st.binary(max_size=16)))
def test_read_frame_returns_a_frame_or_raises_a_framing_error(data):
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(10.0)  # a hang fails the test rather than the run
        writer.sendall(data)
        writer.close()
        try:
            message_type, payload = read_frame(reader)
        except (ProtocolError, ConnectionError):
            return
    magic, version, want_type, length = HEADER.unpack(data[:HEADER.size])
    assert (magic, version) == (MAGIC, PROTOCOL_VERSION)
    assert (message_type, payload) == (want_type, data[HEADER.size:HEADER.size + length])


@pytest.mark.parametrize("bad", [
    {"seed": [1]},
    {"batch_size": "abc"},
    {"frame_len": 100.5},
    {"start_index": None},
    {"variant": {"name": "clean-train"}},
])
def test_bad_field_type_keeps_connection_alive(server, bad):
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(pack_frame(MSG_REQUEST, json.dumps(bad).encode()))
        message_type, payload = read_frame(sock)
        assert message_type == MSG_ERROR
        assert next(iter(bad)) in json.loads(payload)["error"]
        sock.sendall(pack_frame(MSG_REQUEST,
                                json.dumps({"batch_size": 1, "frame_len": 64}).encode()))
        message_type, _ = read_frame(sock)
        assert message_type == MSG_RESPONSE


def test_request_batch_reads_default_sized_batch(server):
    # 32 frames of 4096 samples exceed the 1 MiB request cap; responses
    # must not be held to it
    header, iq, meta = request_batch("127.0.0.1", server.port, seed=3)
    assert header["count"] == 32 and header["frame_len"] == 4096
    assert len(iq) + len(meta) > 1 << 20
    payload = build_batch({"seed": 3}, ServerDefaults())
    newline = payload.index(b"\n")
    assert payload[newline + 1:] == iq + meta


def _answer_once(payload):
    """A one-shot server on a local port that answers one request frame
    with a response frame holding payload; returns (port, its thread)."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer():
        with listener, listener.accept()[0] as conn:
            read_frame(conn)
            conn.sendall(pack_frame(MSG_RESPONSE, payload))
    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


_HEAD = b'{"count":1,"dtype":"f32le-interleaved","frame_len":64,"meta_bytes":3}\n'


@pytest.mark.parametrize("payload", [
    _HEAD + bytes(511) + b"{}\n",
    _HEAD + bytes(512) + b"{}",
    _HEAD + bytes(512) + b"{}\n{",
    _HEAD + bytes(4),
    bytes(512),
    b'{"count":0,"dtype":"f32le-interleaved","frame_len":64,"meta_bytes":0}',
    b"not json\n" + bytes(515),
    b"\xff\n" + bytes(515),
    b"[64]\n" + bytes(515),
    b'{"count":1,"frame_len":64}\n' + bytes(515),
    b'{"count":"1","frame_len":64,"meta_bytes":3}\n' + bytes(515),
], ids=["short-iq", "short-meta", "long", "truncated", "no-header-line", "unterminated-header",
        "not-json", "not-utf8", "not-an-object", "no-meta-bytes", "string-count"])
def test_request_batch_refuses_a_reply_of_the_wrong_size_or_header(payload):
    port, thread = _answer_once(payload)
    with pytest.raises(ProtocolError):
        request_batch("127.0.0.1", port)
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_request_batch_raises_on_error(server):
    with pytest.raises(RequestError):
        request_batch("127.0.0.1", server.port, variant="bogus")


def test_batch_crosses_class_wraparound(server):
    """Indices 52 and 53 map to the last and first class respectively."""
    _, iq, meta = request_batch("127.0.0.1", server.port, batch_size=2,
                                variant="clean-train", seed=1,
                                start_index=52, frame_len=64)
    lines = [json.loads(line) for line in meta.splitlines()]
    assert lines[0]["class_index"] == 52
    assert lines[1]["class_index"] == 0
    assert np.all(np.isfinite(bytes_to_frames(iq, 64)))


@pytest.mark.parametrize("request_fields", [
    # 13 frames are one full pool task and one short one, across the class wrap
    {"start_index": 50, "batch_size": 13, "seed": 4},
    {"start_index": 3, "batch_size": 20, "frame_len": 64, "variant": "clean-val"},
])
def test_pool_batch_equals_in_process_build_batch(pooled_server, request_fields):
    assert pooled_server.pool is not None
    assert _served_payload(pooled_server.port, request_fields) == build_batch(
        request_fields, ServerDefaults())


def test_pool_serves_concurrent_clients_on_disjoint_ranges(pooled_server):
    requests = [{"start_index": 1000 * c, "batch_size": 9, "frame_len": 256, "seed": 8}
                for c in range(3)]
    payloads = [None] * 3

    def client(c):
        payloads[c] = _served_payload(pooled_server.port, requests[c])

    threads = [threading.Thread(target=client, args=(c,)) for c in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    for request, payload in zip(requests, payloads):
        assert payload == build_batch(request, ServerDefaults())


def test_server_close_leaves_no_pool_worker(monkeypatch):
    before = {p.pid for p in multiprocessing.active_children()}
    monkeypatch.setattr(server_module.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    srv = BatchServer(("127.0.0.1", 0))
    workers = {p.pid for p in multiprocessing.active_children()} - before
    assert len(workers) == 3
    srv.server_close()
    assert not workers & {p.pid for p in multiprocessing.active_children()}


def test_single_cpu_server_has_no_pool(monkeypatch):
    monkeypatch.setattr(server_module.os, "sched_getaffinity", lambda pid: {0})
    srv = BatchServer(("127.0.0.1", 0))
    try:
        assert srv.pool is None
    finally:
        srv.server_close()


def test_mid_frame_stall_is_disconnected(server, monkeypatch):
    monkeypatch.setattr(server_module, "_FRAME_TIMEOUT_S", 0.3)
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as stalled:
        stalled.sendall(pack_frame(MSG_REQUEST, b"{}")[:3])
        started = time.monotonic()
        assert stalled.recv(1) == b""  # closed, with no error frame
        assert time.monotonic() - started < 5
        # the stalled connection does not hold up anyone else
        header, _iq, _meta = request_batch("127.0.0.1", server.port,
                                           batch_size=1, frame_len=64)
        assert header["count"] == 1


def test_client_that_stops_reading_is_disconnected(server, monkeypatch):
    monkeypatch.setattr(server_module, "_FRAME_TIMEOUT_S", 0.3)
    # small buffers at both ends, so the kernel cannot take all of the
    # 2 MiB reply (an autotuned send buffer grows to several MiB)
    def small_send_buffer(handler):
        handler.request.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

    monkeypatch.setattr(server_module._Handler, "setup", small_send_buffer)
    before = set(threading.enumerate())
    with socket.socket() as stalled:
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.connect(("127.0.0.1", server.port))
        stalled.sendall(pack_frame(MSG_REQUEST, json.dumps(
            {"batch_size": 64, "variant": "clean-train"}).encode()))
        deadline = time.monotonic() + 30
        while not (handlers := set(threading.enumerate()) - before):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        for handler in handlers:  # never reads, yet its handler thread ends
            handler.join(timeout=deadline - time.monotonic())
            assert not handler.is_alive()
        header, _iq, _meta = request_batch("127.0.0.1", server.port,
                                           batch_size=1, frame_len=64)
        assert header["count"] == 1


def test_idle_connection_between_frames_is_kept(server, monkeypatch):
    monkeypatch.setattr(server_module, "_FRAME_TIMEOUT_S", 0.2)
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        for _ in range(2):
            time.sleep(0.5)  # idle longer than the frame timeout
            sock.sendall(pack_frame(MSG_REQUEST,
                                    json.dumps({"batch_size": 1, "frame_len": 64}).encode()))
            message_type, _ = read_frame(sock)
            assert message_type == MSG_RESPONSE


def _child_pids(pid):
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if int(fields[1]) == pid:  # fields: state, ppid, ...
            children.add(int(stat.parent.name))
    return children


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigterm_stops_serve_and_every_pool_worker():
    port = _free_port()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-m", "sigforge.cli", "serve", "--port", str(port)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while True:
            try:
                request_batch("127.0.0.1", port, batch_size=1, frame_len=64)
                break
            except OSError:  # not listening yet
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
        workers = _child_pids(proc.pid)
        cpus = len(os.sched_getaffinity(0))
        assert len(workers) == (cpus if cpus > 1 else 0)
        # a batch still being generated when the signal comes
        with socket.create_connection(("127.0.0.1", port)) as busy:
            busy.sendall(pack_frame(MSG_REQUEST, json.dumps({"batch_size": 512}).encode()))
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, err
    assert out.startswith(b"serving on") and err == b""  # no worker traceback
    # the server reaped its workers before it exited
    assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]
