"""Timed runs of the sigforge workloads, with their correctness gates.

Each ``run_<workload>`` function sets up (several times, so that set-up
time is a median), warms up, measures for the requested number of
seconds, then checks what the program produced. A check that fails
counts the operation as failed; it never turns into a slow result.

Every workload runs at the program's real frame length (4096 samples).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from sigforge import cli
from sigforge import dataset as ds
from sigforge import server
from sigforge.registry import NUM_CLASSES
from sigforge.rng import derive_stream

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FRAME_LEN = 4096
BATCH_SIZE = 32  # the server's default; requests leave batch_size unset
CLIENTS = 2
# Client c pulls start indices c*CLIENT_STRIDE, +32, +64, ...: consecutive
# within a client and disjoint across clients, as data-parallel trainers do.
CLIENT_STRIDE = 1 << 30
# Every run completes at least this many operations, however slow; the
# output digest covers exactly these, so all runs of one seed must agree.
MIN_OPS = 3
VALIDATE_CHECKS = ("digest", "class-balance", "replay", "snr-calibration")


@dataclass(frozen=True)
class Scale:
    """Work sizes. FULL is the benchmark; SMOKE only exercises the code."""

    impaired_per_class: int   # generate-impaired job: 53 * this examples
    clean_per_class: int      # generate-clean job
    validate_per_class: int   # validate-impaired input dataset
    validate_sample: int      # validate --sample
    setup_reps: int           # set-ups per run; setup_s is their median
    samples_per_job: int      # examples re-generated serially per job
    min_batches: int          # serve-impaired: at least 10 beyond p90 needs 100
    trace_requests_per_client: int
    trace_rebuilt_requests: int  # served batches re-built under the tracer


FULL = Scale(impaired_per_class=4, clean_per_class=8, validate_per_class=5,
             validate_sample=64, setup_reps=3, samples_per_job=2, min_batches=100,
             trace_requests_per_client=8, trace_rebuilt_requests=6)
SMOKE = Scale(impaired_per_class=1, clean_per_class=1, validate_per_class=1,
              validate_sample=4, setup_reps=1, samples_per_job=1, min_batches=2,
              trace_requests_per_client=1, trace_rebuilt_requests=1)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    scale: Scale
    work: Path
    nproc: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))

    @property
    def env(self) -> dict:
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def sub_seed(self, *parts) -> int:
        """A 31-bit seed that depends only on --seed, the workload and parts."""
        text = "/".join(str(p) for p in (self.seed, self.workload, *parts))
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little") >> 1


@dataclass
class Outcome:
    """What one run reports: operation counts, metrics and output digest."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    output_sha256: str = ""
    notes: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op, what: str) -> None:
        """Count operation ``op`` (any hashable id) as failed, once."""
        self.failed_ops.add(op)
        self.notes.append(what)
        print(f"CHECK FAILED: {what}", file=sys.stderr)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles (exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mib(extra_kib: int = 0) -> float:
    """Peak RSS of this process plus the largest of its waited-for
    children (pool workers, CLI set-ups) or ``extra_kib``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + max(children, extra_kib)) / 1024.0


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def run_cli(ctx: Context, *args: str) -> str:
    """Run the sigforge CLI in a fresh interpreter; return its stdout."""
    proc = subprocess.run([sys.executable, "-m", "sigforge.cli", *args],
                          env=ctx.env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"sigforge {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def job_config(variant: str, per_class: int, seed: int) -> ds.DatasetConfig:
    return ds.DatasetConfig(variant=variant, examples_per_class=per_class,
                            dataset_seed=seed, frame_len=FRAME_LEN)


def expected_example(config: ds.DatasetConfig, index: int) -> tuple[bytes, bytes]:
    """Serial reference bytes of one example."""
    frame, meta = ds.generate_example(
        index, index % NUM_CLASSES, derive_stream(config.dataset_seed, index), config)
    return ds.frame_to_bytes(frame), ds.meta_to_line(meta)


def stored_example(root: Path, manifest: dict, index: int) -> tuple[bytes, bytes]:
    """Raw stored bytes of one example, read without the program's reader."""
    for entry in manifest["shards"]:
        offset = index - entry["start_index"]
        if 0 <= offset < entry["count"]:
            size = 8 * manifest["config"]["frame_len"]
            with open(root / f"{entry['name']}.iq", "rb") as fh:
                fh.seek(offset * size)
                iq = fh.read(size)
            lines = (root / f"{entry['name']}.meta.jsonl").read_bytes().splitlines(keepends=True)
            return iq, lines[offset]
    raise IndexError(index)


def check_dataset(root: Path, manifest: dict, config: ds.DatasetConfig,
                  indices: list[int]) -> tuple[list[str], list]:
    """Verify digests now and read the sampled examples' stored bytes.
    Returns (problems, samples); compare_samples() finishes the check."""
    problems = []
    try:
        ds.verify_digests(root, manifest)
    except (ds.DigestMismatchError, OSError) as exc:
        problems.append(f"verify_digests: {exc}")
    if manifest["num_examples"] != config.total_examples:
        problems.append(f"manifest has {manifest['num_examples']} examples")
    samples = []
    for index in indices:
        try:
            samples.append((config, index, stored_example(root, manifest, index)))
        except (OSError, IndexError) as exc:
            problems.append(f"example {index} unreadable: {exc}")
    return problems, samples


def compare_samples(samples: list) -> list[str]:
    problems = []
    for config, index, stored in samples:
        if expected_example(config, index) != stored:
            problems.append(f"seed {config.dataset_seed} example {index}: "
                            "stored bytes differ from serial generate_example")
    return problems


def jobs_digest(digests: list[str]) -> str:
    """Digest over the dataset digests of the first MIN_OPS jobs."""
    return hashlib.sha256("".join(digests[:MIN_OPS]).encode()).hexdigest()


def pick_indices(ctx: Context, total: int, tag, count: int) -> list[int]:
    return sorted({ctx.sub_seed("pick", tag, k) % total for k in range(count)})


# --- set-up -----------------------------------------------------------------

def measure_setups(ctx: Context, setup) -> list[float]:
    """Run ``setup(rep)`` scale.setup_reps times; return the wall times.
    The last repetition's state is what the run then uses."""
    return [timed(setup, rep)[0] for rep in range(ctx.scale.setup_reps)]


def cli_generate(ctx: Context, variant: str, per_class: int, seed: int, workers: int,
                 out: Path) -> str:
    """Generate with the CLI in a fresh interpreter (imports and numpy/scipy
    plans start cold); returns the printed dataset digest."""
    shutil.rmtree(out, ignore_errors=True)
    return run_cli(ctx, "generate", "--variant", variant, "--count", str(per_class * NUM_CLASSES),
                   "--seed", str(seed), "--workers", str(workers), "--out", str(out)).strip()


# --- the server child and the SG53 client -------------------------------------

_HEADER = struct.Struct("<4sBBI")  # magic, version, type, payload length
_MAGIC, _VERSION, _REQUEST, _RESPONSE = b"SG53", 1, 1, 2


class Connection:
    """One persistent client connection speaking the documented SG53
    framing. Unlike server.request_batch it reads responses of any size."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        self.sock.close()

    def request(self, fields: dict) -> tuple[int, bytes]:
        body = json.dumps(fields, sort_keys=True).encode()
        self.sock.sendall(_HEADER.pack(_MAGIC, _VERSION, _REQUEST, len(body)) + body)
        magic, version, message_type, length = _HEADER.unpack(self._recv(_HEADER.size))
        if magic != _MAGIC or version != _VERSION:
            raise ConnectionError(f"bad response header {magic!r} v{version}")
        return message_type, self._recv(length)

    def _recv(self, count: int) -> bytes:
        buf = bytearray(count)
        view = memoryview(buf)
        got = 0
        while got < count:
            n = self.sock.recv_into(view[got:])
            if n == 0:
                raise ConnectionError("server closed mid-frame")
            got += n
        return bytes(buf)


def response_problem(message_type: int, payload: bytes, request: dict) -> str | None:
    """Structural check of one batch response against its request."""
    if message_type != _RESPONSE:
        return f"message type {message_type}: {payload[:200]!r}"
    newline = payload.find(b"\n")
    try:
        header = json.loads(payload[:newline])
    except ValueError:
        return "unparsable response header"
    iq_len = BATCH_SIZE * FRAME_LEN * 8
    if header != {"count": BATCH_SIZE, "frame_len": FRAME_LEN, "dtype": "f32le-interleaved",
                  "meta_bytes": len(payload) - newline - 1 - iq_len}:
        return f"unexpected response header {header}"
    try:
        indices = [json.loads(line)["index"]
                   for line in payload[newline + 1 + iq_len:].splitlines()]
    except (ValueError, KeyError, TypeError):
        return "unparsable response metadata"
    if indices != list(range(request["start_index"], request["start_index"] + BATCH_SIZE)):
        return "metadata indices do not match the request"
    return None


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerChild:
    """`sigforge serve` with its defaults, in its own process."""

    def __init__(self, ctx: Context):
        for _attempt in range(3):  # the free port can be taken before the bind
            self.port = free_port()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "sigforge.cli", "serve", "--port", str(self.port)],
                env=ctx.env, stdout=subprocess.DEVNULL)
            if self._answer_warmup():
                return
            self.stop()
        raise RuntimeError("server did not start")

    def _answer_warmup(self) -> bool:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and self.proc.poll() is None:
            try:
                return self.request_once({"batch_size": 1, "start_index": 0}) == _RESPONSE
            except OSError:  # not listening yet
                time.sleep(0.02)
        return False

    def request_once(self, fields: dict) -> int:
        """One request on a fresh connection; returns the message type."""
        conn = Connection(self.port)
        try:
            return conn.request(fields)[0]
        finally:
            conn.close()

    def peak_rss_kib(self) -> int:
        """VmHWM of the live server process, read from /proc."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self) -> None:
        if self.proc.poll() is None:
            # SIGTERM, not SIGINT: a child of a background shell ignores SIGINT
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


@dataclass
class Reply:
    client: int
    request: dict
    sent: float
    done: float
    sha256: str
    problem: str | None


def serve_load(port: int, seed: int, deadline: float, min_requests: int) -> list[Reply]:
    """CLIENTS closed-loop clients, one persistent connection each; each
    sends until the deadline, and at least min_requests times."""
    replies: list[list[Reply]] = [[] for _ in range(CLIENTS)]

    def client(c: int) -> None:
        conn = Connection(port)
        try:
            k = 0
            while time.perf_counter() < deadline or k < min_requests:
                request = {"seed": seed, "start_index": c * CLIENT_STRIDE + k * BATCH_SIZE}
                sent = time.perf_counter()
                message_type, payload = conn.request(request)
                done = time.perf_counter()
                # off the latency path: the next request waits for it, which
                # a trainer consuming the batch would do as well
                replies[c].append(Reply(c, request, sent, done,
                                        hashlib.sha256(payload).hexdigest(),
                                        response_problem(message_type, payload, request)))
                k += 1
        finally:
            conn.close()

    errors = []

    def guarded(c: int) -> None:
        try:
            client(c)
        except (OSError, ValueError) as exc:
            errors.append(f"client {c}: {exc!r}")

    threads = [threading.Thread(target=guarded, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
        if t.is_alive():
            errors.append("client thread did not finish")
    if errors:
        raise ConnectionError("; ".join(errors))
    return [r for per_client in replies for r in per_client]


def expected_response_sha(request: dict) -> str:
    return hashlib.sha256(server.build_batch(request, server.ServerDefaults())).hexdigest()


def response_digest(replies: list[Reply]) -> str:
    """Digest over the first MIN_OPS responses of every client."""
    h = hashlib.sha256()
    for c in range(CLIENTS):
        for r in [r for r in replies if r.client == c][:MIN_OPS]:
            h.update(r.sha256.encode())
    return h.hexdigest()


# --- workloads ----------------------------------------------------------------

def latency_metrics(out: Outcome, seconds: list[float]) -> None:
    ms = [s * 1000.0 for s in seconds]
    out.metrics["latency_p50_ms"] = (statistics.median(ms), "ms")
    out.metrics["latency_p90_ms"] = (percentile(ms, 90), "ms")
    out.notes.append(f"latency samples: {len(ms)}")


def run_generate(ctx: Context, variant: str, per_class: int, workers: int) -> Outcome:
    """generate-impaired / generate-clean: back-to-back write_shards jobs,
    each a fresh dataset seed, each directory checked and removed."""
    out = Outcome()

    def setup(rep: int) -> None:
        cli_generate(ctx, variant, 1, ctx.sub_seed("setup", rep), workers, ctx.work / "setup")

    setup_times = measure_setups(ctx, setup)
    shutil.rmtree(ctx.work / "setup", ignore_errors=True)
    ds.write_shards(job_config(variant, 1, ctx.sub_seed("warm")), ctx.work / "warm", workers=workers)
    shutil.rmtree(ctx.work / "warm")

    durations, digests, samples = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds or len(durations) < MIN_OPS:
        j = len(durations)
        config = job_config(variant, per_class, ctx.sub_seed("job", j))
        job_dir = ctx.work / f"job-{j}"
        out.attempted += 1
        seconds, manifest = timed(ds.write_shards, config, job_dir, workers=workers)
        durations.append(seconds)
        digests.append(manifest["digest_sha256"])
        indices = pick_indices(ctx, config.total_examples, j, ctx.scale.samples_per_job)
        problems, job_samples = check_dataset(job_dir, manifest, config, indices)
        samples.append(job_samples)
        for p in problems:
            out.fail(j, f"job {j}: {p}")
        shutil.rmtree(job_dir)

    for j, job_samples in enumerate(samples):
        for p in compare_samples(job_samples):
            out.fail(j, f"job {j}: {p}")
    frames = per_class * NUM_CLASSES
    out.metrics["setup_s"] = (statistics.median(setup_times), "s")
    out.metrics["frames_per_s"] = (statistics.median(frames / d for d in durations), "1/s")
    latency_metrics(out, durations)
    out.metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    out.output_sha256 = jobs_digest(digests)
    out.notes.append(f"job size: {frames} examples, workers={workers}")
    return out


def run_serve(ctx: Context) -> Outcome:
    """serve-impaired: the server child with its defaults, CLIENTS
    closed-loop clients on persistent connections."""
    out = Outcome()
    servers: list[ServerChild] = []
    setup_times = []
    try:
        for _rep in range(ctx.scale.setup_reps):
            for s in servers:  # the previous repetition's server
                s.stop()
            seconds, srv = timed(ServerChild, ctx)
            servers[:] = [srv]
            setup_times.append(seconds)
        # one full default batch, so the measured window starts warm
        srv.request_once({"seed": ctx.sub_seed("warm"), "start_index": 0})
        start = time.perf_counter()
        replies = serve_load(srv.port, ctx.sub_seed("load"), start + ctx.seconds,
                             max(MIN_OPS, -(-ctx.scale.min_batches // CLIENTS)))
        server_kib = srv.peak_rss_kib()
    finally:
        for s in servers:
            s.stop()
    out.attempted = len(replies)
    for r in replies:
        if r.problem:
            out.fail(r.request["start_index"], f"request {r.request}: {r.problem}")
    for c in range(CLIENTS):
        mine = [r for r in replies if r.client == c]
        for r in (mine[0], mine[-1]):
            if expected_response_sha(r.request) != r.sha256:
                out.fail(r.request["start_index"],
                         f"request {r.request}: response differs from build_batch")
    end = max(r.done for r in replies)
    out.metrics["setup_s"] = (statistics.median(setup_times), "s")
    out.metrics["frames_per_s"] = (len(replies) * BATCH_SIZE / (end - start), "1/s")
    latency_metrics(out, [r.done - r.sent for r in replies])
    out.metrics["peak_rss_mib"] = (peak_rss_mib(server_kib), "MiB")
    out.output_sha256 = response_digest(replies)
    return out


def validate_cli(in_dir: Path, sample: int) -> tuple[int, str]:
    """`sigforge validate`, in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["validate", "--in", str(in_dir), "--sample", str(sample)])
    return code, buf.getvalue()


def validate_problem(code: int, text: str) -> str | None:
    names = [line.split(":", 1)[0] for line in text.splitlines()]
    if code != 0 or names != list(VALIDATE_CHECKS) or \
            not all(line.split(":", 1)[1].strip().startswith("PASS") for line in text.splitlines()):
        return f"validate exited {code}:\n{text}"
    return None


def run_validate(ctx: Context) -> Outcome:
    """validate-impaired: `sigforge validate` over a dataset written in set-up."""
    out = Outcome()
    per_class = ctx.scale.validate_per_class
    seed = ctx.sub_seed("dataset")
    data = ctx.work / "dataset"
    digest = ""

    def setup(_rep: int) -> None:
        nonlocal digest
        digest = cli_generate(ctx, "impaired-train", per_class, seed, ctx.nproc, data)

    setup_times = measure_setups(ctx, setup)
    config = job_config("impaired-train", per_class, seed)
    manifest = ds.load_manifest(data)
    problems, samples = check_dataset(data, manifest, config,
                                      pick_indices(ctx, config.total_examples, "v", 2))
    if digest != manifest["digest_sha256"]:
        problems.append("CLI printed a digest other than the manifest's")
    sample = ctx.scale.validate_sample
    validate_cli(data, sample)  # warm-up

    durations, texts = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds or len(durations) < MIN_OPS:
        out.attempted += 1
        seconds, (code, text) = timed(validate_cli, data, sample)
        durations.append(seconds)
        texts.append((code, text))

    for p in problems + compare_samples(samples):
        out.fail(0, f"input dataset: {p}")  # every call read it; count one
    for i, (code, text) in enumerate(texts):
        problem = validate_problem(code, text) or (
            None if text == texts[0][1] else "validate output differs between calls")
        if problem:
            out.fail(i, problem)
    out.metrics["setup_s"] = (statistics.median(setup_times), "s")
    out.metrics["frames_per_s"] = (config.total_examples / statistics.median(durations), "1/s")
    latency_metrics(out, durations)
    out.metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    out.output_sha256 = hashlib.sha256((digest + texts[0][1]).encode()).hexdigest()
    out.notes.append(f"dataset: {config.total_examples} examples, --sample {sample}")
    return out
