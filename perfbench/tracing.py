"""The traced run: per-layer numbers from spans around the benchmark's own
calls into sigforge's public functions.

Nothing inside ``src/sigforge`` is instrumented. Where a public function
hides the layers beneath it, the traced path takes it apart with other
public functions: ``dataset.generate_example`` becomes source synthesis
plus ``impairments.draw_impairment_plan`` plus one
``impairments.replay_impairments`` call per recorded step, and
``write_shards`` becomes serialization, hashing and file writes. Every
traced path must reproduce the untraced output bytes exactly; a
difference is a failed operation.

The traced run does a fixed amount of work per workload (independent of
--seconds), so its counts repeat exactly for a given seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sigforge import dataset as ds
from sigforge import measurement, server
from sigforge.clean import gen_clean
from sigforge.impairments import (
    ImpairmentRecord,
    ImpairmentStep,
    draw_impairment_plan,
    pre_noise_frame,
    replay_impairments,
    synthesize_impaired_source,
)
from sigforge.registry import CLASS_LIST, NUM_CLASSES
from sigforge.rng import RngStream, derive_stream

import bench
from bench import BATCH_SIZE, Context, Outcome

STAGES = ("phase_shift", "time_shift", "freq_shift", "rayleigh", "iq_imbalance",
          "resample", "awgn")
# Spans that only group others; their self time is time no layer accounts for.
BOOKKEEPING = frozenset({"trace", "example", "request", "validate"})


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, run_id];
    parent is an index into ``spans`` (-1 for a root); run_id numbers the
    example or request a span belongs to. Single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter_ns(), 0,
                         tr._stack[-1] if tr._stack else -1, tr.run_id])
        tr._stack.append(self.index)

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter_ns()
        tr._stack.pop()


@dataclass
class LayerStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    durations_ns: list = field(default_factory=list)

    def p_ms(self, q: int) -> float:
        if not self.durations_ns:
            return 0.0
        return bench.percentile([d / 1e6 for d in self.durations_ns], q)


def summarize(spans: list[list]) -> dict[str, LayerStats]:
    """Per span name: calls, busy time, self time (busy time minus the
    part covered by child spans) and every duration."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, LayerStats] = {}
    for i, (name, start, end, _parent, _run) in enumerate(spans):
        s = stats.setdefault(name, LayerStats())
        s.calls += 1
        s.busy_ns += end - start
        s.self_ns += end - start - child_ns[i]
        s.durations_ns.append(end - start)
    return stats


def span_cost_ns(n: int = 20000) -> float:
    """Mean cost of recording one empty span on this machine."""
    tr = Tracer()
    t0 = time.perf_counter_ns()
    for _ in range(n):
        with tr.span("x"):
            pass
    return (time.perf_counter_ns() - t0) / n


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, run in tracer.spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "run_id": run}) + "\n")


# --- traced decompositions of public entry points ---------------------------

def family_layer(class_index: int) -> str:
    cls = CLASS_LIST[class_index]
    return "linear" if cls.is_linear else cls.family


def traced_example(tr: Tracer, index: int, config: ds.DatasetConfig
                   ) -> tuple[np.ndarray, dict, int]:
    """dataset.generate_example, taken apart. Returns (frame, meta, rng
    words drawn)."""
    class_index = index % NUM_CLASSES
    rng = derive_stream(config.dataset_seed, index)
    layer = family_layer(class_index)
    if config.is_impaired:
        with tr.span(layer):
            source, descriptor, shaping = synthesize_impaired_source(
                class_index, rng, config.frame_len)
        with tr.span("impairments.chain"):
            steps, esn0 = draw_impairment_plan(config.profile, rng)
            noisy = not (math.isinf(esn0) and esn0 > 0)
            if noisy:
                steps.append(ImpairmentStep("awgn", {
                    "esn0_db": esn0,
                    "samples_per_symbol": descriptor.samples_per_symbol,
                    "noise_key": rng.key,
                    "noise_counter": rng.counter,
                }))
            frame = source
            for step in steps:
                with tr.span("impairments." + step.kind):
                    frame = replay_impairments(frame, ImpairmentRecord((step,), esn0))
            if noisy:
                rng.counter += 2 * len(source)
        record = ImpairmentRecord(steps=tuple(steps), target_esn0_db=esn0)
    else:
        with tr.span(layer):
            frame, descriptor = gen_clean(class_index, rng, config.frame_len)
        record = None
    cls = CLASS_LIST[class_index]
    meta = {
        "index": index,
        "class_index": class_index,
        "class_name": cls.name,
        "family": cls.family,
        "samples_per_symbol": descriptor.samples_per_symbol,
        "rng_key": rng.key,
    }
    if record is not None:
        meta["snr_db"] = record.target_esn0_db
        meta["shaping"] = shaping
        meta["record"] = record.to_dict()
    return frame, meta, rng.counter


def traced_serialized(tr: Tracer, indices, config: ds.DatasetConfig
                      ) -> tuple[list[bytes], list[bytes], int]:
    iq_parts, meta_parts, words = [], [], 0
    for index in indices:
        tr.run_id += 1
        with tr.span("example"):
            frame, meta, used = traced_example(tr, index, config)
            with tr.span("dataset.serialize"):
                iq_parts.append(ds.frame_to_bytes(frame))
                meta_parts.append(ds.meta_to_line(meta))
        words += used
    return iq_parts, meta_parts, words


def traced_write(tr: Tracer, config: ds.DatasetConfig, out_dir: Path
                 ) -> tuple[dict, int, int]:
    """write_shards (serial), taken apart. Returns (manifest subset with
    the shard table and overall digest, bytes written, rng words)."""
    out_dir.mkdir(parents=True)
    iq_parts, meta_parts, words = traced_serialized(
        tr, range(config.total_examples), config)
    overall = hashlib.sha256()
    shards, written = [], 0
    size = ds.DEFAULT_SHARD_SIZE
    for shard_index, start in enumerate(range(0, len(iq_parts), size)):
        name = f"shard-{shard_index:05d}"
        with tr.span("dataset.hash"):
            iq_bytes = b"".join(iq_parts[start:start + size])
            meta_bytes = b"".join(meta_parts[start:start + size])
            overall.update(iq_bytes)
            shards.append({
                "name": name,
                "start_index": start,
                "count": len(iq_parts[start:start + size]),
                "iq_sha256": hashlib.sha256(iq_bytes).hexdigest(),
                "meta_sha256": hashlib.sha256(meta_bytes).hexdigest(),
            })
        with tr.span("dataset.write"):
            (out_dir / f"{name}.iq").write_bytes(iq_bytes)
            (out_dir / f"{name}.meta.jsonl").write_bytes(meta_bytes)
        written += len(iq_bytes) + len(meta_bytes)
    return {"shards": shards, "digest_sha256": overall.hexdigest()}, written, words


def traced_build_batch(tr: Tracer, request: dict) -> tuple[bytes, int]:
    """server.build_batch for a request that leaves every field but seed
    and start_index to the server's defaults, taken apart."""
    defaults = server.ServerDefaults()
    config = ds.DatasetConfig(variant=defaults.variant, examples_per_class=1,
                              dataset_seed=request["seed"], frame_len=defaults.frame_len)
    start = request["start_index"]
    iq_parts, meta_parts, words = traced_serialized(
        tr, range(start, start + defaults.batch_size), config)
    meta_blob = b"".join(meta_parts)
    header = json.dumps({"count": defaults.batch_size, "frame_len": defaults.frame_len,
                         "dtype": "f32le-interleaved", "meta_bytes": len(meta_blob)},
                        sort_keys=True, separators=(",", ":")) + "\n"
    return header.encode() + b"".join(iq_parts) + meta_blob, words


def sample_indices(total: int, want: int) -> list[int]:
    """The examples `sigforge validate --sample want` replays."""
    if total <= want:
        return list(range(total))
    return sorted(set(np.linspace(0, total - 1, want).astype(int).tolist()))


def traced_validate(tr: Tracer, in_dir: Path, sample: int) -> tuple[list[str], int, int]:
    """The checks of `sigforge validate`, taken apart. Returns (problems,
    frames replayed, rng words those frames drew when generated)."""
    problems = []
    with tr.span("dataset.load_manifest"):
        manifest = ds.load_manifest(in_dir)
    with tr.span("dataset.verify_digests"):
        try:
            ds.verify_digests(in_dir, manifest)
        except ds.DigestMismatchError as exc:
            problems.append(f"digest: {exc}")
    with tr.span("dataset.read"):
        seen = [meta["class_index"] for _frame, meta in ds.read(in_dir)]
    if seen != [i % NUM_CLASSES for i in range(manifest["num_examples"])]:
        problems.append("class balance")
    frame_len = manifest["config"]["frame_len"]
    indices = sample_indices(manifest["num_examples"], sample)
    words = 0
    for index in indices:
        tr.run_id += 1
        with tr.span("example"):
            with tr.span("dataset.read_example"):
                frame32, meta = ds.read_example(in_dir, index, manifest)
            with tr.span("dataset.replay_example"):
                replayed = ds.replay_example(meta, frame_len)
            if ds.frame_to_bytes(replayed) != frame32.astype(np.complex64).tobytes():
                problems.append(f"replay of example {index}")
            record = ImpairmentRecord.from_dict(meta["record"])
            awgn = next(s for s in record.steps if s.kind == "awgn")
            words += awgn.params["noise_counter"] + 2 * frame_len
            rng = RngStream(int(meta["rng_key"]))
            with tr.span(family_layer(meta["class_index"])):
                source, _descriptor, _shaping = synthesize_impaired_source(
                    meta["class_index"], rng, frame_len)
            with tr.span("impairments.pre_noise_frame"):
                signal = pre_noise_frame(source, record)
            with tr.span("measurement.measure_esn0"):
                measured = measurement.measure_esn0(
                    signal, replayed - signal, awgn.params["samples_per_symbol"])
            if abs(measured - record.target_esn0_db) > 0.2:
                problems.append(f"snr of example {index}")
    return problems, len(indices), words


# --- traced runs ---------------------------------------------------------------

PER_LAYER = (
    [(f"{f}.{k}", u) for f in ("ofdm", "linear", "fsk") for k, u in (("calls", "count"), ("busy_s", "s"))]
    + [("ofdm.p50_ms", "ms"), ("ofdm.p90_ms", "ms"),
       ("impairments.chain.calls", "count"), ("impairments.chain.busy_s", "s"),
       ("impairments.chain.self_s", "s")]
    + [(f"impairments.{s}.{k}", u) for s in STAGES for k, u in (("calls", "count"), ("busy_s", "s"))]
    + [("impairments.resample.p50_ms", "ms"),
       ("dataset.serialize.busy_s", "s"), ("dataset.hash.busy_s", "s"),
       ("dataset.write.busy_s", "s"), ("dataset.bytes_written", "bytes"),
       ("dataset.parallel_efficiency", "ratio"), ("dataset.parallel_serial_s", "s"),
       ("dataset.parallel_wall_s", "s"),
       ("server.requests", "count"), ("server.errors", "count"),
       ("server.response_bytes", "bytes"), ("server.build_batch.p50_ms", "ms"),
       ("server.wait.p50_ms", "ms"),
       ("dataset.verify_digests.busy_s", "s"), ("dataset.read.busy_s", "s"),
       ("dataset.read_example.p50_ms", "ms"), ("dataset.replay_example.busy_s", "s"),
       ("impairments.pre_noise_frame.busy_s", "s"), ("measurement.measure_esn0.busy_s", "s"),
       ("cli.validate.busy_s", "s"),
       ("rng.words_per_frame", "count"),
       ("trace.spans", "count"), ("trace.overhead_share", "ratio"),
       ("trace.unaccounted_share", "ratio")]
)


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every per-layer metric; a layer the workload does not reach reads 0."""
    stats = summarize(tracer.spans)
    values = dict.fromkeys((name for name, _unit in PER_LAYER), 0.0)
    for name, s in stats.items():
        values[f"{name}.calls"] = s.calls
        values[f"{name}.busy_s"] = s.busy_ns / 1e9
    values["impairments.chain.self_s"] = stats["impairments.chain"].self_ns / 1e9 \
        if "impairments.chain" in stats else 0.0
    for name, q in (("ofdm", 50), ("ofdm", 90), ("impairments.resample", 50),
                    ("dataset.read_example", 50)):
        if name in stats:
            values[f"{name}.p{q}_ms"] = stats[name].p_ms(q)
    root = stats["trace"].busy_ns
    unaccounted = sum(s.self_ns for name, s in stats.items() if name in BOOKKEEPING)
    values["trace.spans"] = len(tracer.spans)
    values["trace.overhead_share"] = len(tracer.spans) * span_cost_ns() / root
    values["trace.unaccounted_share"] = unaccounted / root
    values.update(extra)
    units = dict(PER_LAYER)
    return {name: (values[name], units[name]) for name in units}


def _finish(out: Outcome, tracer: Tracer, extra: dict, ctx: Context) -> Outcome:
    out.metrics = layer_metrics(tracer, extra)
    write_spans(tracer, bench.ROOT / "perfbench" / ".work" / f"spans-{ctx.workload}-{ctx.seed}.jsonl")
    return out


def trace_generate(ctx: Context, variant: str, per_class: int, workers: int) -> Outcome:
    """The timed run's first MIN_OPS jobs, untraced at the workload's
    worker count, then serially under the tracer; the bytes must agree."""
    out = Outcome(attempted=bench.MIN_OPS)
    warm = bench.job_config(variant, 1, ctx.sub_seed("warm"))
    ds.write_shards(warm, ctx.work / "warm", workers=workers)
    configs = [bench.job_config(variant, per_class, ctx.sub_seed("job", j))
               for j in range(bench.MIN_OPS)]
    wall, manifests = 0.0, []
    for j, config in enumerate(configs):
        seconds, manifest = bench.timed(ds.write_shards, config, ctx.work / f"untraced-{j}",
                                        workers=workers)
        wall += seconds
        manifests.append(manifest)
    tracer = Tracer()
    written = words = 0
    with tracer.span("trace"):
        for j, (config, manifest) in enumerate(zip(configs, manifests)):
            traced, job_bytes, job_words = traced_write(tracer, config, ctx.work / f"traced-{j}")
            written += job_bytes
            words += job_words
            for key in ("shards", "digest_sha256"):
                if traced[key] != manifest[key]:
                    out.fail(j, f"job {j}: traced write_shards differs from untraced ({key})")
    serial = summarize(tracer.spans)["trace"].busy_ns / 1e9
    out.output_sha256 = bench.jobs_digest([m["digest_sha256"] for m in manifests])
    return _finish(out, tracer, {
        "dataset.bytes_written": written,
        "dataset.parallel_serial_s": serial,
        "dataset.parallel_wall_s": wall,
        "dataset.parallel_efficiency": serial / (workers * wall),
        "rng.words_per_frame": words / sum(c.total_examples for c in configs),
    }, ctx)


def trace_serve(ctx: Context) -> Outcome:
    """A fixed number of served batches; each is then built in-process by
    server.build_batch (server.wait = observed latency minus that), and
    the first few again under the tracer."""
    out = Outcome()
    srv = bench.ServerChild(ctx)
    try:
        srv.request_once({"seed": ctx.sub_seed("warm"), "start_index": 0})
        n = ctx.scale.trace_requests_per_client
        replies = bench.serve_load(srv.port, ctx.sub_seed("load"), 0.0, n)
    finally:
        srv.stop()
    out.attempted = len(replies)
    tracer = Tracer()
    waits, words, frames, response_bytes = [], 0, 0, 0
    with tracer.span("trace"):
        for r in replies:
            with tracer.span("server.build_batch"):
                t0 = time.perf_counter()
                payload = server.build_batch(r.request, server.ServerDefaults())
                built = time.perf_counter() - t0
            waits.append((r.done - r.sent - built) * 1000.0)
            response_bytes += len(payload)
            if r.problem or hashlib.sha256(payload).hexdigest() != r.sha256:
                out.fail(r.request["start_index"],
                         f"request {r.request}: response differs from build_batch")
        for r in replies[:ctx.scale.trace_rebuilt_requests]:
            with tracer.span("request"):
                payload, used = traced_build_batch(tracer, r.request)
            words += used
            frames += BATCH_SIZE
            if hashlib.sha256(payload).hexdigest() != r.sha256:
                out.fail(r.request["start_index"],
                         f"request {r.request}: traced build differs from the response")
    stats = summarize(tracer.spans)
    out.output_sha256 = bench.response_digest(replies)
    return _finish(out, tracer, {
        "server.requests": len(replies),
        "server.errors": sum(1 for r in replies if r.problem),
        "server.response_bytes": response_bytes,
        "server.build_batch.p50_ms": stats["server.build_batch"].p_ms(50),
        "server.wait.p50_ms": statistics.median(waits),
        "rng.words_per_frame": words / frames,
    }, ctx)


def trace_validate(ctx: Context) -> Outcome:
    """`sigforge validate` in-process as one span, then its checks taken
    apart under the tracer; both must pass."""
    out = Outcome(attempted=1)
    data = ctx.work / "dataset"
    bench.cli_generate(ctx, "impaired-train", ctx.scale.validate_per_class,
                       ctx.sub_seed("dataset"), ctx.nproc, data)
    sample = ctx.scale.validate_sample
    bench.validate_cli(data, sample)  # warm-up
    tracer = Tracer()
    with tracer.span("trace"):
        with tracer.span("cli.validate"):
            code, text = bench.validate_cli(data, sample)
        with tracer.span("validate"):
            problems, replayed, words = traced_validate(tracer, data, sample)
    for p in filter(None, [bench.validate_problem(code, text)] + problems):
        out.fail(0, p)
    out.output_sha256 = hashlib.sha256(
        (ds.load_manifest(data)["digest_sha256"] + text).encode()).hexdigest()
    return _finish(out, tracer, {"rng.words_per_frame": words / replayed}, ctx)
