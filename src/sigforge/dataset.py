"""Dataset assembly and shard I/O.

A dataset is a directory of fixed-size shards plus a manifest:

    manifest.json            UTF-8 JSON: format version, config echo,
                             shard table, per-class counts, digests,
                             and manifest_sha256, the digest of the rest
    shard-NNNNN.iq           little-endian float32, interleaved re/im,
                             frame-major, no header
    shard-NNNNN.meta.jsonl   one JSON object per example, same order

Generation is deterministic: example ``index`` gets class ``index mod 53``
and the RNG stream ``derive_stream(dataset_seed, index)``, so the on-disk
bytes depend only on the config — not on worker count, scheduling, or
platform (for equal float widths). Frames are computed in float64 and
stored as float32; the determinism contract covers the stored values.

write_shards cuts each shard into _TASK_SIZE-example tasks. A task writes
its IQ into the shard file at the task's own offset and hands back only
its metadata, which the parent appends in task order; the parent then
reads that IQ back to hash it. Each shard is written under a ``.tmp``
name and renamed once complete, and manifest.json is renamed into place
last, so an interrupted run leaves no manifest and no final-named file
that is incomplete.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import functools
import hashlib
import json
import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from sigforge import measurement
from sigforge.clean import gen_clean
from sigforge.frame import FRAME_LEN, check_int
from sigforge.impairments import (
    DEFAULT_PROFILE,
    ImpairmentProfile,
    ImpairmentRecord,
    apply_impairment_chain,
    replay_with_pre_noise,
    synthesize_impaired_source,
)
from sigforge.registry import CLASS_LIST, NUM_CLASSES
from sigforge.rng import RngStream, derive_stream

FORMAT_VERSION = 2
DEFAULT_SHARD_SIZE = 4096
# Shortest supported frame. Time shifts reach 32 samples, and shorter
# frames make some classes fail to generate; at 64, every class of both
# variants generated over 40 seeds.
MIN_FRAME_LEN = 64
# Examples per task of _task_ranges: small enough to keep
# pool workers evenly loaded (a default 32-frame batch is 4 tasks) and to
# stream a shard to disk rather than hold it in memory, large enough to
# amortize a pool task's round trip.
_TASK_SIZE = 8
# Free one 4 MiB block at import: glibc's malloc then raises its mmap
# threshold to 4 MiB and its trim threshold to 8 MiB, so the frame and
# result buffers a generation task allocates and frees are reused from the
# heap rather than mapped and faulted in again; forked pool workers inherit
# the setting. Without it each fresh write_shards worker took twice the page
# faults and 2-worker clean generation ran ~10% slower (2-core x86 box).
np.empty(4 << 20, np.uint8)

VARIANTS = ("clean-train", "clean-val", "impaired-train", "impaired-val")

# Published-scale example counts, for reference; any size can be generated.
REFERENCE_TOTALS = {
    "clean-train": 1_000_000,
    "clean-val": 106_000,
    "impaired-train": 5_300_000,
    "impaired-val": 106_000,
}


class DigestMismatchError(ValueError):
    """A shard's bytes, or the manifest itself, do not match its digest."""


class UnsupportedFormatError(ValueError):
    """A manifest's format_version is not the one this version reads."""


class ManifestError(ValueError):
    """manifest.json lacks what every reader of a dataset uses."""


@dataclass(frozen=True)
class DatasetConfig:
    variant: str
    examples_per_class: int
    dataset_seed: int
    frame_len: int = FRAME_LEN
    profile: ImpairmentProfile = DEFAULT_PROFILE

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        check_int("examples_per_class", self.examples_per_class, 1)
        check_int("dataset_seed", self.dataset_seed)
        check_int("frame_len", self.frame_len, MIN_FRAME_LEN)
        if not isinstance(self.profile, ImpairmentProfile):
            raise TypeError(f"profile must be an ImpairmentProfile, "
                            f"got {type(self.profile).__name__}")
        if self.profile.time_shift_max >= self.frame_len:
            raise ValueError(f"profile.time_shift_max must be < frame_len, "
                             f"got {self.profile.time_shift_max} >= {self.frame_len}")

    @property
    def is_impaired(self) -> bool:
        return self.variant.startswith("impaired")

    @property
    def total_examples(self) -> int:
        return self.examples_per_class * NUM_CLASSES


def generate_example(index: int, class_index: int, rng: RngStream,
                     config: DatasetConfig) -> tuple[np.ndarray, dict]:
    """Produce one frame and its metadata. Pure function of its arguments:
    clean variants synthesize the fixed-shaping waveform only; impaired
    variants draw randomized pulse shaping, then the impairment chain."""
    if config.is_impaired:
        source, descriptor, shaping = synthesize_impaired_source(
            class_index, rng, config.frame_len)
        frame, record = apply_impairment_chain(
            source, descriptor, config.profile, rng)
    else:
        frame, descriptor = gen_clean(class_index, rng, config.frame_len)
        shaping, record = {}, None
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
    return frame, meta


def _replay(meta: dict, frame_len: int
            ) -> tuple[np.ndarray, np.ndarray | None, ImpairmentRecord | None]:
    """(replayed frame, its pre-noise frame, record) of a stored example,
    from one pass; clean ones get None twice."""
    rng = RngStream(int(meta["rng_key"]))
    class_index = int(meta["class_index"])
    if "record" in meta:
        source, _descriptor, _shaping = synthesize_impaired_source(
            class_index, rng, frame_len)
        record = ImpairmentRecord.from_dict(meta["record"])
        return *replay_with_pre_noise(source, record), record
    frame, _descriptor = gen_clean(class_index, rng, frame_len)
    return frame, None, None


def replay_example(meta: dict, frame_len: int = FRAME_LEN) -> np.ndarray:
    """Regenerate a stored example (float64) from its metadata alone."""
    return _replay(meta, frame_len)[0]


def frame_to_bytes(frame: np.ndarray) -> bytes:
    """Interleaved little-endian float32 serialization of a complex frame."""
    out = np.empty(2 * len(frame), dtype="<f4")
    out[0::2] = frame.real
    out[1::2] = frame.imag
    # exact zeros reach the file (e.g. OFDM window-taper endpoints) and
    # the sign numpy's complex multiply leaves on them varies with the
    # kernel/alignment it happened to use; fold -0.0 to +0.0 so the
    # bytes are a pure function of the draw sequence
    out[out == 0.0] = 0.0
    return out.tobytes()


def bytes_to_frames(raw: bytes, frame_len: int) -> np.ndarray:
    """Inverse of frame_to_bytes over a whole shard: [n_frames, frame_len]
    complex64, a writable copy."""
    flat = np.frombuffer(raw, dtype="<f4")
    if flat.size % (2 * frame_len) != 0:
        raise ValueError(f"shard size {flat.size} floats is not a multiple "
                         f"of frame length {frame_len}")
    return flat.view("<c8").reshape(-1, frame_len).astype(np.complex64)


def meta_to_line(meta: dict) -> bytes:
    return (json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def generate_range(config: DatasetConfig, start: int, count: int) -> tuple[bytes, bytes]:
    """Examples start .. start+count-1 serialized as (IQ bytes, JSONL meta
    bytes). Example i is class i mod 53 drawn from its own stream
    derive_stream(dataset_seed, i), so adjacent ranges concatenate to the
    bytes of their union. The range may run past config.total_examples."""
    iq_parts = []
    meta_parts = []
    for index in range(start, start + count):
        frame, meta = generate_example(
            index, index % NUM_CLASSES, derive_stream(config.dataset_seed, index), config)
        iq_parts.append(frame_to_bytes(frame))
        meta_parts.append(meta_to_line(meta))
    return b"".join(iq_parts), b"".join(meta_parts)


def _task_ranges(start: int, count: int) -> list[tuple[int, int]]:
    """start .. start+count-1 as (first, n) sub-ranges of _TASK_SIZE
    examples in index order: the unit of work of write_shards and of the
    server's batches."""
    return [(first, min(_TASK_SIZE, start + count - first))
            for first in range(start, start + count, _TASK_SIZE)]


def _generate_task(config: DatasetConfig, task: tuple[int, int]) -> tuple[bytes, bytes]:
    """generate_range for one (start, count) pair, the one argument that
    pool.imap passes."""
    return generate_range(config, *task)


def iter_range(config: DatasetConfig, start: int, count: int,
               pool: multiprocessing.pool.Pool | None = None) -> Iterator[tuple[bytes, bytes]]:
    """generate_range(config, start, count) as the (IQ bytes, meta bytes)
    of its _task_ranges sub-ranges, in index order, so the parts
    concatenate to generate_range's output. With a pool the sub-ranges run
    on its workers and their bytes come back through the pool's pipes;
    map and imap both yield in task order, so the bytes do not depend on
    scheduling. The server builds its batches this way; write_shards has
    its tasks write IQ into the shard file instead."""
    generate = functools.partial(_generate_task, config)
    tasks = _task_ranges(start, count)
    return map(generate, tasks) if pool is None else pool.imap(generate, tasks)


def _write_task(config: DatasetConfig, iq_path: str, shard_start: int,
                task: tuple[int, int]) -> bytes:
    """Generate the (first, n) sub-range of the shard that starts at
    shard_start, write its IQ into the existing file iq_path at the
    sub-range's offset and return its meta bytes."""
    first, count = task
    iq_bytes, meta_bytes = generate_range(config, first, count)
    view = memoryview(iq_bytes)
    offset = (first - shard_start) * 8 * config.frame_len
    fd = os.open(iq_path, os.O_WRONLY)
    try:
        while view:
            written = os.pwrite(fd, view, offset)
            view, offset = view[written:], offset + written
    finally:
        os.close(fd)
    return meta_bytes


def _pread_exact(fd: int, size: int, offset: int) -> bytes:
    """size bytes of fd from offset. Raises OSError on a short read, so IQ
    that never reached the file fails the write rather than being hashed
    as a hole."""
    data = os.pread(fd, size, offset)
    if len(data) != size:
        raise OSError(errno.EIO, f"read {len(data)} of {size} IQ bytes at offset {offset}")
    return data


def _shard_name(shard_index: int) -> str:
    return f"shard-{shard_index:05d}"


def _tmp(path: Path) -> Path:
    """Where path is written before it is renamed into place."""
    return path.with_name(path.name + ".tmp")


def write_shards(config: DatasetConfig, out_dir: str | Path, workers: int = 1,
                 force: bool = False, shard_size: int = DEFAULT_SHARD_SIZE) -> dict:
    """Generate the configured dataset into out_dir and return the manifest
    (also written as manifest.json). Refuses a non-empty directory unless
    force is set; force first deletes the shard-*.iq, shard-*.meta.jsonl,
    shard-*.tmp and manifest.json files of an earlier run and leaves other
    files alone. Bytes do not depend on workers, which must be >= 1.

    Each shard's _TASK_SIZE-example tasks run on a pool of `workers`
    processes (inline at 1). A task writes its IQ straight into the shard
    file and returns only its meta bytes; the parent takes the results in
    task order, appends the meta and reads the task's IQ back to hash it,
    so it holds one task's bytes at a time. Both shard files are written
    under a .tmp name and renamed once complete, and manifest.json is
    renamed into place last: a run that raises or is killed leaves no
    manifest and no incomplete file under a final name."""
    check_int("workers", workers, 1)
    check_int("shard_size", shard_size, 1)
    out_path = Path(out_dir)
    if out_path.exists() and any(out_path.iterdir()) and not force:
        raise FileExistsError(f"{out_path} is not empty (pass force to overwrite)")
    out_path.mkdir(parents=True, exist_ok=True)
    manifest_path = out_path / "manifest.json"
    # a forced rewrite may write fewer shards than the run before it, and
    # an interrupted run leaves its unfinished files under .tmp names
    for stale in [*out_path.glob("shard-*.iq"), *out_path.glob("shard-*.meta.jsonl"),
                  *out_path.glob("shard-*.tmp"), manifest_path, _tmp(manifest_path)]:
        stale.unlink(missing_ok=True)

    frame_bytes = 8 * config.frame_len
    overall = hashlib.sha256()
    shard_entries = []
    with multiprocessing.Pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for shard_index, start in enumerate(range(0, config.total_examples, shard_size)):
            count = min(shard_size, config.total_examples - start)
            name = _shard_name(shard_index)
            iq_path, meta_path = out_path / f"{name}.iq", out_path / f"{name}.meta.jsonl"
            iq_sha256, meta_sha256 = hashlib.sha256(), hashlib.sha256()
            tasks = _task_ranges(start, count)
            write = functools.partial(_write_task, config, str(_tmp(iq_path)), start)
            # the IQ file exists before the first task opens it by path
            with open(_tmp(iq_path), "w+b") as iq_file, open(_tmp(meta_path), "wb") as meta_file:
                results = map(write, tasks) if pool is None else pool.imap(write, tasks)
                for (first, n), meta_bytes in zip(tasks, results):
                    meta_file.write(meta_bytes)
                    iq_bytes = _pread_exact(iq_file.fileno(), n * frame_bytes,
                                            (first - start) * frame_bytes)
                    iq_sha256.update(iq_bytes)
                    meta_sha256.update(meta_bytes)
                    overall.update(iq_bytes)
            os.replace(_tmp(iq_path), iq_path)
            os.replace(_tmp(meta_path), meta_path)
            shard_entries.append({
                "name": name,
                "start_index": start,
                "count": count,
                "iq_sha256": iq_sha256.hexdigest(),
                "meta_sha256": meta_sha256.hexdigest(),
            })

    # json round trip normalizes tuples to lists so the returned manifest
    # compares equal to the reloaded one
    profile_echo = (json.loads(json.dumps(dataclasses.asdict(config.profile)))
                    if config.is_impaired else None)
    config_echo = {
        "variant": config.variant,
        "examples_per_class": config.examples_per_class,
        "dataset_seed": config.dataset_seed,
        "frame_len": config.frame_len,
        "profile": profile_echo,
    }
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config_echo,
        "num_examples": config.total_examples,
        "num_classes": NUM_CLASSES,
        "per_class_counts": {cls.name: config.examples_per_class for cls in CLASS_LIST},
        "shards": shard_entries,
        "digest_sha256": overall.hexdigest(),
    }
    manifest["manifest_sha256"] = manifest_digest(manifest)
    _tmp(manifest_path).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    os.replace(_tmp(manifest_path), manifest_path)
    return manifest


def manifest_digest(manifest: dict) -> str:
    """sha256 of the manifest's canonical JSON (sorted keys, compact
    separators), every key but manifest_sha256 itself."""
    body = {key: value for key, value in manifest.items() if key != "manifest_sha256"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_manifest(dataset_dir: str | Path) -> dict:
    """The dataset's manifest. Raises FileNotFoundError without one,
    UnsupportedFormatError unless its format_version is FORMAT_VERSION and
    ManifestError unless it is a JSON object with what readers use before
    any digest check: integer config.frame_len, config.examples_per_class
    and num_examples, and a shards list."""
    path = Path(dataset_dir) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest.json in {dataset_dir}")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path} is not a JSON object")
    found = manifest.get("format_version")
    if found != FORMAT_VERSION:
        raise UnsupportedFormatError(
            f"{path} has format_version {found!r}; this version reads {FORMAT_VERSION} only")
    config = manifest.get("config")
    if not (isinstance(config, dict) and isinstance(manifest.get("shards"), list)
            and all(isinstance(value, int) for value in (
                config.get("frame_len"), config.get("examples_per_class"),
                manifest.get("num_examples")))):
        raise ManifestError(f"{path} lacks an integer config.frame_len, "
                            f"config.examples_per_class or num_examples, or a shards list")
    return manifest


def _shards(root: str | Path, manifest: dict, verify: bool) -> Iterator[tuple[dict, bytes, bytes]]:
    """(entry, IQ bytes, meta bytes) of each shard, each file read once.
    With verify, raises DigestMismatchError where a digest differs: the
    manifest's first, a shard's before it is yielded, the overall last."""
    if verify and manifest_digest(manifest) != manifest.get("manifest_sha256"):
        raise DigestMismatchError("manifest digest mismatch")
    overall = hashlib.sha256()
    for entry in manifest["shards"]:
        iq_bytes = Path(root, f"{entry['name']}.iq").read_bytes()
        meta_bytes = Path(root, f"{entry['name']}.meta.jsonl").read_bytes()
        if verify:
            overall.update(iq_bytes)
            if hashlib.sha256(iq_bytes).hexdigest() != entry["iq_sha256"]:
                raise DigestMismatchError(f"{entry['name']}.iq digest mismatch")
            if hashlib.sha256(meta_bytes).hexdigest() != entry["meta_sha256"]:
                raise DigestMismatchError(f"{entry['name']}.meta.jsonl digest mismatch")
        yield entry, iq_bytes, meta_bytes
    if verify and overall.hexdigest() != manifest["digest_sha256"]:
        raise DigestMismatchError("overall digest mismatch")


def verify_digests(dataset_dir: str | Path, manifest: dict | None = None) -> None:
    """Check the manifest against its own digest, then recompute all shard
    digests; raise DigestMismatchError on any difference."""
    manifest = manifest if manifest is not None else load_manifest(dataset_dir)
    for _shard in _shards(dataset_dir, manifest, verify=True):
        pass


def read_example(dataset_dir: str | Path, index: int,
                 manifest: dict | None = None) -> tuple[np.ndarray, dict]:
    """Fetch one (complex64 frame, meta) by example index, touching only
    the shard that holds it. Raises OSError if the shard holds less IQ
    than the manifest says."""
    root = Path(dataset_dir)
    manifest = manifest if manifest is not None else load_manifest(root)
    frame_len = manifest["config"]["frame_len"]
    for entry in manifest["shards"]:
        offset = index - entry["start_index"]
        if 0 <= offset < entry["count"]:
            bytes_per_frame = 8 * frame_len
            with open(root / f"{entry['name']}.iq", "rb") as fh:
                raw = _pread_exact(fh.fileno(), bytes_per_frame, offset * bytes_per_frame)
            frame = bytes_to_frames(raw, frame_len)[0]
            with open(root / f"{entry['name']}.meta.jsonl", "r", encoding="utf-8") as fh:
                for line_no, line in enumerate(fh):
                    if line_no == offset:
                        return frame, json.loads(line)
            raise ValueError(f"{entry['name']}.meta.jsonl shorter than expected")
    raise IndexError(f"example index {index} out of range "
                     f"(dataset has {manifest['num_examples']})")


def _examples(root: str | Path, manifest: dict, verify: bool) -> Iterator[tuple[np.ndarray, dict]]:
    """(complex64 frame, meta) in index order, from one _shards pass."""
    for entry, iq_bytes, meta_bytes in _shards(root, manifest, verify):
        frames = bytes_to_frames(iq_bytes, manifest["config"]["frame_len"])
        metas = [json.loads(line) for line in meta_bytes.decode("utf-8").splitlines()]
        if len(metas) != len(frames):
            raise ValueError(f"{entry['name']}: {len(frames)} frames but {len(metas)} meta lines")
        yield from zip(frames, metas)


def read(dataset_dir: str | Path, validate_digest: bool = False
         ) -> Iterator[tuple[np.ndarray, dict]]:
    """Yield (complex64 frame, meta) in index order; with validate_digest,
    only from verified shards, raising DigestMismatchError as _shards does."""
    yield from _examples(dataset_dir, load_manifest(dataset_dir), validate_digest)


@dataclass(frozen=True)
class CheckResult:
    """One named check of validate and its outcome."""
    name: str
    ok: bool
    detail: str = ""


def _sample_indices(total: int, want: int) -> list[int]:
    """Up to want indices spread evenly over 0 .. total-1."""
    if total <= want:
        return list(range(total))
    return sorted(set(np.linspace(0, total - 1, want).astype(int).tolist()))


def validate(dataset_dir: str | Path, sample: int = 20) -> list[CheckResult]:
    """Check a dataset in one read pass over verified bytes: digest (the
    only result if it fails, as every later check reads those bytes),
    class-balance, replay of `sample` evenly spread examples, their Es/N0
    within 0.2 dB of target (impaired) and envelope within 1e-6, the
    float32 rounding budget, of constant (clean FSK). Raises ValueError if
    sample is negative or the manifest is of another format or malformed
    (UnsupportedFormatError, ManifestError), FileNotFoundError without one."""
    check_int("sample", sample, 0)
    manifest = load_manifest(dataset_dir)
    expected = manifest["config"]["examples_per_class"]
    sampled = set(_sample_indices(manifest["num_examples"], sample))
    in_order, replay_ok, position = True, True, 0
    snr_errors, envelopes = [], []
    try:
        for frame32, meta in _examples(dataset_dir, manifest, verify=True):
            if meta["index"] != position or meta["class_index"] != position % NUM_CLASSES:
                in_order = False
            if position in sampled:
                frame, signal, record = _replay(meta, manifest["config"]["frame_len"])
                replay_ok = replay_ok and frame_to_bytes(frame) == frame32.tobytes()
                awgn = record and next((s for s in record.steps if s.kind == "awgn"), None)
                if awgn is not None:
                    measured = measurement.measure_esn0(
                        signal, frame - signal, awgn.params["samples_per_symbol"])
                    snr_errors.append(abs(measured - record.target_esn0_db))
                elif record is None and meta["family"] == "fsk":
                    envelopes.append(measurement.envelope_constancy(frame32.astype(np.complex128)))
            position += 1
    except (DigestMismatchError, FileNotFoundError) as exc:
        return [CheckResult("digest", False, str(exc))]

    # with example i of class i mod 53 throughout, balance is a matter of count
    balanced = in_order and position == manifest["num_examples"] == expected * NUM_CLASSES
    results = [CheckResult("digest", True),
               CheckResult("class-balance", balanced,
                           f"{position} examples, {expected} per class expected"),
               CheckResult("replay", replay_ok, f"{len(sampled)} sampled")]
    if snr_errors:
        results.append(CheckResult(
            "snr-calibration", all(e <= 0.2 for e in snr_errors),
            f"{len(snr_errors)} sampled, worst |error| {max(snr_errors):.3f} dB"))
    if envelopes:
        results.append(CheckResult("fsk-envelope", all(e <= 1e-6 for e in envelopes),
                                   f"{len(envelopes)} sampled"))
    return results
