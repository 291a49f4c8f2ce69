"""Dataset assembly and shard I/O.

A dataset is a directory of fixed-size shards plus a manifest:

    manifest.json            UTF-8 JSON: format version, config echo,
                             shard table, per-class counts, digests
    shard-NNNNN.iq           little-endian float32, interleaved re/im,
                             frame-major, no header
    shard-NNNNN.meta.jsonl   one JSON object per example, same order

Generation is deterministic: example ``index`` gets class ``index mod 53``
and the RNG stream ``derive_stream(dataset_seed, index)``, so the on-disk
bytes depend only on the config — not on worker count, scheduling, or
platform (for equal float widths). Frames are computed in float64 and
stored as float32; the determinism contract covers the stored values.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from sigforge import measurement
from sigforge.clean import gen_clean
from sigforge.frame import FRAME_LEN
from sigforge.impairments import (
    DEFAULT_PROFILE,
    ImpairmentProfile,
    ImpairmentRecord,
    apply_impairment_chain,
    pre_noise_frame,
    replay_impairments,
    synthesize_impaired_source,
)
from sigforge.registry import CLASS_LIST, NUM_CLASSES
from sigforge.rng import RngStream, derive_stream

FORMAT_VERSION = 1
DEFAULT_SHARD_SIZE = 4096
# Shortest supported frame. Time shifts reach 32 samples, and shorter
# frames make some classes fail to generate; at 64, every class of both
# variants generated over 40 seeds.
MIN_FRAME_LEN = 64
# Examples per generate_range call in write_shards: small enough to keep
# pool workers evenly loaded and to stream a shard to disk rather than
# hold it in memory, large enough to amortize a pool task's round trip.
_TASK_SIZE = 8

VARIANTS = ("clean-train", "clean-val", "impaired-train", "impaired-val")

# Published-scale example counts, for reference; any size can be generated.
REFERENCE_TOTALS = {
    "clean-train": 1_000_000,
    "clean-val": 106_000,
    "impaired-train": 5_300_000,
    "impaired-val": 106_000,
}


class DigestMismatchError(ValueError):
    """A shard's bytes do not match the manifest digest."""


def check_int(name: str, value: object, low: int | None = None,
              high: int | None = None) -> None:
    """Raise TypeError unless value is an int (bool, float and str are
    refused, not coerced), ValueError unless low <= value <= high."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f"[{low}, {high}]" if high is not None else f">= {low}"
        raise ValueError(f"{name} must be {bounds}, got {value}")


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
    """(replayed frame, impaired source, record) of a stored example; clean ones get None twice."""
    rng = RngStream(int(meta["rng_key"]))
    class_index = int(meta["class_index"])
    if "record" in meta:
        source, _descriptor, _shaping = synthesize_impaired_source(
            class_index, rng, frame_len)
        record = ImpairmentRecord.from_dict(meta["record"])
        return replay_impairments(source, record), source, record
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
    complex64."""
    flat = np.frombuffer(raw, dtype="<f4")
    if flat.size % (2 * frame_len) != 0:
        raise ValueError(f"shard size {flat.size} floats is not a multiple "
                         f"of frame length {frame_len}")
    pairs = flat.reshape(-1, frame_len, 2)
    return (pairs[..., 0] + 1j * pairs[..., 1]).astype(np.complex64)


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


def _generate_task(config: DatasetConfig, task: tuple[int, int]) -> tuple[bytes, bytes]:
    """generate_range for one (start, count) pair, the one argument that
    pool.imap passes."""
    return generate_range(config, *task)


def _shard_name(shard_index: int) -> str:
    return f"shard-{shard_index:05d}"


def write_shards(config: DatasetConfig, out_dir: str | Path, workers: int = 1,
                 force: bool = False, shard_size: int = DEFAULT_SHARD_SIZE) -> dict:
    """Generate the configured dataset into out_dir and return the manifest
    (also written as manifest.json). Refuses a non-empty directory unless
    force is set; force first deletes the shard-*.iq, shard-*.meta.jsonl
    and manifest.json files of an earlier run and leaves other files alone."""
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    out_path = Path(out_dir)
    if out_path.exists() and any(out_path.iterdir()) and not force:
        raise FileExistsError(f"{out_path} is not empty (pass force to overwrite)")
    out_path.mkdir(parents=True, exist_ok=True)
    # a forced rewrite may write fewer shards than the run before it
    for stale in [*out_path.glob("shard-*.iq"), *out_path.glob("shard-*.meta.jsonl"),
                  out_path / "manifest.json"]:
        stale.unlink(missing_ok=True)

    overall = hashlib.sha256()
    shard_entries = []
    generate = functools.partial(_generate_task, config)
    with multiprocessing.Pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for shard_index, start in enumerate(range(0, config.total_examples, shard_size)):
            count = min(shard_size, config.total_examples - start)
            # tasks stay inside the shard, and map and imap both yield in
            # task order, so the bytes do not depend on scheduling
            tasks = [(first, min(_TASK_SIZE, start + count - first))
                     for first in range(start, start + count, _TASK_SIZE)]
            parts = map(generate, tasks) if pool is None else pool.imap(generate, tasks)
            name = _shard_name(shard_index)
            iq_sha256, meta_sha256 = hashlib.sha256(), hashlib.sha256()
            with open(out_path / f"{name}.iq", "wb") as iq_file, \
                    open(out_path / f"{name}.meta.jsonl", "wb") as meta_file:
                for iq_bytes, meta_bytes in parts:
                    iq_file.write(iq_bytes)
                    meta_file.write(meta_bytes)
                    iq_sha256.update(iq_bytes)
                    meta_sha256.update(meta_bytes)
                    overall.update(iq_bytes)
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
    (out_path / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return manifest


def load_manifest(dataset_dir: str | Path) -> dict:
    path = Path(dataset_dir) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest.json in {dataset_dir}")
    return json.loads(path.read_text(encoding="utf-8"))


def verify_digests(dataset_dir: str | Path, manifest: dict | None = None) -> None:
    """Recompute all shard digests; raise DigestMismatchError on any
    difference from the manifest."""
    root = Path(dataset_dir)
    manifest = manifest if manifest is not None else load_manifest(root)
    overall = hashlib.sha256()
    for entry in manifest["shards"]:
        iq_bytes = (root / f"{entry['name']}.iq").read_bytes()
        meta_bytes = (root / f"{entry['name']}.meta.jsonl").read_bytes()
        overall.update(iq_bytes)
        if hashlib.sha256(iq_bytes).hexdigest() != entry["iq_sha256"]:
            raise DigestMismatchError(f"{entry['name']}.iq digest mismatch")
        if hashlib.sha256(meta_bytes).hexdigest() != entry["meta_sha256"]:
            raise DigestMismatchError(f"{entry['name']}.meta.jsonl digest mismatch")
    if overall.hexdigest() != manifest["digest_sha256"]:
        raise DigestMismatchError("overall digest mismatch")


def read_example(dataset_dir: str | Path, index: int,
                 manifest: dict | None = None) -> tuple[np.ndarray, dict]:
    """Fetch one (complex64 frame, meta) by example index, touching only
    the shard that holds it."""
    root = Path(dataset_dir)
    manifest = manifest if manifest is not None else load_manifest(root)
    frame_len = manifest["config"]["frame_len"]
    for entry in manifest["shards"]:
        offset = index - entry["start_index"]
        if 0 <= offset < entry["count"]:
            bytes_per_frame = 8 * frame_len
            with open(root / f"{entry['name']}.iq", "rb") as fh:
                fh.seek(offset * bytes_per_frame)
                frame = bytes_to_frames(fh.read(bytes_per_frame), frame_len)[0]
            with open(root / f"{entry['name']}.meta.jsonl", "r", encoding="utf-8") as fh:
                for line_no, line in enumerate(fh):
                    if line_no == offset:
                        return frame, json.loads(line)
            raise ValueError(f"{entry['name']}.meta.jsonl shorter than expected")
    raise IndexError(f"example index {index} out of range "
                     f"(dataset has {manifest['num_examples']})")


def read(dataset_dir: str | Path, validate_digest: bool = False
         ) -> Iterator[tuple[np.ndarray, dict]]:
    """Yield (complex64 frame, meta) in index order."""
    root = Path(dataset_dir)
    manifest = load_manifest(root)
    if validate_digest:
        verify_digests(root, manifest)
    frame_len = manifest["config"]["frame_len"]
    for entry in manifest["shards"]:
        frames = bytes_to_frames((root / f"{entry['name']}.iq").read_bytes(), frame_len)
        with open(root / f"{entry['name']}.meta.jsonl", "r", encoding="utf-8") as fh:
            metas = [json.loads(line) for line in fh]
        if len(metas) != len(frames):
            raise ValueError(f"{entry['name']}: {len(frames)} frames but "
                             f"{len(metas)} meta lines")
        yield from zip(frames, metas)


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
    """Check a dataset in one read pass: digest (the only result if it
    fails, as every later check reads those bytes), class-balance, replay
    of `sample` evenly spread examples, their Es/N0 within 0.2 dB of target
    (impaired) and envelope within 1e-6, the float32 rounding budget, of
    constant (clean FSK). Raises ValueError if sample is negative and
    FileNotFoundError if there is no manifest."""
    check_int("sample", sample, 0)
    manifest = load_manifest(dataset_dir)
    try:
        verify_digests(dataset_dir, manifest)
    except (DigestMismatchError, FileNotFoundError) as exc:
        return [CheckResult("digest", False, str(exc))]

    frame_len = manifest["config"]["frame_len"]
    expected = manifest["config"]["examples_per_class"]
    sampled = set(_sample_indices(manifest["num_examples"], sample))
    in_order, replay_ok, position = True, True, 0
    snr_errors, envelopes = [], []
    for frame32, meta in read(dataset_dir):
        if meta["index"] != position or meta["class_index"] != position % NUM_CLASSES:
            in_order = False
        if position in sampled:
            frame, source, record = _replay(meta, frame_len)
            replay_ok = replay_ok and frame_to_bytes(frame) == frame32.tobytes()
            awgn = next((s for s in record.steps if s.kind == "awgn"), None) if record else None
            if awgn is not None:
                signal = pre_noise_frame(source, record)
                measured = measurement.measure_esn0(
                    signal, frame - signal, awgn.params["samples_per_symbol"])
                snr_errors.append(abs(measured - record.target_esn0_db))
            elif record is None and meta["family"] == "fsk":
                envelopes.append(measurement.envelope_constancy(frame32.astype(np.complex128)))
        position += 1

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
