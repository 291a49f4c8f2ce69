"""Dataset assembly and shard I/O.

A dataset is a directory of fixed-size shards plus a manifest:

    manifest.json            UTF-8 JSON: format version, config echo,
                             shard table, per-class counts, digests,
                             and manifest_sha256, the digest of the rest
    shard-NNNNN.iq           little-endian float32, interleaved re/im,
                             frame-major, no header
    shard-NNNNN.meta.jsonl   one JSON object per example, same order

Everything in the manifest but its shard digests and its own digests
follows from the DatasetConfig: derive_manifest gives format_version,
the config echo (config_echo; config_from_echo reads it back),
num_examples, num_classes and per_class_counts, and write_shards adds
only shards, digest_sha256 and manifest_sha256. load_manifest rebuilds
the DatasetConfig through the constructor generate uses, so a reader
trusts only a config that generate would accept, and refuses a manifest
whose derived keys differ from what that config gives.

Impaired variants have one impairment recipe, impairments.DEFAULT_PROFILE,
a class constant of DatasetConfig rather than a field. The echo of an
impaired config records it and a clean one's records null, so a manifest
whose profile echo is any other is refused as one whose config echo is
not its config's.

The shard layout is a function of num_examples alone: shard k is named
shard-{k:05d} and holds examples DEFAULT_SHARD_SIZE*k up to
min(DEFAULT_SHARD_SIZE*(k+1), num_examples). The manifest's shard table
records it, and load_manifest refuses a table that differs from it, so
readers take names and offsets from the layout, never from the table,
and read_example finds an example's shard by one division.

Generation is deterministic: example ``index`` gets class ``index mod 53``
and the RNG stream ``derive_stream(dataset_seed, index)``, so the on-disk
bytes depend only on the config — not on worker count, scheduling, or
platform (for equal float widths). Frames are computed in float64 and
stored as float32; the determinism contract covers the stored values.

iter_range is the one loop that turns a range of examples into bytes,
for write_shards and for the batch server alike. It cuts the range into
_TASK_SIZE-example tasks; a task writes its IQ into a file the caller
holds open, at the task's own offset, and hands back only its metadata;
iter_range submits a range's tasks to the pool with apply_async, yields
each one's metadata from its AsyncResult in task order and never reads
the IQ, and waits on the results it has not yielded before it returns,
so no task outlives its range. write_shards passes a shard file and
reads each task's IQ back to hash it; the server passes a memory file
per batch and sends the IQ straight from it. Each shard is written
under a ``.tmp`` name and renamed once complete, and manifest.json is
renamed into place last, so an interrupted run leaves no manifest and
no final-named file that is incomplete.

write_shards keeps its pool for the next call of the process: forking a
pool and tearing it down cost a 424-example clean job a fifth of its
time. A call takes the kept pool if it has the workers asked for, else
terminates it and forks one; a call that raises terminates its pool, and
an atexit hook terminates and joins the pool left at exit. A forked child
does not inherit it. The batch server forks its own pool, which lives as
long as the server.

Readers take a shard's IQ in the same _TASK_SIZE-frame blocks, through
_shards, the one loop over shard files. verify_digests, validate and an
unverified read hold one block at a time, plus the shard's meta file
(and, for validate, the stored bytes of its sampled frames): a shard is
hashed as it is read, and nothing of it is used before its digests
match. A verified read holds a shard's raw IQ until then, as its digest
covers the whole shard, and converts it to frames a block at a time.
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import errno
import functools
import hashlib
import itertools
import json
import multiprocessing
import os
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator

import numpy as np

from sigforge import measurement
from sigforge.clean import gen_clean
from sigforge.frame import FRAME_LEN, check_int
from sigforge.impairments import (
    DEFAULT_PROFILE,
    ImpairmentProfile,
    ImpairmentRecord,
    apply_impairment_chain,
    replay_impairments,
    synthesize_impaired_source,
)
from sigforge.registry import CLASS_LIST, NUM_CLASSES
from sigforge.rng import RngStream, derive_stream

FORMAT_VERSION = 2
DEFAULT_SHARD_SIZE = 4096
# Shortest supported frame. It exceeds DEFAULT_PROFILE's 32-sample time
# shift, and shorter frames make some classes fail to generate; at 64,
# every class of both variants generated over 40 seeds.
MIN_FRAME_LEN = 64
# Examples per task of iter_range, for shards and server batches alike:
# small enough to keep pool workers evenly loaded (a default 32-frame batch
# is 4 tasks) and to stream a shard to disk rather than hold it in memory,
# large enough to amortize a pool task's round trip.
_TASK_SIZE = 8

VARIANTS = ("clean-train", "clean-val", "impaired-train", "impaired-val")

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
    # the impaired variants' one chain: not a field, so no config sets it
    profile: ClassVar[ImpairmentProfile] = DEFAULT_PROFILE

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


def config_echo(config: DatasetConfig) -> dict:
    """The manifest's echo of config: its fields and its profile, null for
    a clean variant, whose bytes do not depend on it, as JSON gives them
    back (the json round trip turns tuples into lists, so a written
    manifest compares equal to the reloaded one)."""
    profile = dataclasses.asdict(config.profile) if config.is_impaired else None
    return json.loads(json.dumps({**dataclasses.asdict(config), "profile": profile}))


def config_from_echo(echo: object) -> DatasetConfig:
    """The DatasetConfig a config echo describes, its profile left out:
    every config has the one profile, and load_manifest refuses an echo
    that records another. Raises TypeError or ValueError, as DatasetConfig
    does, for an echo that no valid config has."""
    if not isinstance(echo, dict):
        raise TypeError("config must be a JSON object")
    return DatasetConfig(**{key: value for key, value in echo.items() if key != "profile"})


def derive_manifest(config: DatasetConfig) -> dict:
    """The keys of a manifest that follow from its config alone."""
    return {"format_version": FORMAT_VERSION, "config": config_echo(config),
            "num_examples": config.total_examples, "num_classes": NUM_CLASSES,
            "per_class_counts": {cls.name: config.examples_per_class for cls in CLASS_LIST}}


def _example(index: int, class_index: int, rng: RngStream, config: DatasetConfig
             ) -> tuple[np.ndarray, dict, np.ndarray | None]:
    """generate_example's frame and metadata, and the unit-power frame that
    entered the AWGN stage (None for a clean variant), from one pass: the
    one path from an example's stream to its bytes, which validate reruns."""
    if config.is_impaired:
        source, descriptor, shaping = synthesize_impaired_source(
            class_index, rng, config.frame_len)
        frame, pre_noise, record = apply_impairment_chain(
            source, descriptor, config.profile, rng)
    else:
        frame, descriptor = gen_clean(class_index, rng, config.frame_len)
        pre_noise = None
    cls = CLASS_LIST[class_index]
    meta = {
        "index": index,
        "class_index": class_index,
        "class_name": cls.name,
        "family": cls.family,
        "samples_per_symbol": descriptor.samples_per_symbol,
        "rng_key": rng.key,
    }
    if config.is_impaired:
        meta.update(snr_db=record.target_esn0_db, shaping=shaping, record=record.to_dict())
    return frame, meta, pre_noise


def generate_example(index: int, class_index: int, rng: RngStream,
                     config: DatasetConfig) -> tuple[np.ndarray, dict]:
    """Produce one frame and its metadata. Pure function of its arguments:
    clean variants synthesize the fixed-shaping waveform only; impaired
    variants draw randomized pulse shaping, then the impairment chain."""
    return _example(index, class_index, rng, config)[:2]


def replay_example(meta: dict, frame_len: int) -> np.ndarray:
    """Rebuild a stored example (float64) from its metadata alone, taking
    its impairment record as stored; validate does not use it, as it
    regenerates each example from (dataset_seed, index) instead."""
    rng, class_index = RngStream(int(meta["rng_key"])), int(meta["class_index"])
    if "record" not in meta:
        return gen_clean(class_index, rng, frame_len)[0]
    source, _descriptor, _shaping = synthesize_impaired_source(class_index, rng, frame_len)
    return replay_impairments(source, ImpairmentRecord.from_dict(meta["record"]))


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
    return (_canonical(meta) + "\n").encode("utf-8")


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


def _ranges(start: int, count: int, size: int) -> list[tuple[int, int]]:
    """start .. start+count-1 as (first, n) sub-ranges of size examples in
    index order, the last one shorter: the shards of a dataset, and the
    tasks of a shard and of a server batch."""
    return [(first, min(size, start + count - first))
            for first in range(start, start + count, size)]


def _layout(num_examples: int) -> list[dict]:
    """The name, start_index and count of each shard of a dataset of
    num_examples: the one layout every dataset has, as its manifest's
    shard table records it."""
    return [{"name": _shard_name(k), "start_index": first, "count": count}
            for k, (first, count) in enumerate(_ranges(0, num_examples, DEFAULT_SHARD_SIZE))]


# held back while fork_pool forks its workers
_POOL_START_SIGNALS = {signal.SIGINT, signal.SIGTERM}


def _init_worker() -> None:
    """Pool workers leave Ctrl-C to their parent, which then terminates
    them, and die on the SIGTERM of Pool.terminate. A worker starts with
    SIGINT and SIGTERM blocked, as fork_pool left them; it unblocks them
    only once both handlers are set, so a SIGTERM held back meanwhile
    kills it rather than running the handler it inherited."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _POOL_START_SIGNALS)


def fork_pool(workers: int) -> multiprocessing.pool.Pool | None:
    """A pool of `workers` forked processes, or None for one worker, whose
    work then runs inline. Fork by name, not the platform's default
    (forkserver from Python 3.14): forked workers start with this
    process's imports, and a forkserver pool doubled the time of a cold
    53-example generate.

    SIGINT and SIGTERM are blocked while the pool forks, so neither a
    Ctrl-C nor a SIGTERM that a caller maps to KeyboardInterrupt (as
    `sigforge serve` does) can stop Pool.__init__ between forking a worker
    and registering it, which would leave that worker running. One that
    arrives meanwhile is raised when the mask is restored, and the pool is
    terminated first. The pool's threads keep the blocked mask, so signals
    reach the main thread; each worker unblocks both in _init_worker.

    The pool lives until its caller terminates it: the batch server's for
    as long as the server, write_shards' until a call needs another size
    or raises, or the process exits (see _write_pool). Its workers hold
    what this process had open when they forked."""
    if workers < 2:
        return None
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _POOL_START_SIGNALS)
    pool = None
    try:
        pool = multiprocessing.get_context("fork").Pool(workers, _init_worker)
    finally:
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # runs a held-back signal
        except BaseException:
            if pool is not None:
                pool.terminate()
            raise
    return pool


# The pool write_shards keeps between calls, as (workers, pool), and the
# lock a call holds while it takes the pool out of the slot or puts it back
_kept_pool: tuple[int, multiprocessing.pool.Pool] | None = None
_kept_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: the kept pool's workers are not its children,
    and a thread of the parent may have held the lock as it forked. They
    leave the child's record of its children too, or multiprocessing's
    exit handler would terminate them when a child of os.fork exits,
    maybe one holding its pool's task queue lock, hanging the rest."""
    global _kept_pool, _kept_pool_lock
    if _kept_pool is not None:
        multiprocessing.process._children.difference_update(_kept_pool[1]._pool)
    _kept_pool, _kept_pool_lock = None, threading.Lock()


def _swap_pool(kept: tuple[int, multiprocessing.pool.Pool] | None
               ) -> tuple[int, multiprocessing.pool.Pool] | None:
    """Put kept (None to empty it) in the slot; return what it held."""
    global _kept_pool
    with _kept_pool_lock:
        held, _kept_pool = _kept_pool, kept
    return held


def _drop_pool() -> None:
    """Terminate and join the kept pool, if there is one."""
    held = _swap_pool(None)
    if held is not None:
        held[1].terminate()
        held[1].join()


os.register_at_fork(after_in_child=_forget_pool)
atexit.register(_drop_pool)


@contextlib.contextmanager
def _write_pool(workers: int) -> Iterator[multiprocessing.pool.Pool | None]:
    """write_shards' pool of `workers` processes (None for one worker):
    the kept pool if it has that many workers, else a fresh fork_pool, the
    kept one terminated. A body that returns puts its pool back in the
    slot, where iter_range has left it idle, and terminates any pool a
    concurrent call put there meanwhile; one that raises, KeyboardInterrupt
    included, terminates its pool."""
    if workers < 2:
        yield None
        return
    held = _swap_pool(None)
    if held is not None and held[0] == workers:
        pool = held[1]
    else:
        if held is not None:
            held[1].terminate()
        pool = fork_pool(workers)
    try:
        yield pool
    except BaseException:
        pool.terminate()
        raise
    displaced = _swap_pool((workers, pool))
    if displaced is not None:
        displaced[1].terminate()


def _write_task(config: DatasetConfig, path: str, identity: os.stat_result, start: int,
                task: tuple[int, int]) -> bytes:
    """Generate the (first, n) sub-range of the range that starts at start,
    write its IQ into the file at path, at the sub-range's offset from
    start, and return its meta bytes. Raises OSError (ESTALE) unless the
    file opened is the one whose os.stat_result is identity, or ENOENT
    if path names no file: path names a descriptor of the caller, which
    may have been closed, and its number reused, before a queued task
    runs. Both are checked before anything is generated, so a task left
    behind by a range that already failed gives its worker back at once."""
    first, count = task
    offset = (first - start) * 8 * config.frame_len
    with open(path, "r+b", buffering=0) as file:
        if not os.path.samestat(os.fstat(file.fileno()), identity):
            raise OSError(errno.ESTALE, f"{path} is no longer the file of range {start}")
        iq_bytes, meta_bytes = generate_range(config, first, count)
        view = memoryview(iq_bytes)
        while view:
            written = os.pwrite(file.fileno(), view, offset)
            view, offset = view[written:], offset + written
    return meta_bytes


def iter_range(config: DatasetConfig, fd: int, start: int, count: int,
               pool: multiprocessing.pool.Pool | None = None
               ) -> Iterator[tuple[tuple[int, int], bytes]]:
    """Write generate_range(config, start, count)'s IQ into fd and yield
    each of its _TASK_SIZE-example (first, n) sub-ranges with its meta
    bytes, in index order, so the meta concatenates to generate_range's.
    Each sub-range is a _write_task, run on the pool's workers if one is
    given, else in this process; it writes its IQ into fd, a file open for
    reading and writing that this process holds, at the sub-range's offset
    from start, through /proc/<pid>/fd (so Linux only), and only its meta
    bytes come back. On a pool every task is submitted at once with
    apply_async, and each sub-range is yielded with its result's get() in
    task order (inline, as it runs), so a sub-range is yielded once its IQ
    is in fd and the bytes do not depend on scheduling; iter_range itself
    reads no IQ, and holds no result past its yield. After the last one
    it raises OSError (EIO) unless fd holds exactly the range's IQ.

    The tasks write through a duplicate of fd that iter_range closes when
    the range ends, and on a pool it then calls wait() on the result of
    every task it submitted and has not yielded. So a range that ends
    early, because a task raised, the caller stopped or a submission
    failed (a pool no longer running raises ValueError), leaves no
    descriptor open and returns once its running tasks have ended, while
    its queued ones fail at _write_task's open without generating: no
    task outlives its range, and a pool terminated after it has no worker
    left sending a result (Pool.terminate can hang on a worker killed
    mid-send)."""
    own = os.dup(fd)
    write = functools.partial(_write_task, config, f"/proc/{os.getpid()}/fd/{own}",
                              os.fstat(own), start)
    tasks = _ranges(start, count, _TASK_SIZE)
    pending = []
    try:
        if pool is not None:
            for task in tasks:  # the finally waits on each, even if a later one fails
                pending.append(pool.apply_async(write, (task,)))
        for task in tasks:
            yield task, write(task) if pool is None else pending[0].get()
            del pending[:1]  # so a shard's meta is not all held until its end
        size, held = count * 8 * config.frame_len, os.fstat(fd).st_size
        if held != size:
            raise OSError(errno.EIO, f"the IQ file holds {held} bytes, the range's IQ is {size}")
    finally:
        os.close(own)
        for result in pending:  # none inline: nothing runs past the task that raised
            result.wait()


def _pread_exact(fd: int, size: int, offset: int) -> bytes:
    """size bytes of fd from offset. Raises OSError on a short read, so IQ
    that never reached the file fails the range rather than being hashed
    or served as a hole. Asks for no more than the file holds past offset,
    so a size past it is a short read, not a size-byte allocation."""
    available = os.fstat(fd).st_size - offset
    data = os.pread(fd, min(size, available), offset) if available > 0 else b""
    if len(data) != size:
        raise OSError(errno.EIO, f"read {len(data)} of {size} IQ bytes at offset {offset}")
    return data


def _shard_name(shard_index: int) -> str:
    return f"shard-{shard_index:05d}"


def _tmp(path: Path) -> Path:
    """Where path is written before it is renamed into place."""
    return path.with_name(path.name + ".tmp")


def write_shards(config: DatasetConfig, out_dir: str | Path, workers: int = 1,
                 force: bool = False) -> dict:
    """Generate the configured dataset into out_dir and return the manifest
    (also written as manifest.json). Refuses a non-empty directory unless
    force is set; force first deletes the shard-*.iq, shard-*.meta.jsonl,
    shard-*.tmp and manifest.json files of an earlier run and leaves other
    files alone. Bytes do not depend on workers, which must be >= 1.

    The shards are those of the one layout (see the module docstring):
    DEFAULT_SHARD_SIZE examples each, the last one shorter; no caller
    chooses another. Each shard's range runs through iter_range on a pool
    of `workers` forked processes (inline at 1), kept for the next call
    of this process, dropped if this one raises and joined at exit (see
    the module docstring): its tasks write IQ
    straight into the shard file, and the parent takes each task's meta
    in task order, reads the task's IQ back from the file, appends the
    meta and hashes both, so it holds one task's bytes at a time.
    Both shard files are written under a .tmp name and renamed once
    complete, and manifest.json is renamed into place last: a run that
    raises or is killed leaves no manifest and no incomplete file under a
    final name."""
    check_int("workers", workers, 1)
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

    overall = hashlib.sha256()
    shard_entries = []
    frame_bytes = 8 * config.frame_len
    with _write_pool(workers) as pool:
        for shard in _layout(config.total_examples):
            name, start = shard["name"], shard["start_index"]
            iq_path, meta_path = out_path / f"{name}.iq", out_path / f"{name}.meta.jsonl"
            iq_sha256, meta_sha256 = hashlib.sha256(), hashlib.sha256()
            with open(_tmp(iq_path), "w+b") as iq_file, open(_tmp(meta_path), "wb") as meta_file:
                for (first, n), meta_bytes in iter_range(config, iq_file.fileno(), start,
                                                         shard["count"], pool):
                    iq_bytes = _pread_exact(iq_file.fileno(), n * frame_bytes,
                                            (first - start) * frame_bytes)
                    meta_file.write(meta_bytes)
                    iq_sha256.update(iq_bytes)
                    meta_sha256.update(meta_bytes)
                    overall.update(iq_bytes)
            os.replace(_tmp(iq_path), iq_path)
            os.replace(_tmp(meta_path), meta_path)
            shard_entries.append({**shard, "iq_sha256": iq_sha256.hexdigest(),
                                  "meta_sha256": meta_sha256.hexdigest()})

    manifest = {**derive_manifest(config), "shards": shard_entries,
                "digest_sha256": overall.hexdigest()}
    manifest["manifest_sha256"] = manifest_digest(manifest)
    _tmp(manifest_path).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    os.replace(_tmp(manifest_path), manifest_path)
    return manifest


def manifest_digest(manifest: dict) -> str:
    """sha256 of the manifest's canonical JSON (sorted keys, compact
    separators), every key but manifest_sha256 itself."""
    body = {key: value for key, value in manifest.items() if key != "manifest_sha256"}
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()


def _canonical(value: object) -> str:
    """value as JSON with sorted keys and compact separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def load_manifest(dataset_dir: str | Path) -> dict:
    """The dataset's manifest. Raises FileNotFoundError without one,
    UnsupportedFormatError unless its format_version is FORMAT_VERSION and
    ManifestError unless it is a JSON object that generate could have
    written, as far as can be told before any digest check: a config that
    config_from_echo accepts, the keys derive_manifest gives for that
    config, a digest_sha256 string, and a shards table that is the layout
    of num_examples, each entry's name, start_index and count as the
    layout has them and its iq_sha256 and meta_sha256 strings."""
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
    try:
        config = config_from_echo(manifest.get("config"))
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"{path} lacks a valid config: {exc}") from exc
    for key, value in derive_manifest(config).items():
        # as canonical JSON, so neither 53.0 nor true passes for 53
        if _canonical(manifest.get(key)) != _canonical(value):
            raise ManifestError(f"{path} lacks the {key} that generate writes for its config")
    if not isinstance(manifest.get("digest_sha256"), str):
        raise ManifestError(f"{path} lacks a digest_sha256 string")
    shards, total = manifest.get("shards"), config.total_examples
    # lengths first, so a hostile examples_per_class does not build its layout
    if not (isinstance(shards, list) and len(shards) == len(range(0, total, DEFAULT_SHARD_SIZE))
            and all(isinstance(entry, dict) and {key: entry.get(key) for key in shard} == shard
                    and all(isinstance(entry.get(key), str) for key in ("iq_sha256", "meta_sha256"))
                    for entry, shard in zip(shards, _layout(total)))):
        raise ManifestError(f"{path} lacks the shard table of {total} examples "
                            f"in shards of {DEFAULT_SHARD_SIZE}")
    return manifest


def _shards(root: str | Path, manifest: dict, verify: bool,
            hold: Callable[[int, bytes], object]) -> Iterator[tuple[list[str], Iterable]]:
    """(meta lines, held) of each shard of the layout, each file read
    once, its IQ in blocks of _TASK_SIZE whole frames (the last one
    shorter), the unit write_shards writes in: held gives hold(first,
    block) for each block in order, first being the position in the
    dataset of the block's first frame, its example index in a dataset of
    the layout. Raises ValueError unless a shard's IQ is as many frames as
    its meta has lines.

    Without verify, the size is checked first, and held reads the blocks
    as it is taken, which must be before the next shard. With verify, each
    block is hashed into the shard's and the overall sha256 as it is read,
    and held is the list of what hold kept of the blocks; a shard is
    yielded only once its digests match, so a caller holds one block and
    what hold keeps, and uses nothing of a shard before it is verified.
    DigestMismatchError is raised where a digest differs: the manifest's
    first, a shard's IQ and then its meta after its last block and before
    its size is checked, the overall last."""
    if verify and manifest_digest(manifest) != manifest.get("manifest_sha256"):
        raise DigestMismatchError("manifest digest mismatch")
    frame_len = manifest["config"]["frame_len"]
    overall, position = hashlib.sha256(), 0
    for shard, entry in zip(_layout(manifest["num_examples"]), manifest["shards"]):
        name = shard["name"]
        with open(Path(root, f"{name}.iq"), "rb") as iq_file:
            meta_bytes = Path(root, f"{name}.meta.jsonl").read_bytes()
            read_block = functools.partial(iq_file.read, _TASK_SIZE * 8 * frame_len)
            blocks = zip(itertools.count(position, _TASK_SIZE), iter(read_block, b""))
            if not verify:
                lines = meta_bytes.decode("utf-8").splitlines()
                _check_iq_size(name, os.fstat(iq_file.fileno()).st_size, frame_len, len(lines))
                yield lines, itertools.starmap(hold, blocks)
                position += len(lines)
                continue
            iq_sha256, held = hashlib.sha256(), []
            for first, block in blocks:
                iq_sha256.update(block)
                overall.update(block)
                held.append(hold(first, block))
            iq_size = iq_file.tell()
        if iq_sha256.hexdigest() != entry["iq_sha256"]:
            raise DigestMismatchError(f"{name}.iq digest mismatch")
        if hashlib.sha256(meta_bytes).hexdigest() != entry["meta_sha256"]:
            raise DigestMismatchError(f"{name}.meta.jsonl digest mismatch")
        lines = meta_bytes.decode("utf-8").splitlines()
        _check_iq_size(name, iq_size, frame_len, len(lines))
        yield lines, held
        position += len(lines)
    if verify and overall.hexdigest() != manifest["digest_sha256"]:
        raise DigestMismatchError("overall digest mismatch")


def verify_digests(dataset_dir: str | Path, manifest: dict | None = None) -> None:
    """Check the manifest against its own digest, then recompute all shard
    digests; raise DigestMismatchError on any difference."""
    manifest = manifest if manifest is not None else load_manifest(dataset_dir)
    for _shard in _shards(dataset_dir, manifest, True, lambda _first, _block: None):
        pass


def _check_iq_size(name: str, iq_size: int, frame_len: int, count: int) -> None:
    """Raise ValueError unless a shard's iq_size IQ bytes are count frames
    of frame_len samples: under a frame_len other than the data's, frames
    would be cut at the wrong places."""
    if iq_size != count * 8 * frame_len:
        raise ValueError(f"{name}: {iq_size} IQ bytes but {count} frames of {frame_len} samples")


def read_example(dataset_dir: str | Path, index: int,
                 manifest: dict | None = None) -> tuple[np.ndarray, dict]:
    """Fetch one (complex64 frame, meta) by example index, touching only
    the shard of the layout that holds it, index // DEFAULT_SHARD_SIZE.
    Raises IndexError for an index outside 0 .. num_examples-1, OSError
    (EIO) if the shard's IQ or metadata stops short of it, and ValueError
    if the IQ file is not the size of the shard's frames in the layout."""
    manifest = manifest if manifest is not None else load_manifest(dataset_dir)
    total = manifest["num_examples"]
    if not 0 <= index < total:
        raise IndexError(f"example index {index} out of range (dataset has {total})")
    shard_index, offset = divmod(index, DEFAULT_SHARD_SIZE)
    name, frame_len = _shard_name(shard_index), manifest["config"]["frame_len"]
    with open(Path(dataset_dir, f"{name}.iq"), "rb") as fh:
        raw = _pread_exact(fh.fileno(), 8 * frame_len, offset * 8 * frame_len)
        _check_iq_size(name, os.fstat(fh.fileno()).st_size, frame_len,
                       min(DEFAULT_SHARD_SIZE, total - shard_index * DEFAULT_SHARD_SIZE))
    with open(Path(dataset_dir, f"{name}.meta.jsonl"), "r", encoding="utf-8") as fh:
        line = next(itertools.islice(fh, offset, None), "")
    if not line.endswith("\n"):  # as meta_to_line ends every line
        raise OSError(errno.EIO, f"{name}.meta.jsonl ends before the end of line {offset + 1}")
    return bytes_to_frames(raw, frame_len)[0], json.loads(line)


def read(dataset_dir: str | Path, validate_digest: bool = False
         ) -> Iterator[tuple[np.ndarray, dict]]:
    """Yield (complex64 frame, meta) in index order, converting one block
    of frames at a time. With validate_digest, yields only from verified
    shards, raising DigestMismatchError as _shards does, so it holds a
    shard's IQ bytes until they are verified; without it, one block."""
    manifest = load_manifest(dataset_dir)
    frame_len = manifest["config"]["frame_len"]
    for lines, blocks in _shards(dataset_dir, manifest, validate_digest,
                                 lambda _first, block: block):
        metas = iter(lines)
        for block in blocks:
            for frame, line in zip(bytes_to_frames(block, frame_len), metas):
                yield frame, json.loads(line)


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
    """Check a dataset in one read pass over verified bytes, holding one
    block of a shard, its meta file and its sampled frames: digest (the
    only result if it fails, as every later check reads those bytes),
    class-balance, replay: `sample` evenly spread examples regenerated from
    (dataset_seed, index) and compared with the stored IQ and meta line,
    nothing stored trusted; then, of those regenerated, Es/N0 within 0.2 dB
    of target (impaired) and the stored envelope within 1e-6, the float32
    rounding budget, of constant (clean FSK). A failing replay names the
    first indices that differ. Raises ValueError if sample is negative or
    the manifest is of another format or malformed (UnsupportedFormatError,
    ManifestError), FileNotFoundError without one."""
    check_int("sample", sample, 0)
    manifest = load_manifest(dataset_dir)
    config = config_from_echo(manifest["config"])
    sampled = set(_sample_indices(manifest["num_examples"], sample))
    frame_bytes = 8 * config.frame_len
    in_order, differing, position = True, [], 0
    snr_errors, envelopes = [], []

    def keep_sampled(first: int, block: bytes) -> dict[int, bytes]:
        return {i: block[(i - first) * frame_bytes:(i + 1 - first) * frame_bytes]
                for i in range(first, first + len(block) // frame_bytes) if i in sampled}
    try:
        for lines, held in _shards(dataset_dir, manifest, True, keep_sampled):
            stored = {i: raw for kept in held for i, raw in kept.items()}
            for line in lines:
                meta = json.loads(line)
                if not (isinstance(meta, dict) and meta.get("index") == position
                        and meta.get("class_index") == position % NUM_CLASSES):
                    in_order = False
                if position in sampled:
                    frame, want, pre_noise = _example(
                        position, position % NUM_CLASSES,
                        derive_stream(config.dataset_seed, position), config)
                    if frame_to_bytes(frame) != stored[position] or _canonical(want) != line:
                        differing.append(position)
                    if pre_noise is not None:
                        measured = measurement.measure_esn0(
                            pre_noise, frame - pre_noise, want["samples_per_symbol"])
                        snr_errors.append(abs(measured - want["snr_db"]))
                    elif want["family"] == "fsk":
                        frame32 = bytes_to_frames(stored[position], config.frame_len)[0]
                        envelopes.append(measurement.envelope_constancy(
                            frame32.astype(np.complex128)))
                position += 1
    except (DigestMismatchError, FileNotFoundError) as exc:
        return [CheckResult("digest", False, str(exc))]

    # with example i of class i mod 53 throughout, balance is a matter of
    # count; load_manifest has checked num_examples against the config
    balanced = in_order and position == manifest["num_examples"]
    first = f"; first differing: {', '.join(map(str, differing[:5]))}" if differing else ""
    results = [CheckResult("digest", True),
               CheckResult("class-balance", balanced, f"{position} examples, "
                           f"{config.examples_per_class} per class expected"),
               CheckResult("replay", not differing, f"{len(sampled)} sampled{first}")]
    if snr_errors:
        results.append(CheckResult(
            "snr-calibration", all(e <= 0.2 for e in snr_errors),
            f"{len(snr_errors)} sampled, worst |error| {max(snr_errors):.3f} dB"))
    if envelopes:
        results.append(CheckResult("fsk-envelope", all(e <= 1e-6 for e in envelopes),
                                   f"{len(envelopes)} sampled"))
    return results
