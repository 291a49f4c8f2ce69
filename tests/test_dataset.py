"""Shard writing, manifests, digests, and replay-from-metadata."""

import builtins
import collections
import concurrent.futures
import contextlib
import dataclasses
import errno
import functools
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_once, child_pids, kill_blocked
from sigforge import dataset as dataset_module
from sigforge import pool as pool_module
from sigforge.cli import main
from sigforge.dataset import (
    DEFAULT_SHARD_SIZE,
    FORMAT_VERSION,
    MIN_FRAME_LEN,
    VARIANTS,
    CheckResult,
    DatasetConfig,
    DigestMismatchError,
    ManifestError,
    UnsupportedFormatError,
    bytes_to_frames,
    config_echo,
    config_from_echo,
    derive_manifest,
    frame_to_bytes,
    generate_example,
    generate_range,
    iter_range,
    load_manifest,
    manifest_digest,
    meta_to_line,
    read,
    read_example,
    replay_example,
    validate,
    verify_digests,
    write_shards,
)
from sigforge.impairments import DEFAULT_PROFILE, NO_IMPAIRMENT_PROFILE
from sigforge.registry import CLASS_LIST, NUM_CLASSES
from sigforge.rng import derive_stream
from sigforge.server import ServerDefaults, build_batch
from test_golden import MANIFEST_SHA256, VALIDATE_STDOUT_SHA256


def small_config(variant="clean-train", epc=2, seed=3, frame_len=256):
    return DatasetConfig(variant=variant, examples_per_class=epc,
                         dataset_seed=seed, frame_len=frame_len)


@pytest.fixture
def shard_size(monkeypatch):
    """shard_size(n) gives the datasets this test writes and reads shards
    of n examples instead of DEFAULT_SHARD_SIZE; only this process reads
    it, so pool workers need not see the patch."""
    return functools.partial(monkeypatch.setattr, dataset_module, "DEFAULT_SHARD_SIZE")


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(variant="clean-test")
    with pytest.raises(ValueError):
        small_config(epc=0)
    with pytest.raises(ValueError):
        small_config(frame_len=0)
    with pytest.raises(ValueError):
        small_config(frame_len=MIN_FRAME_LEN - 1)
    assert small_config(frame_len=MIN_FRAME_LEN).frame_len == MIN_FRAME_LEN
    # integer fields take ints only: no truncation, no bool, no parsing
    for bad in (256.0, 1.5, True, "256", None):
        with pytest.raises(TypeError):
            small_config(frame_len=bad)
    with pytest.raises(TypeError):
        small_config(epc=2.0)
    with pytest.raises(TypeError):
        small_config(seed="3")
    assert small_config(seed=-(2 ** 70)).dataset_seed == -(2 ** 70)
    assert small_config("impaired-val").is_impaired
    assert not small_config("clean-val").is_impaired
    assert small_config(epc=4).total_examples == 4 * 53


_anything = (st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70) | st.floats()
             | st.text(max_size=8) | st.binary(max_size=4)
             | st.lists(st.integers(), max_size=2) | st.just(DEFAULT_PROFILE))


@settings(max_examples=300, deadline=None)
@given(variant=_anything | st.sampled_from(VARIANTS),
       examples_per_class=_anything | st.integers(-2, 3),
       dataset_seed=_anything,
       frame_len=_anything | st.integers(MIN_FRAME_LEN - 2, MIN_FRAME_LEN + 2))
def test_config_constructs_or_raises_type_or_value_error(
        variant, examples_per_class, dataset_seed, frame_len):
    try:
        config = DatasetConfig(variant=variant, examples_per_class=examples_per_class,
                               dataset_seed=dataset_seed, frame_len=frame_len)
    except (TypeError, ValueError):
        return
    assert config.variant in VARIANTS
    for value in (config.examples_per_class, config.dataset_seed, config.frame_len):
        assert type(value) is int
    assert config.examples_per_class >= 1 and config.frame_len >= MIN_FRAME_LEN
    assert config.profile is DEFAULT_PROFILE
    assert config.total_examples == config.examples_per_class * NUM_CLASSES


def test_the_profile_is_a_constant_not_a_field():
    assert [field.name for field in dataclasses.fields(DatasetConfig)] == [
        "variant", "examples_per_class", "dataset_seed", "frame_len"]
    assert DatasetConfig.profile is DEFAULT_PROFILE
    with pytest.raises(TypeError, match="positional arguments"):
        DatasetConfig("impaired-val", 1, 0, 64, NO_IMPAIRMENT_PROFILE)
    with pytest.raises(TypeError, match="profile"):
        DatasetConfig("impaired-val", 1, 0, profile=NO_IMPAIRMENT_PROFILE)
    # every time shift leaves part of the shortest frame
    assert DEFAULT_PROFILE.time_shift_max < MIN_FRAME_LEN
    iq, _meta = generate_range(small_config("impaired-val", frame_len=MIN_FRAME_LEN), 0, 53)
    assert len(iq) == 53 * MIN_FRAME_LEN * 8


def test_plan_round_robin():
    config = small_config(epc=2, frame_len=MIN_FRAME_LEN)
    iq, meta = generate_range(config, 0, config.total_examples)
    lines = [json.loads(line) for line in meta.splitlines()]
    assert len(lines) == 106
    assert len(iq) == 106 * MIN_FRAME_LEN * 8
    assert [m["index"] for m in lines] == list(range(106))
    assert [m["class_index"] for m in lines] == [i % 53 for i in range(106)]
    # streams differ per index but depend only on (seed, index)
    assert lines[0]["rng_key"] != lines[1]["rng_key"]
    assert [m["rng_key"] for m in lines] == [derive_stream(3, i).key for i in range(106)]
    # adjacent ranges concatenate to the bytes of their union
    iq_a, meta_a = generate_range(config, 50, 3)
    iq_b, meta_b = generate_range(config, 53, 4)
    frame_bytes = MIN_FRAME_LEN * 8
    assert iq_a + iq_b == iq[50 * frame_bytes:57 * frame_bytes]
    assert meta_a + meta_b == b"".join(meta.splitlines(keepends=True)[50:57])


def test_iter_range_cuts_task_sized_parts_in_index_order():
    config = small_config(epc=1, frame_len=MIN_FRAME_LEN)
    with os.fdopen(os.memfd_create("iq"), "rb") as iq_file:
        parts = list(iter_range(config, iq_file.fileno(), 50, 13))  # crosses the class wrap at 53
        assert [task for task, _meta in parts] == [(50, 8), (58, 5)]
        assert [len(meta.splitlines()) for _task, meta in parts] == [8, 5]
        iq, meta = generate_range(config, 50, 13)
        assert b"".join(meta for _task, meta in parts) == meta
        # each part was written at its offset from the range's start
        assert os.pread(iq_file.fileno(), len(iq) + 1, 0) == iq
    with os.fdopen(os.memfd_create("iq"), "rb") as iq_file:
        assert list(iter_range(config, iq_file.fileno(), 7, 0)) == []


def test_a_task_whose_file_is_gone_or_replaced_fails_before_generating(tmp_path, monkeypatch):
    config = small_config(epc=1, frame_len=MIN_FRAME_LEN)
    ours, other = tmp_path / "ours", tmp_path / "other"
    ours.write_bytes(b"")
    other.write_bytes(b"")
    identity = os.stat(ours)
    monkeypatch.setattr(dataset_module, "generate_range",
                        lambda *args: pytest.fail("generated for a file not its own"))
    with pytest.raises(OSError) as raised:
        dataset_module._write_task(config, str(other), identity, 0, (0, 8))
    assert raised.value.errno == errno.ESTALE
    with pytest.raises(FileNotFoundError):
        dataset_module._write_task(config, str(tmp_path / "gone"), identity, 0, (0, 8))
    assert other.read_bytes() == b""


def test_iter_range_refuses_a_file_that_does_not_hold_the_range(monkeypatch):
    # checked once, after the last part: a file short of the range's IQ,
    # or holding more than it, is EIO for every caller
    config = small_config(epc=1, frame_len=MIN_FRAME_LEN)
    frame_bytes = MIN_FRAME_LEN * 8
    with os.fdopen(os.memfd_create("iq"), "r+b") as iq_file:
        os.pwrite(iq_file.fileno(), b"x", 13 * frame_bytes)
        parts = iter_range(config, iq_file.fileno(), 0, 13)
        assert [task for task, _meta in itertools.islice(parts, 2)] == [(0, 8), (8, 5)]
        with pytest.raises(OSError, match=f"holds {13 * frame_bytes + 1} bytes") as raised:
            next(parts)
        assert raised.value.errno == errno.EIO
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: len(data))
    with os.fdopen(os.memfd_create("iq"), "rb") as iq_file:
        with pytest.raises(OSError, match=f"holds 0 bytes, the range's IQ is {frame_bytes}"):
            list(iter_range(config, iq_file.fileno(), 0, 1))


def test_serialization_round_trip():
    frame = derive_stream(1, 0).cnormal(64)
    raw = frame_to_bytes(frame)
    assert len(raw) == 64 * 8
    back = bytes_to_frames(raw, 64)
    assert back.shape == (1, 64)
    assert back.dtype == np.complex64
    np.testing.assert_array_equal(back[0], frame.astype(np.complex64))


def test_bytes_to_frames_rejects_ragged_input():
    with pytest.raises(ValueError):
        bytes_to_frames(b"\x00" * 100, 64)


def test_serialization_canonicalizes_negative_zero():
    # numpy's complex multiply signs exact zeros (window-taper endpoints)
    # differently depending on the kernel it dispatches to; the file
    # format must not inherit that ambiguity
    minus = np.array([complex(-0.0, -0.0), 1 + 1j])
    plus = np.array([complex(0.0, 0.0), 1 + 1j])
    assert frame_to_bytes(minus) == frame_to_bytes(plus)
    words = np.frombuffer(frame_to_bytes(minus), dtype="<f4")[:2]
    assert words.tobytes() == b"\x00" * 8  # +0.0 bit patterns


def test_meta_line_is_compact_sorted_json():
    line = meta_to_line({"b": 1, "a": [1, 2]})
    assert line == b'{"a":[1,2],"b":1}\n'


def test_generate_example_clean_meta():
    config = small_config()
    frame, meta = generate_example(7, 7, derive_stream(3, 7), config)
    assert meta["index"] == 7
    assert meta["class_index"] == 7
    assert meta["class_name"] == CLASS_LIST[7].name
    assert meta["family"] == CLASS_LIST[7].family
    assert "record" not in meta and "snr_db" not in meta
    assert len(frame) == 256
    # meta must serialize cleanly
    json.loads(meta_to_line(meta))


def test_generate_example_impaired_meta():
    config = small_config("impaired-train")
    frame, meta = generate_example(12, 12, derive_stream(3, 12), config)
    assert -2.0 <= meta["snr_db"] <= 30.0
    assert "record" in meta and "shaping" in meta
    assert meta["record"]["target_esn0_db"] == meta["snr_db"]
    kinds = [s["kind"] for s in meta["record"]["steps"]]
    assert kinds[-1] == "awgn"


@pytest.mark.parametrize("variant", ["clean-train", "impaired-train"])
def test_replay_example_matches_stored_bytes(variant):
    config = small_config(variant)
    for index in (0, 9, 30, 52):
        frame, meta = generate_example(
            index, index % 53, derive_stream(3, index), config)
        again = replay_example(meta, config.frame_len)
        assert frame_to_bytes(again) == frame_to_bytes(frame)
    # no default length: a 4096-sample rebuild of a 256-sample example
    # would not be the stored example
    with pytest.raises(TypeError):
        replay_example(meta)


def test_write_read_round_trip(tmp_path, shard_size):
    config = small_config(epc=2)
    shard_size(40)
    manifest = write_shards(config, tmp_path / "ds")
    assert manifest["format_version"] == FORMAT_VERSION
    assert manifest["num_examples"] == 106
    assert manifest["per_class_counts"]["qpsk"] == 2
    # 106 examples at shard size 40 -> 40 + 40 + 26
    assert [e["count"] for e in manifest["shards"]] == [40, 40, 26]
    assert [e["start_index"] for e in manifest["shards"]] == [0, 40, 80]

    got = list(read(tmp_path / "ds", validate_digest=True))
    assert len(got) == 106
    for index, (frame, meta) in enumerate(got):
        assert meta["index"] == index
        assert meta["class_index"] == index % 53
        assert frame.shape == (256,)
        assert frame.dtype == np.complex64
    # spot check against direct generation
    want, _ = generate_example(5, 5, derive_stream(3, 5), config)
    np.testing.assert_array_equal(got[5][0], want.astype(np.complex64))


def test_manifest_on_disk_matches_return_value(tmp_path):
    config = small_config(epc=1)
    manifest = write_shards(config, tmp_path / "ds")
    assert load_manifest(tmp_path / "ds") == manifest
    assert manifest["config"]["profile"] is None
    assert manifest["shards"][0]["count"] == 53
    assert DEFAULT_SHARD_SIZE == 4096


def test_impaired_manifest_echoes_profile(tmp_path):
    config = small_config("impaired-val", epc=1)
    manifest = write_shards(config, tmp_path / "ds")
    assert manifest["config"]["profile"]["esn0_range_db"] == [-2.0, 30.0]
    assert manifest["config"]["variant"] == "impaired-val"
    # returned and reloaded manifests agree including the profile echo
    assert load_manifest(tmp_path / "ds") == manifest


def test_a_written_manifest_is_what_its_config_derives_plus_shards_and_digests(tmp_path):
    for config in (small_config(epc=1), small_config("impaired-val", epc=1)):
        manifest = write_shards(config, tmp_path / config.variant)
        derived = derive_manifest(config)
        assert set(manifest) == {*derived, "shards", "digest_sha256", "manifest_sha256"}
        assert {key: manifest[key] for key in derived} == derived
        assert config_from_echo(manifest["config"]) == config


@settings(max_examples=200, deadline=None)
@given(variant=st.sampled_from(VARIANTS),
       examples_per_class=st.integers(1, 10 ** 18),
       dataset_seed=st.integers(-(2 ** 70), 2 ** 70),
       frame_len=st.integers(MIN_FRAME_LEN, 10 ** 18))
def test_the_config_echo_survives_a_round_trip(
        variant, examples_per_class, dataset_seed, frame_len):
    config = DatasetConfig(variant, examples_per_class, dataset_seed, frame_len)
    echo = config_echo(config)
    assert json.loads(json.dumps(echo)) == echo
    again = config_from_echo(echo)
    assert config_echo(again) == echo and again == config
    # the one profile, echoed only where the bytes depend on it
    assert echo["profile"] == (json.loads(json.dumps(dataclasses.asdict(DEFAULT_PROFILE)))
                               if config.is_impaired else None)


def test_write_refuses_nonempty_dir_without_force(tmp_path):
    config = small_config(epc=1)
    target = tmp_path / "ds"
    write_shards(config, target)
    with pytest.raises(FileExistsError):
        write_shards(config, target)
    manifest = write_shards(config, target, force=True)
    verify_digests(target, manifest)


def test_worker_count_does_not_change_bytes(tmp_path, shard_size):
    # a shard size that is not a multiple of the pool task size makes
    # tasks end at shard boundaries
    config = small_config("impaired-train", epc=1, frame_len=128)
    shard_size(20)
    m1 = write_shards(config, tmp_path / "w1", workers=1)
    m4 = write_shards(config, tmp_path / "w4", workers=4)
    assert m1["digest_sha256"] == m4["digest_sha256"]
    assert m1["shards"] == m4["shards"]
    assert [e["count"] for e in m4["shards"]] == [20, 20, 13]
    names = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "w4").iterdir())
    for name in names:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()


def test_force_rewrite_removes_stale_shards(tmp_path, shard_size):
    target = tmp_path / "ds"
    shard_size(20)
    write_shards(small_config(epc=2), target)
    (target / "notes.txt").write_text("kept")
    manifest = write_shards(small_config(epc=1), target, force=True)
    shards = [e["name"] for e in manifest["shards"]]
    assert shards == ["shard-00000", "shard-00001", "shard-00002"]
    assert sorted(p.name for p in target.iterdir()) == sorted(
        ["manifest.json", "notes.txt"] + [f"{n}.iq" for n in shards]
        + [f"{n}.meta.jsonl" for n in shards])
    verify_digests(target, manifest)
    assert len(list(read(target))) == 53


def test_digest_catches_corruption(tmp_path):
    config = small_config(epc=1)
    write_shards(config, tmp_path / "ds")
    iq_path = tmp_path / "ds" / "shard-00000.iq"
    blob = bytearray(iq_path.read_bytes())
    blob[100] ^= 0xFF
    iq_path.write_bytes(bytes(blob))
    with pytest.raises(DigestMismatchError):
        verify_digests(tmp_path / "ds")
    with pytest.raises(DigestMismatchError):
        list(read(tmp_path / "ds", validate_digest=True))
    # unvalidated read still works
    assert len(list(read(tmp_path / "ds"))) == 53


def test_meta_corruption_is_caught_too(tmp_path):
    config = small_config(epc=1)
    write_shards(config, tmp_path / "ds")
    meta_path = tmp_path / "ds" / "shard-00000.meta.jsonl"
    lines = meta_path.read_bytes().splitlines(keepends=True)
    meta_path.write_bytes(b"".join(lines[:-1]))
    with pytest.raises(DigestMismatchError):
        verify_digests(tmp_path / "ds")


def test_load_manifest_missing():
    with pytest.raises(FileNotFoundError):
        load_manifest("/nonexistent/dataset/dir")


def test_read_example_random_access(tmp_path, shard_size):
    config = small_config(epc=2)
    shard_size(30)
    write_shards(config, tmp_path / "ds")
    everything = list(read(tmp_path / "ds"))
    for index in (0, 29, 30, 75, 105):
        frame, meta = read_example(tmp_path / "ds", index)
        np.testing.assert_array_equal(frame, everything[index][0])
        assert meta == everything[index][1]
    for index in (-1, 106):
        with pytest.raises(IndexError):
            read_example(tmp_path / "ds", index)


@pytest.mark.parametrize("frame_len, iq_size", [
    (128, 53 * 8 * 256),  # example 3 would be read from the middle of example 1
    (512, 53 * 8 * 256),  # example 3 would be examples 6 and 7
    (256, 52 * 8 * 256),  # the last frame cut off
])
def test_read_example_refuses_a_shard_whose_size_is_not_its_layouts(
        tmp_path, capsys, frame_len, iq_size):
    target = tmp_path / "ds"
    write_shards(small_config("clean-val", epc=1), target)
    os.truncate(target / "shard-00000.iq", iq_size)
    manifest = load_manifest(target)
    manifest["config"]["frame_len"] = frame_len
    rewrite_manifest(target, manifest)
    message = f"shard-00000: {iq_size} IQ bytes but 53 frames of {frame_len} samples"
    with pytest.raises(ValueError, match=message):
        read_example(target, 3)
    with pytest.raises(ValueError, match=message):  # and so does a full read
        list(read(target))
    assert main(["inspect", "--in", str(target), "--index", "3", "--meta"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_stored_replay_matches_float32_bytes(tmp_path):
    """Full loop: write impaired shards, read them back, regenerate each
    frame from metadata, compare at the stored float32 resolution."""
    config = small_config("impaired-train", epc=1, frame_len=128)
    write_shards(config, tmp_path / "ds")
    for frame, meta in read(tmp_path / "ds"):
        again = replay_example(meta, 128).astype(np.complex64)
        np.testing.assert_array_equal(frame, again)


@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupted_write_leaves_no_manifest_and_no_incomplete_shard(
        tmp_path, monkeypatch, shard_size, workers, fresh_pool):
    config = small_config(epc=1, frame_len=MIN_FRAME_LEN)
    shard_size(20)
    whole = write_shards(config, tmp_path / "whole")
    generate = dataset_module.generate_example

    def fail_in_second_shard(index, *args):
        if index == 30:  # the second task of shard 1 (examples 20..39)
            raise RuntimeError("generation failed")
        return generate(index, *args)

    monkeypatch.setattr(dataset_module, "generate_example", fail_in_second_shard)
    target = tmp_path / "ds"
    with pytest.raises(RuntimeError, match="generation failed"):
        write_shards(config, target, workers=workers)
    assert sorted(p.name for p in target.iterdir()) == [
        "shard-00000.iq", "shard-00000.meta.jsonl",
        "shard-00001.iq.tmp", "shard-00001.meta.jsonl.tmp"]
    for name in ("shard-00000.iq", "shard-00000.meta.jsonl"):
        assert (target / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    monkeypatch.setattr(dataset_module, "generate_example", generate)
    assert write_shards(config, target, workers=workers, force=True) == whole
    assert (sorted(p.name for p in target.iterdir())
            == sorted(p.name for p in (tmp_path / "whole").iterdir()))


def test_write_shards_forks_its_pool_whatever_the_default_start_method(tmp_path):
    # forked workers inherit this process's module state: here a patched
    # generate_example, which spawned workers would import afresh
    code = ("import multiprocessing, sys\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from sigforge import dataset\n"
            "def fail(*args):\n"
            "    raise RuntimeError('patched generate_example ran')\n"
            "dataset.generate_example = fail\n"
            "dataset.write_shards(dataset.DatasetConfig('clean-val', 1, 0, 64), sys.argv[1],\n"
            "                     workers=2)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "ds")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert result.stderr.endswith("RuntimeError: patched generate_example ran\n"), result.stderr


def _signal_while_the_pool_forks(monkeypatch, signum):
    """fork_pool(2) with signum raised between its first fork and its
    second: it raises KeyboardInterrupt once the pool is built, and leaves
    no worker alive."""
    pools, started = [], []
    real_init = concurrent.futures.ProcessPoolExecutor.__init__
    real_start = multiprocessing.context.ForkProcess.start

    def recording_init(pool, *args, **kwargs):
        real_init(pool, *args, **kwargs)
        pools.append(pool)  # as a caller holding the interrupt's traceback would

    def start_then_signal(process):
        real_start(process)
        started.append(process)
        if len(started) == 1:  # a signal between the first fork and the second
            signal.raise_signal(signum)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", recording_init)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_then_signal)
    try:
        with pytest.raises(KeyboardInterrupt):
            pool_module.fork_pool(2)
        assert not [p.pid for p in started if p.is_alive()]
        assert len(started) == 2  # the interrupt waited for the pool
    finally:  # whatever a leaked pool left running
        for pool in pools:  # each a constructed one
            pool.shutdown(cancel_futures=True)
        for process in started:
            process.terminate()
            process.join(timeout=30)
    monkeypatch.undo()


def test_a_ctrl_c_while_the_pool_forks_leaves_no_worker(monkeypatch):
    _signal_while_the_pool_forks(monkeypatch, signal.SIGINT)
    pool = pool_module.fork_pool(2)
    pool.shutdown()
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, set())


def test_a_fork_that_fails_while_the_pool_forks_leaves_no_worker(monkeypatch):
    # the second fork fails, as it can at a process limit or out of memory
    started, real_start = [], multiprocessing.context.ForkProcess.start

    def start_then_fail(process):
        if started:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        real_start(process)
        started.append(process)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_then_fail)
    with pytest.raises(OSError, match="Resource temporarily unavailable"):
        pool_module.fork_pool(2)
    started[0].join(timeout=30)
    assert not started[0].is_alive()


def _sigterm_blocked(pid):
    """Whether SIGTERM is in the blocked mask (SigBlk) of process pid."""
    with open(f"/proc/{pid}/status") as status:
        mask = next(int(line.split()[1], 16) for line in status if line.startswith("SigBlk:"))
    return bool(mask >> (signal.SIGTERM - 1) & 1)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_a_sigterm_while_the_pool_forks_leaves_no_worker(monkeypatch):
    handler = signal.signal(signal.SIGTERM, signal.default_int_handler)  # as `sigforge serve` does
    try:
        _signal_while_the_pool_forks(monkeypatch, signal.SIGTERM)
    finally:
        signal.signal(signal.SIGTERM, handler)
    pool = pool_module.fork_pool(2)
    try:
        # each worker unblocks SIGTERM in its initializer, so a broken pool can kill it
        deadline = time.monotonic() + 30
        for worker in pool._processes.values():
            while _sigterm_blocked(worker.pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not _sigterm_blocked(worker.pid)
    finally:
        pool.shutdown()
    assert not signal.pthread_sigmask(signal.SIG_BLOCK, set()) & {signal.SIGINT, signal.SIGTERM}


def test_force_removes_the_tmp_files_of_an_interrupted_run(tmp_path):
    target = tmp_path / "ds"
    target.mkdir()
    # names this rewrite does not write itself
    for name in ("shard-00007.iq.tmp", "shard-00007.meta.jsonl.tmp", "manifest.json.tmp"):
        (target / name).write_text("partial")
    manifest = write_shards(small_config(epc=1), target, force=True)
    assert sorted(p.name for p in target.iterdir()) == [
        "manifest.json", "shard-00000.iq", "shard-00000.meta.jsonl"]
    verify_digests(target, manifest)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_iq_write_fails_the_run(tmp_path, monkeypatch, workers, fresh_pool):
    def full_disk(fd, data, offset):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "pwrite", full_disk)
    target = tmp_path / "ds"
    with pytest.raises(OSError) as raised:
        write_shards(small_config(epc=1), target, workers=workers)
    assert raised.value.errno == errno.ENOSPC
    assert not (target / "manifest.json").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_iq_that_never_reached_the_file_is_not_hashed(tmp_path, monkeypatch, workers,
                                                     fresh_pool):
    # a write that claims success without writing leaves the shard short
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: len(data))
    target = tmp_path / "ds"
    with pytest.raises(OSError) as raised:
        write_shards(small_config(epc=1), target, workers=workers)
    assert raised.value.errno == errno.EIO
    assert not (target / "manifest.json").exists()
    # nor served: iter_range refuses a batch's memory file short of its IQ
    with pool_module.fork_pool(workers) or contextlib.nullcontext() as pool:
        with pytest.raises(OSError) as raised:
            build_batch({"batch_size": 13, "frame_len": MIN_FRAME_LEN}, ServerDefaults(), pool)
    assert raised.value.errno == errno.EIO


def test_short_iq_writes_are_completed(tmp_path, monkeypatch, shard_size, fresh_pool):
    config = small_config("impaired-val", epc=1)
    shard_size(20)
    want = write_shards(config, tmp_path / "want")
    pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(fd, data[:1000], offset))
    for workers in (1, 2):
        assert write_shards(config, tmp_path / f"w{workers}", workers=workers) == want


@pytest.fixture
def started(monkeypatch):
    """The ForkProcess objects this process starts during the test."""
    processes = []
    real_start = multiprocessing.context.ForkProcess.start

    def recording_start(process):
        real_start(process)
        processes.append(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recording_start)
    return processes


def test_write_shards_keeps_its_pool_for_the_next_call(tmp_path, fresh_pool, started):
    config = small_config(epc=1, frame_len=MIN_FRAME_LEN)
    want = write_shards(config, tmp_path / "inline")
    assert write_shards(config, tmp_path / "a", workers=2) == want
    assert len(started) == 2
    assert write_shards(config, tmp_path / "b", workers=2) == want
    assert len(started) == 2  # the second call forked nothing
    assert write_shards(config, tmp_path / "c", workers=3) == want
    assert [p.is_alive() for p in started] == [False, False, True, True, True]


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_call_that_raises_drops_the_kept_pool(tmp_path, monkeypatch, fresh_pool, started,
                                                error):
    # a task on the kept pool's workers raises RuntimeError, or this
    # process is interrupted as it reads a task's IQ back; the workers,
    # forked before the flag is set, read it from the file system
    config = small_config(epc=1, frame_len=MIN_FRAME_LEN)
    flag = tmp_path / "fail"
    generate, pread_exact = dataset_module.generate_example, dataset_module._pread_exact

    def generate_unless_flagged(index, *args):
        if flag.exists() and error is RuntimeError:
            raise RuntimeError("generation failed")
        return generate(index, *args)

    def pread_unless_flagged(*args):
        if flag.exists() and error is KeyboardInterrupt:
            raise KeyboardInterrupt
        return pread_exact(*args)

    monkeypatch.setattr(dataset_module, "generate_example", generate_unless_flagged)
    monkeypatch.setattr(dataset_module, "_pread_exact", pread_unless_flagged)
    want = write_shards(config, tmp_path / "want", workers=2)
    flag.touch()
    with pytest.raises(error):
        write_shards(config, tmp_path / "failed", workers=2)
    assert len(started) == 2  # it ran on the kept pool
    assert not [p.pid for p in started if p.is_alive()]
    flag.unlink()
    assert write_shards(config, tmp_path / "again", workers=2) == want
    assert len(started) == 4


_KEEPING_WRITER = (
    "import json, multiprocessing, sys\n"
    "from sigforge import dataset\n"
    "config = dataset.DatasetConfig('clean-val', 1, 0, 64)\n"
    "for run in ('a', 'b'):\n"
    "    dataset.write_shards(config, sys.argv[1] + run, workers=2)\n"
    "    print(json.dumps(sorted(p.pid for p in multiprocessing.active_children())), flush=True)\n")


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def test_a_process_that_keeps_a_pool_exits_quietly_and_leaves_no_worker(tmp_path):
    # -X dev shows the ResourceWarning of a pool left running at exit
    result = subprocess.run([sys.executable, "-X", "dev", "-c", _KEEPING_WRITER,
                             str(tmp_path / "ds")], env=_src_env(), capture_output=True,
                            text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    first, second = map(json.loads, result.stdout.splitlines())
    assert len(first) == 2 and second == first  # the second write kept the first's pool
    assert not [pid for pid in first if Path(f"/proc/{pid}").exists()]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_the_kept_pools_workers_exit_when_their_process_is_killed(tmp_path):
    # each worker watches a pidfd of its parent, whose death ends it
    code = _KEEPING_WRITER + "sys.stdin.read()\n"
    with subprocess.Popen([sys.executable, "-c", code, str(tmp_path / "ds")], env=_src_env(),
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        try:
            proc.stdout.readline()
            workers = json.loads(proc.stdout.readline())
            assert len(workers) == 2 and set(workers) == child_pids(proc.pid)
        finally:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 30
    while [pid for pid in workers if Path(f"/proc/{pid}").exists()] and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]


def test_a_child_of_os_fork_leaves_the_kept_pool_to_its_parent(tmp_path):
    # the child forks a pool of its own, and its exit terminates none of
    # its parent's workers, which would leave the parent's pool hanging
    code = ("import os, sys\n"
            "from sigforge import dataset\n"
            "config = dataset.DatasetConfig('clean-val', 1, 0, 64)\n"
            "want = dataset.write_shards(config, sys.argv[1] + 'a', workers=2)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    assert dataset.write_shards(config, sys.argv[1] + 'b', workers=2) == want\n"
            "    sys.exit(0)\n"
            "assert os.waitpid(pid, 0)[1] == 0\n"
            "assert dataset.write_shards(config, sys.argv[1] + 'c', workers=2) == want\n")
    with subprocess.Popen([sys.executable, "-c", code, str(tmp_path / "ds")], env=_src_env(),
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            _out, err = proc.communicate(timeout=120)
        finally:
            with contextlib.suppress(ProcessLookupError):  # what a hang left in the session
                os.killpg(proc.pid, signal.SIGKILL)
    assert (proc.returncode, err) == (0, "")


def test_concurrent_writes_each_get_their_golden_manifest(tmp_path, monkeypatch, fresh_pool,
                                                          started):
    # both threads hold a pool at once: the first to finish keeps its pool,
    # the second keeps its own and terminates the first's
    variants = ("clean-train", "impaired-val")
    met, pread_exact = threading.Barrier(len(variants)), dataset_module._pread_exact
    waited = set()

    def pread_once_both_have_pools(*args):
        if len(waited) < len(variants) and threading.get_ident() not in waited:
            waited.add(threading.get_ident())
            met.wait(timeout=60)
        return pread_exact(*args)

    monkeypatch.setattr(dataset_module, "_pread_exact", pread_once_both_have_pools)

    def write(variant):
        config = DatasetConfig(variant, examples_per_class=1, dataset_seed=7)
        write_shards(config, tmp_path / variant, workers=2)
        return hashlib.sha256((tmp_path / variant / "manifest.json").read_bytes()).hexdigest()

    with concurrent.futures.ThreadPoolExecutor(len(variants)) as executor:
        digests = list(executor.map(write, variants))
    assert digests == [MANIFEST_SHA256[variant] for variant in variants]
    assert len(started) == 4
    assert len([p for p in started if p.is_alive()]) == 2  # one pool kept
    write_shards(small_config(epc=1, frame_len=MIN_FRAME_LEN), tmp_path / "next", workers=2)
    assert len(started) == 4


def test_threads_racing_for_the_kept_pool_leave_one_pool(tmp_path, fresh_pool, started):
    config = small_config(epc=1, frame_len=MIN_FRAME_LEN)
    want = write_shards(config, tmp_path / "inline")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(4) as executor:
            futures = [executor.submit(write_shards, config, tmp_path / f"w{i}", workers=2)
                       for i in range(12)]
            manifests = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert manifests == [want] * 12
    assert len([p for p in started if p.is_alive()]) == 2  # one pool kept, none leaked


def _killed_mid_range(flag, call, *args):
    """What call(*args), run in a thread, returns or raises once the worker
    block_once blocked at flag is SIGKILLed, and the seconds from the kill
    to then. A call still running 30 s after the kill fails the test
    rather than hanging the run."""
    outcome = []

    def run():
        try:
            outcome.append(call(*args))
        except BaseException as exc:
            outcome.append(exc)
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    killed = kill_blocked(flag)
    thread.join(30)
    assert not thread.is_alive(), "still waiting 30 s after its worker was killed"
    return outcome[0], time.monotonic() - killed


def test_a_worker_killed_mid_range_fails_write_shards(tmp_path, monkeypatch, fresh_pool):
    # the worker that takes the task of examples 16..23 dies in it
    flag = tmp_path / "blocked"
    monkeypatch.setattr(dataset_module, "generate_range", block_once(
        flag, dataset_module.generate_range, lambda _config, first, _count: first == 16))
    config = DatasetConfig("impaired-train", examples_per_class=1, dataset_seed=7)
    raised, seconds = _killed_mid_range(flag, write_shards, config, tmp_path / "failed", 2)
    assert isinstance(raised, pool_module.WorkerLostError) and seconds < 5
    assert not [p.name for p in (tmp_path / "failed").iterdir() if not p.name.endswith(".tmp")]
    assert pool_module._kept_pool is None and not multiprocessing.active_children()
    write_shards(config, tmp_path / "again", workers=2)
    raw = (tmp_path / "again" / "manifest.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == MANIFEST_SHA256["impaired-train"]


def test_a_worker_killed_mid_range_fails_validate(tmp_path, monkeypatch, capsys, fresh_pool):
    # the worker that regenerates example 16 dies in it; the CLI reports
    # the loss as it does any OSError
    write_shards(DatasetConfig("impaired-train", examples_per_class=1, dataset_seed=7),
                 tmp_path / "ds")
    flag = tmp_path / "blocked"
    monkeypatch.setattr(dataset_module, "_example", block_once(
        flag, dataset_module._example, lambda index, *_rest: index == 16))
    args = ["validate", "--in", str(tmp_path / "ds"), "--workers", "2"]
    code, seconds = _killed_mid_range(flag, main, [*args, "--sample", "53"])
    assert code == 1 and seconds < 5
    assert capsys.readouterr() == ("", "error: a pool worker died before its tasks ended\n")
    assert pool_module._kept_pool is None and not multiprocessing.active_children()
    assert main([*args, "--sample", "8"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_STDOUT_SHA256["impaired-train"]


def test_pread_exact_refuses_a_short_read(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(bytes(range(10)))
    fd = os.open(path, os.O_RDONLY)
    try:
        assert dataset_module._pread_exact(fd, 4, 6) == bytes(range(6, 10))
        assert dataset_module._pread_exact(fd, 0, 10) == b""
        for size, offset, got in ((5, 6, 4), (1, 10, 0), (11, 0, 10)):
            with pytest.raises(OSError, match=f"read {got} of {size} IQ bytes at "
                                              f"offset {offset}") as raised:
                dataset_module._pread_exact(fd, size, offset)
            assert raised.value.errno == errno.EIO
    finally:
        os.close(fd)


IMPAIRED_SHARD_SIZE = 20


@pytest.fixture(scope="module")
def impaired_written(tmp_path_factory):
    target = tmp_path_factory.mktemp("impaired") / "ds"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset_module, "DEFAULT_SHARD_SIZE", IMPAIRED_SHARD_SIZE)
        write_shards(small_config("impaired-train", epc=1), target)
    return target


@pytest.fixture
def impaired_dir(impaired_written, shard_size):
    """53 impaired examples in shards of 20, 20 and 13, every one replayed
    by validate(sample=53); the test reads them at that shard size."""
    shard_size(IMPAIRED_SHARD_SIZE)
    return impaired_written


def rewrite_manifest(target, manifest):
    """Write manifest as target's manifest.json under a fresh
    manifest_sha256, so the digest check passes."""
    manifest["manifest_sha256"] = manifest_digest(manifest)
    (target / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def tampered_copy(source, target, index, change):
    """Copy a dataset, apply change() to example index's meta dict and
    re-digest that shard's meta file and the manifest, so the digest check
    passes (the overall digest covers IQ only)."""
    shutil.copytree(source, target)
    manifest = load_manifest(target)
    entry = next(e for e in manifest["shards"]
                 if e["start_index"] <= index < e["start_index"] + e["count"])
    meta_path = target / f"{entry['name']}.meta.jsonl"
    lines = meta_path.read_bytes().splitlines(keepends=True)
    meta = json.loads(lines[index - entry["start_index"]])
    change(meta)
    lines[index - entry["start_index"]] = meta_to_line(meta)
    meta_path.write_bytes(b"".join(lines))
    entry["meta_sha256"] = hashlib.sha256(meta_path.read_bytes()).hexdigest()
    rewrite_manifest(target, manifest)
    return target


def redigest(target):
    """Recompute every shard digest, the overall digest and the manifest
    digest of the dataset at target, so every digest check passes."""
    manifest = load_manifest(target)
    for entry in manifest["shards"]:
        for kind, suffix in (("iq", ".iq"), ("meta", ".meta.jsonl")):
            entry[f"{kind}_sha256"] = hashlib.sha256(
                (target / f"{entry['name']}{suffix}").read_bytes()).hexdigest()
    manifest["digest_sha256"] = hashlib.sha256(b"".join(
        (target / f"{entry['name']}.iq").read_bytes() for entry in manifest["shards"])).hexdigest()
    rewrite_manifest(target, manifest)


def verdicts(results):
    return {r.name: r.ok for r in results}


def validated(target, **kwargs):
    """validate(target, **kwargs) at one worker, checked equal to its
    results at two, which regenerate on the kept pool."""
    results = validate(target, **kwargs)
    assert validate(target, workers=2, **kwargs) == results
    return results


def test_validate_passes_an_intact_dataset(impaired_dir, tmp_path):
    results = validate(impaired_dir, sample=53)
    assert verdicts(results) == {"digest": True, "class-balance": True,
                                 "replay": True, "snr-calibration": True}
    assert results[2] == CheckResult("replay", True, "53 sampled")
    write_shards(small_config("clean-train", epc=1), tmp_path / "clean")
    assert [(r.name, r.ok) for r in validate(tmp_path / "clean", sample=53)] == [
        ("digest", True), ("class-balance", True), ("replay", True), ("fsk-envelope", True)]


def test_validate_fails_replay_on_a_wrong_rng_key(impaired_dir, tmp_path):
    def change(meta):
        meta["rng_key"] += 1
    target = tampered_copy(impaired_dir, tmp_path / "ds", 21, change)
    verify_digests(target)
    results = validated(target, sample=53)
    assert verdicts(results) == {"digest": True, "class-balance": True,
                                 "replay": False, "snr-calibration": True}
    assert results[2] == CheckResult("replay", False, "53 sampled; first differing: 21")


def test_validate_fails_replay_on_a_consistently_tampered_record(impaired_dir, tmp_path):
    # phi edited, the IQ rewritten by replaying the edited record, and every
    # digest recomputed: only regenerating from (dataset_seed, index) shows it
    index = next(meta["index"] for _frame, meta in read(impaired_dir)
                 if meta["record"]["steps"][0]["kind"] == "phase_shift")

    def change(meta):
        meta["record"]["steps"][0]["params"]["phi"] += 0.5
    target = tampered_copy(impaired_dir, tmp_path / "ds", index, change)
    replayed = frame_to_bytes(replay_example(read_example(target, index)[1], 256))
    assert replayed != read_example(impaired_dir, index)[0].tobytes()
    shard, offset = divmod(index, IMPAIRED_SHARD_SIZE)
    with open(target / f"shard-{shard:05d}.iq", "r+b") as fh:
        fh.seek(offset * 8 * 256)
        fh.write(replayed)
    redigest(target)
    verify_digests(target)
    assert read_example(target, index)[0].tobytes() == replayed
    results = validated(target, sample=53)
    assert verdicts(results) == {"digest": True, "class-balance": True,
                                 "replay": False, "snr-calibration": True}
    assert results[2] == CheckResult("replay", False, f"53 sampled; first differing: {index}")


def test_validate_fails_replay_on_re_digested_iq(impaired_dir, tmp_path):
    # one sample of example 30 changed, its meta line left as it was
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    iq_path = target / "shard-00001.iq"
    blob = bytearray(iq_path.read_bytes())
    blob[(30 - IMPAIRED_SHARD_SIZE) * 8 * 256] ^= 0x01
    iq_path.write_bytes(bytes(blob))
    redigest(target)
    results = validated(target, sample=53)
    assert verdicts(results) == {"digest": True, "class-balance": True,
                                 "replay": False, "snr-calibration": True}
    assert results[2].detail == "53 sampled; first differing: 30"


def test_validate_fails_snr_on_a_shifted_target(impaired_dir, tmp_path, monkeypatch, fresh_pool):
    # a recorded target edited and re-digested is a meta line that differs
    # from the regenerated one: a replay failure; the target validate
    # measures against is the regenerated one, which still holds
    index = next(meta["index"] for _frame, meta in read(impaired_dir)
                 if any(s["kind"] == "awgn" for s in meta["record"]["steps"]))

    def change(meta):
        meta["record"]["target_esn0_db"] += 1.0
    target = tampered_copy(impaired_dir, tmp_path / "ds", index, change)
    got = verdicts(validated(target, sample=53))
    assert got == {"digest": True, "class-balance": True,
                   "replay": False, "snr-calibration": True}
    # a measurement 1 dB off every target fails calibration alone
    measure_esn0 = dataset_module.measurement.measure_esn0
    monkeypatch.setattr(dataset_module.measurement, "measure_esn0",
                        lambda *args: measure_esn0(*args) + 1.0)
    pool_module._drop_pool()  # so the workers that measure are forked with the patch
    results = validated(impaired_dir, sample=53)
    assert verdicts(results) == {"digest": True, "class-balance": True,
                                 "replay": True, "snr-calibration": False}
    assert results[3].detail == "53 sampled, worst |error| 1.000 dB"


def test_validate_fails_balance_on_a_wrong_count(impaired_dir, tmp_path):
    # the last example dropped from both files of its shard, and every
    # digest recomputed: the count is checked against the examples read
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    manifest = load_manifest(target)
    last = manifest["shards"][-1]
    iq_path, meta_path = target / f"{last['name']}.iq", target / f"{last['name']}.meta.jsonl"
    iq_path.write_bytes(iq_path.read_bytes()[:-8 * 256])
    meta_path.write_bytes(b"".join(meta_path.read_bytes().splitlines(keepends=True)[:-1]))
    redigest(target)
    verify_digests(target)
    results = validated(target, sample=4)
    assert results[1] == CheckResult("class-balance", False, "52 examples, 1 per class expected")
    assert verdicts(results)["digest"] and verdicts(results)["replay"]


def test_validate_fails_digest_on_an_edited_manifest(impaired_dir, tmp_path):
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    manifest = load_manifest(target)
    # a stored key edited and not re-digested
    manifest["shards"][1]["iq_sha256"] = manifest["shards"][0]["iq_sha256"]
    (target / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    with pytest.raises(DigestMismatchError, match="manifest digest mismatch"):
        verify_digests(target)
    assert validated(target) == [CheckResult("digest", False, "manifest digest mismatch")]


def test_manifest_digest_covers_every_other_key(tmp_path):
    manifest = write_shards(small_config(epc=1), tmp_path / "ds")
    on_disk = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["manifest_sha256"] == on_disk["manifest_sha256"] == manifest_digest(on_disk)
    body = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    assert manifest_digest(manifest) == hashlib.sha256(canonical).hexdigest()
    for key in body:
        edited = dict(manifest, **{key: None})
        assert manifest_digest(edited) != manifest["manifest_sha256"], key


def test_load_manifest_refuses_another_format_version(tmp_path):
    write_shards(small_config(epc=1), tmp_path / "ds")
    manifest = load_manifest(tmp_path / "ds")
    for version in (1, FORMAT_VERSION + 1, None):
        manifest["format_version"] = version
        rewrite_manifest(tmp_path / "ds", manifest)
        with pytest.raises(UnsupportedFormatError) as info:
            load_manifest(tmp_path / "ds")
        assert isinstance(info.value, ValueError)
        assert f"format_version {version!r}" in str(info.value)
        assert f"reads {FORMAT_VERSION} only" in str(info.value)
        with pytest.raises(UnsupportedFormatError):
            validate(tmp_path / "ds")


@pytest.mark.parametrize("edit", [
    lambda m: m.pop("config"),
    lambda m: m.pop("shards"),
    lambda m: m.pop("num_examples"),
    lambda m: m["config"].pop("frame_len"),
    lambda m: m["config"].pop("examples_per_class"),
    lambda m: m.update(config=[]),
    lambda m: m.update(shards={}),
    lambda m: m.update(num_examples="53"),
    lambda m: m["config"].update(frame_len=None),
    # a shard table other than the layout of num_examples
    lambda m: m.update(shards=[{}]),
    lambda m: m["shards"].__setitem__(0, 5),
    lambda m: m["shards"][0].update(start_index="0"),
    lambda m: m["shards"][0].update(name="../outside"),
    lambda m: m["shards"][0].update(count=10 ** 9),
    lambda m: m["shards"].pop(),
    lambda m: m["shards"].append(dict(m["shards"][-1], name="shard-00003", start_index=53)),
    lambda m: m["shards"][0].update(iq_sha256=5),
    lambda m: m["shards"][-1].pop("meta_sha256"),
    lambda m: m.update(num_examples=10 ** 18),
    # a config that generate would refuse
    lambda m: m["config"].update(frame_len=0),
    lambda m: m["config"].update(frame_len=True),
    lambda m: m["config"].update(frame_len=MIN_FRAME_LEN // 2),
    lambda m: m["config"].update(variant="bogus"),
    lambda m: m["config"].update(profile={"x": 1}),
    lambda m: m["config"].update(extra=1),
    # keys other than the ones its config gives
    lambda m: m["config"].update(variant="clean-train"),  # a clean variant with a profile
    lambda m: m.update(num_classes=7),
    lambda m: m["per_class_counts"].update({CLASS_LIST[0].name: 2}),
    lambda m: m.update(num_examples=53.0),
    lambda m: m["config"].update(examples_per_class=2),  # 53 examples stored
    lambda m: m.pop("digest_sha256"),
    lambda m: m.update(digest_sha256=5),
    # consistent, but the layout of 53 * 10**18 examples must not be built
    lambda m: (m["config"].update(examples_per_class=10 ** 18),
               m.update(num_examples=53 * 10 ** 18,
                        per_class_counts=dict.fromkeys(m["per_class_counts"], 10 ** 18))),
    # a valid profile, but not the one every impaired config has
    lambda m: m["config"]["profile"].update(resample_prob=0.25),
])
def test_load_manifest_refuses_a_manifest_without_what_readers_use(
        impaired_dir, tmp_path, monkeypatch, capsys, edit):
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    # what a table entry named "../outside" would point a reader at
    for suffix in (".iq", ".meta.jsonl"):
        shutil.copy(target / f"shard-00000{suffix}", tmp_path / f"outside{suffix}")
    manifest = load_manifest(target)
    edit(manifest)
    rewrite_manifest(target, manifest)
    ranges = dataset_module._ranges

    def bounded_ranges(start, count, size):
        assert count <= 10 ** 6, "the layout of a hostile num_examples was built"
        return ranges(start, count, size)
    monkeypatch.setattr(dataset_module, "_ranges", bounded_ranges)
    for reader in (load_manifest, validate, lambda d: read_example(d, 0), lambda d: list(read(d))):
        with pytest.raises(ManifestError, match="lacks"):
            reader(target)
    for argv in (["validate", "--in", str(target)],
                 ["inspect", "--in", str(target), "--index", "0", "--meta"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {target / 'manifest.json'} lacks ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text", ["[]", '"manifest"', "2", "null"])
def test_load_manifest_refuses_json_that_is_not_an_object(tmp_path, text):
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(ManifestError, match="is not a JSON object"):
        load_manifest(tmp_path)


@pytest.fixture
def opened(monkeypatch):
    """A Counter of the files opened during the test, by base name."""
    opened = collections.Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened[os.path.basename(file)] += 1
        return real_open(file, *args, **kwargs)
    # builtins.open is io.open; pathlib's read_bytes calls io.open
    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return opened


def test_validate_and_a_verified_read_read_each_shard_file_once(impaired_dir, opened):
    shard_files = sorted(path.name for path in impaired_dir.glob("shard-*"))
    assert len(shard_files) == 6
    for run in (lambda: validate(impaired_dir, sample=53),
                lambda: list(read(impaired_dir, validate_digest=True))):
        opened.clear()
        run()
        assert {name: opened[name] for name in shard_files} == dict.fromkeys(shard_files, 1)


def test_read_example_opens_only_the_shard_that_holds_the_example(impaired_dir, opened):
    frame, meta = read_example(impaired_dir, 52)
    assert meta["index"] == 52
    assert {name: count for name, count in opened.items() if name.startswith("shard-")} == {
        "shard-00002.iq": 1, "shard-00002.meta.jsonl": 1}
    np.testing.assert_array_equal(frame, list(read(impaired_dir))[52][0])


def test_a_verified_read_yields_only_shards_whose_digests_match(impaired_dir, tmp_path):
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    iq_path = target / "shard-00001.iq"
    blob = bytearray(iq_path.read_bytes())
    blob[7] ^= 0x01
    iq_path.write_bytes(bytes(blob))
    examples = read(target, validate_digest=True)
    assert [meta["index"] for _frame, meta in itertools.islice(examples, 20)] == list(range(20))
    with pytest.raises(DigestMismatchError, match="shard-00001.iq digest mismatch"):
        next(examples)


def test_the_overall_digest_is_checked_after_the_last_shard(impaired_dir, tmp_path):
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    manifest = load_manifest(target)
    manifest["digest_sha256"] = hashlib.sha256(b"other").hexdigest()
    rewrite_manifest(target, manifest)
    with pytest.raises(DigestMismatchError, match="overall digest mismatch"):
        verify_digests(target)
    assert validate(target) == [CheckResult("digest", False, "overall digest mismatch")]
    examples = read(target, validate_digest=True)
    assert len(list(itertools.islice(examples, 53))) == 53
    with pytest.raises(DigestMismatchError, match="overall digest mismatch"):
        next(examples)


def test_validate_stops_at_a_digest_failure(impaired_dir, tmp_path):
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    iq_path = target / "shard-00001.iq"
    blob = bytearray(iq_path.read_bytes())
    blob[7] ^= 0x01
    iq_path.write_bytes(bytes(blob))
    assert validated(target) == [
        CheckResult("digest", False, "shard-00001.iq digest mismatch")]


def test_validate_uses_nothing_of_a_shard_before_its_digests_match(
        impaired_dir, tmp_path, monkeypatch):
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    iq_path = target / "shard-00001.iq"
    blob = bytearray(iq_path.read_bytes())
    blob[8 * 256 * 5 + 3] ^= 0x10
    iq_path.write_bytes(bytes(blob))
    regenerated = []
    example = dataset_module._example

    def counting_example(index, *args):
        regenerated.append(index)
        return example(index, *args)
    monkeypatch.setattr(dataset_module, "_example", counting_example)
    assert validate(target, sample=53) == [
        CheckResult("digest", False, "shard-00001.iq digest mismatch")]
    assert regenerated == list(range(IMPAIRED_SHARD_SIZE))


def test_a_pooled_validate_submits_nothing_of_a_shard_whose_digests_differ(
        impaired_dir, tmp_path, monkeypatch, fresh_pool, started):
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    iq_path = target / "shard-00001.iq"
    blob = bytearray(iq_path.read_bytes())
    blob[8 * 256 * 5 + 3] ^= 0x10
    iq_path.write_bytes(bytes(blob))
    submitted = []
    fork_pool = pool_module.fork_pool

    def recording_fork_pool(workers):
        # what the library submits to the pool once fork_pool has made it
        pool = fork_pool(workers)
        submit = pool.submit

        def recording_submit(fn, /, *args, **kwargs):
            submitted.append((fn.func, (*fn.args, *args)))
            return submit(fn, *args, **kwargs)
        pool.submit = recording_submit
        return pool
    monkeypatch.setattr(pool_module, "fork_pool", recording_fork_pool)
    assert validate(target, sample=53, workers=2) == [
        CheckResult("digest", False, "shard-00001.iq digest mismatch")]
    assert len(started) == 2
    assert {func for func, _args in submitted} == {dataset_module._replay_task}
    assert [len(indices) for _func, (_config, indices) in submitted] == [8, 8, 4]
    assert [i for _func, (_config, indices) in submitted for i in indices] == list(
        range(IMPAIRED_SHARD_SIZE))


@pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
def test_a_validate_that_raises_drops_the_kept_pool(impaired_dir, tmp_path, monkeypatch,
                                                    fresh_pool, started, error):
    # KeyboardInterrupt: this process is interrupted at example 10, with
    # shard 0's replays on the workers. ValueError: shard 1's IQ is a frame
    # short of its meta, every digest recomputed.
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    if error is ValueError:
        iq_path = target / "shard-00001.iq"
        iq_path.write_bytes(iq_path.read_bytes()[:-8 * 256])
        redigest(target)
    shards = dataset_module._shards

    def interrupted(lines):
        yield from lines[:10]
        raise KeyboardInterrupt

    def interrupting_shards(root, *args):
        for lines, held in shards(root, *args):
            yield (interrupted(lines) if root == target else lines), held
    if error is KeyboardInterrupt:
        monkeypatch.setattr(dataset_module, "_shards", interrupting_shards)
    # raised holds validate's frame, so only a terminate, not a collection
    # of the pool, ends its workers
    with pytest.raises(error) as raised:
        validate(target, sample=53, workers=2)
    assert error is KeyboardInterrupt or "shard-00001: " in str(raised.value)
    assert len(started) == 2
    assert pool_module._kept_pool is None
    assert not multiprocessing.active_children()
    assert all(result.ok for result in validate(impaired_dir, sample=53, workers=2))
    assert len(started) == 4  # the next call forked a fresh pool


def test_validate_runs_on_the_pool_write_shards_kept(tmp_path, fresh_pool, started):
    write_shards(small_config("impaired-train", epc=1), tmp_path / "ds", workers=2)
    assert len(started) == 2
    kept = pool_module._kept_pool[1]
    results = validate(tmp_path / "ds", sample=53, workers=2)
    assert len(started) == 2  # validate forked nothing
    assert pool_module._kept_pool[1] is kept
    assert results == validate(tmp_path / "ds", sample=53)
    assert verdicts(results) == {"digest": True, "class-balance": True,
                                 "replay": True, "snr-calibration": True}


@pytest.mark.parametrize("reader", [
    "dataset.verify_digests(root)",
    "assert all(result.ok for result in dataset.validate(root, sample=20))",
    "collections.deque(dataset.read(root), 0)",
])
def test_a_reader_holds_a_block_not_a_shard(tmp_path, reader):
    # one shard of 1060 clean examples at 4096 samples, 33 MiB of IQ: the
    # reader, in a fresh child, raises its peak RSS by under a quarter of
    # that. The child reads its own VmHWM: its ru_maxrss starts from the
    # peak of the process that started it, which exec carries over.
    root = tmp_path / "ds"
    write_shards(DatasetConfig("clean-train", 20, 5), root)
    shard_bytes = (root / "shard-00000.iq").stat().st_size
    assert shard_bytes == 1060 * 8 * 4096
    code = ("import collections, re, sys\n"
            "from sigforge import dataset\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return 1024 * int(re.search(r'VmHWM:\\s*(\\d+) kB', status.read())[1])\n"
            "root = sys.argv[1]\n"
            "before = peak()\n"
            f"{reader}\n"
            "print(peak() - before)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", code, str(root)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    growth = int(result.stdout)
    assert growth < shard_bytes / 4, f"peak RSS grew by {growth / 2 ** 20:.1f} MiB"


def test_validate_without_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        validate(tmp_path)


def test_validate_rejects_a_bad_sample_before_reading(tmp_path):
    with pytest.raises(ValueError, match="sample must be >= 0"):
        validate(tmp_path, -1)
    with pytest.raises(TypeError):
        validate(tmp_path, 1.5)


def _json_paths(value, path=()):
    """The key path of every value nested in a JSON object or array."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    return [sub for key, child in items for sub in [(*path, key), *_json_paths(child, (*path, key))]]


def _replace(value, path, junk):
    for key in path[:-1]:
        value = value[key]
    value[path[-1]] = junk


_junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=5)


@pytest.fixture(scope="module")
def hostile_base(tmp_path_factory):
    """One impaired shard of 53 short examples, for edits to copies of it."""
    root = tmp_path_factory.mktemp("hostile") / "ds"
    write_shards(DatasetConfig("impaired-val", 1, 5, frame_len=MIN_FRAME_LEN), root)
    return root


@settings(max_examples=60, deadline=None)
@given(line=st.integers(0, NUM_CLASSES), choice=st.integers(0, 1 << 16), junk=_junk)
def test_re_digested_junk_draws_only_typed_errors(hostile_base, line, choice, junk):
    # one value of meta line `line`, or of the manifest for line 53, becomes
    # junk, and every digest over it is recomputed, so only checks of the
    # content itself stand between the junk and the readers
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(hostile_base, Path(tmp, "ds"))
        manifest = json.loads((root / "manifest.json").read_text())
        meta_path = root / "shard-00000.meta.jsonl"
        lines = meta_path.read_bytes().splitlines(keepends=True)
        if line < len(lines):
            meta = json.loads(lines[line])
            paths = _json_paths(meta)
            _replace(meta, paths[choice % len(paths)], junk)
            lines[line] = meta_to_line(meta)
            meta_path.write_bytes(b"".join(lines))
            manifest["shards"][0]["meta_sha256"] = hashlib.sha256(b"".join(lines)).hexdigest()
        else:
            paths = _json_paths(manifest)
            _replace(manifest, paths[choice % len(paths)], junk)
        manifest["manifest_sha256"] = manifest_digest(manifest)
        (root / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))

        frames = [frame for frame, _meta in read(hostile_base)]
        stored = [json.loads(raw) for raw in lines]
        typed = (ValueError, OSError, IndexError)
        with contextlib.suppress(*typed):
            load_manifest(root)
        with contextlib.suppress(*typed):
            verify_digests(root)
        with contextlib.suppress(*typed):
            # what a reader returns is what is stored: the IQ, which no edit
            # touched, and the meta lines as edited
            got = list(read(root))
            assert all(np.array_equal(a, b) for a, b in zip([f for f, _m in got], frames))
            assert [m for _f, m in got] == stored and len(got) == len(frames)
        with contextlib.suppress(*typed):
            index = line % len(lines)
            frame, meta = read_example(root, index)
            assert np.array_equal(frame, frames[index]) and meta == stored[index]
        with contextlib.suppress(*typed):
            # every example is sampled, so a pass means the meta is as written
            if all(result.ok for result in validate(root, sample=len(lines))):
                assert b"".join(lines) == (hostile_base / "shard-00000.meta.jsonl").read_bytes()
