"""Shard writing, manifests, digests, and replay-from-metadata."""

import builtins
import collections
import errno
import hashlib
import io
import itertools
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigforge import dataset as dataset_module
from sigforge.dataset import (
    DEFAULT_SHARD_SIZE,
    FORMAT_VERSION,
    MIN_FRAME_LEN,
    REFERENCE_TOTALS,
    VARIANTS,
    CheckResult,
    DatasetConfig,
    DigestMismatchError,
    ManifestError,
    UnsupportedFormatError,
    bytes_to_frames,
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
from sigforge.impairments import DEFAULT_PROFILE, NO_IMPAIRMENT_PROFILE, ImpairmentProfile
from sigforge.registry import CLASS_LIST, NUM_CLASSES
from sigforge.rng import derive_stream


def small_config(variant="clean-train", epc=2, seed=3, frame_len=256):
    return DatasetConfig(variant=variant, examples_per_class=epc,
                         dataset_seed=seed, frame_len=frame_len)


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
       frame_len=_anything | st.integers(MIN_FRAME_LEN - 2, MIN_FRAME_LEN + 2),
       profile=_anything | st.just(NO_IMPAIRMENT_PROFILE))
def test_config_constructs_or_raises_type_or_value_error(
        variant, examples_per_class, dataset_seed, frame_len, profile):
    try:
        config = DatasetConfig(variant=variant, examples_per_class=examples_per_class,
                               dataset_seed=dataset_seed, frame_len=frame_len,
                               profile=profile)
    except (TypeError, ValueError):
        return
    assert config.variant in VARIANTS
    for value in (config.examples_per_class, config.dataset_seed, config.frame_len):
        assert type(value) is int
    assert config.examples_per_class >= 1 and config.frame_len >= MIN_FRAME_LEN
    assert isinstance(config.profile, ImpairmentProfile)
    assert config.total_examples == config.examples_per_class * NUM_CLASSES


def test_a_bad_profile_fails_at_construction():
    # before, both constructed and failed only at the first impaired example
    with pytest.raises(TypeError, match="phase_shift_prob"):
        DatasetConfig("impaired-train", 1, 0, 64, ImpairmentProfile(phase_shift_prob="x"))
    with pytest.raises(ValueError, match="resample_range"):
        ImpairmentProfile(resample_prob=1.0, resample_range=(0.0, 0.0))
    # a time shift must leave part of the frame
    with pytest.raises(ValueError, match="time_shift_max"):
        DatasetConfig("impaired-val", 1, 0, 64, ImpairmentProfile(time_shift_max=64))
    shifted = ImpairmentProfile(time_shift_prob=1.0, time_shift_max=63)
    config = DatasetConfig("impaired-val", 1, 0, 64, shifted)
    iq, _meta = generate_range(config, 0, 4)
    assert len(iq) == 4 * 64 * 8


def test_reference_totals_documented():
    # published-scale counts; the round 1M figure is not 53-divisible,
    # desk-scale generation balances exactly instead
    assert REFERENCE_TOTALS == {
        "clean-train": 1_000_000,
        "clean-val": 106_000,
        "impaired-train": 5_300_000,
        "impaired-val": 106_000,
    }
    assert set(REFERENCE_TOTALS) == set(VARIANTS)
    assert REFERENCE_TOTALS["impaired-val"] % NUM_CLASSES == 0


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
    parts = list(iter_range(config, 50, 13))  # crosses the class wrap at 53
    assert [len(iq) // (MIN_FRAME_LEN * 8) for iq, _meta in parts] == [8, 5]
    iq, meta = generate_range(config, 50, 13)
    assert b"".join(p[0] for p in parts) == iq
    assert b"".join(p[1] for p in parts) == meta
    assert list(iter_range(config, 7, 0)) == []


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


def test_write_read_round_trip(tmp_path):
    config = small_config(epc=2)
    manifest = write_shards(config, tmp_path / "ds", shard_size=40)
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


def test_write_refuses_nonempty_dir_without_force(tmp_path):
    config = small_config(epc=1)
    target = tmp_path / "ds"
    write_shards(config, target)
    with pytest.raises(FileExistsError):
        write_shards(config, target)
    manifest = write_shards(config, target, force=True)
    verify_digests(target, manifest)


def test_worker_count_does_not_change_bytes(tmp_path):
    # a shard size that is not a multiple of the pool task size makes
    # tasks end at shard boundaries
    config = small_config("impaired-train", epc=1, frame_len=128)
    m1 = write_shards(config, tmp_path / "w1", workers=1, shard_size=20)
    m4 = write_shards(config, tmp_path / "w4", workers=4, shard_size=20)
    assert m1["digest_sha256"] == m4["digest_sha256"]
    assert m1["shards"] == m4["shards"]
    assert [e["count"] for e in m4["shards"]] == [20, 20, 13]
    names = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "w4").iterdir())
    for name in names:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()


def test_force_rewrite_removes_stale_shards(tmp_path):
    target = tmp_path / "ds"
    write_shards(small_config(epc=2), target, shard_size=20)
    (target / "notes.txt").write_text("kept")
    manifest = write_shards(small_config(epc=1), target, force=True, shard_size=20)
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


def test_read_example_random_access(tmp_path):
    config = small_config(epc=2)
    write_shards(config, tmp_path / "ds", shard_size=30)
    everything = list(read(tmp_path / "ds"))
    for index in (0, 29, 30, 75, 105):
        frame, meta = read_example(tmp_path / "ds", index)
        np.testing.assert_array_equal(frame, everything[index][0])
        assert meta == everything[index][1]
    with pytest.raises(IndexError):
        read_example(tmp_path / "ds", 106)


def test_stored_replay_matches_float32_bytes(tmp_path):
    """Full loop: write impaired shards, read them back, regenerate each
    frame from metadata, compare at the stored float32 resolution."""
    config = small_config("impaired-train", epc=1, frame_len=128)
    write_shards(config, tmp_path / "ds")
    for frame, meta in read(tmp_path / "ds"):
        again = replay_example(meta, 128).astype(np.complex64)
        np.testing.assert_array_equal(frame, again)


def test_write_shards_rejects_bad_shard_size(tmp_path):
    with pytest.raises(ValueError):
        write_shards(small_config(epc=1), tmp_path / "ds", shard_size=0)


@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupted_write_leaves_no_manifest_and_no_incomplete_shard(
        tmp_path, monkeypatch, workers):
    config = small_config(epc=1, frame_len=MIN_FRAME_LEN)
    whole = write_shards(config, tmp_path / "whole", shard_size=20)
    generate = dataset_module.generate_example

    def fail_in_second_shard(index, *args):
        if index == 30:  # the second task of shard 1 (examples 20..39)
            raise RuntimeError("generation failed")
        return generate(index, *args)

    monkeypatch.setattr(dataset_module, "generate_example", fail_in_second_shard)
    target = tmp_path / "ds"
    with pytest.raises(RuntimeError, match="generation failed"):
        write_shards(config, target, workers=workers, shard_size=20)
    assert sorted(p.name for p in target.iterdir()) == [
        "shard-00000.iq", "shard-00000.meta.jsonl",
        "shard-00001.iq.tmp", "shard-00001.meta.jsonl.tmp"]
    for name in ("shard-00000.iq", "shard-00000.meta.jsonl"):
        assert (target / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    monkeypatch.undo()
    assert write_shards(config, target, workers=workers, force=True, shard_size=20) == whole
    assert (sorted(p.name for p in target.iterdir())
            == sorted(p.name for p in (tmp_path / "whole").iterdir()))


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
def test_a_failed_iq_write_fails_the_run(tmp_path, monkeypatch, workers):
    def full_disk(fd, data, offset):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "pwrite", full_disk)
    target = tmp_path / "ds"
    with pytest.raises(OSError) as raised:
        write_shards(small_config(epc=1), target, workers=workers)
    assert raised.value.errno == errno.ENOSPC
    assert not (target / "manifest.json").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_iq_that_never_reached_the_file_is_not_hashed(tmp_path, monkeypatch, workers):
    # a write that claims success without writing leaves the shard short
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: len(data))
    target = tmp_path / "ds"
    with pytest.raises(OSError) as raised:
        write_shards(small_config(epc=1), target, workers=workers)
    assert raised.value.errno == errno.EIO
    assert not (target / "manifest.json").exists()


def test_short_iq_writes_are_completed(tmp_path, monkeypatch):
    config = small_config("impaired-val", epc=1)
    want = write_shards(config, tmp_path / "want", shard_size=20)
    pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(fd, data[:1000], offset))
    for workers in (1, 2):
        assert write_shards(config, tmp_path / f"w{workers}", workers=workers,
                            shard_size=20) == want


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


@pytest.fixture(scope="module")
def impaired_dir(tmp_path_factory):
    """53 impaired examples, every one replayed by validate(sample=53)."""
    target = tmp_path_factory.mktemp("impaired") / "ds"
    write_shards(small_config("impaired-train", epc=1), target, shard_size=20)
    return target


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


def verdicts(results):
    return {r.name: r.ok for r in results}


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
    got = verdicts(validate(target, sample=53))
    assert got["digest"] and got["class-balance"]
    assert not got["replay"]


def test_validate_fails_snr_on_a_shifted_target(impaired_dir, tmp_path):
    # the AWGN step replays from its own esn0_db, so the frame still
    # replays while the measured Es/N0 is 1 dB off the recorded target
    index = next(meta["index"] for _frame, meta in read(impaired_dir)
                 if any(s["kind"] == "awgn" for s in meta["record"]["steps"]))

    def change(meta):
        meta["record"]["target_esn0_db"] += 1.0
    target = tampered_copy(impaired_dir, tmp_path / "ds", index, change)
    got = verdicts(validate(target, sample=53))
    assert got == {"digest": True, "class-balance": True,
                   "replay": True, "snr-calibration": False}


def test_validate_fails_balance_on_a_wrong_count(impaired_dir, tmp_path):
    # past a re-digested manifest, the count is still checked against the
    # examples actually read
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    manifest = load_manifest(target)
    manifest["config"]["examples_per_class"] = 2
    rewrite_manifest(target, manifest)
    results = validate(target, sample=4)
    assert results[1] == CheckResult("class-balance", False,
                                     "53 examples, 2 per class expected")
    assert verdicts(results)["replay"]


def test_validate_fails_digest_on_an_edited_manifest(impaired_dir, tmp_path):
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    manifest = load_manifest(target)
    manifest["config"]["profile"]["resample_prob"] = 0.25
    (target / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    with pytest.raises(DigestMismatchError, match="manifest digest mismatch"):
        verify_digests(target)
    assert validate(target) == [CheckResult("digest", False, "manifest digest mismatch")]


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
])
def test_load_manifest_refuses_a_manifest_without_what_readers_use(impaired_dir, tmp_path, edit):
    target = tmp_path / "ds"
    shutil.copytree(impaired_dir, target)
    manifest = load_manifest(target)
    edit(manifest)
    rewrite_manifest(target, manifest)
    for reader in (load_manifest, validate, lambda d: read_example(d, 0), lambda d: list(read(d))):
        with pytest.raises(ManifestError, match="lacks"):
            reader(target)


@pytest.mark.parametrize("text", ["[]", '"manifest"', "2", "null"])
def test_load_manifest_refuses_json_that_is_not_an_object(tmp_path, text):
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(ManifestError, match="is not a JSON object"):
        load_manifest(tmp_path)


def test_validate_and_a_verified_read_read_each_shard_file_once(impaired_dir, monkeypatch):
    opened = collections.Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened[os.path.basename(file)] += 1
        return real_open(file, *args, **kwargs)
    # builtins.open is io.open; pathlib's read_bytes calls io.open
    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    shard_files = sorted(path.name for path in impaired_dir.glob("shard-*"))
    assert len(shard_files) == 6
    for run in (lambda: validate(impaired_dir, sample=53),
                lambda: list(read(impaired_dir, validate_digest=True))):
        opened.clear()
        run()
        assert {name: opened[name] for name in shard_files} == dict.fromkeys(shard_files, 1)


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
    assert validate(target) == [
        CheckResult("digest", False, "shard-00001.iq digest mismatch")]


def test_validate_without_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        validate(tmp_path)


def test_validate_rejects_a_bad_sample_before_reading(tmp_path):
    with pytest.raises(ValueError, match="sample must be >= 0"):
        validate(tmp_path, -1)
    with pytest.raises(TypeError):
        validate(tmp_path, 1.5)
