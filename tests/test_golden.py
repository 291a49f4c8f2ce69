"""Pinned output bytes: determinism across versions, not just across runs.

Changing any value here changes what users store or receive, which is a
format change: bump ``dataset.FORMAT_VERSION`` alongside it.
"""

import contextlib
import functools
import hashlib
import io

import pytest

from sigforge import cli
from sigforge.dataset import DatasetConfig, write_shards
from sigforge.server import ServerDefaults, build_batch

# sha256 of manifest.json for DatasetConfig(variant, examples_per_class=1,
# dataset_seed=7) at the default frame length. The manifest holds every
# shard's iq and meta digest, so it pins all stored bytes; the overall
# digest_sha256 alone would not (it covers IQ only, so train and val
# share it at equal seeds).
MANIFEST_SHA256 = {
    "clean-train": "747e4e6ae4b9a08661a3456332ec4e6077aa2da10ec5ec18cfad6c5eae390d76",
    "clean-val": "14c74d67db4428206e56e98338543dfdb2128103f3cb213c5a59fdf4426b0f71",
    "impaired-train": "d4cfe10c4d3332401b2f0b8da7cf9096497b642a1e188e93d4e4e3292053cda2",
    "impaired-val": "c9dfe55c88fe95167fc5ac842be8424d7e5eb47fe43a38c17045411179732a43",
}

# The shard digests of the same datasets that format 1 wrote too. Format 2
# changed only the resampler, so only impaired IQ moved: clean shards keep
# both digests, and impaired metadata holds no resampled sample. Train and
# val store the same shards (the variant is in the manifest only).
FORMAT_1_SHARD_SHA256 = {
    "clean-train": {
        "iq": "22dd7c9858167a2cd7d1d55746b4fb0af7d5c3b0780316f476e0022edcdc81de",
        "meta": "f7fb56c6472262e34ebc2922dfa4558a3536ba130635bbe1c455cd6bd01db69f",
    },
    "clean-val": {
        "iq": "22dd7c9858167a2cd7d1d55746b4fb0af7d5c3b0780316f476e0022edcdc81de",
        "meta": "f7fb56c6472262e34ebc2922dfa4558a3536ba130635bbe1c455cd6bd01db69f",
    },
    "impaired-train": {
        "meta": "ec9d1987b930cc8dec96239dced3957f4e0fdde45a8f1c7aa6b50687522ec1fb",
    },
    "impaired-val": {
        "meta": "ec9d1987b930cc8dec96239dced3957f4e0fdde45a8f1c7aa6b50687522ec1fb",
    },
}

# sha256 of `sigforge validate --sample 8` stdout over the same datasets:
# the check names, their order and their details. Train and val print the
# same lines, so they share a value.
VALIDATE_STDOUT_SHA256 = {
    "clean-train": "ba0fe7eeb16e353be2f95c9fef3e8b332361b0e763d9fc2ef255815c66e619f4",
    "clean-val": "ba0fe7eeb16e353be2f95c9fef3e8b332361b0e763d9fc2ef255815c66e619f4",
    "impaired-train": "3d5376fed5c9b1a31715635b770b78b8768172f58d460dd2671ab5f6a3daa468",
    "impaired-val": "3d5376fed5c9b1a31715635b770b78b8768172f58d460dd2671ab5f6a3daa468",
}

BATCH_REQUEST = {"seed": 7, "start_index": 0, "batch_size": 4, "frame_len": 256}
BATCH_SHA256 = "d009faa032179cd6cdcf0c33dee720cb246282c9d747d765a2d41636a72a38db"
BATCH_BYTES = 12518

# A dataset of more than one shard at an odd-sized frame: 78 per class is
# 4134 examples, so shard 0 holds 4096 and shard 1 holds 38, whose last
# 8-frame block is 6 frames. Its manifest pins both shards' digests and the
# overall digest across them.
WIDE_CONFIG = {"examples_per_class": 78, "dataset_seed": 7, "frame_len": 64}
WIDE_MANIFEST_SHA256 = {
    "clean-train": "6d8892bfc9c9800919f5659049ce24d2f774a1b8de5d7f0e0bb62f0702caf16f",
    "impaired-train": "b918b17c70b89803129bc9ff688fc49033308f1de77fe2aad08fe1001ef29a53",
}
# `sigforge validate --sample 8` stdout of the impaired one; its sample
# includes the last example, in shard 1
WIDE_VALIDATE_STDOUT_SHA256 = "b37020c418e8d96b9ce71f4e37a157d1a1e5b18780c6fffb65f25e4901597bb9"

# a batch at an odd frame length, a whole class cycle long, past 2**32
FAR_BATCH_REQUEST = {"seed": 7, "start_index": 2**40, "batch_size": 53, "frame_len": 65}
FAR_BATCH_SHA256 = "502494d3dd5de3636b98b0c197f3018a68e7b4add7b68502e0e6da9cca2be4bb"
FAR_BATCH_BYTES = 78012


@pytest.fixture(scope="module")
def wide_dataset(tmp_path_factory):
    """The directory of a variant's dataset at WIDE_CONFIG, written once
    per module, at 2 workers."""
    @functools.cache
    def written(variant):
        out = tmp_path_factory.mktemp(variant) / "ds"
        write_shards(DatasetConfig(variant, **WIDE_CONFIG), out, workers=2)
        return out
    return written


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("variant", sorted(MANIFEST_SHA256))
def test_manifest_bytes_are_pinned(tmp_path, variant, workers):
    config = DatasetConfig(variant, examples_per_class=1, dataset_seed=7)
    write_shards(config, tmp_path / "ds", workers=workers)
    raw = (tmp_path / "ds" / "manifest.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == MANIFEST_SHA256[variant]


@pytest.mark.parametrize("variant", sorted(FORMAT_1_SHARD_SHA256))
def test_shard_digests_that_format_2_kept(tmp_path, variant):
    config = DatasetConfig(variant, examples_per_class=1, dataset_seed=7)
    [shard] = write_shards(config, tmp_path / "ds")["shards"]
    kept = FORMAT_1_SHARD_SHA256[variant]
    assert {kind: shard[f"{kind}_sha256"] for kind in kept} == kept


@pytest.mark.parametrize("variant", sorted(VALIDATE_STDOUT_SHA256))
def test_validate_stdout_is_pinned(tmp_path, variant):
    config = DatasetConfig(variant, examples_per_class=1, dataset_seed=7)
    write_shards(config, tmp_path / "ds")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["validate", "--in", str(tmp_path / "ds"), "--sample", "8"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == VALIDATE_STDOUT_SHA256[variant]


@pytest.mark.parametrize("variant", sorted(WIDE_MANIFEST_SHA256))
def test_two_shard_manifest_bytes_are_pinned(wide_dataset, variant):
    raw = (wide_dataset(variant) / "manifest.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == WIDE_MANIFEST_SHA256[variant]


def test_two_shard_validate_stdout_is_pinned(wide_dataset):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["validate", "--in", str(wide_dataset("impaired-train")),
                         "--sample", "8"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == WIDE_VALIDATE_STDOUT_SHA256


def test_server_batch_bytes_are_pinned():
    payload = build_batch(dict(BATCH_REQUEST), ServerDefaults())
    assert len(payload) == BATCH_BYTES
    assert hashlib.sha256(payload).hexdigest() == BATCH_SHA256


def test_far_odd_length_batch_bytes_are_pinned():
    payload = build_batch(dict(FAR_BATCH_REQUEST), ServerDefaults())
    assert len(payload) == FAR_BATCH_BYTES
    assert hashlib.sha256(payload).hexdigest() == FAR_BATCH_SHA256
