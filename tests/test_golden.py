"""Pinned output bytes: determinism across versions, not just across runs.

Changing any value here changes what users store or receive, which is a
format change: bump ``dataset.FORMAT_VERSION`` alongside it.
"""

import contextlib
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
    "clean-train": "ede2eaadc91f03aa90633efdcf8327dd7931a0eaa6d76d378bfd9ddce5e69f65",
    "clean-val": "c6cb826b0d2733963b640eb9e65573c5be9aa03b241b941a21ba7fd0769dc410",
    "impaired-train": "90f8acdf264e8a8b9b8bf597c49a8b09bcdaca02f411f65ebf5e532eef4c53a9",
    "impaired-val": "a72d3c5ef64f0be65e8cb6cc60e722cf7dfb45db89d4cc99cefa72e67a3c7048",
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
BATCH_SHA256 = "435df01044d640a8128a99c8322df7d10ec8b17e964876a96ab17edb7af24bfd"
BATCH_BYTES = 12518


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("variant", sorted(MANIFEST_SHA256))
def test_manifest_bytes_are_pinned(tmp_path, variant, workers):
    config = DatasetConfig(variant, examples_per_class=1, dataset_seed=7)
    write_shards(config, tmp_path / "ds", workers=workers)
    raw = (tmp_path / "ds" / "manifest.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == MANIFEST_SHA256[variant]


@pytest.mark.parametrize("variant", sorted(VALIDATE_STDOUT_SHA256))
def test_validate_stdout_is_pinned(tmp_path, variant):
    config = DatasetConfig(variant, examples_per_class=1, dataset_seed=7)
    write_shards(config, tmp_path / "ds")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["validate", "--in", str(tmp_path / "ds"), "--sample", "8"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == VALIDATE_STDOUT_SHA256[variant]


def test_server_batch_bytes_are_pinned():
    payload = build_batch(dict(BATCH_REQUEST), ServerDefaults())
    assert len(payload) == BATCH_BYTES
    assert hashlib.sha256(payload).hexdigest() == BATCH_SHA256
