"""End-user command flows, exercised through main(argv)."""

import errno
import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sigforge.cli import build_parser, main
from sigforge.dataset import FORMAT_VERSION, manifest_digest
from sigforge.server import request_batch


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def clean_ds(tmp_path_factory):
    out = tmp_path_factory.mktemp("clean") / "ds"
    code = run(["generate", "--variant", "clean-train", "--count", "53",
                "--seed", "4", "--out", str(out), "--frame-len", "256"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def impaired_ds(tmp_path_factory):
    out = tmp_path_factory.mktemp("impaired") / "ds"
    code = run(["generate", "--variant", "impaired-val", "--count", "53",
                "--seed", "4", "--out", str(out), "--frame-len", "256"])
    assert code == 0
    return out


def test_generate_prints_digest(tmp_path, capsys):
    out = tmp_path / "ds"
    code = run(["generate", "--variant", "clean-val", "--count", "53",
                "--seed", "1", "--out", str(out), "--frame-len", "128"])
    digest = capsys.readouterr().out.strip()
    assert code == 0
    assert len(digest) == 64 and all(c in "0123456789abcdef" for c in digest)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["digest_sha256"] == digest


def test_generate_unbalanced_count_exits_2(tmp_path, capsys):
    code = run(["generate", "--variant", "clean-val", "--count", "50",
                "--seed", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "divisible" in capsys.readouterr().err


def test_generate_rejects_short_frame_len_before_writing(tmp_path, capsys):
    out = tmp_path / "ds"
    code = run(["generate", "--variant", "impaired-train", "--count", "53",
                "--seed", "1", "--out", str(out), "--frame-len", "7"])
    assert code == 2
    assert "frame_len must be >= 64" in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "ds"
    args = ["generate", "--variant", "clean-val", "--count", "53",
            "--seed", "1", "--out", str(out), "--frame-len", "128"]
    assert run(args) == 0
    assert run(args) == 1
    assert "not empty" in capsys.readouterr().err
    assert run(args + ["--force"]) == 0


def test_generate_default_workers_and_one_worker_agree(tmp_path, capsys):
    base = ["generate", "--variant", "clean-val", "--count", "53",
            "--seed", "6", "--frame-len", "128"]
    assert run(base + ["--out", str(tmp_path / "a"), "--workers", "1"]) == 0
    digest_a = capsys.readouterr().out.strip()
    assert build_parser().parse_args(base + ["--out", "b"]).workers == len(os.sched_getaffinity(0))
    assert run(base + ["--out", str(tmp_path / "b")]) == 0
    digest_b = capsys.readouterr().out.strip()
    assert digest_a == digest_b


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_generate_rejects_workers_below_one(tmp_path, capsys, workers):
    out = tmp_path / "ds"
    code = run(["generate", "--variant", "clean-val", "--count", "53",
                "--seed", "6", "--out", str(out), "--workers", workers])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: workers must be >= 1")
    assert not out.exists()


def test_generate_into_a_regular_file_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "file"
    out.write_text("not a directory")
    code = run(["generate", "--variant", "clean-val", "--count", "53",
                "--seed", "6", "--out", str(out), "--frame-len", "64"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: [Errno 20] Not a directory: '{out}'\n"
    assert out.read_text() == "not a directory"


def test_generate_reports_a_failed_write_as_an_error_line(tmp_path, capsys, monkeypatch):
    def full_disk(fd, data, offset):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "pwrite", full_disk)
    out = tmp_path / "ds"
    code = run(["generate", "--variant", "clean-val", "--count", "53",
                "--seed", "6", "--out", str(out), "--frame-len", "64", "--workers", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert not (out / "manifest.json").exists()


def test_cli_and_server_import_no_scipy():
    """numpy is the only runtime dependency; scipy is a test oracle."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, sigforge.cli, sigforge.server; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"


def test_inspect_meta(clean_ds, capsys):
    code = run(["inspect", "--in", str(clean_ds), "--index", "1", "--meta"])
    assert code == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["class_name"] == "bpsk"
    assert meta["index"] == 1


def test_inspect_psd_and_spectrogram(clean_ds, tmp_path):
    psd_path = tmp_path / "out.csv"
    pgm_path = tmp_path / "out.pgm"
    code = run(["inspect", "--in", str(clean_ds), "--index", "4",
                "--psd", str(psd_path), "--spec", str(pgm_path)])
    assert code == 0
    lines = psd_path.read_text().splitlines()
    assert lines[0] == "frequency_cycles_per_sample,density_db"
    assert len(lines) == 257
    assert pgm_path.read_bytes().startswith(b"P5\n")


def test_inspect_constellation_for_linear_class(impaired_ds, tmp_path):
    csv_path = tmp_path / "points.csv"
    code = run(["inspect", "--in", str(impaired_ds), "--index", "4",
                "--constellation", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "i,q"
    assert len(lines) > 100
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(np.isfinite(values))


def test_inspect_constellation_rejects_fsk(clean_ds, tmp_path, capsys):
    code = run(["inspect", "--in", str(clean_ds), "--index", "25",
                "--constellation", str(tmp_path / "no.csv")])
    assert code == 1
    assert "linear" in capsys.readouterr().err


def test_inspect_bad_index_or_dir(clean_ds, tmp_path, capsys):
    assert run(["inspect", "--in", str(clean_ds), "--index", "999",
                "--meta"]) == 1
    assert run(["inspect", "--in", str(tmp_path / "void"), "--index", "0",
                "--meta"]) == 1


@pytest.mark.parametrize("flag", ["--psd", "--spec", "--constellation"])
def test_inspect_into_a_missing_directory_is_an_error_line(impaired_ds, tmp_path, capsys, flag):
    target = tmp_path / "missing" / "out"
    code = run(["inspect", "--in", str(impaired_ds), "--index", "4", flag, str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_validate_clean_dataset(clean_ds, capsys):
    code = run(["validate", "--in", str(clean_ds), "--sample", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "digest: PASS" in out
    assert "class-balance: PASS" in out
    assert "replay: PASS" in out
    assert "fsk-envelope: PASS" in out


def test_validate_impaired_dataset(impaired_ds, capsys):
    code = run(["validate", "--in", str(impaired_ds), "--sample", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "snr-calibration: PASS" in out


def test_validate_detects_corruption(tmp_path, capsys):
    out = tmp_path / "ds"
    assert run(["generate", "--variant", "clean-val", "--count", "53",
                "--seed", "2", "--out", str(out), "--frame-len", "128"]) == 0
    capsys.readouterr()
    shard = out / "shard-00000.iq"
    blob = bytearray(shard.read_bytes())
    blob[0] ^= 0x01
    shard.write_bytes(bytes(blob))
    assert run(["validate", "--in", str(out)]) == 1
    assert "digest: FAIL" in capsys.readouterr().out


def test_validate_missing_dir(tmp_path, capsys):
    assert run(["validate", "--in", str(tmp_path / "nope")]) == 1


def test_validate_and_inspect_refuse_a_format_1_dataset(tmp_path, capsys):
    out = tmp_path / "ds"
    assert run(["generate", "--variant", "impaired-val", "--count", "53",
                "--seed", "2", "--out", str(out), "--frame-len", "128"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["format_version"] = 1
    manifest["manifest_sha256"] = manifest_digest(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    want = (f"error: {out / 'manifest.json'} has format_version 1; "
            f"this version reads {FORMAT_VERSION} only\n")
    assert run(["validate", "--in", str(out)]) == 2
    assert capsys.readouterr() == ("", want)
    assert run(["inspect", "--in", str(out), "--index", "0", "--meta"]) == 2
    assert capsys.readouterr() == ("", want)


@pytest.mark.parametrize("text", ["[]", '{"format_version": 2}'])
def test_validate_and_inspect_refuse_a_malformed_manifest(tmp_path, capsys, text):
    (tmp_path / "manifest.json").write_text(text)
    for argv in (["validate", "--in", str(tmp_path)],
                 ["inspect", "--in", str(tmp_path), "--index", "0", "--meta"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {tmp_path / 'manifest.json'} ")
        assert captured.err.count("\n") == 1


def test_inspect_of_a_truncated_shard_is_an_error_line(clean_ds, tmp_path, capsys):
    target = tmp_path / "ds"
    shutil.copytree(clean_ds, target)
    os.truncate(target / "shard-00000.iq", 8 * 256 * 40 + 100)
    assert run(["inspect", "--in", str(target), "--index", "40", "--meta"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: [Errno {errno.EIO}] read 100 of 2048 IQ bytes "
                            f"at offset {8 * 256 * 40}\n")


def test_validate_rejects_negative_sample(clean_ds, capsys):
    assert run(["validate", "--in", str(clean_ds), "--sample", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sample must be >= 0, got -1\n"
    assert captured.out == ""


def test_parser_covers_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["serve", "--port", "9000"])
    assert args.host == "127.0.0.1"
    assert args.port == 9000
    assert args.variant == "impaired-train"
    assert args.batch_size == 32
    with pytest.raises(SystemExit):
        parser.parse_args(["generate", "--variant", "noisy", "--count", "53",
                           "--seed", "0", "--out", "x"])
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_serve_rejects_bad_defaults_before_listening(capsys):
    assert run(["serve", "--port", "0", "--frame-len", "32"]) == 2
    captured = capsys.readouterr()
    assert "frame_len" in captured.err
    assert "serving on" not in captured.out


def test_serve_on_a_port_in_use_is_an_error_line():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        result = subprocess.run(
            [sys.executable, "-m", "sigforge.cli", "serve", "--port", str(port)],
            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Address already in use" in result.stderr
    assert "serving on" not in result.stdout


def test_serve_on_port_0_announces_the_port_it_bound():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-m", "sigforge.cli", "serve", "--port", "0"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "no announcement within 60 s"
        line = proc.stdout.readline()
        assert line.startswith("serving on 127.0.0.1:"), line
        header, iq, _meta = request_batch("127.0.0.1", int(line.rsplit(":", 1)[1]),
                                          batch_size=1, frame_len=64)
        assert header["count"] == 1 and len(iq) == 8 * 64
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
