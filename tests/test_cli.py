"""End-user command flows, exercised through main(argv)."""

import dataclasses
import errno
import hashlib
import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import child_pids
from sigforge import cli as cli_module
from sigforge.cli import build_parser, main
from sigforge.dataset import FORMAT_VERSION, manifest_digest
from sigforge.server import ServerDefaults, request_batch


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


@pytest.mark.parametrize("count", ["50", "0", "-53"])
def test_generate_unbalanced_count_exits_2(tmp_path, capsys, count):
    code = run(["generate", "--variant", "clean-val", "--count", count,
                "--seed", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    # names the flag the user typed, not the config field it becomes
    assert err.startswith("error: --count must be a positive number divisible by 53")
    assert err.endswith(f"got {count}\n")
    assert not (tmp_path / "x").exists()


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


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_ctrl_c_stops_generate_and_every_pool_worker_quietly(tmp_path):
    out = tmp_path / "ds"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    # 78 per class: a first shard of 4096 examples, seconds of work
    proc = subprocess.Popen(
        [sys.executable, "-m", "sigforge.cli", "generate", "--variant", "clean-train",
         "--count", str(53 * 78), "--seed", "0", "--out", str(out), "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    partial = out / "shard-00000.iq.tmp"
    try:
        deadline = time.monotonic() + 60
        # once the workers have written IQ, so the pool is up
        while not (partial.exists() and partial.stat().st_size):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        workers = child_pids(proc.pid)
        assert len(workers) == 2
        os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C signals the terminal's group
        _out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode != 0
    assert "ForkProcess" not in err, err  # no worker traceback
    assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]
    assert not [path.name for path in out.iterdir() if not path.name.endswith(".tmp")]


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
    for index in ("-1", "53", "999"):
        assert run(["inspect", "--in", str(clean_ds), "--index", index, "--meta"]) == 1
        captured = capsys.readouterr()
        assert captured == ("", f"error: example index {index} out of range (dataset has 53)\n")
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


@pytest.mark.parametrize("line", [b"{}\n", b"[]\n"])
def test_validate_reports_a_meta_line_without_fields_as_failures(impaired_ds, tmp_path, capsys, line):
    # example 5's meta line replaced and every digest recomputed
    target = tmp_path / "ds"
    shutil.copytree(impaired_ds, target)
    meta_path = target / "shard-00000.meta.jsonl"
    lines = meta_path.read_bytes().splitlines(keepends=True)
    lines[5] = line
    meta_path.write_bytes(b"".join(lines))
    manifest = json.loads((target / "manifest.json").read_text())
    manifest["shards"][0]["meta_sha256"] = hashlib.sha256(meta_path.read_bytes()).hexdigest()
    manifest["manifest_sha256"] = manifest_digest(manifest)
    (target / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert run(["validate", "--in", str(target), "--sample", "53"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[:3] == ["digest: PASS",
                         "class-balance: FAIL  (53 examples, 1 per class expected)",
                         "replay: FAIL  (53 sampled; first differing: 5)"]
    assert len(lines) == 4 and lines[3].startswith("snr-calibration: PASS  (53 sampled, ")


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


def test_inspect_never_asks_for_more_iq_than_the_shard_holds(clean_ds, tmp_path, capsys):
    # a valid config, whose one frame would take 8 * 10**18 bytes to read
    target = tmp_path / "ds"
    shutil.copytree(clean_ds, target)
    manifest = json.loads((target / "manifest.json").read_text())
    manifest["config"]["frame_len"] = 10 ** 18
    manifest["manifest_sha256"] = manifest_digest(manifest)
    (target / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    for index, got in ((0, 8 * 256 * 53), (2, 0)):
        assert run(["inspect", "--in", str(target), "--index", str(index), "--meta"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: [Errno {errno.EIO}] read {got} of {8 * 10 ** 18} "
                                f"IQ bytes at offset {index * 8 * 10 ** 18}\n")


@pytest.mark.parametrize("partial", [False, True])
def test_inspect_of_a_truncated_meta_file_is_an_error_line(clean_ds, tmp_path, capsys, partial):
    # the file ends after line 40, or halfway through line 41, index 40's
    target = tmp_path / "ds"
    shutil.copytree(clean_ds, target)
    meta_path = target / "shard-00000.meta.jsonl"
    lines = meta_path.read_bytes().splitlines(keepends=True)
    meta_path.write_bytes(b"".join(lines[:40]) + (lines[40][:50] if partial else b""))
    assert run(["inspect", "--in", str(target), "--index", "40", "--meta"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: [Errno {errno.EIO}] shard-00000.meta.jsonl ends before "
                            f"the end of line 41\n")


def test_validate_rejects_negative_sample(clean_ds, capsys):
    assert run(["validate", "--in", str(clean_ds), "--sample", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sample must be >= 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_validate_rejects_workers_below_one_before_reading(tmp_path, capsys, workers):
    # a missing directory would exit 1 had validate read anything
    assert run(["validate", "--in", str(tmp_path / "nope"), "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: workers must be >= 1, got {workers}\n"
    assert captured.out == ""


def test_validate_defaults_to_one_worker_per_usable_cpu():
    args = build_parser().parse_args(["validate", "--in", "ds"])
    assert args.workers == len(os.sched_getaffinity(0))


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


def test_serve_flags_default_to_server_defaults(monkeypatch):
    args = build_parser().parse_args(["serve", "--port", "0"])
    assert ServerDefaults(variant=args.variant, seed=args.seed, frame_len=args.frame_len,
                          batch_size=args.batch_size) == ServerDefaults()

    @dataclasses.dataclass(frozen=True)
    class OtherDefaults:  # the flags follow ServerDefaults, not a copy of its values
        variant: str = "clean-val"
        seed: int = 5
        frame_len: int = 128
        batch_size: int = 7

    monkeypatch.setattr(cli_module, "ServerDefaults", OtherDefaults)
    args = build_parser().parse_args(["serve", "--port", "0"])
    assert (args.variant, args.seed, args.frame_len, args.batch_size) == ("clean-val", 5, 128, 7)


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


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_on_a_port_out_of_range_is_an_error_line(port):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-m", "sigforge.cli", "serve", "--port", port],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr == f"error: port must be [0, 65535], got {port}\n"
    assert result.stdout == ""


def test_serve_on_port_0_announces_the_port_it_bound():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with subprocess.Popen([sys.executable, "-m", "sigforge.cli", "serve", "--port", "0"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
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
