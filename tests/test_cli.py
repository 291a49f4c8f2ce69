"""End-user command flows, exercised through main(argv)."""

import json

import numpy as np
import pytest

from sigforge.cli import _default_workers, build_parser, main


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


def test_generate_worker_flag_and_env_agree(tmp_path, capsys, monkeypatch):
    base = ["generate", "--variant", "clean-val", "--count", "53",
            "--seed", "6", "--frame-len", "128"]
    assert run(base + ["--out", str(tmp_path / "a"), "--workers", "1"]) == 0
    digest_a = capsys.readouterr().out.strip()
    monkeypatch.setenv("SIGFORGE_WORKERS", "3")
    assert run(base + ["--out", str(tmp_path / "b")]) == 0
    digest_b = capsys.readouterr().out.strip()
    assert digest_a == digest_b


def test_workers_env_validation(monkeypatch):
    monkeypatch.setenv("SIGFORGE_WORKERS", "two")
    with pytest.raises(SystemExit):
        _default_workers()
    monkeypatch.setenv("SIGFORGE_WORKERS", "4")
    assert _default_workers() == 4
    monkeypatch.delenv("SIGFORGE_WORKERS")
    assert _default_workers() == 1


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
