"""Top-level acceptance checks, one per shipping criterion.

Each test prints a single PASS/FAIL line through record_criterion (also
echoed in the terminal summary). Tolerances are pinned as constants next
to each criterion rather than buried in assertions.
"""

import json
import threading
import time
from pathlib import Path

import numpy as np
import scipy.stats
from test_filters import gaussian_reference, rrc_reference

import pytest

from conftest import record_criterion
from sigforge import dataset as ds
from sigforge.augmentations import (
    amplitude_reversal,
    channel_swap,
    patch_shuffle,
    spectral_inversion,
    time_reversal,
)
from sigforge.clean import gen_clean
from sigforge.cli import main as cli_main
from sigforge.filters import gaussian_taps, rrc_taps
from sigforge.fsk import fsk_spec, gen_fsk
from sigforge.impairments import (
    DEFAULT_PROFILE,
    add_awgn,
    apply_impairment_chain,
    freq_shift,
    random_resample,
)
from sigforge.linear import gen_linear_mod, matched_filter_demod, num_symbols
from sigforge.measurement import (
    envelope_constancy,
    esn0_from_ebn0,
    measure_esn0,
    welch_psd,
)
from sigforge.ofdm import OfdmSpec, gen_ofdm, ofdm_symbol_stream
from sigforge.registry import CLASS_LIST, NUM_CLASSES, SignalDescriptor
from sigforge.rng import derive_stream
from sigforge.server import BatchServer, request_batch

# --- pinned tolerances -------------------------------------------------------

GENERATE_TIME_LIMIT_S = 120.0      # criterion 1
SNR_TOLERANCE_DB = 0.2             # criterion 3
KS_P_FLOOR = 0.01                  # criterion 3
GATE_RATE_TOLERANCE = 0.02         # criterion 4, absolute
FSK_ENVELOPE_TOLERANCE = 1e-9      # criterion 5
OFDM_RECOVERY_TOLERANCE = 1e-6     # criterion 5
PSD_PEAK_BIN_TOLERANCE = 1         # criteria 5 and 8
NOISE_FLOOR_GAP_DB = 10.0          # criterion 7
NOISE_FLOOR_TOLERANCE_DB = 1.0     # criterion 7
FILTER_ORACLE_TOLERANCE = 1e-12    # criterion 8
SERVER_MIN_FRAMES_PER_S = 100.0    # criterion 9

# The frozen 53-row class table, typed out by hand as an independent
# fixture: index -> (name, family), lowercase naming convention.
EXPECTED_CLASSES = {
    0: ("ook", "pam"), 1: ("bpsk", "psk"), 2: ("4pam", "pam"),
    3: ("4ask", "ask"), 4: ("qpsk", "psk"), 5: ("8pam", "pam"),
    6: ("8ask", "ask"), 7: ("8psk", "psk"), 8: ("16qam", "qam"),
    9: ("16pam", "pam"), 10: ("16ask", "ask"), 11: ("16psk", "psk"),
    12: ("32qam", "qam"), 13: ("32qam_cross", "qam"), 14: ("32pam", "pam"),
    15: ("32ask", "ask"), 16: ("32psk", "psk"), 17: ("64qam", "qam"),
    18: ("64pam", "pam"), 19: ("64ask", "ask"), 20: ("64psk", "psk"),
    21: ("128qam_cross", "qam"), 22: ("256qam", "qam"),
    23: ("512qam_cross", "qam"), 24: ("1024qam", "qam"),
    25: ("2fsk", "fsk"), 26: ("2gfsk", "fsk"), 27: ("2msk", "fsk"),
    28: ("2gmsk", "fsk"), 29: ("4fsk", "fsk"), 30: ("4gfsk", "fsk"),
    31: ("4msk", "fsk"), 32: ("4gmsk", "fsk"), 33: ("8fsk", "fsk"),
    34: ("8gfsk", "fsk"), 35: ("8msk", "fsk"), 36: ("8gmsk", "fsk"),
    37: ("16fsk", "fsk"), 38: ("16gfsk", "fsk"), 39: ("16msk", "fsk"),
    40: ("16gmsk", "fsk"),
    41: ("ofdm-64", "ofdm"), 42: ("ofdm-72", "ofdm"), 43: ("ofdm-128", "ofdm"),
    44: ("ofdm-180", "ofdm"), 45: ("ofdm-256", "ofdm"), 46: ("ofdm-300", "ofdm"),
    47: ("ofdm-512", "ofdm"), 48: ("ofdm-600", "ofdm"), 49: ("ofdm-900", "ofdm"),
    50: ("ofdm-1024", "ofdm"), 51: ("ofdm-1200", "ofdm"), 52: ("ofdm-2048", "ofdm"),
}


def generate_cli(out: Path, workers: int) -> tuple[float, float]:
    start = time.perf_counter()
    code = cli_main([
        "generate", "--variant", "impaired-train", "--count", "1060",
        "--seed", "7", "--out", str(out), "--workers", str(workers),
    ])
    elapsed = time.perf_counter() - start
    assert code == 0
    return elapsed, code


def dataset_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture(scope="module")
def ds1060(tmp_path_factory):
    """The criterion-1 reference dataset: impaired, 1060 examples, seed 7."""
    out = tmp_path_factory.mktemp("accept") / "run-a"
    elapsed, _ = generate_cli(out, workers=1)
    return out, elapsed


def test_criterion_1_determinism(ds1060, tmp_path):
    ref_dir, t_a = ds1060
    t_b, _ = generate_cli(tmp_path / "run-b", workers=1)
    t_c, _ = generate_cli(tmp_path / "run-c", workers=8)
    ref = dataset_bytes(ref_dir)
    rerun = dataset_bytes(tmp_path / "run-b")
    parallel = dataset_bytes(tmp_path / "run-c")
    identical = ref == rerun == parallel
    slowest = max(t_a, t_b, t_c)
    record_criterion(
        "1-determinism",
        identical and slowest < GENERATE_TIME_LIMIT_S,
        f"3 runs byte-identical={identical}, slowest {slowest:.1f}s "
        f"(limit {GENERATE_TIME_LIMIT_S:.0f}s)")


def test_criterion_2_class_conformance(ds1060):
    ref_dir, _ = ds1060
    assert len(EXPECTED_CLASSES) == 53
    table_ok = all(
        (CLASS_LIST[i].name, CLASS_LIST[i].family) == EXPECTED_CLASSES[i]
        for i in range(53))
    counts = dict.fromkeys(range(53), 0)
    meta_ok = True
    for _frame, meta in ds.read(ref_dir):
        counts[meta["class_index"]] += 1
        want_name, want_family = EXPECTED_CLASSES[meta["class_index"]]
        if meta["class_name"] != want_name or meta["family"] != want_family:
            meta_ok = False
    balanced = all(counts[i] == 20 for i in range(53))
    record_criterion(
        "2-class-conformance",
        table_ok and meta_ok and balanced,
        f"registry matches 53-row table={table_ok}, metadata={meta_ok}, "
        f"20 per class={balanced}")


def test_criterion_3_snr_calibration(ds1060):
    # each example regenerated from (dataset_seed, index) through the
    # hand-off validate uses, which gives the frame as it entered AWGN
    ref_dir, _ = ds1060
    config = ds.config_from_echo(ds.load_manifest(ref_dir)["config"])
    targets = []
    worst = 0.0
    for index in range(530):
        impaired, meta, signal = ds._example(
            index, index % NUM_CLASSES, derive_stream(config.dataset_seed, index), config)
        measured = measure_esn0(signal, impaired - signal, meta["samples_per_symbol"])
        worst = max(worst, abs(measured - meta["snr_db"]))
        targets.append(meta["snr_db"])
    ks = scipy.stats.kstest(targets, scipy.stats.uniform(loc=-2.0, scale=32.0).cdf)
    record_criterion(
        "3-snr-calibration",
        worst <= SNR_TOLERANCE_DB and ks.pvalue > KS_P_FLOOR,
        f"530 examples, worst |error| {worst:.4f} dB (tol {SNR_TOLERANCE_DB}), "
        f"KS p={ks.pvalue:.3f} (floor {KS_P_FLOOR})")


def test_criterion_4_gate_rates():
    expected = {
        "phase_shift": 0.9, "time_shift": 0.9, "freq_shift": 0.7,
        "rayleigh": 0.5, "iq_imbalance": 0.9, "resample": 0.5,
    }
    trials = 10_000
    counts = dict.fromkeys(expected, 0)
    frame = np.exp(2j * np.pi * 0.05 * np.arange(64))  # unit power
    descriptor = SignalDescriptor(4, "qpsk", "psk", 2.0)
    for i in range(trials):
        _impaired, _pre_noise, record = apply_impairment_chain(
            frame, descriptor, DEFAULT_PROFILE, derive_stream(0xACCE97, i))
        for step in record.steps:
            if step.kind in counts:
                counts[step.kind] += 1
    errors = {k: abs(counts[k] / trials - expected[k]) for k in expected}
    worst_kind = max(errors, key=errors.get)
    record_criterion(
        "4-gate-rates",
        all(e <= GATE_RATE_TOLERANCE for e in errors.values()),
        f"{trials} chains, worst {worst_kind} off by "
        f"{errors[worst_kind]:.4f} (tol {GATE_RATE_TOLERANCE})")


def test_criterion_5_modulation_correctness():
    # 25 linear classes: blind matched-filter demodulation, zero errors
    linear_ok = True
    for cls in CLASS_LIST[:25]:
        rng = derive_stream(0x5A11, cls.index)
        tx = rng.clone()
        frame, _ = gen_linear_mod(cls.index, rng, alpha=0.35)
        sent = tx.integers(0, cls.order, num_symbols())
        positions, decided = matched_filter_demod(frame, cls.index, alpha=0.35)
        if not np.array_equal(decided, sent[positions]):
            linear_ok = False

    # 16 frequency classes: constant envelope
    worst_env = 0.0
    for cls in CLASS_LIST[25:41]:
        frame, _ = gen_fsk(fsk_spec(cls), derive_stream(0x5A12, cls.index))
        worst_env = max(worst_env, envelope_constancy(frame))
    envelope_ok = worst_env <= FSK_ENVELOPE_TOLERANCE

    # 12 multicarrier classes: CP equality and subcarrier recovery on the
    # treatment-free path
    ofdm_ok = True
    worst_rec = 0.0
    for cls in CLASS_LIST[41:]:
        spec = OfdmSpec(num_subcarriers=cls.num_subcarriers, cp_fraction=0.25,
                        per_subcarrier_random=True, dc_present=True,
                        edge_treatment="none")
        stream, payload = ofdm_symbol_stream(spec, derive_stream(0x5A13, cls.index))
        n, dft, cp = spec.num_subcarriers, spec.dft_size, spec.cp_len
        for s in range(payload.shape[1]):
            sym = stream[s * spec.symbol_len:(s + 1) * spec.symbol_len]
            if not np.array_equal(sym[:cp], sym[-cp:]):
                ofdm_ok = False
            spectrum = np.fft.fftshift(np.fft.fft(sym[cp:]))
            got = spectrum[dft // 2 - n // 2: dft // 2 + n // 2]
            worst_rec = max(worst_rec, float(np.max(np.abs(got - payload[:, s]))))
        # emitted frame keeps CP structure where whole symbols fit
        frame, _ = gen_ofdm(spec, derive_stream(0x5A13, cls.index))
        for s in range(len(frame) // spec.symbol_len):
            sym = frame[s * spec.symbol_len:(s + 1) * spec.symbol_len]
            if not np.array_equal(sym[:cp], sym[-cp:]):
                ofdm_ok = False
    ofdm_ok = ofdm_ok and worst_rec <= OFDM_RECOVERY_TOLERANCE

    # 2FSK spectral lines at +-1/16 cycles/sample
    frame, _ = gen_fsk(fsk_spec(CLASS_LIST[25]), derive_stream(0x5A14, 0))
    psd = welch_psd(frame)  # nfft 256: 1/16 of the rate is 16 bins
    pos = psd.density_db[128:]
    neg = psd.density_db[:128]
    peak_hi = int(np.argmax(pos))
    peak_lo = int(np.argmax(neg)) - 128
    tones_ok = (abs(peak_hi - 16) <= PSD_PEAK_BIN_TOLERANCE
                and abs(peak_lo + 16) <= PSD_PEAK_BIN_TOLERANCE)

    record_criterion(
        "5-modulation-correctness",
        linear_ok and envelope_ok and ofdm_ok and tones_ok,
        f"linear 25/25={linear_ok}, envelope max {worst_env:.1e} "
        f"(tol {FSK_ENVELOPE_TOLERANCE}), recovery max {worst_rec:.1e} "
        f"(tol {OFDM_RECOVERY_TOLERANCE}), tone bins ({peak_lo}, {peak_hi})")


def test_criterion_6_augmentation_algebra():
    frames = 1000
    ok = True
    for i in range(frames):
        frame = derive_stream(0xA06, i).cnormal(4096)
        for op in (time_reversal, spectral_inversion, channel_swap,
                   amplitude_reversal):
            if not np.array_equal(op(op(frame)), frame):
                ok = False
        if not np.array_equal(channel_swap(frame), 1j * np.conj(frame)):
            ok = False
        shuffled = patch_shuffle(frame, derive_stream(0xA07, i))
        if not np.array_equal(np.sort_complex(shuffled), np.sort_complex(frame)):
            ok = False
    record_criterion(
        "6-augmentation-algebra", ok,
        f"{frames} frames: involutions, j*conj identity, multiset all exact")


def test_criterion_7_ebn0_vs_esn0_noise_floor():
    frame, desc = gen_clean(24, derive_stream(0xEB, 0))  # 1024qam
    esn0_level = 10.0
    ebn0_level = esn0_from_ebn0(10.0, 1024)  # 20 dB as Es/N0
    by_es = add_awgn(frame, esn0_level, desc.samples_per_symbol,
                     derive_stream(0xEB, 1))
    by_eb = add_awgn(frame, ebn0_level, desc.samples_per_symbol,
                     derive_stream(0xEB, 2))
    # out-of-band region: RRC alpha 0.35 at 2 samples/symbol occupies
    # |f| <= 0.3375, so beyond 0.36 only the noise floor remains
    floor = []
    for signal in (by_es, by_eb):
        psd = welch_psd(signal)
        floor.append(float(np.median(psd.density_db[np.abs(psd.freqs) > 0.36])))
    gap = floor[0] - floor[1]
    record_criterion(
        "7-ebn0-vs-esn0", abs(gap - NOISE_FLOOR_GAP_DB) <= NOISE_FLOOR_TOLERANCE_DB,
        f"noise-floor gap {gap:.2f} dB "
        f"(want {NOISE_FLOOR_GAP_DB} +- {NOISE_FLOOR_TOLERANCE_DB})")


def test_criterion_8_filter_and_shift_oracles():
    rrc_err = float(np.max(np.abs(
        rrc_taps(0.35, 2, 11) - rrc_reference(0.35, 2, 11))))
    gauss_err = float(np.max(np.abs(
        gaussian_taps(0.35, 2, 4) - gaussian_reference(0.35, 2, 4))))

    n = 4096
    tone = np.exp(2j * np.pi * 0.10 * np.arange(n))
    shifted = freq_shift(tone, 0.05)
    bin_shift = int(np.argmax(np.abs(np.fft.fft(shifted * np.hanning(n)))))
    shift_err = abs(bin_shift - round(0.15 * n))

    slowed = random_resample(tone, 1.25)
    bin_rs = int(np.argmax(np.abs(np.fft.fft(slowed * np.hanning(n)))))
    rs_err = abs(bin_rs - round(0.08 * n))

    record_criterion(
        "8-filter-oracles",
        rrc_err <= FILTER_ORACLE_TOLERANCE and gauss_err <= FILTER_ORACLE_TOLERANCE
        and shift_err <= PSD_PEAK_BIN_TOLERANCE and rs_err <= PSD_PEAK_BIN_TOLERANCE,
        f"rrc {rrc_err:.1e}, gaussian {gauss_err:.1e} (tol 1e-12); "
        f"shift off {shift_err} bin, resample off {rs_err} bin (tol 1)")


def test_criterion_9_server_concurrency_and_throughput():
    server = BatchServer(("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        kwargs = dict(batch_size=8, variant="impaired-train", seed=21,
                      start_index=0, frame_len=4096)
        results = [None] * 3

        def worker(i):
            results[i] = request_batch("127.0.0.1", server.port, **kwargs)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        identical = (results[0] is not None
                     and results[0] == results[1] == results[2])
    finally:
        server.shutdown()
        server.server_close()

    # single-core sustained generation rate over full impaired frames
    config = ds.DatasetConfig(variant="impaired-train", examples_per_class=1,
                              dataset_seed=5)
    n = 64
    start = time.perf_counter()
    for index in range(n):
        ds.generate_example(index, index % NUM_CLASSES,
                            derive_stream(5, index), config)
    rate = n / (time.perf_counter() - start)
    record_criterion(
        "9-server", identical and rate >= SERVER_MIN_FRAMES_PER_S,
        f"3 clients byte-identical={identical}, "
        f"{rate:.0f} impaired frames/s/core (floor {SERVER_MIN_FRAMES_PER_S:.0f})")
