"""Elemental channel operations, the gated chain, and exact replay."""

import json
import math

import numpy as np
import pytest

from sigforge.dataset import MIN_FRAME_LEN
from sigforge.impairments import (
    DEFAULT_PROFILE,
    NO_IMPAIRMENT_PROFILE,
    ImpairmentProfile,
    ImpairmentRecord,
    ImpairmentStep,
    _draw_rayleigh,
    _rayleigh,
    _resample,
    add_awgn,
    apply_impairment_chain,
    draw_impairment_plan,
    draw_rayleigh_taps,
    fir_channel,
    freq_shift,
    fsk_lpf_resample,
    iq_imbalance,
    phase_shift,
    pre_noise_frame,
    random_resample,
    replay_impairments,
    replay_with_pre_noise,
    synthesize_impaired_source,
    time_shift,
)
from sigforge.frame import mean_power
from sigforge.registry import SignalDescriptor, class_by_name
from sigforge.rng import RngStream, derive_stream


def tone(freq, n=4096):
    return np.exp(2j * np.pi * freq * np.arange(n))


def fft_peak_freq(frame):
    spectrum = np.abs(np.fft.fft(frame * np.hanning(len(frame))))
    k = int(np.argmax(spectrum))
    return np.fft.fftfreq(len(frame))[k]


# ---------------------------------------------------------------------------
# elemental ops


def test_phase_shift_rotates():
    frame = np.array([1.0, 1j, -2.0])
    out = phase_shift(frame, np.pi / 2)
    np.testing.assert_allclose(out, [1j, -1.0, -2j], atol=1e-15)
    with pytest.raises(ValueError):
        phase_shift(frame, math.nan)


def test_phase_shift_preserves_power():
    frame = derive_stream(1, 0).cnormal(256)
    out = phase_shift(frame, 1.234)
    assert mean_power(out) == pytest.approx(mean_power(frame), rel=1e-14)


def test_time_shift_delay_and_advance():
    frame = np.arange(1.0, 6.0) + 0j
    np.testing.assert_array_equal(time_shift(frame, 2), [0, 0, 1, 2, 3])
    np.testing.assert_array_equal(time_shift(frame, -2), [3, 4, 5, 0, 0])
    np.testing.assert_array_equal(time_shift(frame, 0), frame)
    with pytest.raises(ValueError):
        time_shift(frame, 5)
    with pytest.raises(ValueError):
        time_shift(frame, -7)


def test_freq_shift_moves_tone_peak():
    out = freq_shift(tone(0.10), 0.05)
    assert fft_peak_freq(out) == pytest.approx(0.15, abs=1 / 4096)
    out = freq_shift(tone(0.10), -0.3)
    assert fft_peak_freq(out) == pytest.approx(-0.20, abs=1 / 4096)


def test_freq_shift_algebra_and_range():
    frame = derive_stream(2, 0).cnormal(64)
    out = freq_shift(frame, 0.01)
    n = np.arange(64)
    np.testing.assert_allclose(out, frame * np.exp(2j * np.pi * 0.01 * n))
    for bad in (0.5, -0.5, 0.7):
        with pytest.raises(ValueError):
            freq_shift(frame, bad)


def test_rayleigh_profile_statistics():
    """E|h_k|^2 must follow the normalized linear decay (1 - k/N)."""
    num_taps = 4
    want = 1.0 - np.arange(num_taps) / num_taps
    want /= want.sum()  # [0.4, 0.3, 0.2, 0.1]
    rng = derive_stream(77, 0)
    acc = np.zeros(num_taps)
    trials = 4000
    for _ in range(trials):
        acc += np.abs(draw_rayleigh_taps(num_taps, rng)) ** 2
    np.testing.assert_allclose(acc / trials, want, atol=0.03)
    assert (acc / trials).sum() == pytest.approx(1.0, abs=0.05)


def test_rayleigh_taps_validation():
    rng = derive_stream(1, 1)
    with pytest.raises(ValueError):
        draw_rayleigh_taps(0, rng)
    with pytest.raises(ValueError):
        draw_rayleigh_taps(21, rng)


def test_a_rayleigh_step_records_its_taps_and_applies_them_bit_for_bit():
    rng = derive_stream(5, 2)
    again = rng.clone()
    params = _draw_rayleigh(DEFAULT_PROFILE, rng)
    lo, hi = DEFAULT_PROFILE.rayleigh_taps_range
    assert params["num_taps"] == int(again.integers(lo, hi + 1))
    taps = draw_rayleigh_taps(params["num_taps"], again)
    assert params["taps"] == [[float(t.real), float(t.imag)] for t in taps]
    frame = derive_stream(5, 3).cnormal(64)
    want = fir_channel(frame, taps)
    assert _rayleigh(frame, **params).tobytes() == want.tobytes()
    assert _rayleigh(frame, **json.loads(json.dumps(params))).tobytes() == want.tobytes()
    for bad in ([0.1, 0.2], [[0.1, 0.2, 0.3]], [[0.1]]):
        with pytest.raises(ValueError):
            _rayleigh(frame, 1, bad)


def test_fir_channel_is_causal_convolution():
    frame = np.array([1.0, 2.0, 3.0, 4.0]) + 0j
    taps = np.array([1.0, 0.5j])
    out = fir_channel(frame, taps)
    want = [1.0, 2.0 + 0.5j, 3.0 + 1.0j, 4.0 + 1.5j]
    np.testing.assert_allclose(out, want)
    assert len(out) == len(frame)


def test_single_tap_channel_is_a_scale():
    frame = derive_stream(3, 0).cnormal(100)
    out = fir_channel(frame, np.array([0.5 - 0.25j]))
    np.testing.assert_allclose(out, frame * (0.5 - 0.25j))


def test_iq_imbalance_identity_at_zero():
    frame = derive_stream(4, 0).cnormal(128)
    np.testing.assert_array_equal(iq_imbalance(frame, 0.0, 0.0, 0.0), frame)


def test_iq_imbalance_amplitude_creates_image_tone():
    """Gain mismatch g on I, 1/g on Q turns e^{jwn} into
    (g+1/g)/2 * e^{jwn} + (g-1/g)/2 * e^{-jwn}; check both FFT lines."""
    n = 256
    k = 32  # exact bin
    frame = np.exp(2j * np.pi * k / n * np.arange(n))
    a_db = 2.0
    g = 10 ** (a_db / 40.0)
    out = iq_imbalance(frame, a_db, 0.0, 0.0)
    spectrum = np.fft.fft(out) / n
    assert abs(spectrum[k]) == pytest.approx((g + 1 / g) / 2, abs=1e-12)
    assert abs(spectrum[n - k]) == pytest.approx((g - 1 / g) / 2, abs=1e-12)


def test_iq_imbalance_phase_mixes_conjugate():
    frame = derive_stream(5, 0).cnormal(64)
    p = 0.02
    out = iq_imbalance(frame, 0.0, p, 0.0)
    want = np.cos(p / 2) * frame + 1j * np.sin(p / 2) * np.conj(frame)
    np.testing.assert_allclose(out, want, atol=1e-15)


def test_iq_imbalance_dc_offset_shifts_mean():
    frame = derive_stream(6, 0).cnormal(4096)
    out = iq_imbalance(frame, 0.0, 0.0, 0.07)
    assert np.mean(out - frame) == pytest.approx(0.07, abs=1e-12)


# ---------------------------------------------------------------------------
# resampling


def interior(out, margin=64):
    """out without the edges where the filters meet the zero padding."""
    return out[margin:len(out) - margin]


def level_db(frame):
    return 10 * np.log10(mean_power(frame))


def test_resample_rate_one_is_identity():
    frame = derive_stream(7, 0).cnormal(500)
    for out in (random_resample(frame, 1.0), _resample(frame, 1.0)):
        np.testing.assert_array_equal(out, frame)
        assert out is not frame


def test_resample_rate_validation():
    frame = derive_stream(7, 1).cnormal(64)
    for bad in (0.74, 1.51, 0.0):
        with pytest.raises(ValueError):
            random_resample(frame, bad)


def test_resample_scales_tone_frequency():
    out = random_resample(tone(0.10), 1.25)
    assert len(out) == 4096
    assert fft_peak_freq(out) == pytest.approx(0.10 / 1.25, abs=1 / 4096)


def test_resample_slowdown_pads_with_zeros():
    frame = tone(0.05)
    out = random_resample(frame, 0.8)
    assert len(out) == 4096
    # 4096 * 0.8 = 3276.8 -> 3277 output samples, zero tail after that
    assert np.all(out[3278:] == 0)
    assert np.any(out[:3276] != 0)
    assert fft_peak_freq(out[:3276]) == pytest.approx(0.05 / 0.8, abs=1 / 3276)


def test_resample_preserves_dc():
    frame = np.ones(2048, dtype=np.complex128)
    out = random_resample(frame, 1.25)
    body = out[100:-100]
    np.testing.assert_allclose(body, 1.0, atol=1e-3)
    # unit DC gain: every bank row, and the low-pass below rate 1, sums to 1
    for rate in (0.625, 0.75, 0.9996, 1.0004, 1.25, 1.875):
        np.testing.assert_allclose(interior(_resample(frame, rate)), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rate", [0.625, 0.75, 0.77, 0.8, 0.85, 0.87])
def test_resample_stopband_is_40_db_down(rate):
    """A tone 0.06 cycles/sample or more past the output Nyquist, rate / 2
    in input cycles/sample, leaves at least 40 dB down: the contract the
    _KAISER_BETA comment names. A low-pass of ceil(10 / rate) taps each
    side missed it at 0.77 and 0.85-0.87 (35-40 dB)."""
    for freq in np.arange(rate / 2 + 0.06, 0.5, 0.005):
        for sign in (1, -1):
            assert level_db(interior(_resample(tone(sign * freq), rate))) <= -40.0


@pytest.mark.parametrize("rate", [0.625, 0.75, 0.9, 0.9996, 1.0004, 1.2, 1.5, 1.875])
def test_resample_passband_tracks_the_ideal_tone(rate):
    """Output j of a passband tone is the tone at input time j / rate,
    within -50 dB. At 0.9996 and 1.0004 some outputs fall within half a
    phase step below the next input, where the phase rounds up to P."""
    freq = 0.3 * min(1.0, rate)
    out = _resample(tone(freq), rate)
    ideal = np.exp(2j * np.pi * freq * np.arange(len(out)) / rate)
    assert level_db(interior(out - ideal)) <= -50.0


def test_resample_output_length():
    """min(n, ceil(n * rate)) outputs, the ones whose input time lies
    inside the frame; random_resample restores n."""
    rates = [0.625, 0.75, 0.8, 0.9996, 1.0, 1.0004, 1.25, 1.5, 1.875]
    for frame_len in (MIN_FRAME_LEN, 1001, 4096):
        frame = derive_stream(10, 2).cnormal(frame_len)
        for rate in rates:
            assert len(_resample(frame, rate)) == min(frame_len, math.ceil(frame_len * rate))
            if 0.75 <= rate <= 1.5:
                assert len(random_resample(frame, rate)) == frame_len


def test_fsk_lpf_resample_band_and_length():
    rng = derive_stream(8, 0)
    frame = derive_stream(8, 1).cnormal(4096)
    out, cutoff = fsk_lpf_resample(frame, rng)
    assert 0.15625 <= cutoff <= 0.46875
    assert len(out) == 4096
    # After decimation by 0.25/cutoff the retained band edge sits near
    # quarter rate; beyond ~0.3 the white input must be strongly cut.
    spectrum = np.abs(np.fft.fft(out * np.hanning(4096))) ** 2
    f = np.fft.fftfreq(4096)
    stop = np.mean(spectrum[np.abs(f) > 0.35])
    band = np.mean(spectrum[np.abs(f) < 0.20])
    assert 10 * np.log10(band / stop) > 25.0


def test_pulse_shape_draw_ranges():
    linear, gaussian = class_by_name("qpsk").index, class_by_name("2gmsk").index
    for seed in range(100):
        rng = derive_stream(9, seed)
        assert 0.15 <= synthesize_impaired_source(linear, rng, 64)[2]["rrc_alpha"] <= 0.60
        assert 0.1 <= synthesize_impaired_source(gaussian, rng, 64)[2]["gaussian_bt"] <= 0.5


# ---------------------------------------------------------------------------
# noise


def test_awgn_noise_power_is_exact():
    frame = tone(0.1, 1024)
    for esn0, sps in ((10.0, 2.0), (-2.0, 8.0), (30.0, 1.6)):
        rng = derive_stream(10, int(esn0) & 0xFF)
        out = add_awgn(frame, esn0, sps, rng)
        noise = out - frame
        sigma2 = sps * 10 ** (-esn0 / 10)
        assert mean_power(noise) == pytest.approx(sigma2, rel=1e-12)


def test_awgn_infinite_snr_is_identity():
    frame = tone(0.1, 64)
    out = add_awgn(frame, math.inf, 2.0, derive_stream(10, 99))
    np.testing.assert_array_equal(out, frame)


def test_awgn_rejects_bad_sps():
    with pytest.raises(ValueError):
        add_awgn(tone(0.1, 64), 10.0, 0.0, derive_stream(10, 98))


def test_awgn_draw_count():
    rng = derive_stream(10, 97)
    before = rng.counter
    add_awgn(tone(0.1, 128), 5.0, 2.0, rng)
    assert rng.counter - before == 2 * 128


# ---------------------------------------------------------------------------
# plan / chain / replay


def test_no_impairment_profile_is_identity():
    clean = tone(0.07)
    desc = SignalDescriptor(4, "qpsk", "psk", 2.0)
    rng = derive_stream(11, 0)
    impaired, _, record = apply_impairment_chain(clean, desc, NO_IMPAIRMENT_PROFILE, rng)
    np.testing.assert_array_equal(impaired, clean)
    assert record.steps == ()
    assert record.target_esn0_db == math.inf
    assert rng.counter == 6  # the six gate draws, nothing else


ALWAYS_ON = dict.fromkeys(("phase_shift_prob", "time_shift_prob", "freq_shift_prob",
                           "rayleigh_prob", "iq_imbalance_prob", "resample_prob"), 1.0)


def test_profile_at_its_bounds_runs_the_chain():
    # at the edges of what each stage accepts, at the shortest frame
    for esn0 in (-100.0, 5.0, 100.0):
        profile = ImpairmentProfile(
            **ALWAYS_ON, time_shift_max=MIN_FRAME_LEN - 1, phase_range=(-1e307, 1e307),
            freq_range=(math.nextafter(-0.5, 0.0), math.nextafter(0.5, 0.0)),
            rayleigh_taps_range=(1, 20), iq_amp_range_db=(-40.0, 40.0),
            iq_dc_range=(-10.0, 10.0), resample_range=(0.75, 1.5), esn0_range_db=(esn0, esn0))
        for i in range(20):
            clean, desc, _ = synthesize_impaired_source(i, derive_stream(30, i), MIN_FRAME_LEN)
            impaired, _, record = apply_impairment_chain(clean, desc, profile, derive_stream(31, i))
            assert len(impaired) == MIN_FRAME_LEN and record.target_esn0_db == esn0
            assert np.all(np.isfinite(impaired))


def test_always_on_profile_emits_all_steps_in_order():
    profile = ImpairmentProfile(
        phase_shift_prob=1.0, time_shift_prob=1.0, freq_shift_prob=1.0,
        rayleigh_prob=1.0, iq_imbalance_prob=1.0, resample_prob=1.0,
    )
    steps, esn0 = draw_impairment_plan(profile, derive_stream(12, 0))
    assert [s.kind for s in steps] == [
        "phase_shift", "time_shift", "freq_shift",
        "rayleigh", "iq_imbalance", "resample",
    ]
    assert -2.0 <= esn0 <= 30.0


def test_plan_parameter_ranges():
    profile = ImpairmentProfile(
        phase_shift_prob=1.0, time_shift_prob=1.0, freq_shift_prob=1.0,
        rayleigh_prob=1.0, iq_imbalance_prob=1.0, resample_prob=1.0,
    )
    for i in range(200):
        steps, esn0 = draw_impairment_plan(profile, derive_stream(13, i))
        by_kind = {s.kind: s.params for s in steps}
        assert -math.pi <= by_kind["phase_shift"]["phi"] <= math.pi
        assert -32 <= by_kind["time_shift"]["shift"] <= 32
        assert -0.16 <= by_kind["freq_shift"]["freq"] <= 0.16
        assert 2 <= by_kind["rayleigh"]["num_taps"] <= 20
        assert len(by_kind["rayleigh"]["taps"]) == by_kind["rayleigh"]["num_taps"]
        assert -3.0 <= by_kind["iq_imbalance"]["amplitude_db"] <= 3.0
        assert abs(by_kind["iq_imbalance"]["phase_rad"]) <= math.pi / 180
        assert abs(by_kind["iq_imbalance"]["dc_offset"]) <= 0.1
        assert 0.75 <= by_kind["resample"]["rate"] <= 1.5
        assert -2.0 <= esn0 <= 30.0


def test_time_shift_draw_includes_both_endpoints():
    profile = ImpairmentProfile(
        phase_shift_prob=0.0, time_shift_prob=1.0, freq_shift_prob=0.0,
        rayleigh_prob=0.0, iq_imbalance_prob=0.0, resample_prob=0.0,
    )
    shifts = set()
    for i in range(3000):
        steps, _ = draw_impairment_plan(profile, derive_stream(14, i))
        shifts.add(steps[0].params["shift"])
    assert min(shifts) == -32 and max(shifts) == 32


def test_chain_replay_is_bit_exact():
    for i in range(10):
        clean, desc, _ = synthesize_impaired_source(i * 5 % 53, derive_stream(15, i))
        impaired, _, record = apply_impairment_chain(
            clean, desc, DEFAULT_PROFILE, derive_stream(16, i))
        again = replay_impairments(clean, record)
        np.testing.assert_array_equal(impaired, again)


@pytest.mark.parametrize("profile", [
    DEFAULT_PROFILE,
    NO_IMPAIRMENT_PROFILE,  # no awgn step: the output itself, normalised
    ImpairmentProfile(esn0_range_db=(math.inf, math.inf)),
])
def test_replay_with_pre_noise_is_one_pass_of_both(profile):
    for i in range(8):
        clean, desc, _ = synthesize_impaired_source(i * 7 % 53, derive_stream(22, i))
        impaired, pre_noise, record = apply_impairment_chain(
            clean, desc, profile, derive_stream(23, i))
        reference = clean  # one single-step record at a time
        for step in record.steps:
            reference = replay_impairments(
                reference, ImpairmentRecord((step,), record.target_esn0_db))
        frame, signal = replay_with_pre_noise(clean, record)
        np.testing.assert_array_equal(frame, impaired)
        np.testing.assert_array_equal(frame, reference)
        np.testing.assert_array_equal(signal, pre_noise_frame(clean, record))
        np.testing.assert_array_equal(signal, pre_noise)


def test_record_survives_json_round_trip():
    clean, desc, _ = synthesize_impaired_source(17, derive_stream(17, 0))
    impaired, _, record = apply_impairment_chain(clean, desc, DEFAULT_PROFILE,
                                                 derive_stream(17, 1))
    blob = json.dumps(record.to_dict())
    revived = ImpairmentRecord.from_dict(json.loads(blob))
    np.testing.assert_array_equal(replay_impairments(clean, revived), impaired)


def test_pre_noise_frame_is_unit_power_and_consistent():
    clean, desc, _ = synthesize_impaired_source(8, derive_stream(18, 0))
    impaired, _, record = apply_impairment_chain(clean, desc, DEFAULT_PROFILE,
                                                 derive_stream(18, 1))
    pre = pre_noise_frame(clean, record)
    assert mean_power(pre) == pytest.approx(1.0, rel=1e-12)
    noise = impaired - pre
    sigma2 = desc.samples_per_symbol * 10 ** (-record.target_esn0_db / 10)
    assert mean_power(noise) == pytest.approx(sigma2, rel=1e-9)


def test_chain_measured_esn0_matches_target_exactly():
    from sigforge.measurement import measure_esn0

    worst = 0.0
    for i in range(25):
        clean, desc, _ = synthesize_impaired_source(i * 2 % 53, derive_stream(19, i))
        impaired, _, record = apply_impairment_chain(clean, desc, DEFAULT_PROFILE,
                                                     derive_stream(20, i))
        pre = pre_noise_frame(clean, record)
        got = measure_esn0(pre, impaired - pre, desc.samples_per_symbol)
        worst = max(worst, abs(got - record.target_esn0_db))
    assert worst < 1e-9


def test_chain_advances_rng_deterministically():
    """Two consecutive chains from one stream replay identically."""
    clean, desc, _ = synthesize_impaired_source(3, derive_stream(21, 0))
    rng = derive_stream(21, 1)
    a1, _, r1 = apply_impairment_chain(clean, desc, DEFAULT_PROFILE, rng)
    a2, _, r2 = apply_impairment_chain(clean, desc, DEFAULT_PROFILE, rng)
    rng2 = derive_stream(21, 1)
    b1, _, _ = apply_impairment_chain(clean, desc, DEFAULT_PROFILE, rng2)
    b2, _, _ = apply_impairment_chain(clean, desc, DEFAULT_PROFILE, rng2)
    np.testing.assert_array_equal(a1, b1)
    np.testing.assert_array_equal(a2, b2)
    assert r1 != r2


def test_chain_advances_rng_past_its_noise_draws():
    # the next draw from the stream must not reuse a word the noise drew
    clean, desc, _ = synthesize_impaired_source(3, derive_stream(21, 0))
    rng = derive_stream(21, 1)
    _, _, record = apply_impairment_chain(clean, desc, DEFAULT_PROFILE, rng)
    awgn = record.steps[-1]
    assert awgn.kind == "awgn"
    assert rng.counter == awgn.params["noise_counter"] + 2 * len(clean)


def test_unknown_step_kind_rejected():
    record = ImpairmentRecord(steps=(ImpairmentStep("fold", {}),),
                              target_esn0_db=10.0)
    with pytest.raises(ValueError):
        replay_impairments(tone(0.1, 64), record)


# ---------------------------------------------------------------------------
# impaired-source synthesis


def test_impaired_source_linear_draws_alpha():
    frame, desc, shaping = synthesize_impaired_source(
        class_by_name("16qam").index, derive_stream(22, 0))
    assert 0.15 <= shaping["rrc_alpha"] <= 0.60
    assert desc.samples_per_symbol == 2.0
    assert mean_power(frame) == pytest.approx(1.0, rel=1e-12)


def test_impaired_source_gaussian_draws_bt():
    frame, desc, shaping = synthesize_impaired_source(
        class_by_name("2gfsk").index, derive_stream(22, 1))
    assert 0.1 <= shaping["gaussian_bt"] <= 0.5
    assert desc.samples_per_symbol == 2.0


def test_impaired_source_fsk_subsamples():
    frame, desc, shaping = synthesize_impaired_source(
        class_by_name("4fsk").index, derive_stream(22, 2))
    cutoff = shaping["lpf_cutoff"]
    assert 0.15625 <= cutoff <= 0.46875
    assert desc.samples_per_symbol == pytest.approx(0.5 / cutoff)
    assert mean_power(frame) == pytest.approx(1.0, rel=1e-12)


def test_impaired_source_ofdm_has_no_shaping_params():
    frame, desc, shaping = synthesize_impaired_source(
        class_by_name("ofdm-64").index, derive_stream(22, 3))
    assert shaping == {}
    assert desc.family == "ofdm"
