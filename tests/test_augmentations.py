"""Training-time transforms: involutions, corruptions, receiver effects,
mixes, feature views, and pipeline plumbing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigforge.augmentations import (
    AUGMENTATIONS,
    CUTOUT_FILLS,
    DEFAULT_RAND_AUGMENT_OPS,
    RAND_AUGMENT_KINDS,
    AugmentSpec,
    LabelInfo,
    Pipeline,
    add_slope,
    agc,
    amplitude_reversal,
    apply_augment,
    build_pipeline,
    channel_swap,
    clip,
    cutmix,
    cutout,
    drop_samples,
    gain_drift,
    lo_drift,
    magnitude_rescale,
    mixup,
    patch_shuffle,
    quantize,
    rand_augment,
    signal_rolloff,
    spectral_inversion,
    time_reversal,
    time_varying_noise,
    to_features,
)
from sigforge.frame import mean_power
from sigforge.rng import derive_stream

INVOLUTIONS = [
    time_reversal,
    spectral_inversion,
    channel_swap,
    amplitude_reversal,
]


def frame_of(key, n=4096):
    return derive_stream(key, 0).cnormal(n)


# ---------------------------------------------------------------------------
# involutions


@pytest.mark.parametrize("op", INVOLUTIONS, ids=lambda f: f.__name__)
def test_involution_bit_exact(op):
    frame = frame_of(100)
    np.testing.assert_array_equal(op(op(frame)), frame)


def test_time_reversal_without_conjugate_is_still_an_involution():
    frame = frame_of(101)
    twice = time_reversal(time_reversal(frame, False), False)
    np.testing.assert_array_equal(twice, frame)
    np.testing.assert_array_equal(time_reversal(frame, False), frame[::-1])


def test_channel_swap_swaps_components():
    frame = frame_of(102, 64)
    out = channel_swap(frame)
    np.testing.assert_array_equal(out.real, frame.imag)
    np.testing.assert_array_equal(out.imag, frame.real)


def test_spectral_inversion_mirrors_spectrum():
    tone = np.exp(2j * np.pi * 0.1 * np.arange(1024))
    spectrum = np.abs(np.fft.fft(spectral_inversion(tone)))
    assert np.argmax(spectrum) == 1024 - 102  # bin of -0.1 (102 = round(0.1*1024))


@given(key=st.integers(0, 2**32 - 1), n=st.integers(2, 300))
@settings(max_examples=40, deadline=None)
def test_involution_property(key, n):
    frame = derive_stream(key, 1).cnormal(n)
    for op in INVOLUTIONS:
        np.testing.assert_array_equal(op(op(frame)), frame)


# ---------------------------------------------------------------------------
# local corruption


def test_drop_samples_budget_and_zero_fill():
    frame = frame_of(103)
    out = drop_samples(frame, derive_stream(103, 1), drop_rate=0.03, fill="zero")
    changed = out != frame
    target = round(0.03 * 4096)
    assert changed.sum() == target
    assert np.all(out[changed] == 0.0)


def test_drop_samples_mean_fill():
    frame = frame_of(104)
    out = drop_samples(frame, derive_stream(104, 1), fill="mean")
    changed = out != frame
    assert changed.any()
    np.testing.assert_allclose(out[changed], np.mean(frame))


def test_drop_samples_front_fill_repeats_previous_sample():
    frame = np.arange(1, 4097, dtype=np.complex128)  # strictly increasing
    out = drop_samples(frame, derive_stream(105, 1), fill="front")
    changed = np.flatnonzero(out != frame)
    assert changed.size > 0
    for i in changed:
        # region fill = the sample just before its run (or just after, at
        # the frame edge); either way it is some original frame value
        assert out[i] in frame


def test_drop_samples_back_fill_uses_following_sample():
    frame = np.arange(1, 513, dtype=np.complex128)
    out = drop_samples(frame, derive_stream(106, 1), drop_rate=0.05, fill="back")
    changed = np.flatnonzero(out != frame)
    runs = np.split(changed, np.where(np.diff(changed) > 1)[0] + 1)
    for run in runs:
        end = run[-1] + 1
        if end < 512:
            assert out[run[0]] == frame[end]


def test_drop_samples_rejects_unknown_fill():
    with pytest.raises(ValueError):
        drop_samples(frame_of(107, 64), derive_stream(107, 1), fill="wrap")


def test_quantize_hand_case_four_levels():
    v = np.array([-1.0, -0.3, 0.2, 0.9])
    frame = v + 0j
    got_floor = quantize(frame, 4, "floor", max_amplitude=1.0)
    got_mid = quantize(frame, 4, "middle", max_amplitude=1.0)
    got_ceil = quantize(frame, 4, "ceiling", max_amplitude=1.0)
    np.testing.assert_allclose(got_floor.real, [-1.0, -0.5, 0.0, 0.5])
    np.testing.assert_allclose(got_mid.real, [-0.75, -0.25, 0.25, 0.75])
    np.testing.assert_allclose(got_ceil.real, [-0.5, 0.0, 0.5, 1.0])
    # imag 0 lands in the bin [0, 0.5) and emits its representative
    np.testing.assert_allclose(got_floor.imag, 0.0)
    np.testing.assert_allclose(got_mid.imag, 0.25)
    np.testing.assert_allclose(got_ceil.imag, 0.5)


def test_quantize_two_levels_is_a_sign_slicer():
    frame = frame_of(108, 256)
    out = quantize(frame, 2, "middle", max_amplitude=1.0)
    want = np.sign(frame.real) * 0.5 + 1j * np.sign(frame.imag) * 0.5
    # sign() returns 0 at exactly 0.0 which cnormal never hits
    np.testing.assert_allclose(out, want)


def test_quantize_middle_is_idempotent():
    frame = frame_of(109, 512)
    once = quantize(frame, 16, "middle", max_amplitude=2.0)
    twice = quantize(once, 16, "middle", max_amplitude=2.0)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_quantize_error_bounded_by_bin_width():
    frame = frame_of(110, 1024)
    m = float(max(np.max(np.abs(frame.real)), np.max(np.abs(frame.imag))))
    out = quantize(frame, 32, "middle")
    width = 2 * m / 32
    assert np.max(np.abs(out.real - frame.real)) <= width / 2 + 1e-12
    assert np.max(np.abs(out.imag - frame.imag)) <= width / 2 + 1e-12


def test_quantize_validation_and_zero_frame():
    frame = frame_of(111, 16)
    with pytest.raises(ValueError):
        quantize(frame, 4, "nearest")
    with pytest.raises(ValueError):
        quantize(frame, 0)
    zeros = np.zeros(8, dtype=np.complex128)
    np.testing.assert_array_equal(quantize(zeros, 4), zeros)


def test_magnitude_rescale_explicit_parameters():
    frame = frame_of(112, 256)
    out = magnitude_rescale(frame, start_index=100, scale=1.5)
    np.testing.assert_array_equal(out[:100], frame[:100])
    np.testing.assert_allclose(out[100:], frame[100:] * 1.5)


def test_magnitude_rescale_drawn_parameters():
    frame = frame_of(113, 1024)
    out = magnitude_rescale(frame, rng=derive_stream(113, 1))
    changed = np.flatnonzero(out != frame)
    assert changed.size > 0
    start = changed[0]
    ratio = out[start:] / frame[start:]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
    assert 0.5 <= abs(ratio[0]) <= 2.0
    np.testing.assert_array_equal(out[:start], frame[:start])


def test_magnitude_rescale_without_an_rng_needs_both_parameters():
    frame = frame_of(114, 64)
    for params in ({}, {"start_index": 3}, {"scale": 1.5}):
        with pytest.raises(TypeError, match="needs an rng"):
            magnitude_rescale(frame, **params)


def test_cutout_zero_fill_region():
    frame = frame_of(114)
    out = cutout(frame, derive_stream(114, 1), duration_frac=0.1, fill="zeros")
    changed = np.flatnonzero(out != frame)
    assert changed.size == round(0.1 * 4096)
    assert changed[-1] - changed[0] + 1 == changed.size  # contiguous
    assert np.all(out[changed] == 0.0)


def test_cutout_ones_fill():
    frame = frame_of(115, 512)
    out = cutout(frame, derive_stream(115, 1), duration_frac=0.25, fill="ones")
    changed = out != frame
    np.testing.assert_array_equal(out[changed], np.ones(changed.sum()) + 0j)


@pytest.mark.parametrize("fill,tier", [("low_noise", 0.01), ("avg_noise", 1.0),
                                       ("high_noise", 100.0)])
def test_cutout_noise_fill_power_tiers(fill, tier):
    frame = frame_of(116)
    out = cutout(frame, derive_stream(116, hash(fill) & 0xFF),
                 duration_frac=0.2, fill=fill)
    changed = out != frame
    got = mean_power(out[changed])
    want = tier * mean_power(frame)
    assert want / 1.5 < got < want * 1.5


def test_cutout_validation():
    with pytest.raises(ValueError):
        cutout(frame_of(117, 64), derive_stream(117, 1), fill="ramp")


def test_patch_shuffle_preserves_multiset():
    frame = frame_of(118)
    out = patch_shuffle(frame, derive_stream(118, 1))
    assert not np.array_equal(out, frame)
    np.testing.assert_array_equal(np.sort_complex(out), np.sort_complex(frame))


def test_patch_shuffle_ratio_zero_is_identity():
    frame = frame_of(119, 256)
    out = patch_shuffle(frame, derive_stream(119, 1), shuffle_ratio=0.0)
    np.testing.assert_array_equal(out, frame)


def test_patch_shuffle_scrambles_locally_only():
    frame = np.arange(1000, dtype=np.complex128)
    rng = derive_stream(120, 1)
    out = patch_shuffle(frame, rng, patch_len_range=(10, 10), shuffle_ratio=1.0)
    for start in range(0, 1000, 10):
        np.testing.assert_array_equal(
            np.sort(out[start:start + 10].real), frame[start:start + 10].real)


# ---------------------------------------------------------------------------
# receiver effects


def test_signal_rolloff_midpoint_is_half_amplitude():
    n = 256
    k = 112  # depth 16 = half of the 32-bin taper at edge_frac 0.125
    tone = np.exp(2j * np.pi * k / n * np.arange(n))
    out = signal_rolloff(tone, side="both", edge_frac=0.125)
    assert np.max(np.abs(np.fft.fft(out))) / n == pytest.approx(0.5, abs=1e-12)


def test_signal_rolloff_passband_untouched():
    n = 256
    tone = np.exp(2j * np.pi * 10 / n * np.arange(n))
    out = signal_rolloff(tone, side="both", edge_frac=0.125)
    np.testing.assert_allclose(out, tone, atol=1e-12)


def test_signal_rolloff_keeps_real_signals_real():
    rng = derive_stream(121, 0)
    frame = rng.normal(512) + 0j
    out = signal_rolloff(frame, side="both", edge_frac=0.2)
    assert np.max(np.abs(out.imag)) < 1e-12


def test_signal_rolloff_sides_are_selective():
    n = 256
    up = np.exp(2j * np.pi * 112 / n * np.arange(n))
    down = np.exp(-2j * np.pi * 112 / n * np.arange(n))
    for frame, hot_side in ((up, "upper"), (down, "lower")):
        atten = signal_rolloff(frame, side=hot_side, edge_frac=0.125)
        passed = signal_rolloff(
            frame, side="lower" if hot_side == "upper" else "upper",
            edge_frac=0.125)
        assert mean_power(atten) == pytest.approx(0.25, abs=1e-9)
        assert mean_power(passed) == pytest.approx(1.0, abs=1e-9)


def test_signal_rolloff_never_amplifies():
    frame = frame_of(122, 512)
    out = signal_rolloff(frame, edge_frac=0.3)
    assert mean_power(out) <= mean_power(frame) + 1e-12


def test_signal_rolloff_validation_and_zero_edge():
    frame = frame_of(123, 64)
    np.testing.assert_array_equal(signal_rolloff(frame, edge_frac=0.0), frame)
    with pytest.raises(ValueError):
        signal_rolloff(frame, side="middle")
    with pytest.raises(ValueError):
        signal_rolloff(frame, edge_frac=0.6)


def test_gain_drift_bounded_real_gain():
    frame = frame_of(124)
    out = gain_drift(frame, derive_stream(124, 1), drift_rate=0.01, max_drift=0.1)
    ratio = out / frame
    assert np.max(np.abs(ratio.imag)) < 1e-12
    assert np.all(ratio.real >= 1.0 - 0.1 - 1e-12)
    assert np.all(ratio.real <= 1.0 + 0.1 + 1e-12)
    assert np.std(ratio.real) > 0.0


def test_gain_drift_zero_rate_is_identity():
    frame = frame_of(125, 128)
    np.testing.assert_array_equal(
        gain_drift(frame, derive_stream(125, 1), drift_rate=0.0), frame)


def test_lo_drift_preserves_magnitude_and_bounds_frequency():
    frame = frame_of(126)
    out = lo_drift(frame, derive_stream(126, 1), drift_rate=1e-3, max_drift=0.01)
    np.testing.assert_allclose(np.abs(out), np.abs(frame), rtol=1e-12)
    rot = out / frame
    inst = np.diff(np.unwrap(np.angle(rot))) / (2 * np.pi)
    assert np.max(np.abs(inst)) <= 0.01 + 1e-9
    assert np.std(inst) > 0.0


def test_time_varying_noise_ramp():
    frame = np.ones(16384, dtype=np.complex128)
    out = time_varying_noise(frame, derive_stream(127, 1),
                             snr_low_db=0.0, snr_high_db=30.0)
    noise = np.abs(out - frame) ** 2
    head = noise[:512].mean()  # sigma^2 ~ 1 at the low-SNR end
    tail = noise[-512:].mean()  # sigma^2 ~ 1e-3 at the high end
    assert head == pytest.approx(1.0, rel=0.4)
    assert tail < 0.01


def test_time_varying_noise_inflection_dips_in_the_middle():
    frame = np.ones(12000, dtype=np.complex128)
    out = time_varying_noise(frame, derive_stream(128, 1),
                             snr_low_db=0.0, snr_high_db=30.0, inflections=1)
    noise = np.abs(out - frame) ** 2
    mid = noise[5500:6500].mean()
    ends = np.concatenate([noise[:500], noise[-500:]]).mean()
    assert mid < ends / 20
    with pytest.raises(ValueError):
        time_varying_noise(frame, derive_stream(128, 2), 0.0, 30.0, inflections=-1)


def test_clip_explicit_bound_and_idempotence():
    frame = frame_of(129, 512) * 3.0
    out = clip(frame, percentage=0.9, max_amplitude=1.0)
    assert np.max(np.abs(out.real)) <= 0.9
    assert np.max(np.abs(out.imag)) <= 0.9
    np.testing.assert_array_equal(clip(out, 0.9, max_amplitude=1.0), out)
    untouched = (np.abs(frame.real) <= 0.9) & (np.abs(frame.imag) <= 0.9)
    np.testing.assert_array_equal(out[untouched], frame[untouched])


def test_clip_default_bound_tracks_frame_max():
    frame = frame_of(130, 256)
    m = max(np.abs(frame.real).max(), np.abs(frame.imag).max())
    out = clip(frame, percentage=0.5)
    assert np.max(np.abs(out.real)) == pytest.approx(0.5 * m, rel=1e-12)


def test_add_slope_oracle():
    frame = frame_of(131, 64)
    out = add_slope(frame)
    assert out[0] == frame[0]
    np.testing.assert_allclose(out[1:], 2 * frame[1:] - frame[:-1])


def test_add_slope_triples_the_nyquist_tone():
    nyq = np.cos(np.pi * np.arange(64)) + 0j  # +1,-1,+1,...
    out = add_slope(nyq)
    np.testing.assert_allclose(out[1:], 3 * nyq[1:])


def test_random_convolve_single_tap_is_identity():
    from sigforge.augmentations import random_convolve

    frame = frame_of(132, 256)
    out = random_convolve(frame, derive_stream(132, 1),
                          num_taps_range=(1, 1), alpha=0.5)
    np.testing.assert_array_equal(out, frame)


def test_random_convolve_matches_manual_replay():
    from scipy.signal import convolve as sconvolve

    from sigforge.augmentations import random_convolve

    frame = frame_of(133, 300)
    rng = derive_stream(133, 1)
    shadow = rng.clone()
    out = random_convolve(frame, rng, num_taps_range=(2, 5), alpha=0.7)
    num_taps = int(shadow.integers(2, 6))
    taps = shadow.unit(num_taps)
    taps = taps / np.sqrt(np.sum(taps**2))
    full = sconvolve(frame, taps)
    lead = (len(full) - len(frame) + 1) // 2  # numpy 'same' alignment
    want = 0.7 * full[lead:lead + len(frame)] + 0.3 * frame
    np.testing.assert_allclose(out, want, atol=1e-12)


# ---------------------------------------------------------------------------
# AGC


def test_agc_converges_to_unit_magnitude():
    frame = 0.2 * np.exp(2j * np.pi * 0.05 * np.arange(4096))
    out = agc(frame)
    np.testing.assert_allclose(np.abs(out[-256:]), 1.0, atol=0.01)


def test_agc_hot_input_converges_via_overflow_path():
    frame = 30.0 * np.exp(2j * np.pi * 0.05 * np.arange(4096))
    out = agc(frame)
    np.testing.assert_allclose(np.abs(out[-256:]), 1.0, atol=0.01)
    # the overflow constant is 2.5x the acquire constant, so pull-in from
    # +ln30 is at least as fast as acquire-only would be
    within = np.flatnonzero(np.abs(np.abs(out) - 1.0) < 0.05)
    assert within.size and within[0] < 1024


def test_agc_freezes_below_low_level():
    frame = 1e-4 * np.exp(2j * np.pi * 0.05 * np.arange(512))
    np.testing.assert_array_equal(agc(frame), frame)  # gain stays e^0


def test_agc_handles_zero_samples():
    frame = np.ones(64, dtype=np.complex128)
    frame[10] = 0.0
    out = agc(frame)
    assert np.all(np.isfinite(out))
    assert out[10] == 0.0


def test_agc_tracks_a_level_step():
    frame = np.concatenate([
        0.5 * np.ones(2048, dtype=np.complex128),
        2.0 * np.ones(2048, dtype=np.complex128),
    ])
    out = agc(frame)
    np.testing.assert_allclose(np.abs(out[1900:2048]), 1.0, atol=0.02)
    np.testing.assert_allclose(np.abs(out[-128:]), 1.0, atol=0.02)


def test_agc_custom_reference():
    frame = 0.5 * np.ones(4096, dtype=np.complex128)
    out = agc(frame, reference_level=math.log(2.0))
    np.testing.assert_allclose(np.abs(out[-256:]), 2.0, atol=0.02)


# ---------------------------------------------------------------------------
# mixes


def test_mixup_explicit_alpha():
    a = np.exp(2j * np.pi * 0.05 * np.arange(1024))
    b = np.exp(2j * np.pi * 0.20 * np.arange(1024))
    mixed, info = mixup(a, 3, b, 7, alpha_db=20.0)
    np.testing.assert_allclose(mixed, a + 0.1 * b, atol=1e-15)
    assert info == LabelInfo(primary=3, secondary=7,
                             secondary_weight=pytest.approx(0.01 / 1.01))


def test_mixup_infinite_alpha_is_identity():
    a, b = frame_of(134, 64), frame_of(135, 64)
    mixed, info = mixup(a, 1, b, 2, alpha_db=math.inf)
    np.testing.assert_array_equal(mixed, a)
    assert info == LabelInfo(primary=1)


def test_mixup_without_an_rng_needs_alpha():
    a, b = frame_of(134, 64), frame_of(135, 64)
    with pytest.raises(TypeError, match="needs an rng"):
        mixup(a, 1, b, 2)


def test_mixup_drawn_alpha_range():
    a, b = frame_of(136), frame_of(137)
    for i in range(20):
        mixed, info = mixup(a, 0, b, 1, rng=derive_stream(138, i))
        scale = np.linalg.norm(mixed - a) / np.linalg.norm(b)
        assert 10 ** (-23 / 20) - 1e-9 <= scale <= 10 ** (-3 / 20) + 1e-9
        assert 0.0 < info.secondary_weight < 0.5


def test_cutmix_explicit_region():
    a, b = frame_of(139, 1024), frame_of(140, 1024)
    out, info = cutmix(a, 5, b, 9, alpha_frac=0.25, start=100)
    np.testing.assert_array_equal(out[:100], a[:100])
    np.testing.assert_array_equal(out[100:356], b[100:356])
    np.testing.assert_array_equal(out[356:], a[356:])
    assert info == LabelInfo(primary=5, secondary=9, secondary_weight=0.25)


def test_cutmix_extremes_and_validation():
    a, b = frame_of(141, 128), frame_of(142, 128)
    out, info = cutmix(a, 1, b, 2, alpha_frac=0.0)
    np.testing.assert_array_equal(out, a)
    assert info == LabelInfo(primary=1)
    out, info = cutmix(a, 1, b, 2, alpha_frac=1.0)
    np.testing.assert_array_equal(out, b)
    assert info == LabelInfo(primary=2)
    with pytest.raises(ValueError):
        cutmix(a, 1, b, 2, alpha_frac=1.2)


def test_cutmix_drawn_start_is_contiguous():
    a, b = frame_of(143, 1000), frame_of(144, 1000)
    out, _ = cutmix(a, 0, b, 1, alpha_frac=0.3, rng=derive_stream(145, 0))
    changed = np.flatnonzero(out != a)
    assert changed.size == 300
    assert changed[-1] - changed[0] == 299


# ---------------------------------------------------------------------------
# feature views


def test_to_features_views():
    frame = frame_of(146, 512)
    two = to_features(frame, "iq_2channel")
    assert two.shape == (2, 512)
    np.testing.assert_array_equal(two[0], frame.real)
    np.testing.assert_array_equal(two[1], frame.imag)
    inter = to_features(frame, "interleaved")
    assert inter.shape == (1024,)
    np.testing.assert_array_equal(inter[0::2], frame.real)
    np.testing.assert_array_equal(inter[1::2], frame.imag)
    np.testing.assert_array_equal(to_features(frame, "magnitude"), np.abs(frame))
    np.testing.assert_array_equal(to_features(frame, "wrapped_phase"), np.angle(frame))
    dft = to_features(frame, "dft")
    spectrum = np.fft.fft(frame)
    np.testing.assert_array_equal(dft[0], spectrum.real)
    np.testing.assert_array_equal(dft[1], spectrum.imag)


def test_to_features_spectrogram_shape():
    frame = frame_of(147)
    mat = to_features(frame, "spectrogram")
    assert mat.shape == (256, (4096 - 256) // 128 + 1)


def test_to_features_unknown_kind():
    with pytest.raises(ValueError):
        to_features(frame_of(148, 64), "cepstrum")


# ---------------------------------------------------------------------------
# specs, RandAugment, pipelines


def test_augment_spec_validation():
    with pytest.raises(ValueError):
        AugmentSpec(kind="identity", probability=1.5)
    with pytest.raises(ValueError):
        AugmentSpec(kind="warp")
    assert set(RAND_AUGMENT_KINDS) <= set(AUGMENTATIONS)
    assert len(RAND_AUGMENT_KINDS) == 9
    assert "identity" in RAND_AUGMENT_KINDS


def test_apply_augment_respects_params():
    frame = frame_of(149)
    spec = AugmentSpec(kind="cutout", params={"duration_frac": 0.05, "fill": "zeros"})
    out = apply_augment(frame, derive_stream(149, 1), spec)
    assert (out == 0).sum() == round(0.05 * 4096)


def test_rand_augment_deterministic_and_fresh():
    frame = frame_of(150)
    a = rand_augment(frame, derive_stream(150, 1))
    b = rand_augment(frame, derive_stream(150, 1))
    np.testing.assert_array_equal(a, b)
    only_id = (AugmentSpec(kind="identity"),)
    out = rand_augment(frame, derive_stream(150, 2), ops=only_id)
    np.testing.assert_array_equal(out, frame)
    assert out is not frame


def test_rand_augment_applies_n_ops():
    frame = frame_of(151, 256)
    flip = (AugmentSpec(kind="amplitude_reversal"),)
    np.testing.assert_array_equal(
        rand_augment(frame, derive_stream(151, 1), ops=flip, n=3), -frame)
    np.testing.assert_array_equal(
        rand_augment(frame, derive_stream(151, 2), ops=flip, n=2), frame)


def test_pipeline_gate_rate():
    frame = frame_of(152, 32)
    pipe = Pipeline((AugmentSpec(kind="amplitude_reversal", probability=0.3),))
    flips = sum(
        np.array_equal(pipe(frame, derive_stream(152, i)), -frame)
        for i in range(4000)
    )
    assert abs(flips / 4000 - 0.3) < 0.025


def test_pipeline_applies_in_order():
    frame = frame_of(153, 256)
    q = AugmentSpec(kind="quantize", params={"num_levels": 3, "rounding": "floor"})
    neg = AugmentSpec(kind="amplitude_reversal")
    a = Pipeline((q, neg))(frame, derive_stream(153, 1))
    b = Pipeline((neg, q))(frame, derive_stream(153, 2))
    assert not np.array_equal(a, b)  # floor rounding does not commute with -x
    np.testing.assert_array_equal(a, -apply_augment(frame, derive_stream(153, 3), q))


def test_pipeline_empty_returns_copy():
    frame = frame_of(154, 64)
    out = Pipeline(())(frame, derive_stream(154, 1))
    np.testing.assert_array_equal(out, frame)
    assert out is not frame


def test_build_pipeline_from_list_string_and_file(tmp_path):
    entries = [
        {"kind": "channel_swap", "probability": 1.0},
        {"kind": "clip", "params": {"percentage": 0.8}},
    ]
    frame = frame_of(155, 128)
    from_list = build_pipeline(entries)(frame, derive_stream(155, 1))
    from_str = build_pipeline(json.dumps(entries))(frame, derive_stream(155, 1))
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(entries))
    from_file = build_pipeline(str(path))(frame, derive_stream(155, 1))
    np.testing.assert_array_equal(from_list, from_str)
    np.testing.assert_array_equal(from_list, from_file)
    assert len(build_pipeline(entries).specs) == 2
    assert build_pipeline(entries).specs[0].probability == 1.0


def test_build_pipeline_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_pipeline([{"kind": "reverb"}])


# The registry's 18 kinds, and the params the smallest spec of each needs.
KINDS = (
    "identity", "spectral_inversion", "channel_swap", "amplitude_reversal", "cutout",
    "drop_samples", "quantize", "magnitude_rescale", "patch_shuffle", "time_reversal",
    "signal_rolloff", "lo_drift", "gain_drift", "time_varying_noise", "clip", "add_slope",
    "random_convolve", "agc",
)
REQUIRED_PARAMS = {"time_varying_noise": {"snr_low_db": 0.0, "snr_high_db": 20.0}}


def test_registry_holds_every_kind():
    assert set(AUGMENTATIONS) == set(KINDS)
    for kind, (transform, _drawn) in AUGMENTATIONS.items():
        assert transform.__name__ == kind


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_applies_through_a_minimal_spec(kind):
    frame = frame_of(156, 300)
    spec = AugmentSpec(kind=kind, params=REQUIRED_PARAMS.get(kind, {}))
    rngs = derive_stream(156, 1), derive_stream(156, 1)
    a, b = (apply_augment(frame, rng, spec) for rng in rngs)
    assert a.shape == frame.shape
    assert a.tobytes() == b.tobytes()
    assert rngs[0].counter == rngs[1].counter


@pytest.mark.parametrize("kind", KINDS)
def test_spec_refuses_an_unknown_param_when_built(kind):
    params = {**REQUIRED_PARAMS.get(kind, {}), "percent": 0.1}
    with pytest.raises(ValueError, match=f"'{kind}'.*'percent'"):
        AugmentSpec(kind=kind, probability=0.01, params=params)


@pytest.mark.parametrize("params", [{}, {"snr_low_db": 0.0}, {"snr_high_db": 20.0}])
def test_spec_refuses_a_missing_required_param_when_built(params):
    with pytest.raises(ValueError, match="'time_varying_noise'.*missing"):
        AugmentSpec(kind="time_varying_noise", probability=0.01, params=params)


@pytest.mark.parametrize("kind,params,refused", [
    ("cutout", {"fill": "wrap"}, "fill"),
    ("drop_samples", {"fill": "zeros"}, "fill"),
    ("quantize", {"rounding": "nearest"}, "rounding"),
    ("quantize", {"num_levels": 0}, "num_levels"),
    ("quantize", {"num_levels": 2.5}, "num_levels"),
    ("quantize", {"num_levels": "8"}, "num_levels"),
    ("signal_rolloff", {"side": "middle"}, "side"),
    ("signal_rolloff", {"edge_frac": 0.6}, "edge_frac"),
    ("signal_rolloff", {"edge_frac": "0.1"}, "edge_frac"),
    ("time_varying_noise", {"snr_low_db": 0.0, "snr_high_db": 20.0, "inflections": -1},
     "inflections"),
    ("time_varying_noise", {"snr_low_db": 0.0, "snr_high_db": 20.0, "inflections": 1.0},
     "inflections"),
])
def test_spec_refuses_a_bad_value_when_built(kind, params, refused):
    with pytest.raises(ValueError, match=f"'{kind}'.*{refused}"):
        AugmentSpec(kind=kind, probability=0.01, params=params)


def test_spec_takes_frame_and_rng_from_the_caller_only():
    for name in ("frame", "rng"):
        with pytest.raises(ValueError, match=name):
            AugmentSpec(kind="cutout", params={name: None})
    with pytest.raises(ValueError, match="'agc'.*'config'"):
        AugmentSpec(kind="agc", params={"config": {"reference_level": 0.0}})


def test_spec_keeps_its_own_copy_of_params():
    params = {"percentage": 0.5}
    spec = AugmentSpec(kind="clip", params=params)
    params["percent"] = 0.1
    assert spec.params == {"percentage": 0.5}


@pytest.mark.parametrize("description,error", [
    ({"kind": "cutout"}, TypeError),
    ('{"kind": "cutout"}', TypeError),
    (["cutout"], TypeError),
    ([{"kind": "cutout"}, None], TypeError),
    ([{"kind": "cutout", "prob": 0.1}], ValueError),
    ([{"kind": "cutout", "probability": True}], TypeError),
    ([{"kind": "cutout", "probability": "0.5"}], TypeError),
    ([{"kind": "clip", "params": {"percent": 0.1}}], ValueError),
    ([{"kind": "time_varying_noise", "probability": 0.01}], ValueError),
])
def test_build_pipeline_refuses_a_malformed_description(description, error):
    with pytest.raises(error):
        build_pipeline(description)


def test_default_rand_augment_menu_is_wired():
    assert tuple(s.kind for s in DEFAULT_RAND_AUGMENT_OPS) == RAND_AUGMENT_KINDS


@given(key=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_patch_shuffle_multiset_property(key):
    frame = derive_stream(key, 2).cnormal(257)
    out = patch_shuffle(frame, derive_stream(key, 3), shuffle_ratio=1.0)
    np.testing.assert_array_equal(np.sort_complex(out), np.sort_complex(frame))


@given(key=st.integers(0, 2**32 - 1), levels=st.integers(2, 64))
@settings(max_examples=25, deadline=None)
def test_quantize_output_takes_few_values_property(key, levels):
    frame = derive_stream(key, 4).cnormal(256)
    out = quantize(frame, levels, "middle")
    assert len(np.unique(out.real)) <= levels
    assert len(np.unique(out.imag)) <= levels
