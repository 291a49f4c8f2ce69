"""Frequency-modulated waveforms: tone placement, envelope, shaping."""

import math

import numpy as np
import pytest

from sigforge.filters import gaussian_taps
from sigforge.fsk import (
    GAUSSIAN_SPAN_SYMBOLS,
    _gaussian_taps,
    fsk_spec,
    fsk_waveform,
    gen_fsk,
    tone_frequencies,
)
from sigforge.registry import CLASS_LIST, class_by_name
from sigforge.rng import derive_stream

FSK_CLASSES = [c for c in CLASS_LIST if c.family == "fsk"]


def spec_of(name):
    return fsk_spec(class_by_name(name))


# ---------------------------------------------------------------------------
# tone table


def test_gaussian_taps_are_the_design_read_only():
    for bt in (0.35, 0.2, 0.35):  # a drawn BT between two clean ones
        taps = _gaussian_taps(bt, 2)
        assert taps.tobytes() == gaussian_taps(bt, 2, GAUSSIAN_SPAN_SYMBOLS).tobytes()
        assert not taps.flags.writeable
    assert _gaussian_taps(0.35, 2) is _gaussian_taps(0.35, 2)


def test_tone_frequencies_oracle():
    # Recompute the map per tone with plain scalar arithmetic.
    for cls in FSK_CLASSES:
        spec = spec_of(cls.name)
        got = tone_frequencies(spec)
        for k in range(spec.order):
            want = spec.mod_index * (2 * k - spec.order + 1) / (2 * spec.samples_per_symbol)
            assert got[k] == pytest.approx(want, abs=0.0)


def test_tone_frequencies_antisymmetric():
    for cls in FSK_CLASSES:
        freqs = tone_frequencies(spec_of(cls.name))
        np.testing.assert_allclose(freqs, -freqs[::-1], atol=0.0)
        assert np.all(np.diff(freqs) > 0)


def test_2fsk_tones_are_sixteenth_of_fs():
    freqs = tone_frequencies(spec_of("2fsk"))
    np.testing.assert_allclose(freqs, [-1 / 16, 1 / 16])


def test_msk_spacing_is_half_of_fsk():
    fsk = tone_frequencies(spec_of("4fsk"))
    msk = tone_frequencies(spec_of("4msk"))
    np.testing.assert_allclose(np.diff(msk), np.diff(fsk) / 2)


def test_mod_index_and_rate_per_variant():
    assert spec_of("8fsk").mod_index == 1.0
    assert spec_of("8gfsk").mod_index == 1.0
    assert spec_of("8msk").mod_index == 0.5
    assert spec_of("8gmsk").mod_index == 0.5
    assert spec_of("8fsk").samples_per_symbol == 8
    assert spec_of("8msk").samples_per_symbol == 8
    assert spec_of("8gfsk").samples_per_symbol == 2
    assert spec_of("8gmsk").samples_per_symbol == 2


def test_fsk_spec_rejects_other_families():
    with pytest.raises(ValueError):
        fsk_spec(class_by_name("qpsk"))
    with pytest.raises(ValueError):
        fsk_spec(class_by_name("ofdm-64"))


# ---------------------------------------------------------------------------
# waveform


@pytest.mark.parametrize("cls", FSK_CLASSES, ids=lambda c: c.name)
def test_constant_envelope(cls):
    frame, desc = gen_fsk(spec_of(cls.name), derive_stream(11, cls.index))
    assert frame.shape == (4096,)
    np.testing.assert_allclose(np.abs(frame), 1.0, atol=1e-9)
    assert desc.class_name == cls.name
    assert desc.samples_per_symbol == spec_of(cls.name).samples_per_symbol


@pytest.mark.parametrize("name", ["2fsk", "4fsk", "8fsk", "16fsk", "2msk", "16msk"])
def test_constant_symbol_gives_pure_tone(name):
    """Holding one symbol must produce exp(j*2*pi*f_k*n) up to a phase.

    Oracle: differentiate the unwrapped phase instead of trusting any
    spectral estimate. 16-ary tones reach |f| = 15/16 cycles/sample and
    alias on the discrete grid, so compare modulo 1.
    """
    spec = spec_of(name)
    freqs = tone_frequencies(spec)
    for k in (0, spec.order - 1, spec.order // 2):
        wave = fsk_waveform(spec, np.full(64, k))
        inst = np.diff(np.unwrap(np.angle(wave))) / (2 * np.pi)
        err = (inst - freqs[k] + 0.5) % 1.0 - 0.5
        np.testing.assert_allclose(err, 0.0, atol=1e-9)


def test_phase_is_continuous_across_symbol_boundaries():
    spec = spec_of("4fsk")
    wave = fsk_waveform(spec, np.array([0, 3, 1, 2, 0, 3]))
    step = np.abs(np.diff(np.unwrap(np.angle(wave))))
    # Largest per-sample phase step possible is 2*pi*max|f|.
    assert step.max() <= 2 * np.pi * tone_frequencies(spec).max() + 1e-9


def test_gaussian_variant_smooths_frequency():
    spec = spec_of("2gfsk")
    sym = np.array([0, 1] * 32)
    wave = fsk_waveform(spec, sym)
    inst = np.diff(np.unwrap(np.angle(wave))) / (2 * np.pi)
    hard = tone_frequencies(spec)[np.repeat(sym, spec.samples_per_symbol)]
    inst_hard = np.diff(np.unwrap(np.angle(fsk_waveform(spec_of("2fsk"), sym))))
    # shaped transitions never overshoot the tone grid
    assert inst.max() <= tone_frequencies(spec).max() + 1e-9
    assert inst.min() >= tone_frequencies(spec).min() - 1e-9
    # and are strictly smoother than the rectangular train
    assert np.abs(np.diff(inst)).max() < np.abs(np.diff(hard)).max()
    del inst_hard  # rectangular reference only used via `hard`


def test_gmsk_matches_manual_gaussian_integration():
    """Independent end-to-end rebuild: shape the frequency train with
    scipy's convolution, integrate, exponentiate."""
    from scipy.signal import convolve

    from sigforge.filters import gaussian_taps

    spec = spec_of("4gmsk")
    rng = derive_stream(99, 0)
    sym = rng.integers(0, 4, 128)
    freq = np.repeat(tone_frequencies(spec)[sym], spec.samples_per_symbol)
    taps = gaussian_taps(0.35, spec.samples_per_symbol, GAUSSIAN_SPAN_SYMBOLS)
    pad = len(taps) // 2
    shaped = convolve(freq, taps, mode="full")[pad:pad + len(freq)]
    want = np.exp(2j * np.pi * np.cumsum(shaped))
    got = fsk_waveform(spec, sym)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_alternate_bt_changes_shaped_variants_only():
    rng = lambda: derive_stream(5, 7)  # noqa: E731 - fresh identical stream
    a, _ = gen_fsk(spec_of("2gfsk"), rng(), bt=0.2)
    b, _ = gen_fsk(spec_of("2gfsk"), rng(), bt=0.5)
    assert not np.array_equal(a, b)
    c, _ = gen_fsk(spec_of("2fsk"), rng(), bt=0.2)
    d, _ = gen_fsk(spec_of("2fsk"), rng(), bt=0.5)
    np.testing.assert_array_equal(c, d)


def test_draw_count_contract():
    for name in ("2fsk", "16gmsk"):
        spec = spec_of(name)
        rng = derive_stream(3, 1)
        before = rng.counter
        gen_fsk(spec, rng)
        assert rng.counter - before == math.ceil(4096 / spec.samples_per_symbol)


def test_determinism():
    for cls in FSK_CLASSES[:4]:
        a, _ = gen_fsk(spec_of(cls.name), derive_stream(21, cls.index))
        b, _ = gen_fsk(spec_of(cls.name), derive_stream(21, cls.index))
        np.testing.assert_array_equal(a, b)


def test_custom_frame_len():
    frame, _ = gen_fsk(spec_of("4gfsk"), derive_stream(1, 2), frame_len=1000)
    assert frame.shape == (1000,)
