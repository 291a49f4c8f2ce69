"""Linear modulation synthesis and the blind matched-filter oracle."""

import numpy as np
import pytest

from sigforge.filters import rrc_taps
from sigforge.frame import mean_power
from sigforge.linear import (
    RRC_SPAN_SYMBOLS,
    SAMPLES_PER_SYMBOL,
    _shaping_taps,
    gen_linear_mod,
    matched_filter_demod,
    matched_filter_symbols,
    num_symbols,
    shape_symbols,
)
from sigforge.registry import linear_classes
from sigforge.rng import derive_stream


def test_shaping_taps_are_the_rrc_design_read_only():
    for alpha in (0.35, 0.2, 0.35):  # a drawn alpha between two clean ones
        taps = _shaping_taps(alpha)
        assert taps.tobytes() == rrc_taps(alpha, SAMPLES_PER_SYMBOL, RRC_SPAN_SYMBOLS).tobytes()
        assert not taps.flags.writeable
    assert _shaping_taps(0.35) is _shaping_taps(0.35)


def test_num_symbols_covers_frame():
    assert num_symbols(4096) == 4096 // 2 + 11


def test_shape_symbols_crop_is_steady_state():
    """An all-ones symbol stream shapes to a sps-periodic steady state;
    any filter ramp-up leaking into the frame would break periodicity."""
    from sigforge.filters import rrc_taps
    taps = rrc_taps(0.35, 2, 11)
    symbols = np.ones(num_symbols(512), dtype=complex)
    frame = shape_symbols(symbols, taps, 512, 2)
    assert len(frame) == 512
    for phase in range(SAMPLES_PER_SYMBOL):
        lane = frame[phase::SAMPLES_PER_SYMBOL].real
        np.testing.assert_allclose(lane, lane[0], rtol=1e-12)


@pytest.mark.parametrize("cls", linear_classes(), ids=lambda c: c.name)
def test_roundtrip_every_class(cls):
    rng = derive_stream(51, cls.index)
    tx = rng.clone()
    frame, descriptor = gen_linear_mod(cls.index, rng)
    sent = tx.integers(0, cls.order, num_symbols(len(frame)))

    assert len(frame) == 4096
    assert abs(mean_power(frame) - 1.0) < 1e-12
    assert descriptor.samples_per_symbol == SAMPLES_PER_SYMBOL

    positions, decided = matched_filter_demod(frame, cls.index)
    assert len(positions) > 2000
    np.testing.assert_array_equal(decided, sent[positions])


def test_roundtrip_alternate_alpha():
    cls = linear_classes()[8]  # 16qam
    rng = derive_stream(52, 0)
    tx = rng.clone()
    frame, _ = gen_linear_mod(cls.index, rng, alpha=0.2)
    sent = tx.integers(0, cls.order, num_symbols(4096))
    positions, decided = matched_filter_demod(frame, cls.index, alpha=0.2)
    np.testing.assert_array_equal(decided, sent[positions])


def test_demod_survives_scaling_and_rotation():
    """The decision is blind: complex gain on the frame must not matter."""
    cls = linear_classes()[4]  # qpsk
    rng = derive_stream(53, 1)
    tx = rng.clone()
    frame, _ = gen_linear_mod(cls.index, rng)
    sent = tx.integers(0, cls.order, num_symbols(4096))
    positions, decided = matched_filter_demod(frame * (0.3 * np.exp(0.001j)), cls.index)
    np.testing.assert_array_equal(decided, sent[positions])


@pytest.mark.parametrize("name", ["bpsk", "qpsk"])
def test_soft_symbols_near_grid(name):
    """Soft symbols sit on the constellation up to the truncation ISI of
    the span-11 filter cascade, which is ~1e-2 worst case (the broken
    raised-cosine nulls sum over ~10 neighbours), not the per-tap -60 dB
    ripple. Constant-modulus classes keep the blind power scaling exact;
    the hard-decision round trip above is the binding check for the rest."""
    from sigforge.constellations import build_constellation
    from sigforge.registry import class_by_name
    cls = class_by_name(name)
    rng = derive_stream(54, cls.index)
    frame, _ = gen_linear_mod(cls.index, rng)
    _, soft = matched_filter_symbols(frame)
    table = build_constellation(cls.index)
    dist = np.min(np.abs(soft[:, None] - table.points[None, :]), axis=1)
    assert dist.max() < 1.5e-2


def test_draw_count_contract():
    """gen_linear_mod consumes exactly num_symbols() integer draws."""
    cls = linear_classes()[1]  # bpsk
    a = derive_stream(55, 3)
    b = a.clone()
    gen_linear_mod(cls.index, a)
    b.integers(0, cls.order, num_symbols(4096))
    assert a.counter == b.counter


def test_determinism():
    cls = linear_classes()[12]
    f1, _ = gen_linear_mod(cls.index, derive_stream(56, 4))
    f2, _ = gen_linear_mod(cls.index, derive_stream(56, 4))
    np.testing.assert_array_equal(f1, f2)
