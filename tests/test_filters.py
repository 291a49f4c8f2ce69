"""Pulse-shaping filters against independently written closed forms."""

import math

import numpy as np
import pytest

from sigforge.filters import _window, convolve_same, gaussian_taps, lowpass_taps, rrc_taps


def rrc_reference(alpha: float, sps: int, span: int) -> np.ndarray:
    """Scalar re-derivation of the root-raised-cosine impulse response,
    written separately from the library path (math module, explicit
    singularity handling, trailing energy normalization)."""
    half = span * sps // 2
    taps = []
    for k in range(-half, half + 1):
        t = k / sps
        if t == 0.0:
            value = 1.0 - alpha + 4.0 * alpha / math.pi
        elif abs(abs(4.0 * alpha * t) - 1.0) < 1e-9:
            value = (alpha / math.sqrt(2.0)) * (
                (1.0 + 2.0 / math.pi) * math.sin(math.pi / (4.0 * alpha))
                + (1.0 - 2.0 / math.pi) * math.cos(math.pi / (4.0 * alpha)))
        else:
            num = (math.sin(math.pi * t * (1.0 - alpha))
                   + 4.0 * alpha * t * math.cos(math.pi * t * (1.0 + alpha)))
            value = num / (math.pi * t * (1.0 - (4.0 * alpha * t) ** 2))
        taps.append(value)
    out = np.array(taps)
    return out / math.sqrt(sum(v * v for v in taps))


def gaussian_reference(bt: float, sps: int, span: int) -> np.ndarray:
    sigma = math.sqrt(math.log(2.0)) / (2.0 * math.pi * bt)
    half = span * sps // 2
    taps = [math.exp(-((k / sps) ** 2) / (2.0 * sigma * sigma))
            for k in range(-half, half + 1)]
    total = sum(taps)
    return np.array([v / total for v in taps])


@pytest.mark.parametrize("alpha", [0.15, 0.35, 0.6, 0.9])
def test_rrc_matches_independent_closed_form(alpha):
    taps = rrc_taps(alpha, 2, 11)
    np.testing.assert_allclose(taps, rrc_reference(alpha, 2, 11),
                               rtol=0.0, atol=1e-12)


def test_rrc_hits_both_singularities():
    # alpha=0.25 at sps=2 puts |4*alpha*t|=1 exactly on tap t=1 (k=2)
    taps = rrc_taps(0.25, 2, 11)
    np.testing.assert_allclose(taps, rrc_reference(0.25, 2, 11),
                               rtol=0.0, atol=1e-12)
    assert np.isfinite(taps).all()


def test_rrc_shape_properties():
    taps = rrc_taps(0.35, 2, 11)
    assert len(taps) == 23
    np.testing.assert_allclose(taps, taps[::-1], atol=0)  # exactly symmetric
    assert np.argmax(taps) == len(taps) // 2
    assert abs(np.sum(taps**2) - 1.0) < 1e-12  # unit energy


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
def test_rrc_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        rrc_taps(alpha, 2, 11)


@pytest.mark.parametrize("bt", [0.1, 0.35, 0.5, 1.0])
def test_gaussian_matches_independent_closed_form(bt):
    for sps in (2, 8):
        taps = gaussian_taps(bt, sps, 4)
        np.testing.assert_allclose(taps, gaussian_reference(bt, sps, 4),
                                   rtol=0.0, atol=1e-12)


def test_gaussian_shape_properties():
    taps = gaussian_taps(0.35, 8, 4)
    assert len(taps) == 33
    assert abs(np.sum(taps) - 1.0) < 1e-12  # unit DC gain
    np.testing.assert_allclose(taps, taps[::-1], atol=0)
    # narrower in time for larger bt
    wide = gaussian_taps(0.1, 8, 4)
    assert taps[0] < wide[0]


def test_gaussian_rejects_bad_bt():
    for bt in (0.0, -1.0, 1.01):
        with pytest.raises(ValueError):
            gaussian_taps(bt, 8, 4)


class TestLowpass:
    def test_dc_gain_is_one(self):
        taps = lowpass_taps(0.2, 63)
        assert abs(np.sum(taps) - 1.0) < 1e-12

    def test_frequency_response(self):
        """Windowed sinc at cutoff 0.2: passband flat, stopband deep."""
        taps = lowpass_taps(0.2, 129, kaiser_beta=5.653)
        grid = np.fft.rfftfreq(8192)
        response = np.abs(np.fft.rfft(taps, 8192))
        passband = response[grid < 0.15]
        stopband = response[grid > 0.25]
        assert passband.min() > 0.95
        assert stopband.max() < 10 ** (-40 / 20)

    def test_taps_are_fresh_and_writable_and_the_window_is_not(self):
        for beta in (None, 5.653):
            first, again = lowpass_taps(0.2, 63, beta), lowpass_taps(0.2, 63, beta)
            first[0] = 1.0
            assert again[0] != 1.0
            np.testing.assert_array_equal(lowpass_taps(0.2, 63, beta), again)
        window = _window(63, 5.653)
        assert window is _window(63, 5.653) and not window.flags.writeable
        np.testing.assert_array_equal(window, np.kaiser(63, 5.653))
        np.testing.assert_array_equal(_window(63, None), np.hanning(63))

    def test_odd_tap_count_enforced(self):
        with pytest.raises(ValueError):
            lowpass_taps(0.2, 64)


def test_convolve_same_length_and_center():
    x = np.zeros(32, dtype=complex)
    x[16] = 1.0
    h = np.array([0.25, 0.5, 0.25])
    y = convolve_same(x, h)
    assert len(y) == 32
    assert y[16] == 0.5 and y[15] == 0.25 and y[17] == 0.25
