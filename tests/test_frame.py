"""Frame coercion and power helpers."""

import numpy as np
import pytest

from sigforge.frame import (
    FRAME_LEN,
    ZeroPowerError,
    mean_power,
    normalize_unit_power,
)


def test_default_frame_length():
    assert FRAME_LEN == 4096


def test_mean_power_scalar_oracle():
    # |3+4j|^2 = 25, |1|^2 = 1 -> mean 13
    assert mean_power(np.array([3 + 4j, 1 + 0j])) == pytest.approx(13.0)
    with pytest.raises(ValueError):
        mean_power(np.array([], dtype=np.complex128))


@pytest.mark.parametrize("shape", [(1,), (7,), (4096,), (3, 129), (2, 3, 5)])
def test_mean_power_is_np_means_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    frame = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for x in (frame, frame.real, frame[..., ::2]):
        assert mean_power(x) == float(np.mean(x.real**2 + x.imag**2))


def test_mean_power_scaling_law():
    frame = np.array([1 + 2j, -0.5j, 0.25 + 0j, 3 - 1j])
    for c in (0.5, 2.0, 7.3):
        assert mean_power(c * frame) == pytest.approx(
            c**2 * mean_power(frame), rel=1e-12)


def test_normalize_unit_power():
    frame = np.array([2.0 + 0j, 0.0, 0.0, 0.0])  # power 1 -> already unit
    out = normalize_unit_power(frame)
    assert mean_power(out) == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(out, frame)
    scaled = normalize_unit_power(frame * 17.0)
    np.testing.assert_allclose(scaled, frame)


def test_normalize_power_four_halves_amplitude():
    frame = np.full(8, 2.0 + 0j)  # power 4
    np.testing.assert_allclose(normalize_unit_power(frame), frame * 0.5)


def test_normalize_zero_frame_raises():
    with pytest.raises(ZeroPowerError):
        normalize_unit_power(np.zeros(4, dtype=np.complex128))
