"""The clean-frame dispatcher across all 53 classes."""

import numpy as np
import pytest

from sigforge.clean import CLEAN_GAUSSIAN_BT, CLEAN_RRC_ALPHA, gen_clean
from sigforge.frame import mean_power
from sigforge.fsk import fsk_spec, gen_fsk
from sigforge.linear import gen_linear_mod
from sigforge.ofdm import draw_ofdm_spec, gen_ofdm
from sigforge.registry import CLASS_LIST
from sigforge.rng import derive_stream


@pytest.mark.parametrize("cls", CLASS_LIST, ids=lambda c: c.name)
def test_every_class_generates_unit_power(cls):
    frame, desc = gen_clean(cls.index, derive_stream(200, cls.index))
    assert frame.shape == (4096,)
    assert frame.dtype == np.complex128
    assert mean_power(frame) == pytest.approx(1.0, rel=1e-12)
    assert desc.class_index == cls.index
    assert desc.class_name == cls.name
    assert desc.family == cls.family


def test_clean_defaults_are_pinned():
    assert CLEAN_RRC_ALPHA == 0.35
    assert CLEAN_GAUSSIAN_BT == 0.35


def test_linear_dispatch_matches_direct_call():
    want, _ = gen_linear_mod(4, derive_stream(201, 0), alpha=0.35)
    got, _ = gen_clean(4, derive_stream(201, 0))
    np.testing.assert_array_equal(got, want)


def test_fsk_dispatch_matches_direct_call():
    cls = CLASS_LIST[27]  # 2gmsk
    want, _ = gen_fsk(fsk_spec(cls), derive_stream(202, 0), bt=0.35)
    got, _ = gen_clean(27, derive_stream(202, 0))
    np.testing.assert_array_equal(got, want)


def test_ofdm_dispatch_draws_structure_then_payload():
    cls = CLASS_LIST[41]  # ofdm-64
    rng = derive_stream(203, 0)
    spec = draw_ofdm_spec(64, rng)
    want, _ = gen_ofdm(spec, rng)
    got, _ = gen_clean(41, derive_stream(203, 0))
    np.testing.assert_array_equal(got, want)
    assert cls.num_subcarriers == 64


def test_custom_frame_len():
    frame, _ = gen_clean(0, derive_stream(204, 0), frame_len=512)
    assert frame.shape == (512,)


def test_distinct_streams_give_distinct_frames():
    a, _ = gen_clean(8, derive_stream(205, 0))
    b, _ = gen_clean(8, derive_stream(205, 1))
    assert not np.array_equal(a, b)
