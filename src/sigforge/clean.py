"""Clean-frame dispatcher over the three family generators.

The clean recipe's constants, linear.CLEAN_RRC_ALPHA and
fsk.CLEAN_GAUSSIAN_BT, live beside their generators.
"""

from __future__ import annotations

import numpy as np

from sigforge.frame import FRAME_LEN
from sigforge.fsk import CLEAN_GAUSSIAN_BT, fsk_spec, gen_fsk
from sigforge.linear import CLEAN_RRC_ALPHA, gen_linear_mod
from sigforge.ofdm import draw_ofdm_spec, gen_ofdm
from sigforge.registry import SignalDescriptor, class_by_index
from sigforge.rng import RngStream


def gen_clean(class_index: int, rng: RngStream,
              frame_len: int = FRAME_LEN) -> tuple[np.ndarray, SignalDescriptor]:
    """Generate one clean unit-power frame with the fixed clean defaults
    (RRC roll-off CLEAN_RRC_ALPHA, Gaussian BT CLEAN_GAUSSIAN_BT, OFDM
    structure drawn 50/50)."""
    cls = class_by_index(class_index)
    if cls.is_linear:
        return gen_linear_mod(class_index, rng, alpha=CLEAN_RRC_ALPHA, frame_len=frame_len)
    if cls.family == "fsk":
        return gen_fsk(fsk_spec(cls), rng, bt=CLEAN_GAUSSIAN_BT, frame_len=frame_len)
    spec = draw_ofdm_spec(cls.num_subcarriers, rng)
    return gen_ofdm(spec, rng, frame_len=frame_len)
