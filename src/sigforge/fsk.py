"""Continuous-phase frequency modulation: FSK, MSK, GFSK, GMSK.

The phase accumulator guarantees a constant envelope. Tone index k maps
to instantaneous frequency h*(2k - M + 1)/(2*sps) cycles/sample; the
modulation index h is 1.0 for FSK/GFSK and 0.5 for MSK/GMSK, and the
sample rate is 8 samples/symbol for FSK/MSK, 2 for GFSK/GMSK. The G
variants convolve the rectangular frequency pulse train with a Gaussian
filter before phase integration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from sigforge.filters import convolve_same, gaussian_taps
from sigforge.frame import FRAME_LEN
from sigforge.registry import SignalClass, SignalDescriptor, class_by_name
from sigforge.rng import RngStream

GAUSSIAN_SPAN_SYMBOLS = 4


@dataclass(frozen=True)
class FskSpec:
    order: int
    variant: str  # fsk | gfsk | msk | gmsk
    mod_index: float
    samples_per_symbol: int

    @property
    def gaussian_shaped(self) -> bool:
        return self.variant in ("gfsk", "gmsk")


def fsk_spec(cls: SignalClass) -> FskSpec:
    if cls.family != "fsk":
        raise ValueError(f"{cls.name} is not a frequency-modulated class")
    variant = cls.fsk_variant
    return FskSpec(
        order=cls.order,
        variant=variant,
        mod_index=0.5 if variant in ("msk", "gmsk") else 1.0,
        samples_per_symbol=2 if variant in ("gfsk", "gmsk") else 8,
    )


def tone_frequencies(spec: FskSpec) -> np.ndarray:
    """Per-tone instantaneous frequency in cycles/sample."""
    k = np.arange(spec.order, dtype=np.float64)
    return spec.mod_index * (2.0 * k - spec.order + 1) / (2.0 * spec.samples_per_symbol)


@functools.lru_cache(maxsize=1)
def _gaussian_taps(bt: float, samples_per_symbol: int) -> np.ndarray:
    """fsk_waveform's Gaussian taps, read-only. The clean recipe's one BT
    is designed once; an impaired example draws its own, and a cache of one
    keeps those draws from piling up."""
    taps = gaussian_taps(bt, samples_per_symbol, GAUSSIAN_SPAN_SYMBOLS)
    taps.flags.writeable = False
    return taps


def fsk_waveform(spec: FskSpec, symbol_indices: np.ndarray, bt: float = 0.35) -> np.ndarray:
    """Phase-accumulated waveform for an explicit symbol sequence."""
    freq = np.repeat(tone_frequencies(spec)[np.asarray(symbol_indices)], spec.samples_per_symbol)
    if spec.gaussian_shaped:
        taps = _gaussian_taps(bt, spec.samples_per_symbol)
        freq = convolve_same(freq, taps)
    theta = 2.0 * np.pi * np.cumsum(freq)
    return np.exp(1j * theta)


def gen_fsk(spec: FskSpec, rng: RngStream, bt: float = 0.35,
            frame_len: int = FRAME_LEN) -> tuple[np.ndarray, SignalDescriptor]:
    """Generate one constant-envelope frame (mean power exactly 1).

    Consumes exactly ``ceil(frame_len / sps)`` integer draws (the symbol
    indices).
    """
    nsym = math.ceil(frame_len / spec.samples_per_symbol)
    indices = rng.integers(0, spec.order, nsym)
    frame = fsk_waveform(spec, indices, bt)[:frame_len]
    cls = class_by_name(f"{spec.order}{spec.variant}")
    descriptor = SignalDescriptor(
        class_index=cls.index,
        class_name=cls.name,
        family=cls.family,
        samples_per_symbol=float(spec.samples_per_symbol),
    )
    return frame, descriptor
