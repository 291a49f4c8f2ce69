"""Single-carrier linear modulation (ASK/PAM/PSK/QAM) synthesis.

Symbols are drawn uniformly, upsampled by 2, shaped with a root-raised
cosine, and the filter's ramp-up/ramp-down is cropped away so the frame
contains only steady-state waveform.
"""

from __future__ import annotations

import functools

import numpy as np

from sigforge.constellations import build_constellation
from sigforge.filters import rrc_taps
from sigforge.frame import FRAME_LEN, normalize_unit_power
from sigforge.registry import SignalDescriptor, class_by_index
from sigforge.rng import RngStream

SAMPLES_PER_SYMBOL = 2
RRC_SPAN_SYMBOLS = 11
CLEAN_RRC_ALPHA = 0.35  # the clean recipe's roll-off; impaired examples draw theirs


def num_symbols(frame_len: int = FRAME_LEN) -> int:
    """Symbols drawn for a frame of frame_len samples: enough to fill it at
    SAMPLES_PER_SYMBOL plus one RRC_SPAN_SYMBOLS filter span of margin, so
    the steady-state crop exactly covers the frame."""
    return frame_len // SAMPLES_PER_SYMBOL + RRC_SPAN_SYMBOLS


def shape_symbols(symbols: np.ndarray, taps: np.ndarray, frame_len: int,
                  samples_per_symbol: int) -> np.ndarray:
    """Upsample-by-zeros, full convolution, center crop to frame_len."""
    up = np.zeros(len(symbols) * samples_per_symbol, dtype=np.complex128)
    up[::samples_per_symbol] = symbols
    shaped = np.convolve(up, taps)
    start = (len(shaped) - frame_len) // 2
    return shaped[start:start + frame_len]


@functools.lru_cache(maxsize=1)
def _shaping_taps(alpha: float) -> np.ndarray:
    """The RRC taps of gen_linear_mod and the matched filters, read-only.
    The clean recipe's one alpha is designed once; an impaired example
    draws its own, and a cache of one keeps those draws from piling up."""
    taps = rrc_taps(alpha, SAMPLES_PER_SYMBOL, RRC_SPAN_SYMBOLS)
    taps.flags.writeable = False
    return taps


def gen_linear_mod(class_index: int, rng: RngStream, alpha: float = CLEAN_RRC_ALPHA,
                   frame_len: int = FRAME_LEN) -> tuple[np.ndarray, SignalDescriptor]:
    """Generate one unit-power linearly modulated frame.

    Consumes exactly ``num_symbols(frame_len)`` integer draws from
    ``rng`` (the symbol indices), so a cloned stream can reproduce the
    transmitted sequence for demodulation checks.
    """
    cls = class_by_index(class_index)
    table = build_constellation(class_index)
    nsym = num_symbols(frame_len)
    indices = rng.integers(0, cls.order, nsym)
    taps = _shaping_taps(alpha)
    frame = normalize_unit_power(
        shape_symbols(table.points[indices], taps, frame_len, SAMPLES_PER_SYMBOL)
    )
    return frame, cls.descriptor(SAMPLES_PER_SYMBOL)


def matched_filter_symbols(frame: np.ndarray, alpha: float = CLEAN_RRC_ALPHA
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter the frame and decimate to symbol rate.

    Returns ``(symbol_positions, soft_symbols)`` where positions are the
    symbol counters whose full filter support lies inside the frame.
    Soft symbols are scaled to unit mean power so they land near the
    constellation grid for a clean frame.
    """
    sps, span = SAMPLES_PER_SYMBOL, RRC_SPAN_SYMBOLS

    # Symbol s of the generator peaks at frame sample s*sps - span*sps/2;
    # after matched filtering (full convolution) that moves to index s*sps,
    # which draws on frame samples [s*sps - span*sps, s*sps] — fully inside
    # the frame exactly for s in [span, (len(frame)-1)//sps].
    z = np.convolve(frame, _shaping_taps(alpha))
    positions = np.arange(span, (len(frame) - 1) // sps + 1)
    soft = z[positions * sps]
    scale = np.sqrt(np.mean(np.abs(soft) ** 2))
    if scale > 0.0:
        soft = soft / scale
    return positions, soft


def matched_filter_demod(frame: np.ndarray, class_index: int, alpha: float = CLEAN_RRC_ALPHA
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Recover symbol indices from a noiseless linearly modulated frame.

    Returns ``(symbol_positions, decided_indices)``. The decision is
    blind: the scale is found by a brute-force sweep minimizing total
    nearest-point distance, then polished with decision-directed
    least squares. The sweep matters for dense one-sided constellations
    (64PAM): the empirical-power scale estimate carries ~1% sampling
    error, more than the outer levels' decision margin, and a purely
    local refinement can lock onto an off-by-one-level fixed point.
    """
    table = build_constellation(class_index)
    positions, soft = matched_filter_symbols(frame, alpha)

    def decide(gain: complex) -> np.ndarray:
        dist = np.abs(soft[:, None] / gain - table.points[None, :])
        return np.argmin(dist, axis=1)

    best_cost, gain = np.inf, 1.0
    for scale in np.linspace(0.96, 1.04, 41):
        dist = np.abs(soft[:, None] / scale - table.points[None, :])
        cost = np.sum(np.min(dist, axis=1) ** 2)
        if cost < best_cost:
            best_cost, gain = cost, scale
    decided = None
    for _ in range(4):
        new = decide(gain)
        if decided is not None and np.array_equal(new, decided):
            break
        decided = new
        ref = table.points[decided]
        gain = np.vdot(ref, soft) / np.vdot(ref, ref)
    return positions, decided
