"""OFDM waveform synthesis.

Each symbol is the inverse DFT of a 2N-point spectrum with the N
occupied subcarriers centered (half-band occupancy), prefixed with a
cyclic copy of its tail. The symbol stream then optionally gets a
sidelobe treatment: a low-pass filter over the whole frame, or a
raised-cosine amplitude taper at every symbol boundary. ``none`` skips
both (used by validation paths; random generation never draws it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sigforge.constellations import build_constellation
from sigforge.filters import convolve_same, lowpass_taps
from sigforge.frame import FRAME_LEN, normalize_unit_power
from sigforge.registry import SignalDescriptor, class_by_name
from sigforge.rng import RngStream

SUBCARRIER_MOD_NAMES = ("bpsk", "qpsk", "16qam", "64qam", "256qam", "1024qam")
CP_FRACTIONS = (0.125, 0.25)
EDGE_TREATMENTS = ("lowpass", "window", "none")

LOWPASS_CUTOFF = 0.27  # cycles/sample, just above the half-band edge
LOWPASS_NUM_TAPS = 63
# the low-pass of the "lowpass" edge treatment, designed once
_LOWPASS_TAPS = lowpass_taps(LOWPASS_CUTOFF, LOWPASS_NUM_TAPS)
_LOWPASS_TAPS.flags.writeable = False


@dataclass(frozen=True)
class OfdmSpec:
    num_subcarriers: int
    cp_fraction: float
    per_subcarrier_random: bool
    dc_present: bool
    edge_treatment: str

    def __post_init__(self) -> None:
        if self.cp_fraction not in CP_FRACTIONS:
            raise ValueError(f"cp_fraction must be one of {CP_FRACTIONS}")
        if self.edge_treatment not in EDGE_TREATMENTS:
            raise ValueError(f"edge_treatment must be one of {EDGE_TREATMENTS}")

    @property
    def dft_size(self) -> int:
        return 2 * self.num_subcarriers

    @property
    def cp_len(self) -> int:
        return int(self.cp_fraction * self.dft_size)

    @property
    def symbol_len(self) -> int:
        return self.dft_size + self.cp_len


def draw_ofdm_spec(num_subcarriers: int, rng: RngStream) -> OfdmSpec:
    """Draw the four structural coin flips, in this fixed order:
    per-subcarrier-random, CP fraction, DC presence, edge treatment."""
    return OfdmSpec(
        num_subcarriers=num_subcarriers,
        per_subcarrier_random=rng.bernoulli(0.5),
        cp_fraction=rng.choice(CP_FRACTIONS),
        dc_present=rng.bernoulli(0.5),
        edge_treatment=rng.choice(("lowpass", "window")),
    )


# The subcarrier constellations, built once: every table's points in one
# array, with each table's size and offset into it.
_TABLE_POINTS = [build_constellation(class_by_name(n).index).points
                 for n in SUBCARRIER_MOD_NAMES]
_TABLE_SIZES = np.array([len(p) for p in _TABLE_POINTS], dtype=np.int64)
_TABLE_OFFSETS = np.cumsum(_TABLE_SIZES) - _TABLE_SIZES
_ALL_POINTS = np.concatenate(_TABLE_POINTS)


def _subcarrier_tables(spec: OfdmSpec, rng: RngStream) -> np.ndarray:
    """Index into SUBCARRIER_MOD_NAMES of each subcarrier's table: one
    draw per subcarrier, or one draw shared by all of them."""
    if spec.per_subcarrier_random:
        return rng.integers(0, len(SUBCARRIER_MOD_NAMES), spec.num_subcarriers)
    return np.full(spec.num_subcarriers, rng.integers(0, len(SUBCARRIER_MOD_NAMES)))


def ofdm_payload(spec: OfdmSpec, rng: RngStream, num_symbols: int) -> np.ndarray:
    """Subcarrier symbol matrix, shape (N, num_symbols).

    Draw order: constellation choice(s) first, then one run of symbol
    indices per subcarrier, low subcarrier first. The DC row (index N/2)
    is zeroed when ``spec.dc_present`` is false.
    """
    picks = _subcarrier_tables(spec, rng)
    n = spec.num_subcarriers
    sizes = _TABLE_SIZES[picks][:, None]
    # One draw for all runs; row i holds exactly what
    # rng.integers(0, sizes[i], num_symbols) would return.
    u = rng.unit(n * num_symbols).reshape(n, num_symbols)
    symbols = np.minimum((u * sizes).astype(np.int64), sizes - 1)
    values = _ALL_POINTS[_TABLE_OFFSETS[picks][:, None] + symbols]
    if not spec.dc_present:
        values[n // 2] = 0.0
    return values


def ofdm_symbol_stream(spec: OfdmSpec, rng: RngStream,
                       frame_len: int = FRAME_LEN) -> tuple[np.ndarray, np.ndarray]:
    """Pre-edge-treatment sample stream and its payload matrix.

    Returns ``(stream, payload)`` where the stream concatenates
    ceil(frame_len / symbol_len) CP-prefixed symbols (it is at least
    frame_len long) and payload is the (N, num_symbols) matrix that
    an FFT of each CP-stripped symbol recovers.
    """
    nsym = math.ceil(frame_len / spec.symbol_len)
    payload = ofdm_payload(spec, rng, nsym)
    n, dft = spec.num_subcarriers, spec.dft_size
    spectrum = np.zeros((dft, nsym), dtype=np.complex128)
    spectrum[dft // 2 - n // 2: dft // 2 + n // 2] = payload  # centered occupancy
    time = np.fft.ifft(np.fft.ifftshift(spectrum, axes=0), axis=0)
    with_cp = np.concatenate([time[-spec.cp_len:], time], axis=0)
    return with_cp.T.reshape(-1), payload


def _window_taper(stream: np.ndarray, spec: OfdmSpec) -> np.ndarray:
    """Raised-cosine amplitude ramps of length CP/2 at each symbol edge."""
    ramp_len = spec.cp_len // 2
    window = np.hanning(2 * ramp_len)
    taper = np.ones(spec.symbol_len)
    taper[:ramp_len] = window[:ramp_len]
    taper[-ramp_len:] = window[ramp_len:]
    shaped = stream.reshape(-1, spec.symbol_len) * taper[None, :]
    return shaped.reshape(-1)


def gen_ofdm(spec: OfdmSpec, rng: RngStream,
             frame_len: int = FRAME_LEN) -> tuple[np.ndarray, SignalDescriptor]:
    """Generate one unit-power OFDM frame from a fully resolved spec."""
    stream, _ = ofdm_symbol_stream(spec, rng, frame_len)
    if spec.edge_treatment == "window":
        stream = _window_taper(stream, spec)
    elif spec.edge_treatment == "lowpass":
        stream = convolve_same(stream, _LOWPASS_TAPS)
    frame = normalize_unit_power(stream[:frame_len])
    cls = class_by_name(f"ofdm-{spec.num_subcarriers}")
    descriptor = SignalDescriptor(
        class_index=cls.index,
        class_name=cls.name,
        family=cls.family,
        samples_per_symbol=2.0,  # half-band occupancy equivalent
    )
    return frame, descriptor
