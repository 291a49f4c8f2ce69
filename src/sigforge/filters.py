"""Pulse-shaping and utility FIR filter design.

All taps are real, symmetric, and evaluated from closed forms so tests
can check them against independent re-derivations to 1e-12.
"""

from __future__ import annotations

import functools

import numpy as np


def _centered_grid(num_taps: int) -> np.ndarray:
    return np.arange(num_taps, dtype=np.float64) - (num_taps - 1) / 2.0


def rrc_taps(alpha: float, samples_per_symbol: int, span_symbols: int = 11) -> np.ndarray:
    """Root-raised-cosine taps, unit energy.

    Filter length is ``span_symbols * sps + 1``. The two singular points
    of the closed form (t = 0 and |4*alpha*t| = 1, t in symbol units)
    are evaluated by their analytic limits.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if samples_per_symbol < 2:
        raise ValueError(f"samples_per_symbol must be >= 2, got {samples_per_symbol}")
    if span_symbols < 1:
        raise ValueError(f"span_symbols must be >= 1, got {span_symbols}")

    t = _centered_grid(span_symbols * samples_per_symbol + 1) / samples_per_symbol
    taps = np.empty_like(t)

    at_zero = t == 0.0
    denom = np.pi * t * (1.0 - (4.0 * alpha * t) ** 2)
    at_pole = ~at_zero & (np.abs(1.0 - (4.0 * alpha * t) ** 2) < 1e-10)
    regular = ~at_zero & ~at_pole

    taps[at_zero] = 1.0 - alpha + 4.0 * alpha / np.pi
    taps[at_pole] = (alpha / np.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * alpha))
        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * alpha))
    )
    tr = t[regular]
    taps[regular] = (
        np.sin(np.pi * tr * (1.0 - alpha))
        + 4.0 * alpha * tr * np.cos(np.pi * tr * (1.0 + alpha))
    ) / denom[regular]

    return taps / np.sqrt(np.sum(taps**2))


def gaussian_taps(bt: float, samples_per_symbol: int, span_symbols: int = 4) -> np.ndarray:
    """Sampled Gaussian pulse with standard deviation sqrt(ln 2)/(2*pi*bt)
    symbol durations, truncated to span and normalized to unit sum."""
    if not 0.0 < bt <= 1.0:
        raise ValueError(f"bt must be in (0, 1], got {bt}")
    if samples_per_symbol < 1:
        raise ValueError(f"samples_per_symbol must be >= 1, got {samples_per_symbol}")

    t = _centered_grid(span_symbols * samples_per_symbol + 1) / samples_per_symbol
    sigma = np.sqrt(np.log(2.0)) / (2.0 * np.pi * bt)
    taps = np.exp(-(t**2) / (2.0 * sigma**2))
    return taps / np.sum(taps)


def lowpass_taps(cutoff: float, num_taps: int, kaiser_beta: float | None = None) -> np.ndarray:
    """Windowed-sinc low-pass filter with unity DC gain.

    Hann window by default; pass ``kaiser_beta`` for a Kaiser window
    when a specific stopband attenuation is being designed for.
    """
    if not 0.0 < cutoff < 0.5:
        raise ValueError(f"cutoff must be in (0, 0.5) cycles/sample, got {cutoff}")
    if num_taps < 3 or num_taps % 2 == 0:
        raise ValueError(f"num_taps must be odd and >= 3, got {num_taps}")

    n = _centered_grid(num_taps)
    ideal = 2.0 * cutoff * np.sinc(2.0 * cutoff * n)
    taps = ideal * _window(num_taps, kaiser_beta)
    return taps / np.sum(taps)


@functools.lru_cache(maxsize=64)
def _window(num_taps: int, kaiser_beta: float | None) -> np.ndarray:
    """lowpass_taps' window, Hann for a kaiser_beta of None, as a read-only
    array: designing a Kaiser window took most of a lowpass_taps call, and
    the impairment chain asks for the same few windows again and again."""
    window = np.hanning(num_taps) if kaiser_beta is None else np.kaiser(num_taps, kaiser_beta)
    window.flags.writeable = False
    return window


def convolve_same(frame: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Same-length convolution with an odd symmetric FIR (zero group delay)."""
    return np.convolve(frame, taps, mode="same")
