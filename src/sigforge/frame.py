"""Complex baseband frame helpers.

A frame is a 1-D ``np.complex128`` array; synthesis runs in float64 and
storage quantizes to interleaved float32 only at the dataset boundary.
"""

from __future__ import annotations

import numpy as np

FRAME_LEN = 4096


class ZeroPowerError(ValueError):
    """Raised when an operation needs signal power and the frame has none."""


def check_int(name: str, value: object, low: int | None = None,
              high: int | None = None) -> None:
    """Raise TypeError unless value is an int (bool, float and str are
    refused, not coerced), ValueError unless low <= value <= high."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f"[{low}, {high}]" if high is not None else f">= {low}"
        raise ValueError(f"{name} must be {bounds}, got {value}")


def as_frame(x) -> np.ndarray:
    """Coerce to a 1-D complex128 array, rejecting non-finite samples."""
    frame = np.asarray(x, dtype=np.complex128)
    if frame.ndim != 1:
        raise ValueError(f"frame must be 1-D, got shape {frame.shape}")
    if not np.all(np.isfinite(frame.real)) or not np.all(np.isfinite(frame.imag)):
        raise ValueError("frame contains non-finite samples")
    return frame


def mean_power(frame: np.ndarray) -> float:
    """Mean of |x[n]|^2 over the frame."""
    frame = np.asarray(frame)
    if frame.size == 0:
        raise ValueError("empty frame has no mean power")
    return float(np.mean(frame.real**2 + frame.imag**2))


def normalize_unit_power(frame: np.ndarray) -> np.ndarray:
    """Scale the frame to exactly unit mean power.

    Raises :class:`ZeroPowerError` for an all-zero frame rather than
    silently emitting NaNs.
    """
    p = mean_power(frame)
    if p == 0.0:
        raise ZeroPowerError("cannot normalize a zero-power frame")
    return np.asarray(frame, dtype=np.complex128) / np.sqrt(p)
