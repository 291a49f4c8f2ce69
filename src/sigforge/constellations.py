"""Constellation tables for the 25 linear modulation classes.

Geometry per family: PAM levels run 0..+1 (OOK is the 2-point case),
ASK levels run -1..+1, PSK points sit on the unit circle starting at
angle 0, square QAM is a sqrt(M) x sqrt(M) grid on [-1, 1]^2, the
non-cross 32QAM is a 4 (real) x 8 (imag) rectangle, and the cross
variants remove square corner blocks from a larger grid (6x6-4,
12x12-16, 24x24-64). Every table is scaled to unit mean power.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from sigforge.registry import SignalClass, class_by_index

_SQUARE_QAM_SIDE = {16: 4, 64: 8, 256: 16, 1024: 32}
_CROSS_QAM_SIDE = {32: 6, 128: 12, 512: 24}


@dataclass(frozen=True)
class ConstellationTable:
    name: str
    points: np.ndarray  # complex128, unit mean power, read-only
    bits_per_symbol: int


def _grid(real_levels: np.ndarray, imag_levels: np.ndarray) -> np.ndarray:
    return (real_levels[None, :] + 1j * imag_levels[:, None]).ravel()


def _cross_qam(side: int) -> np.ndarray:
    levels = np.linspace(-1.0, 1.0, side)
    pts = _grid(levels, levels)
    spacing = 2.0 / (side - 1)
    # Remove a (side/6)^2 corner block from each corner of the super-grid.
    thresh = 1.0 - spacing * (side / 6.0 - 0.5)
    keep = (np.abs(pts.real) < thresh) | (np.abs(pts.imag) < thresh)
    return pts[keep]


def _raw_points(cls: SignalClass) -> np.ndarray:
    m = cls.order
    if cls.family == "pam":
        return np.linspace(0.0, 1.0, m).astype(np.complex128)
    if cls.family == "ask":
        return np.linspace(-1.0, 1.0, m).astype(np.complex128)
    if cls.family == "psk":
        return np.exp(2j * np.pi * np.arange(m) / m)
    if cls.family == "qam":
        if cls.name.endswith("_cross"):
            return _cross_qam(_CROSS_QAM_SIDE[m])
        if m == 32:
            return _grid(np.linspace(-1.0, 1.0, 4), np.linspace(-1.0, 1.0, 8))
        side = _SQUARE_QAM_SIDE[m]
        return _grid(np.linspace(-1.0, 1.0, side), np.linspace(-1.0, 1.0, side))
    raise ValueError(f"{cls.name} is not a constellation class")


@functools.cache
def build_constellation(class_index: int) -> ConstellationTable:
    """The class's table, built once per class: every call returns the
    same table, its points read-only."""
    cls = class_by_index(class_index)
    if not cls.is_linear:
        raise ValueError(f"{cls.name} is not a constellation class")
    pts = _raw_points(cls)
    if len(pts) != cls.order:
        raise AssertionError(f"{cls.name}: built {len(pts)} points, expected {cls.order}")
    pts = pts / np.sqrt(np.mean(np.abs(pts) ** 2))
    pts.flags.writeable = False
    return ConstellationTable(name=cls.name, points=pts, bits_per_symbol=cls.bits_per_symbol)
