"""Counter-based deterministic random streams.

Every random draw in this package flows through :class:`RngStream`, a
keyed counter-mode generator built on the splitmix64 avalanche finalizer.
The i-th raw 64-bit word of a stream with key ``k`` is::

    word(i) = mix64((k + (i + 1) * GOLDEN) mod 2**64)

which is exactly the splitmix64 sequence seeded at ``k``. Because words
are a pure function of ``(key, counter)``, any draw can be reproduced
later from a recorded ``(key, counter)`` snapshot without replaying the
stream from the start, and sibling streams are derived in O(1) with
:func:`derive_stream`.

All floating-point distributions are built from the raw words in-repo
(53-bit mantissa uniforms, Box-Muller normals) so that byte-identical
output does not depend on the host numpy version.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF

_U64_GOLDEN = np.uint64(GOLDEN)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)

# 2**-53, the spacing of the uniform grid on [0, 1).
_INV_2_53 = float(np.ldexp(1.0, -53))


def mix64(z: int) -> int:
    """splitmix64 finalizer on a single Python int (mod 2**64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array.

    Array arithmetic on uint64 wraps mod 2**64 silently; only numpy
    scalars warn on overflow, so ``z`` must be an array."""
    z = (z ^ (z >> np.uint64(30))) * _U64_MIX1
    z = (z ^ (z >> np.uint64(27))) * _U64_MIX2
    return z ^ (z >> np.uint64(31))


def derive_stream(seed: int, index: int) -> "RngStream":
    """Return the independent child stream for ``(seed, index)``.

    Two finalizer rounds decorrelate adjacent indices: the seed word is
    hashed, the index is spread by the golden-ratio multiplier, and the
    sum goes through the finalizer again. O(1) regardless of index.
    """
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    key = mix64((mix64(seed ^ GOLDEN) + index * GOLDEN) & _MASK64)
    return RngStream(key)


class RngStream:
    """A keyed counter-mode random stream.

    The public state is just ``(key, counter)``; both are plain Python
    ints so they can round-trip through JSON metadata exactly.
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0) -> None:
        self.key = key & _MASK64
        self.counter = counter

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(key=0x{self.key:016x}, counter={self.counter})"

    def clone(self) -> "RngStream":
        """Independent copy that continues from the same counter."""
        return RngStream(self.key, self.counter)

    # -- raw words ---------------------------------------------------

    def u64(self, n: int | None = None):
        """Next raw word (scalar) or ``n`` words as a uint64 array."""
        if n is None:
            word = mix64((self.key + ((self.counter + 1) & _MASK64) * GOLDEN) & _MASK64)
            self.counter += 1
            return word
        idx = np.arange(1, n + 1, dtype=np.uint64) + np.uint64(self.counter & _MASK64)
        words = _mix64_array(np.uint64(self.key) + idx * _U64_GOLDEN)
        self.counter += n
        return words

    # -- distributions -----------------------------------------------

    def unit(self, n: int | None = None):
        """Uniform on [0, 1) with 53-bit resolution."""
        if n is None:
            return (self.u64() >> 11) * _INV_2_53
        return (self.u64(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def _unit_open(self, n: int) -> np.ndarray:
        """Uniform on (0, 1]; safe as a log() argument."""
        return ((self.u64(n) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53

    def uniform(self, low: float, high: float, n: int | None = None):
        """Uniform on [low, high)."""
        return low + (high - low) * self.unit(n)

    def integers(self, low: int, high: int, n: int | None = None):
        """Uniform integers on [low, high) — exclusive high, numpy-style."""
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        span = high - low
        if n is None:
            return low + min(int(self.unit() * span), span - 1)
        raw = np.minimum((self.unit(n) * span).astype(np.int64), span - 1)
        return low + raw

    def bernoulli(self, p: float) -> bool:
        """Single biased coin flip."""
        return bool(self.unit() < p)

    def normal(self, n: int | None = None):
        """Standard normal draws via Box-Muller (two words per pair)."""
        scalar = n is None
        m = 1 if scalar else (n + 1) // 2
        r = np.sqrt(-2.0 * np.log(self._unit_open(m)))
        theta = 2.0 * np.pi * self.unit(m)
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return float(out[0]) if scalar else out[:n]

    def cnormal(self, n: int | None = None):
        """Circularly-symmetric complex normal with E|z|^2 = 1."""
        scalar = n is None
        m = 1 if scalar else n
        r = np.sqrt(-np.log(self._unit_open(m)))
        z = r * np.exp(2j * np.pi * self.unit(m))
        return complex(z[0]) if scalar else z

    def choice(self, seq):
        """Uniform pick from a non-empty sequence."""
        return seq[self.integers(0, len(seq))]
