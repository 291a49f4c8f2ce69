"""Signal statistics: PSD, spectrogram, occupied bandwidth, SNR oracles.

Defaults everywhere: Hann window, nfft 256, 50% overlap. Frequencies are
cycles/sample on [-0.5, 0.5).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from sigforge.frame import check_int, mean_power

DB_FLOOR_POWER = 1e-30  # -300 dB, keeps log of empty bins finite


@dataclass(frozen=True)
class PsdEstimate:
    freqs: np.ndarray  # cycles/sample, fftshifted, length nfft
    density_db: np.ndarray
    nfft: int
    overlap: float

    def density_linear(self) -> np.ndarray:
        return 10.0 ** (self.density_db / 10.0)


def _periodograms(frame: np.ndarray, nfft: int, hop: int) -> np.ndarray:
    """Linear periodograms of frame's Hann-windowed nfft-sample segments
    that start every hop samples, shape [segments, nfft], unshifted, each
    divided by the window's energy."""
    if nfft > len(frame):
        raise ValueError(f"nfft {nfft} exceeds frame length {len(frame)}")
    check_int("hop", hop, 1)
    window = np.hanning(nfft)
    starts = np.arange(0, len(frame) - nfft + 1, hop)
    spectra = np.fft.fft(frame[starts[:, None] + np.arange(nfft)] * window, axis=1)
    return (spectra.real**2 + spectra.imag**2) / np.sum(window**2)


def welch_psd(frame: np.ndarray, nfft: int = 256, overlap: float = 0.5) -> PsdEstimate:
    """Averaged windowed periodograms.

    Scaled so the linear density sums (times the 1/nfft bin width) to the
    frame's mean power, Parseval-style.
    """
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    hop = max(1, int(round(nfft * (1.0 - overlap))))
    density = np.fft.fftshift(_periodograms(frame, nfft, hop).mean(axis=0))
    freqs = (np.arange(nfft) - nfft // 2) / nfft
    return PsdEstimate(
        freqs=freqs,
        density_db=10.0 * np.log10(np.maximum(density, DB_FLOOR_POWER)),
        nfft=nfft,
        overlap=overlap,
    )


def spectrogram(frame: np.ndarray, nfft: int = 256, hop: int = 128) -> np.ndarray:
    """Short-time log-magnitude matrix, shape [nfft, T] with
    T = floor((len - nfft)/hop) + 1; rows are fftshifted frequencies."""
    power = np.fft.fftshift(_periodograms(frame, nfft, hop), axes=1).T
    return 10.0 * np.log10(np.maximum(power, DB_FLOOR_POWER))


def occupied_bandwidth(psd: PsdEstimate, fraction: float) -> float:
    """Width (cycles/sample) of the smallest symmetric-percentile band
    holding ``fraction`` of total power: equal power tails are excluded
    from each end of the spectrum."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    p = psd.density_linear()
    total = p.sum()
    tail = (1.0 - fraction) / 2.0 * total
    cum = np.cumsum(p)
    lo = int(np.searchsorted(cum, tail, side="right"))
    hi = psd.nfft - 1 - int(np.searchsorted(np.cumsum(p[::-1]), tail, side="right"))
    return max(0, hi - lo + 1) / psd.nfft


def measure_esn0(clean: np.ndarray, noise: np.ndarray, samples_per_symbol: float) -> float:
    """Es/N0 in dB from the signal and the injected-noise realization:
    10*log10(P_signal * sps / P_noise). Zero noise returns +inf."""
    p_noise = mean_power(noise)
    if p_noise == 0.0:
        return math.inf
    return 10.0 * math.log10(mean_power(clean) * samples_per_symbol / p_noise)


def envelope_constancy(frame: np.ndarray) -> float:
    """max | |x| - mean|x| | / mean|x|; errors on a zero frame."""
    mag = np.abs(frame)
    mean = float(np.mean(mag))
    if mean == 0.0:
        raise ValueError("zero frame has no envelope")
    return float(np.max(np.abs(mag - mean)) / mean)


def esn0_from_ebn0(ebn0_db: float, order: int) -> float:
    """Es/N0 equivalent of an Eb/N0 level: + 10*log10(bits per symbol)."""
    bits = int(order).bit_length() - 1
    if bits < 1:
        raise ValueError(f"order must be >= 2, got {order}")
    return ebn0_db + 10.0 * math.log10(bits)


# --- export helpers ---------------------------------------------------------

def psd_to_csv(psd: PsdEstimate, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frequency_cycles_per_sample", "density_db"])
        for f, d in zip(psd.freqs, psd.density_db):
            writer.writerow([f"{f:.10g}", f"{d:.10g}"])


def spectrogram_to_pgm(matrix: np.ndarray, path: str) -> None:
    """8-bit binary PGM, min..max of the dB matrix mapped to 0..255."""
    lo, hi = float(matrix.min()), float(matrix.max())
    span = hi - lo if hi > lo else 1.0
    pixels = np.round((matrix - lo) / span * 255.0).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())
