"""SNR-calibrated noise, random pulse shaping, and the probabilistic
impairment chain.

The chain is split into *plan* (every random draw, logged as steps) and
*apply* (pure functions of the logged parameters), so any impaired frame
can be replayed bit-exactly from its ImpairmentRecord and the clean
source. Application order is fixed: phase shift, time shift, frequency
shift, Rayleigh channel, IQ imbalance, resample — each behind an
independent Bernoulli gate — then AWGN at the drawn Es/N0 target last,
so the target holds at the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy.signal import resample_poly

from sigforge.clean import gen_clean
from sigforge.filters import convolve_same, lowpass_taps
from sigforge.frame import FRAME_LEN, mean_power, normalize_unit_power
from sigforge.fsk import fsk_spec, gen_fsk
from sigforge.linear import gen_linear_mod
from sigforge.registry import SignalDescriptor, class_by_index
from sigforge.rng import RngStream

# Kaiser design for the FSK low-pass and resampling kernels: beta 5.653
# gives ~60 dB stopband, comfortably past the 40 dB contract.
_KAISER_BETA = 5.653
_FSK_LPF_NUM_TAPS = 129
_FSK_LPF_TRANSITION = 0.028  # cycles/sample at 129 taps


@dataclass(frozen=True)
class ImpairmentProfile:
    """Gate probabilities and parameter ranges for the impairment chain."""

    phase_shift_prob: float = 0.9
    phase_range: tuple[float, float] = (-math.pi, math.pi)
    time_shift_prob: float = 0.9
    time_shift_max: int = 32
    freq_shift_prob: float = 0.7
    freq_range: tuple[float, float] = (-0.16, 0.16)
    rayleigh_prob: float = 0.5
    rayleigh_taps_range: tuple[int, int] = (2, 20)  # inclusive
    iq_imbalance_prob: float = 0.9
    iq_amp_range_db: tuple[float, float] = (-3.0, 3.0)
    iq_phase_range: tuple[float, float] = (-math.pi / 180.0, math.pi / 180.0)
    iq_dc_range: tuple[float, float] = (-0.1, 0.1)
    resample_prob: float = 0.5
    resample_range: tuple[float, float] = (0.75, 1.5)
    esn0_range_db: tuple[float, float] = (-2.0, 30.0)


DEFAULT_PROFILE = ImpairmentProfile()

NO_IMPAIRMENT_PROFILE = ImpairmentProfile(
    phase_shift_prob=0.0, time_shift_prob=0.0, freq_shift_prob=0.0,
    rayleigh_prob=0.0, iq_imbalance_prob=0.0, resample_prob=0.0,
    esn0_range_db=(math.inf, math.inf),
)


@dataclass(frozen=True)
class ImpairmentStep:
    kind: str
    params: dict


@dataclass(frozen=True)
class ImpairmentRecord:
    steps: tuple[ImpairmentStep, ...]
    target_esn0_db: float

    def to_dict(self) -> dict:
        return {
            "target_esn0_db": self.target_esn0_db,
            "steps": [{"kind": s.kind, "params": s.params} for s in self.steps],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ImpairmentRecord":
        steps = tuple(ImpairmentStep(s["kind"], s["params"]) for s in d["steps"])
        return cls(steps=steps, target_esn0_db=d["target_esn0_db"])


# --- elemental operations -------------------------------------------------

def phase_shift(frame: np.ndarray, phi: float) -> np.ndarray:
    """x' = x * e^{j*phi}."""
    if not math.isfinite(phi):
        raise ValueError("phase must be finite")
    return frame * np.exp(1j * phi)


def time_shift(frame: np.ndarray, shift: int) -> np.ndarray:
    """Move samples by ``shift`` (positive = delay); vacated region is zero."""
    n = len(frame)
    if abs(shift) >= n:
        raise ValueError(f"|shift| must be < frame length, got {shift}")
    out = np.zeros_like(frame)
    if shift > 0:
        out[shift:] = frame[:-shift]
    elif shift < 0:
        out[:shift] = frame[-shift:]
    else:
        out[:] = frame
    return out


def freq_shift(frame: np.ndarray, freq: float) -> np.ndarray:
    """x'[n] = x[n] * e^{j*2*pi*freq*n}, freq in cycles/sample."""
    if not abs(freq) < 0.5:
        raise ValueError(f"|freq| must be < 0.5 cycles/sample, got {freq}")
    n = np.arange(len(frame))
    return frame * np.exp(2j * np.pi * freq * n)


def draw_rayleigh_taps(num_taps: int, rng: RngStream) -> np.ndarray:
    """Complex Gaussian taps under a linear-decay power delay profile,
    normalized to unit energy in expectation."""
    if not 1 <= num_taps <= 20:
        raise ValueError(f"num_taps must be in 1..20, got {num_taps}")
    profile = 1.0 - np.arange(num_taps, dtype=np.float64) / num_taps
    profile /= profile.sum()
    re = rng.normal(num_taps)
    im = rng.normal(num_taps)
    return np.sqrt(profile / 2.0) * (re + 1j * np.asarray(im))


def fir_channel(frame: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal same-length convolution (tap 0 aligned with sample 0)."""
    return np.convolve(frame, taps)[: len(frame)]


def rayleigh_channel(frame: np.ndarray, num_taps: int, rng: RngStream) -> np.ndarray:
    """Static frequency-selective fade. The profile draws 2..20 taps;
    a single tap degenerates to a complex scale (used by tests)."""
    return fir_channel(frame, draw_rayleigh_taps(num_taps, rng))


def iq_imbalance(frame: np.ndarray, amplitude_db: float, phase_rad: float,
                 dc_offset: float) -> np.ndarray:
    """Amplitude/phase mismatch between the I and Q paths plus a real DC
    offset: I scales by 10^(a/40), Q by 10^(-a/40), then the phase error
    mixes in the conjugate image, then the offset shifts the real axis."""
    scaled = 10 ** (amplitude_db / 40.0) * frame.real + 1j * 10 ** (-amplitude_db / 40.0) * frame.imag
    mixed = np.cos(phase_rad / 2.0) * scaled + 1j * np.sin(phase_rad / 2.0) * np.conj(scaled)
    return mixed + dc_offset


def _resample(frame: np.ndarray, rate: float) -> np.ndarray:
    """Arbitrary-rate polyphase resampling (no length restore, no range
    check). Rational approximation p/q with q <= 1024; Kaiser
    windowed-sinc kernel; rate 1.0 short-circuits to an exact identity."""
    if rate == 1.0:
        return frame.copy()
    frac = Fraction(rate).limit_denominator(1024)
    up, down = frac.numerator, frac.denominator
    # Anti-alias/anti-image cutoff at the tighter of the two Nyquist edges
    # (in the upsampled domain), one transition band inside it. The kernel
    # is symmetric: design its left half, k = 0..half_width (np.kaiser's
    # formula times the sinc), and mirror it.
    half_width = 10 * max(up, down)
    k = np.arange(0, half_width + 1, dtype=np.float64)
    window = np.i0(_KAISER_BETA * np.sqrt(1 - ((k - half_width) / half_width) ** 2.0))
    window /= np.i0(float(_KAISER_BETA))
    cutoff = 0.5 / max(up, down)
    left = window * 2.0 * cutoff * np.sinc(2.0 * cutoff * (k - half_width))
    taps = np.concatenate([left, left[-2::-1]])
    # Unit DC sum; resample_poly itself applies the x`up` gain that
    # compensates zero-stuffing.
    taps /= taps.sum()
    return resample_poly(frame, up, down, window=taps)


def random_resample(frame: np.ndarray, rate: float) -> np.ndarray:
    """Resample by ``rate`` in [0.75, 1.5], then zero-pad (rate < 1) or
    truncate (rate > 1) back to the original length."""
    if not 0.75 <= rate <= 1.5:
        raise ValueError(f"rate must be in [0.75, 1.5], got {rate}")
    out = _resample(frame, rate)
    return _restore_length(out, len(frame))


def _restore_length(frame: np.ndarray, n: int) -> np.ndarray:
    if len(frame) >= n:
        return frame[:n]
    out = np.zeros(n, dtype=np.complex128)
    out[: len(frame)] = frame
    return out


def add_awgn(frame: np.ndarray, esn0_db: float, samples_per_symbol: float,
             rng: RngStream) -> np.ndarray:
    """Add circular complex Gaussian noise at per-sample variance
    sigma^2 = sps * 10^(-esn0/10) (frame assumed unit power).

    The drawn noise vector is rescaled so its empirical mean power
    equals sigma^2 exactly; the target Es/N0 then holds deterministically
    for every frame instead of only in expectation.
    """
    if samples_per_symbol <= 0:
        raise ValueError(f"samples_per_symbol must be > 0, got {samples_per_symbol}")
    if math.isinf(esn0_db) and esn0_db > 0:
        return frame.copy()
    sigma2 = samples_per_symbol * 10.0 ** (-esn0_db / 10.0)
    noise = rng.cnormal(len(frame))
    noise *= np.sqrt(sigma2 / mean_power(noise))
    return frame + noise


# --- random pulse shaping (generation-time randomization) ------------------

def random_pulse_shape_linear(rng: RngStream) -> float:
    """RRC roll-off for impaired linear mods: alpha ~ U(0.15, 0.60)."""
    return rng.uniform(0.15, 0.60)


def random_pulse_shape_gaussian(rng: RngStream) -> float:
    """Gaussian BT for impaired GFSK/GMSK: bt ~ U(0.1, 0.5)."""
    return rng.uniform(0.1, 0.5)


def fsk_lpf_resample(frame: np.ndarray, rng: RngStream) -> tuple[np.ndarray, float]:
    """Impaired-path bandwidth randomization for pure FSK/MSK (8 sps).

    Draws cutoff c ~ U(0.15625, 0.46875) cycles/sample, low-pass filters
    (>= 40 dB above c), then resamples by decimation factor 0.25/c so the
    retained band edge lands near quarter-rate (half-band occupancy);
    output restored to the input length. Returns (frame, cutoff); the
    caller updates the descriptor's effective sps to 0.5/cutoff.
    """
    cutoff = rng.uniform(0.15625, 0.46875)
    taps = lowpass_taps(cutoff - _FSK_LPF_TRANSITION / 2.0, _FSK_LPF_NUM_TAPS,
                        kaiser_beta=_KAISER_BETA)
    filtered = convolve_same(frame, taps)
    resampled = _resample(filtered, 4.0 * cutoff)  # rate = 1 / (0.25/c)
    return _restore_length(resampled, len(frame)), cutoff


def synthesize_impaired_source(class_index: int, rng: RngStream,
                               frame_len: int = FRAME_LEN
                               ) -> tuple[np.ndarray, SignalDescriptor, dict]:
    """Clean synthesis with the impaired variants' randomized pulse
    shaping. Returns (frame, descriptor, shaping_params).

    Draw order per family: linear draws alpha then symbols; GFSK/GMSK
    draw bt then symbols; FSK/MSK draw symbols then the LPF cutoff;
    OFDM draws structure then payload.
    """
    cls = class_by_index(class_index)
    if cls.is_linear:
        alpha = random_pulse_shape_linear(rng)
        frame, descriptor = gen_linear_mod(class_index, rng, alpha=alpha, frame_len=frame_len)
        return frame, descriptor, {"rrc_alpha": alpha}
    if cls.family == "fsk":
        spec = fsk_spec(cls)
        if spec.gaussian_shaped:
            bt = random_pulse_shape_gaussian(rng)
            frame, descriptor = gen_fsk(spec, rng, bt=bt, frame_len=frame_len)
            return frame, descriptor, {"gaussian_bt": bt}
        frame, descriptor = gen_fsk(spec, rng, frame_len=frame_len)
        frame, cutoff = fsk_lpf_resample(frame, rng)
        frame = normalize_unit_power(frame)
        descriptor = replace(descriptor, samples_per_symbol=0.5 / cutoff)
        return frame, descriptor, {"lpf_cutoff": cutoff}
    frame, descriptor = gen_clean(class_index, rng, frame_len=frame_len)
    return frame, descriptor, {}


# --- the chain --------------------------------------------------------------

def draw_impairment_plan(profile: ImpairmentProfile, rng: RngStream
                         ) -> tuple[list[ImpairmentStep], float]:
    """All random draws of one chain pass, in fixed order. Returns the
    gated steps (with parameters) and the Es/N0 target, which is always
    drawn last."""
    steps: list[ImpairmentStep] = []
    if rng.bernoulli(profile.phase_shift_prob):
        steps.append(ImpairmentStep("phase_shift", {
            "phi": rng.uniform(*profile.phase_range)}))
    if rng.bernoulli(profile.time_shift_prob):
        m = profile.time_shift_max
        steps.append(ImpairmentStep("time_shift", {
            "shift": int(rng.integers(-m, m + 1))}))
    if rng.bernoulli(profile.freq_shift_prob):
        steps.append(ImpairmentStep("freq_shift", {
            "freq": rng.uniform(*profile.freq_range)}))
    if rng.bernoulli(profile.rayleigh_prob):
        lo, hi = profile.rayleigh_taps_range
        num_taps = int(rng.integers(lo, hi + 1))
        taps = draw_rayleigh_taps(num_taps, rng)
        steps.append(ImpairmentStep("rayleigh", {
            "num_taps": num_taps,
            "taps": [[float(t.real), float(t.imag)] for t in taps]}))
    if rng.bernoulli(profile.iq_imbalance_prob):
        steps.append(ImpairmentStep("iq_imbalance", {
            "amplitude_db": rng.uniform(*profile.iq_amp_range_db),
            "phase_rad": rng.uniform(*profile.iq_phase_range),
            "dc_offset": rng.uniform(*profile.iq_dc_range)}))
    if rng.bernoulli(profile.resample_prob):
        steps.append(ImpairmentStep("resample", {
            "rate": rng.uniform(*profile.resample_range)}))
    lo, hi = profile.esn0_range_db
    esn0 = lo if lo == hi else rng.uniform(lo, hi)
    return steps, esn0


def _apply_step(frame: np.ndarray, step: ImpairmentStep) -> np.ndarray:
    p = step.params
    if step.kind == "phase_shift":
        return phase_shift(frame, p["phi"])
    if step.kind == "time_shift":
        return time_shift(frame, p["shift"])
    if step.kind == "freq_shift":
        return freq_shift(frame, p["freq"])
    if step.kind == "rayleigh":
        taps = np.array([complex(re, im) for re, im in p["taps"]])
        return fir_channel(frame, taps)
    if step.kind == "iq_imbalance":
        return iq_imbalance(frame, p["amplitude_db"], p["phase_rad"], p["dc_offset"])
    if step.kind == "resample":
        return random_resample(frame, p["rate"])
    if step.kind == "awgn":
        stream = RngStream(p["noise_key"], p["noise_counter"])
        return add_awgn(normalize_unit_power(frame), p["esn0_db"],
                        p["samples_per_symbol"], stream)
    raise ValueError(f"unknown impairment step kind {step.kind!r}")


def replay_impairments(clean: np.ndarray, record: ImpairmentRecord) -> np.ndarray:
    """Re-run a recorded chain on the same clean frame, bit-exactly."""
    frame = clean
    for step in record.steps:
        frame = _apply_step(frame, step)
    return frame


def pre_noise_frame(clean: np.ndarray, record: ImpairmentRecord) -> np.ndarray:
    """The unit-power frame as it entered the AWGN stage (oracle hook)."""
    frame = clean
    for step in record.steps:
        if step.kind == "awgn":
            return normalize_unit_power(frame)
        frame = _apply_step(frame, step)
    return normalize_unit_power(frame)


def apply_impairment_chain(clean: np.ndarray, descriptor: SignalDescriptor,
                           profile: ImpairmentProfile, rng: RngStream
                           ) -> tuple[np.ndarray, ImpairmentRecord]:
    """Draw and apply one impairment chain; every draw lands in the
    returned record, including the noise stream snapshot, so
    ``replay_impairments(clean, record)`` reproduces the frame exactly.
    The frame is re-normalized to unit power right before the noise
    stage so the drawn Es/N0 target is exact at the output."""
    steps, esn0 = draw_impairment_plan(profile, rng)
    if math.isinf(esn0) and esn0 > 0:
        record = ImpairmentRecord(steps=tuple(steps), target_esn0_db=esn0)
        return replay_impairments(clean, record), record
    steps.append(ImpairmentStep("awgn", {
        "esn0_db": esn0,
        "samples_per_symbol": descriptor.samples_per_symbol,
        "noise_key": rng.key,
        "noise_counter": rng.counter,
    }))
    record = ImpairmentRecord(steps=tuple(steps), target_esn0_db=esn0)
    impaired = replay_impairments(clean, record)
    rng.counter += 2 * len(clean)  # account for the noise draws
    return impaired, record
