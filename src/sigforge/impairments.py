"""SNR-calibrated noise, random pulse shaping, and the probabilistic
impairment chain.

The chain is split into *plan* (every random draw, logged as steps) and
*apply* (pure functions of the logged parameters), so any impaired frame
can be replayed bit-exactly from its ImpairmentRecord and the clean
source. Application order is fixed: phase shift, time shift, frequency
shift, Rayleigh channel, IQ imbalance, resample — each behind an
independent Bernoulli gate — then AWGN at the drawn Es/N0 target last,
so the target holds at the output.

Resampling, in the chain and on the FSK bandwidth path, is fractional:
every rate is served by one windowed-sinc filter bank designed at import,
so no call designs a kernel of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from sigforge.clean import gen_clean
from sigforge.filters import convolve_same, lowpass_taps
from sigforge.frame import FRAME_LEN, check_int, mean_power, normalize_unit_power
from sigforge.fsk import fsk_spec, gen_fsk
from sigforge.linear import gen_linear_mod
from sigforge.registry import SignalDescriptor, class_by_index
from sigforge.rng import RngStream

# Kaiser design for the FSK low-pass and the resampler's filters: beta
# 5.653 gives ~60 dB stopband, comfortably past the 40 dB contract. For the
# resampler that contract is: a tone 0.06 cycles/sample or more past the
# output Nyquist leaves at least 40 dB down.
_KAISER_BETA = 5.653
# The resampler's fractional-delay bank, designed once: a Kaiser-windowed
# sinc spanning +-10 input samples, 20 taps, at P phases. Row p delays by
# p / P: tap m sits at offset m - 9 - p / P from the output's input time,
# and each row sums to 1 (unit DC gain). P = 1024 keeps the phase rounding
# error (at most 1 / 2048 sample) ~60 dB under a tone at 0.3 cycles/sample.
_RESAMPLE_HALF_WIDTH = 10
_RESAMPLE_PHASES = 1024
# Below rate 1, the anti-alias low-pass (cutoff rate / 2) spans this many
# zero crossings of its sinc each side, ceil(15 / rate) taps. At 10 its
# transition band outgrew the 0.06 cycles/sample the contract allows
# (35 dB at rate 0.87); at 15 every rate from 0.6 up keeps ~60 dB.
_ANTI_ALIAS_HALF_WIDTH = 15


def _design_resample_bank() -> np.ndarray:
    # Every tap offset is a multiple of 1 / P, and the kernel is even: design
    # it once on the grid |offset| = k / P, k = 0 .. 10 P, and index by |k|.
    grid = np.arange(_RESAMPLE_HALF_WIDTH * _RESAMPLE_PHASES + 1) / _RESAMPLE_PHASES
    window = np.i0(_KAISER_BETA * np.sqrt(1.0 - (grid / _RESAMPLE_HALF_WIDTH) ** 2))
    kernel = window * np.sinc(grid)
    k = (np.arange(1 - _RESAMPLE_HALF_WIDTH, _RESAMPLE_HALF_WIDTH + 1) * _RESAMPLE_PHASES
         - np.arange(_RESAMPLE_PHASES)[:, None])
    bank = kernel[np.abs(k)]
    return bank / bank.sum(axis=1, keepdims=True)


_RESAMPLE_BANK = _design_resample_bank()
_FSK_LPF_NUM_TAPS = 129
_FSK_LPF_TRANSITION = 0.028  # cycles/sample at 129 taps
_PROBABILITIES = ("phase_shift_prob", "time_shift_prob", "freq_shift_prob",
                  "rayleigh_prob", "iq_imbalance_prob", "resample_prob")
_RANGES = ("phase_range", "freq_range", "rayleigh_taps_range", "iq_amp_range_db",
           "iq_phase_range", "iq_dc_range", "resample_range", "esn0_range_db")
# Limits on |value| for the ranges whose stages overflow on large finite
# values (10 ** (a / 40), 10 ** (-esn0 / 10), the DC offset's power): 40 dB
# is an I/Q amplitude ratio of 100, 10 a DC offset ten times a unit-power
# frame's RMS, and 100 dB Es/N0 lies far past any useful noise level.
_SYMMETRIC_BOUNDS = {"iq_amp_range_db": 40.0, "iq_dc_range": 10.0, "esn0_range_db": 100.0}


def _check_real(name: str, value: object) -> None:
    """Raise TypeError unless value is an int or a float (bool and str are
    refused, not coerced)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")


def _check_range(name: str, pair: object) -> None:
    """Raise TypeError unless pair is a (low, high) tuple of real numbers,
    ValueError unless both are finite, low <= high and high - low is
    finite, so a uniform draw from the range is finite too."""
    if not isinstance(pair, tuple) or len(pair) != 2:
        raise TypeError(f"{name} must be a (low, high) tuple, got {pair!r}")
    for value in pair:
        _check_real(name, value)
    if not -math.inf < pair[0] <= pair[1] < math.inf:
        raise ValueError(f"{name} must be finite and ordered, got {pair!r}")
    if math.isinf(pair[1] - pair[0]):
        raise ValueError(f"{name} must have a finite width, got {pair!r}")


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

    def __post_init__(self) -> None:
        """Raise TypeError for a field of the wrong type and ValueError for
        one outside what its stage accepts, so a bad profile fails here
        rather than at the first impaired example. esn0_range_db may also
        be (inf, inf): no noise stage."""
        for name in _PROBABILITIES:
            prob = getattr(self, name)
            _check_real(name, prob)
            if not 0 <= prob <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {prob!r}")
        check_int("time_shift_max", self.time_shift_max, 0)
        for name in _RANGES:
            pair = getattr(self, name)
            if name != "esn0_range_db" or pair != (math.inf, math.inf):
                _check_range(name, pair)
        for num_taps in self.rayleigh_taps_range:
            check_int("rayleigh_taps_range", num_taps, 1, 20)
        if not -0.5 < self.freq_range[0] <= self.freq_range[1] < 0.5:
            raise ValueError(f"freq_range must lie within (-0.5, 0.5), got {self.freq_range!r}")
        if not 0.75 <= self.resample_range[0] <= self.resample_range[1] <= 1.5:
            raise ValueError(f"resample_range must lie within [0.75, 1.5], "
                             f"got {self.resample_range!r}")
        for name, limit in _SYMMETRIC_BOUNDS.items():
            pair = getattr(self, name)
            if pair != (math.inf, math.inf) and not -limit <= pair[0] <= pair[1] <= limit:
                raise ValueError(f"{name} must lie within [{-limit}, {limit}], got {pair!r}")


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


def iq_imbalance(frame: np.ndarray, amplitude_db: float, phase_rad: float,
                 dc_offset: float) -> np.ndarray:
    """Amplitude/phase mismatch between the I and Q paths plus a real DC
    offset: I scales by 10^(a/40), Q by 10^(-a/40), then the phase error
    mixes in the conjugate image, then the offset shifts the real axis."""
    scaled = 10 ** (amplitude_db / 40.0) * frame.real + 1j * 10 ** (-amplitude_db / 40.0) * frame.imag
    mixed = np.cos(phase_rad / 2.0) * scaled + 1j * np.sin(phase_rad / 2.0) * np.conj(scaled)
    return mixed + dc_offset


def _resample(frame: np.ndarray, rate: float) -> np.ndarray:
    """Fractional resampling by ``rate`` (no length restore, no range
    check); rate 1.0 returns an exact copy.

    Output j sits at input time t = j / rate. It weighs the 20 inputs
    around t by the bank row of the phase nearest frac(t), accumulated tap
    by tap, oldest input first. Only the outputs with t inside the frame
    are computed, min(len(frame), ceil(len(frame) * rate)) of them. Below
    rate 1 the frame first goes through a Kaiser low-pass with cutoff
    rate / 2 (the output Nyquist), ceil(15 / rate) taps each side.
    """
    if rate == 1.0:
        return frame.copy()
    n = len(frame)
    if rate < 1.0:
        taps = lowpass_taps(rate / 2.0, 2 * math.ceil(_ANTI_ALIAS_HALF_WIDTH / rate) + 1,
                            kaiser_beta=_KAISER_BETA)
        frame = convolve_same(frame, taps)
    t = np.arange(min(n, math.ceil(n * rate))) / rate
    base = t.astype(np.intp)  # floor: t >= 0
    phase = np.rint((t - base) * _RESAMPLE_PHASES).astype(np.intp)
    # a phase that rounds up to P is phase 0 of the next input
    base += phase // _RESAMPLE_PHASES
    phase %= _RESAMPLE_PHASES
    # tap m of output j meets input base + m - 9, padded[base + 1 + m]
    padded = np.concatenate([np.zeros(_RESAMPLE_HALF_WIDTH), frame,
                             np.zeros(_RESAMPLE_HALF_WIDTH + 1)])
    rows = _RESAMPLE_BANK[phase]
    out = rows[:, 0] * padded[1:][base]
    for m in range(1, 2 * _RESAMPLE_HALF_WIDTH):
        out += rows[:, m] * padded[m + 1:][base]
    return out


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
    """One recorded step other than AWGN, which replay_with_pre_noise
    applies itself."""
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
    raise ValueError(f"unknown impairment step kind {step.kind!r}")


def replay_with_pre_noise(clean: np.ndarray, record: ImpairmentRecord
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Re-run a recorded chain on the same clean frame, bit-exactly.
    Returns (impaired frame, pre-noise frame): the second is the unit-power
    frame as it entered the AWGN stage, or the normalised output when the
    record has none."""
    frame, signal = clean, None
    for step in record.steps:
        if step.kind == "awgn":
            p = step.params
            signal = normalize_unit_power(frame)
            frame = add_awgn(signal, p["esn0_db"], p["samples_per_symbol"],
                             RngStream(p["noise_key"], p["noise_counter"]))
        else:
            frame = _apply_step(frame, step)
    return frame, normalize_unit_power(frame) if signal is None else signal


def replay_impairments(clean: np.ndarray, record: ImpairmentRecord) -> np.ndarray:
    """The impaired frame of replay_with_pre_noise."""
    return replay_with_pre_noise(clean, record)[0]


def pre_noise_frame(clean: np.ndarray, record: ImpairmentRecord) -> np.ndarray:
    """The pre-noise frame of replay_with_pre_noise (oracle hook)."""
    return replay_with_pre_noise(clean, record)[1]


def apply_impairment_chain(clean: np.ndarray, descriptor: SignalDescriptor,
                           profile: ImpairmentProfile, rng: RngStream
                           ) -> tuple[np.ndarray, ImpairmentRecord]:
    """Draw and apply one impairment chain; every draw lands in the
    returned record, including the noise stream snapshot, so
    ``replay_impairments(clean, record)`` reproduces the frame exactly.
    The frame is re-normalized to unit power right before the noise
    stage so the drawn Es/N0 target is exact at the output; an infinite
    target adds no noise stage."""
    steps, esn0 = draw_impairment_plan(profile, rng)
    if math.isfinite(esn0):
        steps.append(ImpairmentStep("awgn", {
            "esn0_db": esn0,
            "samples_per_symbol": descriptor.samples_per_symbol,
            "noise_key": rng.key,
            "noise_counter": rng.counter,
        }))
        rng.counter += 2 * len(clean)  # the noise draws, made from that snapshot
    record = ImpairmentRecord(steps=tuple(steps), target_esn0_db=esn0)
    return replay_impairments(clean, record), record
