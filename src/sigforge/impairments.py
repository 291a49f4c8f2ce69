"""SNR-calibrated noise, random pulse shaping, and the probabilistic
impairment chain.

The chain is split into *plan* (every random draw, logged as steps) and
*apply* (pure functions of the logged parameters). One table, _STAGES,
lists its stages in their fixed order: phase shift, time shift,
frequency shift, Rayleigh channel, IQ imbalance, resample. Each entry
pairs a stage's draw, which makes its params, with the function that
applies them by name, and each stage sits behind an independent
Bernoulli gate, the profile's <kind>_prob. AWGN at the drawn Es/N0
target comes last, so the target holds at the output.
An impaired example's metadata stores its record as a description;
dataset.validate checks a stored example by drawing it again from its
RNG stream, never by trusting that record. replay_impairments re-applies
a record to the clean source bit-exactly.

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
from sigforge.frame import FRAME_LEN, mean_power, normalize_unit_power
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


@dataclass(frozen=True)
class ImpairmentProfile:
    """Gate probabilities and parameter ranges for the impairment chain.
    DEFAULT_PROFILE is the impaired variants' one recipe; other profiles
    force or silence stages in tests. A profile's values are not checked
    when it is built; the stage functions keep their own guards."""

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

    Draw order per family: linear draws the RRC roll-off alpha ~
    U(0.15, 0.60) then symbols; GFSK/GMSK draw the Gaussian BT ~
    U(0.1, 0.5) then symbols; FSK/MSK draw symbols then the LPF cutoff;
    OFDM draws structure then payload.
    """
    cls = class_by_index(class_index)
    if cls.is_linear:
        alpha = rng.uniform(0.15, 0.60)
        frame, descriptor = gen_linear_mod(class_index, rng, alpha=alpha, frame_len=frame_len)
        return frame, descriptor, {"rrc_alpha": alpha}
    if cls.family == "fsk":
        spec = fsk_spec(cls)
        if spec.gaussian_shaped:
            bt = rng.uniform(0.1, 0.5)
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

def _draw_rayleigh(profile: ImpairmentProfile, rng: RngStream) -> dict:
    lo, hi = profile.rayleigh_taps_range
    num_taps = int(rng.integers(lo, hi + 1))
    taps = draw_rayleigh_taps(num_taps, rng)
    return {"num_taps": num_taps, "taps": taps.view(np.float64).reshape(-1, 2).tolist()}


def _rayleigh(frame: np.ndarray, num_taps: int, taps: list) -> np.ndarray:
    """fir_channel with a recorded step's taps, [re, im] pairs; num_taps,
    recorded beside them, is their count."""
    pairs = np.array(taps, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"rayleigh taps must be [re, im] pairs, got shape {pairs.shape}")
    return fir_channel(frame, pairs.view(np.complex128)[:, 0])


# The chain, one entry per stage in application order: kind -> (draw, stage).
# draw(profile, rng) makes the stage's random draws and returns its step's
# params; stage(frame, **params) applies them. The profile gates each stage
# with its f"{kind}_prob".
_STAGES = {
    "phase_shift": (lambda p, rng: {"phi": rng.uniform(*p.phase_range)}, phase_shift),
    "time_shift": (lambda p, rng: {
        "shift": int(rng.integers(-p.time_shift_max, p.time_shift_max + 1))}, time_shift),
    "freq_shift": (lambda p, rng: {"freq": rng.uniform(*p.freq_range)}, freq_shift),
    "rayleigh": (_draw_rayleigh, _rayleigh),
    "iq_imbalance": (lambda p, rng: {"amplitude_db": rng.uniform(*p.iq_amp_range_db),
                                     "phase_rad": rng.uniform(*p.iq_phase_range),
                                     "dc_offset": rng.uniform(*p.iq_dc_range)}, iq_imbalance),
    "resample": (lambda p, rng: {"rate": rng.uniform(*p.resample_range)}, random_resample),
}


def draw_impairment_plan(profile: ImpairmentProfile, rng: RngStream
                         ) -> tuple[list[ImpairmentStep], float]:
    """All random draws of one chain pass, in fixed order: each stage's
    gate, then, if it fires, the stage's params. Returns the gated steps
    (with parameters) and the Es/N0 target, which is always drawn last."""
    steps = [ImpairmentStep(kind, draw(profile, rng)) for kind, (draw, _) in _STAGES.items()
             if rng.bernoulli(getattr(profile, f"{kind}_prob"))]
    lo, hi = profile.esn0_range_db
    esn0 = lo if lo == hi else rng.uniform(lo, hi)
    return steps, esn0


def _apply_step(frame: np.ndarray, step: ImpairmentStep) -> np.ndarray:
    """One recorded step other than AWGN, which replay_with_pre_noise
    applies itself: its stage called with the step's params by name."""
    if step.kind not in _STAGES:
        raise ValueError(f"unknown impairment step kind {step.kind!r}")
    return _STAGES[step.kind][1](frame, **step.params)


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
                           ) -> tuple[np.ndarray, np.ndarray, ImpairmentRecord]:
    """Draw and apply one impairment chain. Returns (impaired frame,
    pre-noise frame, record), the frames of replay_with_pre_noise: the
    pre-noise frame is the unit-power frame as it entered the AWGN stage,
    which the Es/N0 check measures against, and the record holds every
    draw, including the noise stream snapshot.
    The frame is re-normalized to unit power right before the noise
    stage so the drawn Es/N0 target is exact at the output; an infinite
    target adds no noise stage, and the pre-noise frame is then the
    normalised output."""
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
    return *replay_with_pre_noise(clean, record), record
