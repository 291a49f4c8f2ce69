"""Training-time transforms: the signals RandAugment set, the extra
channel/receiver effects, two-example mixes, and feature representations.

Every transform is a pure function of (frame, parameters, rng draws) and
preserves frame length. ``AUGMENTATIONS`` registers the 18 transforms a
pipeline can name, each under its function name. An ``AugmentSpec`` is
checked when it is built: its params must bind against the transform's
signature after frame and rng, and a fill, rounding, level
count, roll-off side or edge, or inflection count must be one the
transform accepts, so an unknown or missing name or a refused value fails
then, not when a probability gate first fires. ``apply_augment``
calls the transform directly, after drawing the parameters the registry
lists as drawn per application and the spec leaves unset; every other
unset parameter takes the transform's own default. The README's drawn
defaults table documents the registry.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from sigforge.frame import mean_power
from sigforge.measurement import spectrogram as _spectrogram
from sigforge.rng import RngStream

# --- involutions and other parameter-free ops -------------------------------

def identity(frame: np.ndarray) -> np.ndarray:
    return frame.copy()


def time_reversal(frame: np.ndarray, undo_inversion: bool = True) -> np.ndarray:
    """Reverse time; reversing also inverts the spectrum, which the
    conjugate undoes when asked (the default in pipelines)."""
    rev = frame[::-1]
    return np.conj(rev) if undo_inversion else rev.copy()


def spectral_inversion(frame: np.ndarray) -> np.ndarray:
    return np.conj(frame)


def channel_swap(frame: np.ndarray) -> np.ndarray:
    """Swap I and Q; algebraically j*conj(x)."""
    return 1j * np.conj(frame)


def amplitude_reversal(frame: np.ndarray) -> np.ndarray:
    return -frame


# --- local-corruption ops ----------------------------------------------------

DROP_FILLS = ("front", "back", "mean", "zero")


def drop_samples(frame: np.ndarray, rng: RngStream, drop_rate: float = 0.03,
                 region_len_range: tuple[int, int] = (1, 7),
                 fill: str = "zero") -> np.ndarray:
    """Replace disjoint regions (~drop_rate of the frame in total) with a
    fill value: the last sample before the region (front), the first
    after it (back), the frame mean, or zero."""
    _check_values("drop_samples", fill=fill)
    n = len(frame)
    out = frame.copy()
    target = int(round(drop_rate * n))
    dropped = np.zeros(n, dtype=bool)
    budget = target
    attempts = 0
    while budget > 0 and attempts < 8 * max(1, target):
        attempts += 1
        length = int(rng.integers(region_len_range[0], region_len_range[1] + 1))
        length = min(length, budget)
        start = int(rng.integers(0, n - length + 1))
        if dropped[start:start + length].any():
            continue
        dropped[start:start + length] = True
        budget -= length
        if fill == "zero":
            value = 0.0
        elif fill == "mean":
            value = np.mean(frame)
        elif fill == "front":
            value = frame[start - 1] if start > 0 else frame[min(start + length, n - 1)]
        else:  # back
            end = start + length
            value = frame[end] if end < n else frame[start - 1] if start > 0 else frame[0]
        out[start:start + length] = value
    return out


ROUNDINGS = ("floor", "middle", "ceiling")


def quantize(frame: np.ndarray, num_levels: int, rounding: str = "floor",
             max_amplitude: float | None = None) -> np.ndarray:
    """Uniform quantizer over [-m, +m] applied to re and im independently;
    m defaults to the frame's max absolute component. ``rounding`` picks
    the emitted value inside each bin: its lower edge, middle, or upper
    edge."""
    _check_values("quantize", num_levels=num_levels, rounding=rounding)
    m = max_amplitude
    if m is None:
        m = float(max(np.max(np.abs(frame.real)), np.max(np.abs(frame.imag))))
    if m == 0.0:
        return frame.copy()
    width = 2.0 * m / num_levels
    offset = {"floor": 0.0, "middle": 0.5, "ceiling": 1.0}[rounding] * width

    def q(v: np.ndarray) -> np.ndarray:
        idx = np.clip(np.floor((v + m) / width), 0, num_levels - 1)
        return -m + idx * width + offset

    return q(frame.real) + 1j * q(frame.imag)


def magnitude_rescale(frame: np.ndarray, rng: RngStream | None = None,
                      start_index: int | None = None,
                      scale: float | None = None) -> np.ndarray:
    """Gain step: samples from start_index onward are scaled. Unset
    parameters are drawn (start uniform over the frame, scale U(0.5, 2)),
    which takes an rng (TypeError without one)."""
    if rng is None and (start_index is None or scale is None):
        raise TypeError("magnitude_rescale needs an rng to draw an unset start_index or scale")
    n = len(frame)
    if start_index is None:
        start_index = int(rng.integers(0, n))
    if scale is None:
        scale = rng.uniform(0.5, 2.0)
    out = frame.copy()
    out[start_index:] *= scale
    return out


CUTOUT_FILLS = ("zeros", "ones", "low_noise", "avg_noise", "high_noise")
_CUTOUT_NOISE_POWER = {"low_noise": 0.01, "avg_noise": 1.0, "high_noise": 100.0}


def cutout(frame: np.ndarray, rng: RngStream, duration_frac: float = 0.1,
           fill: str = "zeros") -> np.ndarray:
    """Replace one contiguous region of duration_frac of the frame."""
    _check_values("cutout", fill=fill)
    n = len(frame)
    length = int(round(duration_frac * n))
    if length <= 0:
        return frame.copy()
    length = min(length, n)
    start = int(rng.integers(0, n - length + 1))
    out = frame.copy()
    if fill == "zeros":
        out[start:start + length] = 0.0
    elif fill == "ones":
        out[start:start + length] = 1.0 + 0.0j
    else:
        power = _CUTOUT_NOISE_POWER[fill] * mean_power(frame)
        out[start:start + length] = rng.cnormal(length) * math.sqrt(power)
    return out


def patch_shuffle(frame: np.ndarray, rng: RngStream,
                  patch_len_range: tuple[int, int] = (2, 16),
                  shuffle_ratio: float = 0.5) -> np.ndarray:
    """Partition into equal patches (length drawn once) and permute the
    samples inside a shuffle_ratio fraction of them."""
    n = len(frame)
    patch_len = int(rng.integers(patch_len_range[0], patch_len_range[1] + 1))
    patch_len = max(2, min(patch_len, n))
    out = frame.copy()
    for start in range(0, n - patch_len + 1, patch_len):
        if rng.bernoulli(shuffle_ratio):
            perm = np.argsort(rng.unit(patch_len))
            out[start:start + patch_len] = out[start:start + patch_len][perm]
    return out


# --- channel/receiver effects -------------------------------------------------

ROLLOFF_SIDES = ("lower", "upper", "both")


def signal_rolloff(frame: np.ndarray, side: str = "both",
                   edge_frac: float = 0.1) -> np.ndarray:
    """Raised-cosine attenuation over the outer edge_frac of the chosen
    spectrum edge(s); models band-edge filter roll-off.

    The gain depends on |frequency| so that a two-sided taper treats
    mirrored bins identically (a real input stays real). The midpoint of
    the taper band sits at exactly half amplitude (-6.02 dB)."""
    _check_values("signal_rolloff", side=side, edge_frac=edge_frac)
    n = len(frame)
    num_edge = int(round(edge_frac * n))
    if num_edge <= 0:
        return frame.copy()
    freqs = np.arange(n) - n // 2  # bin index, fftshifted layout
    depth = n // 2 - np.abs(freqs)  # 0 at the outermost bin
    gain = np.where(depth < num_edge,
                    0.5 * (1.0 - np.cos(np.pi * depth / num_edge)), 1.0)
    if side == "lower":
        gain = np.where(freqs < 0, gain, 1.0)
    elif side == "upper":
        gain = np.where(freqs > 0, gain, 1.0)
    spectrum = np.fft.fftshift(np.fft.fft(frame)) * gain
    return np.fft.ifft(np.fft.ifftshift(spectrum))


def _bounded_walk(rng: RngStream, n: int, step: float, bound: float) -> np.ndarray:
    """Random walk from 0 with U(-step, step) increments, reset to 0
    whenever the next value would leave [-bound, +bound]."""
    steps = rng.uniform(-step, step, n)
    walk = np.empty(n)
    value = 0.0
    for i in range(n):
        value += steps[i]
        if abs(value) > bound:
            value = 0.0
        walk[i] = value
    return walk


def lo_drift(frame: np.ndarray, rng: RngStream, drift_rate: float = 1e-4,
             max_drift: float = 0.01) -> np.ndarray:
    """Oscillator frequency random walk (reset at the drift bound),
    integrated into phase."""
    if drift_rate == 0.0:
        return frame.copy()
    freq = _bounded_walk(rng, len(frame), drift_rate, max_drift)
    theta = 2.0 * np.pi * np.cumsum(freq)
    return frame * np.exp(1j * theta)


def gain_drift(frame: np.ndarray, rng: RngStream, drift_rate: float = 1e-4,
               max_drift: float = 0.1) -> np.ndarray:
    """Per-sample linear gain 1 + d[n], d random-walking within
    [-max_drift, +max_drift] with reset at the bound."""
    if drift_rate == 0.0:
        return frame.copy()
    return frame * (1.0 + _bounded_walk(rng, len(frame), drift_rate, max_drift))


def time_varying_noise(frame: np.ndarray, rng: RngStream, snr_low_db: float,
                       snr_high_db: float, inflections: int = 0) -> np.ndarray:
    """Additive complex noise whose per-sample power follows a piecewise
    linear dB trajectory from snr_low to snr_high (per-sample SNR, i.e.
    sps = 1), reversing slope at each of ``inflections`` evenly spaced
    points."""
    _check_values("time_varying_noise", inflections=inflections)
    n = len(frame)
    nodes = np.linspace(0, n - 1, inflections + 2)
    node_snrs = np.where(np.arange(inflections + 2) % 2 == 0, snr_low_db, snr_high_db)
    snr = np.interp(np.arange(n), nodes, node_snrs)
    sigma2 = mean_power(frame) * 10.0 ** (-snr / 10.0)
    return frame + rng.cnormal(n) * np.sqrt(sigma2)


def clip(frame: np.ndarray, percentage: float = 0.9,
         max_amplitude: float | None = None) -> np.ndarray:
    """Clamp re and im independently to +-(percentage * m); m defaults to
    the frame's max absolute component (pass it explicitly for an
    idempotent bound)."""
    m = max_amplitude
    if m is None:
        m = float(max(np.max(np.abs(frame.real)), np.max(np.abs(frame.imag))))
    bound = percentage * m
    return np.clip(frame.real, -bound, bound) + 1j * np.clip(frame.imag, -bound, bound)


def add_slope(frame: np.ndarray) -> np.ndarray:
    """y[n] = x[n] + (x[n] - x[n-1]); accentuates high frequencies."""
    out = frame.copy()
    out[1:] += frame[1:] - frame[:-1]
    return out


def random_convolve(frame: np.ndarray, rng: RngStream,
                    num_taps_range: tuple[int, int] = (2, 5),
                    alpha: float = 0.5) -> np.ndarray:
    """Blend the frame with a random-FIR-filtered copy:
    y = alpha*(x conv h) + (1-alpha)*x, h ~ U(0,1)^taps scaled to unit L2."""
    num_taps = int(rng.integers(num_taps_range[0], num_taps_range[1] + 1))
    taps = rng.unit(num_taps)
    norm = np.sqrt(np.sum(taps**2))
    taps = np.full(num_taps, 1.0 / math.sqrt(num_taps)) if norm == 0.0 else taps / norm
    return alpha * np.convolve(frame, taps, mode="same") + (1.0 - alpha) * frame


def agc(frame: np.ndarray, *, initial_gain: float = 0.0, level_alpha: float = 0.25,
        track_alpha: float = 0.004, acquire_alpha: float = 0.04, overflow_alpha: float = 0.1,
        reference_level: float = 0.0, track_range: float = 0.2,
        low_level: float = math.log(1e-3), high_level: float = math.log(10.0)) -> np.ndarray:
    """Sample-sequential automatic gain control in the log domain.

    Its loop constants are keyword parameters. No waveform model fixes
    them; the defaults are chosen for stable convergence and documented in
    the README. initial_gain is the starting natural-log gain; level_alpha
    smooths the log-magnitude estimate; reference_level is the target
    ln|y|; the gain moves by track_alpha of the error while it is within
    track_range, by acquire_alpha beyond it, and by overflow_alpha while
    the level is above high_level; below low_level the gain freezes."""
    out = np.empty_like(frame)
    gain = initial_gain
    level = 0.0
    have_level = False
    for i, sample in enumerate(frame):
        mag = abs(sample)
        inst = math.log(mag) if mag > 0.0 else low_level - 1.0
        if not have_level:
            level, have_level = inst, True
        else:
            level += level_alpha * (inst - level)
        if level >= low_level:
            error = reference_level - level - gain
            if level > high_level:
                alpha = overflow_alpha
            elif abs(error) > track_range:
                alpha = acquire_alpha
            else:
                alpha = track_alpha
            gain += alpha * error
        out[i] = sample * math.exp(gain)
    return out


# --- two-example mixes --------------------------------------------------------

@dataclass(frozen=True)
class LabelInfo:
    primary: int
    secondary: int | None = None
    secondary_weight: float | None = None  # power weight (MixUp) or extent (CutMix)


def mixup(frame: np.ndarray, label: int, other_frame: np.ndarray, other_label: int,
          alpha_db: float | None = None, rng: RngStream | None = None
          ) -> tuple[np.ndarray, LabelInfo]:
    """Additive mix with the second signal alpha_db below the first:
    y = x + 10^(-alpha/20)*other. alpha defaults to a U(3, 23) dB draw.
    The secondary label weight is the mixed-in share of total power.
    Drawing alpha takes an rng (TypeError without one)."""
    if alpha_db is None:
        if rng is None:
            raise TypeError("mixup needs an rng to draw alpha_db")
        alpha_db = rng.uniform(3.0, 23.0)
    if math.isinf(alpha_db) and alpha_db > 0:
        return frame.copy(), LabelInfo(primary=label)
    scale = 10.0 ** (-alpha_db / 20.0)
    mixed = frame + scale * other_frame
    p_main = mean_power(frame)
    p_other = scale**2 * mean_power(other_frame)
    weight = p_other / (p_main + p_other) if p_main + p_other > 0 else 0.0
    return mixed, LabelInfo(primary=label, secondary=other_label, secondary_weight=weight)


def cutmix(frame: np.ndarray, label: int, other_frame: np.ndarray, other_label: int,
           alpha_frac: float, rng: RngStream | None = None,
           start: int | None = None) -> tuple[np.ndarray, LabelInfo]:
    """Replace a contiguous alpha_frac of the frame with the other
    signal's samples (same region). The region start is drawn when an
    rng is supplied, else 0."""
    if not 0.0 <= alpha_frac <= 1.0:
        raise ValueError(f"alpha_frac must be in [0, 1], got {alpha_frac}")
    n = len(frame)
    length = int(round(alpha_frac * n))
    if length >= n:
        return other_frame.copy(), LabelInfo(primary=other_label)
    if length == 0:
        return frame.copy(), LabelInfo(primary=label)
    if start is None:
        start = int(rng.integers(0, n - length + 1)) if rng is not None else 0
    out = frame.copy()
    out[start:start + length] = other_frame[start:start + length]
    return out, LabelInfo(primary=label, secondary=other_label, secondary_weight=alpha_frac)


# --- feature representations ---------------------------------------------------

def to_features(frame: np.ndarray, repr_kind: str) -> np.ndarray:
    """Terminal real-valued views of a frame for model input."""
    if repr_kind == "iq_2channel":
        return np.stack([frame.real, frame.imag])
    if repr_kind == "interleaved":
        out = np.empty(2 * len(frame))
        out[0::2] = frame.real
        out[1::2] = frame.imag
        return out
    if repr_kind == "magnitude":
        return np.abs(frame)
    if repr_kind == "wrapped_phase":
        return np.angle(frame)
    if repr_kind == "dft":
        spectrum = np.fft.fft(frame)
        return np.stack([spectrum.real, spectrum.imag])
    if repr_kind == "spectrogram":
        return _spectrogram(frame, nfft=256, hop=128)
    raise ValueError(f"unknown representation {repr_kind!r}")


# --- RandAugment and pipelines ---------------------------------------------------

# Parameters a spec may leave unset that are drawn for each application,
# in draw order, each as an RngStream method and its arguments. Any other
# parameter a spec leaves unset takes the transform's own default.
_DRAWN = {
    "cutout": {"duration_frac": ("uniform", 0.01, 0.2), "fill": ("choice", CUTOUT_FILLS)},
    "drop_samples": {"drop_rate": ("uniform", 0.01, 0.05), "fill": ("choice", DROP_FILLS)},
    "quantize": {"num_levels": ("integers", 8, 65), "rounding": ("choice", ROUNDINGS)},
    "patch_shuffle": {"shuffle_ratio": ("uniform", 0.1, 0.5)},
}


def _member_of(allowed: tuple[str, ...]):
    def check(name: str, value: object) -> None:
        if not (isinstance(value, str) and value in allowed):
            raise ValueError(f"unknown {name} {value!r}")
    return check


def _integer_from(low: int):
    def check(name: str, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return check


def _number_within(low: float, high: float):
    def check(name: str, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not low <= value <= high:
            raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return check


# Values a transform refuses, by kind and parameter: the transform checks
# them when called, and AugmentSpec when a spec is built.
_VALUE_CHECKS = {
    "cutout": {"fill": _member_of(CUTOUT_FILLS)},
    "drop_samples": {"fill": _member_of(DROP_FILLS)},
    "quantize": {"num_levels": _integer_from(1), "rounding": _member_of(ROUNDINGS)},
    "signal_rolloff": {"side": _member_of(ROLLOFF_SIDES), "edge_frac": _number_within(0, 0.5)},
    "time_varying_noise": {"inflections": _integer_from(0)},
}


def _check_values(kind: str, **params: object) -> None:
    """Raise ValueError for a param value that kind's transform refuses;
    a param without a check in _VALUE_CHECKS passes."""
    checks = _VALUE_CHECKS.get(kind, {})
    for name, value in params.items():
        if name in checks:
            checks[name](name, value)


# The registry: kind (the transform's name) -> (transform, drawn parameters).
AUGMENTATIONS = {transform.__name__: (transform, _DRAWN.get(transform.__name__, {}))
                 for transform in (identity, spectral_inversion, channel_swap,
                                   amplitude_reversal, cutout, drop_samples, quantize,
                                   magnitude_rescale, patch_shuffle, time_reversal,
                                   signal_rolloff, lo_drift, gain_drift, time_varying_noise,
                                   clip, add_slope, random_convolve, agc)}


def _spec_signature(transform) -> tuple[inspect.Signature, bool]:
    """The signature a spec's params bind against (the transform's after
    frame and rng), and whether the transform takes rng as its second
    parameter."""
    params = list(inspect.signature(transform).parameters.values())
    takes_rng = len(params) > 1 and params[1].name == "rng"
    return inspect.Signature(params[1 + takes_rng:]), takes_rng


_SIGNATURES = {kind: _spec_signature(transform) for kind, (transform, _) in AUGMENTATIONS.items()}


@dataclass(frozen=True)
class AugmentSpec:
    """One pipeline step, checked when built: ``kind`` must be
    registered, ``probability`` a number in [0, 1] (TypeError for a bool
    or a string), and ``params`` must bind against the kind's transform
    with drawn parameters counted as given, and hold only values the
    transform accepts (ValueError naming the kind for an unknown or a
    missing required name, or a value in _VALUE_CHECKS that the transform
    refuses). ``params`` is copied."""

    kind: str
    probability: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.probability, bool) or not isinstance(self.probability, numbers.Real):
            raise TypeError(f"probability must be a number, got {type(self.probability).__name__}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.kind not in AUGMENTATIONS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        try:
            object.__setattr__(self, "params", dict(self.params))
            given = {**dict.fromkeys(AUGMENTATIONS[self.kind][1]), **self.params}
            _SIGNATURES[self.kind][0].bind(**given)
            _check_values(self.kind, **self.params)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"augmentation {self.kind!r}: {exc}") from None


# The RandAugment menu: 9 kinds, identity included.
RAND_AUGMENT_KINDS = (
    "spectral_inversion",
    "channel_swap",
    "amplitude_reversal",
    "cutout",
    "drop_samples",
    "quantize",
    "magnitude_rescale",
    "patch_shuffle",
    "identity",
)

DEFAULT_RAND_AUGMENT_OPS = tuple(AugmentSpec(kind=k) for k in RAND_AUGMENT_KINDS)


def apply_augment(frame: np.ndarray, rng: RngStream, spec: AugmentSpec) -> np.ndarray:
    """Draw the spec's unset drawn parameters, then call its transform."""
    transform, drawn = AUGMENTATIONS[spec.kind]
    params = {name: getattr(rng, method)(*args)
              for name, (method, *args) in drawn.items() if name not in spec.params}
    params.update(spec.params)
    if _SIGNATURES[spec.kind][1]:
        return transform(frame, rng, **params)
    return transform(frame, **params)


def _apply_each(frame: np.ndarray, rng: RngStream, specs) -> np.ndarray:
    """Apply ``specs`` in order, pulling each only after the previous one
    ran, so its selection draws interleave with the transforms' draws.
    Always returns a new array."""
    out = frame
    for spec in specs:
        out = apply_augment(out, rng, spec)
    return out if out is not frame else frame.copy()


def rand_augment(frame: np.ndarray, rng: RngStream,
                 ops: tuple[AugmentSpec, ...] = DEFAULT_RAND_AUGMENT_OPS,
                 n: int = 2) -> np.ndarray:
    """Pick n ops uniformly with replacement and apply them in draw
    order, each with its own random parameters."""
    return _apply_each(frame, rng, (rng.choice(ops) for _ in range(n)))


class Pipeline:
    """Ordered, probability-gated transform chain (two-example mixes are
    applied by the training loop, not here)."""

    def __init__(self, specs: tuple[AugmentSpec, ...]):
        self.specs = tuple(specs)

    def __call__(self, frame: np.ndarray, rng: RngStream) -> np.ndarray:
        gated = (spec for spec in self.specs if rng.bernoulli(spec.probability))
        return _apply_each(frame, rng, gated)


def build_pipeline(config) -> Pipeline:
    """Build from a declarative description: a JSON file path, a JSON
    string, or a list of {kind, probability, params} mappings. Raises
    TypeError for a description that is not a list or an entry that is
    not a mapping, ValueError for an entry with any other key, and what
    AugmentSpec raises for the rest."""
    if isinstance(config, str):
        try:
            entries = json.loads(config)
        except json.JSONDecodeError:
            with open(config, "r", encoding="utf-8") as fh:
                entries = json.load(fh)
    else:
        entries = config
    if not isinstance(entries, list):
        raise TypeError(f"a pipeline is a list of specs, got {type(entries).__name__}")
    for entry in entries:
        if not isinstance(entry, dict):
            raise TypeError(f"a pipeline entry is a mapping, got {type(entry).__name__}")
        if not entry.keys() <= {"kind", "probability", "params"}:
            raise ValueError("a pipeline entry has only kind, probability and params, "
                             f"got keys {list(entry)}")
    return Pipeline(tuple(AugmentSpec(**entry) for entry in entries))
