"""Pinned augmentation outputs: determinism across versions, not just runs.

One sha256 covers, for every kind with and without spec params, the
output bytes of ``apply_augment`` and the RNG counter it leaves behind,
then ``rand_augment`` and a probability-gated ``Pipeline``. A refactor of
the spec plumbing must keep it; a change to what a transform draws or
emits changes it and says why.
"""

import hashlib
import json

import numpy as np

from sigforge.augmentations import AugmentSpec, Pipeline, apply_augment, rand_augment
from sigforge.rng import derive_stream

# (kind, params): every kind bare (time_varying_noise has no bare form),
# then with every spec param set, then with some drawn ones left unset.
# Ranges are lists, as a JSON pipeline file gives them.
CASES = [
    ("identity", {}),
    ("spectral_inversion", {}),
    ("channel_swap", {}),
    ("amplitude_reversal", {}),
    ("cutout", {}),
    ("drop_samples", {}),
    ("quantize", {}),
    ("magnitude_rescale", {}),
    ("patch_shuffle", {}),
    ("time_reversal", {}),
    ("signal_rolloff", {}),
    ("lo_drift", {}),
    ("gain_drift", {}),
    ("clip", {}),
    ("add_slope", {}),
    ("random_convolve", {}),
    ("agc", {}),
    ("cutout", {"duration_frac": 0.15, "fill": "avg_noise"}),
    ("drop_samples", {"drop_rate": 0.04, "region_len_range": [2, 5], "fill": "back"}),
    ("quantize", {"num_levels": 12, "rounding": "ceiling"}),
    ("magnitude_rescale", {"start_index": 100, "scale": 1.7}),
    ("patch_shuffle", {"patch_len_range": [3, 9], "shuffle_ratio": 0.7}),
    ("time_reversal", {"undo_inversion": False}),
    ("signal_rolloff", {"side": "upper", "edge_frac": 0.2}),
    ("lo_drift", {"drift_rate": 1e-3, "max_drift": 0.02}),
    ("gain_drift", {"drift_rate": 1e-3, "max_drift": 0.05}),
    ("time_varying_noise", {"snr_low_db": 0.0, "snr_high_db": 20.0, "inflections": 2}),
    ("clip", {"percentage": 0.7}),
    ("random_convolve", {"num_taps_range": [3, 6], "alpha": 0.3}),
    ("agc", {"reference_level": 0.5, "track_alpha": 0.01}),
    ("cutout", {"fill": "ones"}),
    ("cutout", {"duration_frac": 0.05}),
    ("drop_samples", {"drop_rate": 0.02}),
    ("drop_samples", {"fill": "front"}),
    ("quantize", {"num_levels": 5}),
    ("quantize", {"rounding": "middle"}),
    ("magnitude_rescale", {"scale": 0.6}),
    ("patch_shuffle", {"patch_len_range": [4, 4]}),
]

GATED = (
    ("cutout", 0.5, {}),
    ("quantize", 0.3, {"num_levels": 16}),
    ("channel_swap", 0.5, {}),
    ("drop_samples", 0.4, {"fill": "mean"}),
    ("lo_drift", 0.6, {}),
    ("patch_shuffle", 0.5, {}),
    ("clip", 0.7, {"percentage": 0.8}),
    ("magnitude_rescale", 0.5, {}),
    ("time_varying_noise", 0.2, {"snr_low_db": 5.0, "snr_high_db": 25.0}),
    ("agc", 0.8, {}),
)

SEEDS = range(5)
FRAME_LEN = 256

AUGMENT_SHA256 = "1446bbc649ba7c4d2ef77626c2a06387298c540ee52f809c7683b5e5eebbe164"


def _update(h, label, out, rng):
    out = np.asarray(out)
    h.update(label.encode())
    h.update(f"{out.dtype.str}{out.shape}{rng.counter}".encode())
    h.update(out.tobytes())


def test_augmentation_outputs_and_rng_counters_are_pinned():
    h = hashlib.sha256()
    for seed in SEEDS:
        frame = derive_stream(0xA0, seed).cnormal(FRAME_LEN)
        for kind, params in CASES:
            rng = derive_stream(0xA1, seed)
            out = apply_augment(frame, rng, AugmentSpec(kind=kind, params=dict(params)))
            assert len(out) == FRAME_LEN
            _update(h, f"{kind}{json.dumps(params, sort_keys=True)}", out, rng)
        rng = derive_stream(0xA2, seed)
        _update(h, "rand_augment", rand_augment(frame, rng, n=3), rng)
        pipe = Pipeline(tuple(AugmentSpec(kind=k, probability=p, params=dict(q))
                              for k, p, q in GATED))
        rng = derive_stream(0xA3, seed)
        _update(h, "pipeline", pipe(frame, rng), rng)
    assert h.hexdigest() == AUGMENT_SHA256
