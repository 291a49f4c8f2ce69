"""Multicarrier synthesis: CP structure, subcarrier recovery, edges."""

import math

import numpy as np
import pytest

from sigforge.constellations import build_constellation
from sigforge.filters import lowpass_taps
from sigforge.ofdm import (
    _LOWPASS_TAPS,
    CP_FRACTIONS,
    EDGE_TREATMENTS,
    LOWPASS_CUTOFF,
    LOWPASS_NUM_TAPS,
    SUBCARRIER_MOD_NAMES,
    OfdmSpec,
    draw_ofdm_spec,
    gen_ofdm,
    ofdm_payload,
    ofdm_symbol_stream,
)
from sigforge.registry import OFDM_SUBCARRIER_COUNTS, class_by_name
from sigforge.rng import derive_stream


def make_spec(n, cp=0.25, random_mods=False, dc=True, edge="none"):
    return OfdmSpec(
        num_subcarriers=n,
        cp_fraction=cp,
        per_subcarrier_random=random_mods,
        dc_present=dc,
        edge_treatment=edge,
    )


def demod_stream(stream, spec, nsym):
    """Independent receiver: strip each CP, FFT, read the center bins."""
    n, dft = spec.num_subcarriers, spec.dft_size
    out = np.empty((n, nsym), dtype=np.complex128)
    for s in range(nsym):
        body = stream[s * spec.symbol_len + spec.cp_len: (s + 1) * spec.symbol_len]
        spectrum = np.fft.fftshift(np.fft.fft(body))
        out[:, s] = spectrum[dft // 2 - n // 2: dft // 2 + n // 2]
    return out


def test_spec_sizes():
    spec = make_spec(64, cp=0.125)
    assert spec.dft_size == 128
    assert spec.cp_len == 16
    assert spec.symbol_len == 144
    assert make_spec(600, cp=0.25).cp_len == 300


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(64, cp=0.3)
    with pytest.raises(ValueError):
        make_spec(64, edge="median")


@pytest.mark.parametrize("n", [64, 180, 600])
@pytest.mark.parametrize("cp", CP_FRACTIONS)
def test_cyclic_prefix_copies_tail(n, cp):
    spec = make_spec(n, cp=cp)
    stream, _ = ofdm_symbol_stream(spec, derive_stream(17, n))
    for s in range(len(stream) // spec.symbol_len):
        sym = stream[s * spec.symbol_len: (s + 1) * spec.symbol_len]
        np.testing.assert_array_equal(sym[: spec.cp_len], sym[-spec.cp_len:])


@pytest.mark.parametrize("n", [64, 128, 300, 1200])
def test_subcarrier_recovery(n):
    spec = make_spec(n, random_mods=True)
    stream, payload = ofdm_symbol_stream(spec, derive_stream(29, n))
    got = demod_stream(stream, spec, payload.shape[1])
    np.testing.assert_allclose(got, payload, atol=1e-9)


def test_unoccupied_bins_are_empty():
    spec = make_spec(64)
    stream, payload = ofdm_symbol_stream(spec, derive_stream(31, 0))
    body = stream[spec.cp_len: spec.symbol_len]
    spectrum = np.fft.fftshift(np.fft.fft(body))
    occupied = np.zeros(spec.dft_size, dtype=bool)
    occupied[spec.dft_size // 2 - 32: spec.dft_size // 2 + 32] = True
    assert np.abs(spectrum[~occupied]).max() < 1e-9
    assert np.abs(spectrum[occupied]).max() > 0.1


def test_dc_absent_zeroes_center_row():
    spec = make_spec(128, dc=False)
    payload = ofdm_payload(spec, derive_stream(5, 1), 4)
    assert np.all(payload[64] == 0.0)
    others = np.delete(payload, 64, axis=0)
    assert np.all(np.abs(others) > 0)


def test_single_modulation_mode_uses_one_table():
    spec = make_spec(64, random_mods=False)
    payload = ofdm_payload(spec, derive_stream(7, 3), 32)
    # Every value across all subcarriers must come from one constellation:
    # the union of distinct magnitudes stays small (<= 1024qam's 93 rings,
    # and far below what a mixture would produce across 6 tables).
    values = np.unique(np.round(payload.reshape(-1), 9))
    matched = False
    for name in SUBCARRIER_MOD_NAMES:
        points = build_constellation(class_by_name(name).index).points
        if np.all(np.isin(np.round(values, 6), np.round(points, 6))):
            matched = True
            break
    assert matched


def reference_payload(spec, rng, num_symbols):
    """The payload as one rng.integers run per subcarrier, low
    subcarrier first, after the table pick(s)."""
    tables = [build_constellation(class_by_name(n).index) for n in SUBCARRIER_MOD_NAMES]
    if spec.per_subcarrier_random:
        picks = rng.integers(0, len(tables), spec.num_subcarriers)
        tables = [tables[p] for p in picks]
    else:
        tables = [tables[rng.integers(0, len(tables))]] * spec.num_subcarriers
    values = np.empty((spec.num_subcarriers, num_symbols), dtype=np.complex128)
    for i, table in enumerate(tables):
        values[i] = table.points[rng.integers(0, len(table.points), num_symbols)]
    if not spec.dc_present:
        values[spec.num_subcarriers // 2] = 0.0
    return values


@pytest.mark.parametrize("n", OFDM_SUBCARRIER_COUNTS)
def test_payload_matches_per_subcarrier_reference(n):
    """26 drawn specs per subcarrier count (312 in all): the same values
    and the same final counter as the per-subcarrier loop."""
    modes, dc_flags = set(), set()
    for i in range(26):
        rng = derive_stream(71, n * 100 + i)
        spec = draw_ofdm_spec(n, rng)
        modes.add(spec.per_subcarrier_random)
        dc_flags.add(spec.dc_present)
        nsym = math.ceil(4096 / spec.symbol_len)
        ours, theirs = rng.clone(), rng.clone()
        np.testing.assert_array_equal(ofdm_payload(spec, ours, nsym),
                                      reference_payload(spec, theirs, nsym))
        assert ours.counter == theirs.counter
    assert modes == {False, True}
    assert dc_flags == {False, True}


def test_random_modulation_mode_mixes_tables():
    spec = make_spec(1024, random_mods=True)
    payload = ofdm_payload(spec, derive_stream(7, 4), 2)
    # With 1024 subcarriers the chance that all picks collapse to one
    # table is 6**-1023; magnitudes from bpsk (1.0) and any qam must
    # co-occur.
    mags = np.unique(np.round(np.abs(payload.reshape(-1)), 6))
    assert len(mags) > 10


def test_frame_is_unit_power_and_full_length():
    for n in (64, 2048):
        spec = make_spec(n, edge="window", cp=0.25)
        frame, desc = gen_ofdm(spec, derive_stream(41, n))
        assert frame.shape == (4096,)
        assert np.mean(np.abs(frame) ** 2) == pytest.approx(1.0, rel=1e-12)
        assert desc.class_name == f"ofdm-{n}"
        assert desc.samples_per_symbol == 2.0


def test_window_taper_touches_only_symbol_edges():
    # Away from the CP/2-length edge ramps the frame is a constant
    # multiple (the unit-power renormalization) of the raw stream.
    spec = make_spec(64, edge="window")
    rng = derive_stream(43, 0)
    stream, _ = ofdm_symbol_stream(spec, rng.clone(), 4096)
    frame, _ = gen_ofdm(spec, rng)
    ramp = spec.cp_len // 2
    mid = slice(ramp, spec.symbol_len - ramp)
    a = frame[mid] / stream[mid]
    np.testing.assert_allclose(a, a[0], rtol=1e-9)
    edge = frame[:ramp] / stream[:ramp]
    assert np.abs(edge).max() < np.abs(a[0])  # ramps attenuate


def test_lowpass_taps_are_the_design_read_only():
    assert _LOWPASS_TAPS.tobytes() == lowpass_taps(LOWPASS_CUTOFF, LOWPASS_NUM_TAPS).tobytes()
    assert not _LOWPASS_TAPS.flags.writeable


def test_lowpass_edge_reduces_out_of_band_energy():
    spec_none = make_spec(64, edge="none")
    spec_lp = make_spec(64, edge="lowpass")
    raw, _ = gen_ofdm(spec_none, derive_stream(47, 0))
    smooth, _ = gen_ofdm(spec_lp, derive_stream(47, 0))
    f = np.fft.fftshift(np.fft.fftfreq(4096))
    oob = np.abs(f) > 0.35
    e_raw = np.sum(np.abs(np.fft.fftshift(np.fft.fft(raw))[oob]) ** 2)
    e_smooth = np.sum(np.abs(np.fft.fftshift(np.fft.fft(smooth))[oob]) ** 2)
    assert e_smooth < e_raw / 10


def test_half_band_occupancy():
    """Energy concentrates in |f| < 0.25 for every subcarrier count."""
    for n in OFDM_SUBCARRIER_COUNTS:
        spec = make_spec(n, edge="window")
        frame, _ = gen_ofdm(spec, derive_stream(53, n))
        spectrum = np.abs(np.fft.fftshift(np.fft.fft(frame))) ** 2
        f = np.fft.fftshift(np.fft.fftfreq(4096))
        inband = np.sum(spectrum[np.abs(f) <= 0.26])
        assert inband / np.sum(spectrum) > 0.98


def test_draw_ofdm_spec_order_and_support():
    seen_edges, seen_cp = set(), set()
    for i in range(200):
        spec = draw_ofdm_spec(64, derive_stream(61, i))
        assert spec.edge_treatment in ("lowpass", "window")  # never "none"
        seen_edges.add(spec.edge_treatment)
        seen_cp.add(spec.cp_fraction)
    assert seen_edges == {"lowpass", "window"}
    assert seen_cp == set(CP_FRACTIONS)
    assert "none" in EDGE_TREATMENTS


def test_determinism():
    spec = make_spec(256, random_mods=True, edge="lowpass")
    a, _ = gen_ofdm(spec, derive_stream(67, 0))
    b, _ = gen_ofdm(spec, derive_stream(67, 0))
    np.testing.assert_array_equal(a, b)
