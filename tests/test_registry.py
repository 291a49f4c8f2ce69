"""The 53-class table and its lookup helpers."""

import pytest

from sigforge.clean import gen_clean
from sigforge.fsk import fsk_spec
from sigforge.impairments import synthesize_impaired_source
from sigforge.registry import (
    CLASS_LIST,
    FSK_VARIANTS,
    NUM_CLASSES,
    OFDM_SUBCARRIER_COUNTS,
    SignalDescriptor,
    class_by_index,
    class_by_name,
    linear_classes,
)
from sigforge.rng import derive_stream


def test_fifty_three_classes_in_three_blocks():
    assert NUM_CLASSES == 53
    assert len(CLASS_LIST) == 53
    families = [c.family for c in CLASS_LIST]
    assert sum(f in ("ask", "pam", "psk", "qam") for f in families) == 25
    assert families.count("fsk") == 16
    assert families.count("ofdm") == 12
    # blocks are contiguous
    assert all(CLASS_LIST[i].is_linear for i in range(25))
    assert all(CLASS_LIST[i].family == "fsk" for i in range(25, 41))
    assert all(CLASS_LIST[i].family == "ofdm" for i in range(41, 53))


def test_indices_and_names_are_unique_and_consistent():
    assert [c.index for c in CLASS_LIST] == list(range(53))
    names = [c.name for c in CLASS_LIST]
    assert len(set(names)) == 53
    for c in CLASS_LIST:
        assert class_by_index(c.index) is c
        assert class_by_name(c.name) is c


def test_fsk_block_structure():
    fsk = [c for c in CLASS_LIST if c.family == "fsk"]
    assert [c.order for c in fsk] == [2] * 4 + [4] * 4 + [8] * 4 + [16] * 4
    assert [c.fsk_variant for c in fsk] == list(FSK_VARIANTS) * 4
    assert fsk[0].name == "2fsk"
    assert fsk[-1].name == "16gmsk"


def test_ofdm_block_structure():
    ofdm = [c for c in CLASS_LIST if c.family == "ofdm"]
    assert [c.num_subcarriers for c in ofdm] == list(OFDM_SUBCARRIER_COUNTS)
    assert OFDM_SUBCARRIER_COUNTS == (64, 72, 128, 180, 256, 300, 512, 600,
                                      900, 1024, 1200, 2048)
    assert ofdm[0].name == "ofdm-64"
    assert all(c.order == 0 for c in ofdm)


def test_known_linear_entries():
    assert class_by_name("ook").index == 0
    assert class_by_name("bpsk").index == 1
    assert class_by_name("32qam_cross").index == 13
    assert class_by_name("1024qam").index == 24
    assert class_by_name("16qam").order == 16
    assert class_by_name("ook").family == "pam"


def test_bits_per_symbol():
    assert class_by_name("bpsk").bits_per_symbol == 1
    assert class_by_name("qpsk").bits_per_symbol == 2
    assert class_by_name("1024qam").bits_per_symbol == 10
    with pytest.raises(ValueError):
        class_by_name("ofdm-64").bits_per_symbol


def test_lookup_errors():
    with pytest.raises(ValueError):
        class_by_index(53)
    with pytest.raises(ValueError):
        class_by_index(-1)
    with pytest.raises(ValueError):
        class_by_name("5g-nr")


def test_linear_classes_helper():
    linear = linear_classes()
    assert len(linear) == 25
    assert all(c.is_linear for c in linear)


def test_every_generator_reports_its_class_descriptor():
    """Clean and impaired synthesis return SignalClass.descriptor for every
    class, at each family's samples per symbol: 2 for linear and OFDM, the
    spec's rate for FSK, and 0.5 / lpf_cutoff for impaired FSK/MSK."""
    for cls in CLASS_LIST:
        _, clean = gen_clean(cls.index, derive_stream(28, cls.index), 256)
        _, impaired, shaping = synthesize_impaired_source(
            cls.index, derive_stream(28, NUM_CLASSES + cls.index), 256)
        clean_sps = impaired_sps = 2.0
        if cls.family == "fsk":
            spec = fsk_spec(cls)
            clean_sps = impaired_sps = float(spec.samples_per_symbol)
            assert ("lpf_cutoff" in shaping) is not spec.gaussian_shaped
            if not spec.gaussian_shaped:
                impaired_sps = 0.5 / shaping["lpf_cutoff"]
        for descriptor, sps in ((clean, clean_sps), (impaired, impaired_sps)):
            assert descriptor == cls.descriptor(sps), cls.name
            assert descriptor == SignalDescriptor(cls.index, cls.name, cls.family, sps)
            assert type(descriptor.samples_per_symbol) is float
