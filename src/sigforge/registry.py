"""The 53-class signal registry.

Classes are indexed 0..52 in three blocks: 25 single-carrier linear
classes (OOK/PAM/ASK/PSK/QAM interleaved by modulation order), 16
frequency-shift classes in blocks of (2, 4, 8, 16) levels x (fsk, gfsk,
msk, gmsk), and 12 OFDM classes keyed by occupied subcarrier count.
"""

from __future__ import annotations

from dataclasses import dataclass

LINEAR_FAMILIES = ("ask", "pam", "psk", "qam")
FSK_VARIANTS = ("fsk", "gfsk", "msk", "gmsk")
OFDM_SUBCARRIER_COUNTS = (64, 72, 128, 180, 256, 300, 512, 600, 900, 1024, 1200, 2048)


@dataclass(frozen=True)
class SignalClass:
    """Static description of one modulation class."""

    index: int
    name: str
    family: str  # one of: ask, pam, psk, qam, fsk, ofdm
    order: int = 0  # modulation order M (0 for ofdm)
    fsk_variant: str | None = None  # fsk | gfsk | msk | gmsk
    num_subcarriers: int | None = None  # ofdm only

    @property
    def is_linear(self) -> bool:
        return self.family in LINEAR_FAMILIES

    @property
    def bits_per_symbol(self) -> int:
        if self.order <= 0:
            raise ValueError(f"{self.name} has no per-symbol bit count")
        return int(self.order).bit_length() - 1


@dataclass(frozen=True)
class SignalDescriptor:
    """What a generated frame claims to be.

    ``samples_per_symbol`` is the effective value after any rate change
    (e.g. the subsampled FSK path). An impaired frame's Es/N0 target is in
    its impairment record, not here.
    """

    class_index: int
    class_name: str
    family: str
    samples_per_symbol: float


def _linear(index: int, name: str, family: str, order: int) -> SignalClass:
    return SignalClass(index=index, name=name, family=family, order=order)


_LINEAR_CLASSES = [
    _linear(0, "ook", "pam", 2),
    _linear(1, "bpsk", "psk", 2),
    _linear(2, "4pam", "pam", 4),
    _linear(3, "4ask", "ask", 4),
    _linear(4, "qpsk", "psk", 4),
    _linear(5, "8pam", "pam", 8),
    _linear(6, "8ask", "ask", 8),
    _linear(7, "8psk", "psk", 8),
    _linear(8, "16qam", "qam", 16),
    _linear(9, "16pam", "pam", 16),
    _linear(10, "16ask", "ask", 16),
    _linear(11, "16psk", "psk", 16),
    _linear(12, "32qam", "qam", 32),
    _linear(13, "32qam_cross", "qam", 32),
    _linear(14, "32pam", "pam", 32),
    _linear(15, "32ask", "ask", 32),
    _linear(16, "32psk", "psk", 32),
    _linear(17, "64qam", "qam", 64),
    _linear(18, "64pam", "pam", 64),
    _linear(19, "64ask", "ask", 64),
    _linear(20, "64psk", "psk", 64),
    _linear(21, "128qam_cross", "qam", 128),
    _linear(22, "256qam", "qam", 256),
    _linear(23, "512qam_cross", "qam", 512),
    _linear(24, "1024qam", "qam", 1024),
]

_FSK_CLASSES = [
    SignalClass(
        index=25 + 4 * i + j,
        name=f"{order}{variant}",
        family="fsk",
        order=order,
        fsk_variant=variant,
    )
    for i, order in enumerate((2, 4, 8, 16))
    for j, variant in enumerate(FSK_VARIANTS)
]

_OFDM_CLASSES = [
    SignalClass(
        index=41 + i,
        name=f"ofdm-{n}",
        family="ofdm",
        num_subcarriers=n,
    )
    for i, n in enumerate(OFDM_SUBCARRIER_COUNTS)
]

CLASS_LIST: tuple[SignalClass, ...] = tuple(_LINEAR_CLASSES + _FSK_CLASSES + _OFDM_CLASSES)
NUM_CLASSES = len(CLASS_LIST)

_BY_NAME = {c.name: c for c in CLASS_LIST}


def class_by_index(index: int) -> SignalClass:
    if not 0 <= index < NUM_CLASSES:
        raise ValueError(f"class index {index} out of range [0, {NUM_CLASSES})")
    return CLASS_LIST[index]


def class_by_name(name: str) -> SignalClass:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown class name {name!r}") from None


def linear_classes() -> list[SignalClass]:
    return [c for c in CLASS_LIST if c.is_linear]
