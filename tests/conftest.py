"""Shared fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from sigforge.rng import derive_stream

# Populated by tests/test_acceptance.py; printed after the run so the
# per-criterion verdicts are visible even with captured stdout.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, bool(ok), detail))
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    """A fresh deterministic stream per test."""
    return derive_stream(0xC0FFEE, 0)


@pytest.fixture
def noise_frame(rng):
    """Unit-power complex Gaussian frame, 4096 samples."""
    return rng.cnormal(4096)


def assert_frames_equal(a: np.ndarray, b: np.ndarray) -> None:
    """Bit-exact comparison with a readable failure."""
    assert a.shape == b.shape
    if not np.array_equal(a, b):
        bad = np.flatnonzero(a != b)
        raise AssertionError(f"frames differ at {bad.size} positions, "
                             f"first at {bad[0]}: {a[bad[0]]} vs {b[bad[0]]}")


def child_pids(pid: int) -> set[int]:
    """The pids of pid's live child processes, read from /proc."""
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if int(fields[1]) == pid:  # fields: state, ppid, ...
            children.add(int(stat.parent.name))
    return children
