"""Shared fixtures, the acceptance-criteria summary hook and the check
that the session leaves no process behind."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from sigforge import pool
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


def pytest_sessionfinish(session, exitstatus):
    """The session ends with the pool write_shards and validate keep shut
    down and its workers joined, rather than left to concurrent.futures'
    exit hook, and with no worker any test left alive."""
    pool._drop_pool()
    leftover = multiprocessing.active_children()
    assert not leftover, f"processes left alive at the end of the session: {leftover}"


@pytest.fixture
def fresh_pool():
    """For a test that patches code pool workers run (generate_example,
    generate_range, _write_task, os.pwrite, or measure_esn0 in validate's
    replays): the pool write_shards and validate keep is shut down before
    the test, so the workers that run the patch are forked after it, and
    again after the test, so no later test runs on them."""
    pool._drop_pool()
    yield
    pool._drop_pool()


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


def block_once(flag: Path, real, blocks):
    """real, except that the first call for which blocks(*args) holds, in
    whichever process makes it, writes its pid to flag and sleeps until it
    is killed: a pool worker that dies partway through its task. Later
    calls, flag existing, run real. Set it before the pool forks."""
    def blocking(*args):
        if blocks(*args):
            try:
                fd = os.open(flag, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                return real(*args)
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            time.sleep(120)
        return real(*args)
    return blocking


def kill_blocked(flag: Path) -> float:
    """SIGKILL the process block_once blocked at flag, once it has written
    its pid; returns the time.monotonic() of the kill."""
    deadline = time.monotonic() + 60
    while not (flag.exists() and flag.read_text()):
        assert time.monotonic() < deadline, "no task reached the blocking call"
        time.sleep(0.01)
    os.kill(int(flag.read_text()), signal.SIGKILL)
    return time.monotonic()
