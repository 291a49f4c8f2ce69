"""The benchmark under perfbench/ imports library names and runs library
paths that no tier-1 test would otherwise miss, since pytest's testpaths
leave perfbench/ out."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_benchmark_imports_against_this_library():
    # run imports tracing, which imports bench: every sigforge name they use
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import sigforge, run, tracing, bench; "
            "assert sigforge.__file__.startswith(sys.argv[1]), sigforge.__file__")
    result = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_the_benchmark_self_check_passes():
    # tiny runs of every workload through the library in src/, plus the
    # benchmark's own gates (verify_digests, read, the server's replies)
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
