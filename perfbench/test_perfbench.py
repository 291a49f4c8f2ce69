"""The benchmark's own test: its self-check, which runs every workload at
a tiny size and checks that the correctness gates catch corrupted output.

    python3 -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path


def test_self_check():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--self-check"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
