"""The benchmark's smoke run must pass against the current program.

The traced benchmark wraps twinrec's public functions by name, so renaming
one breaks the benchmark; this catches that in the unit suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
