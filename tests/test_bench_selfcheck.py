"""The benchmark's self-check: metric names and units, the CLI-output digest
gate and the loop-equivalence gate, run as ``python3 bench/selfcheck.py``."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selfcheck_passes():
    p = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert p.returncode == 0, p.stdout[-4000:] + p.stderr[-4000:]
