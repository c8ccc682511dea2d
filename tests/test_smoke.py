"""The benchmark's own smoke run (perfbench/smoke.py) as a tier-1 test, so that a library
change that drops or renames anything the benchmark wraps fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    # every workload at tiny n, untraced and traced, in about 2 s; it writes only to the
    # git-ignored .bench_out/ of the checkout it runs from
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
