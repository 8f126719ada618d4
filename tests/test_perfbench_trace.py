"""The benchmark's traced mode against the current package.

``perfbench/tracer.py`` wraps package functions by name; a rename or a
moved import breaks it without any other test noticing.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_offline_run_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_corpus",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert '"correct": true' in proc.stdout
