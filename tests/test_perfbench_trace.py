"""The benchmark's traced mode against the current package.

``perfbench/tracer.py`` wraps package functions by name; a rename or a
moved import breaks it without any other test noticing.  The traced
workloads cover the lookup sites in decoding, training, ``model``,
``bpe``, ``synthetic`` and ``dataset``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["offline_corpus", "train_da", "prepare_corpus"])
def test_traced_run_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert '"correct": true' in proc.stdout
