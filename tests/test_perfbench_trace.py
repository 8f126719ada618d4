"""The benchmark's traced mode against the current package.

``perfbench/tracer.py`` wraps package functions by name; a rename or a
moved import breaks it without any other test noticing.  The traced
workloads cover the lookup sites in decoding, training, ``model``,
``bpe``, ``synthetic`` and ``dataset``.  A site the tracer no longer
reaches leaves its metric at 0, so each workload also requires the
metric of one site it runs to be positive.  The select metrics are left
out: they read 0 at every site the decode loop reaches today.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: A per-layer metric that each workload's traced run must read above 0.
LIVE_METRIC = {
    "online_reranked": "model.decode_step.calls",
    "offline_corpus": "model.decode_step.calls",
    "train_da": "model.train_pad_frac",  # the pad_batch site of nll_loss
    "prepare_corpus": "bpe.train_bpe.ms",
}


@pytest.mark.parametrize("workload", list(LIVE_METRIC))
def test_traced_run_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    metric = LIVE_METRIC[workload]
    assert report["metrics"][metric]["value"] > 0, (metric, report["metrics"][metric])
