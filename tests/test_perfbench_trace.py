"""The benchmark's traced and untraced modes against the current package.

``perfbench/tracer.py`` wraps package functions by name; a rename or a
moved import breaks it without any other test noticing.  The traced
workloads cover the lookup sites in decoding, training, ``model``,
``bpe``, ``synthetic`` and ``dataset``.  A site the tracer no longer
reaches leaves its metric at 0, so each workload also requires the
metrics of the sites it runs to be positive; on the serving workloads
that includes ``model.decode_prefill.ms``, so a prefill that no longer
runs through the wrapped ``DecodeSession.append`` fails here instead of
reading 0; the select's calls and time check that the decode loop
still runs its select through the wrapped ``select_next_token``.
``model.train_pad_frac`` is left out: the training loss builds no padded
batch, so the metric reads its true value 0, and ``model.nll_loss.ms``
checks the loss site instead.

The untraced mode is the one whose end-to-end metrics compare two
commits, so it runs too, with its output checks, on ``offline_corpus``
and on the workloads without a serving set-up.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics that each workload's traced run must read above 0.
LIVE_METRICS = {
    "online_reranked": ("model.decode_step.calls", "model.decode_prefill.ms",
                        "decoding.select_next_token.calls", "decoding.select_next_token.ms"),
    "offline_corpus": ("model.decode_step.calls", "model.decode_prefill.ms",
                       "decoding.select_next_token.calls", "decoding.select_next_token.ms"),
    # run_stage's build_example, nll_loss and encode sites
    "train_da": ("model.build_example.ms", "model.nll_loss.ms", "bpe.encode.calls"),
    "prepare_corpus": ("bpe.train_bpe.ms", "bpe.encode.calls"),
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    return report


@pytest.mark.parametrize("workload", list(LIVE_METRICS))
def test_traced_run_passes_its_checks(workload):
    report = _run(workload, trace=1)
    for metric in LIVE_METRICS[workload]:
        assert report["metrics"][metric]["value"] > 0, (metric, report["metrics"][metric])


@pytest.mark.parametrize("workload", ["offline_corpus", "train_da", "prepare_corpus"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report = _run(workload, trace=0)
    assert report["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for m in declared:
        assert report["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
