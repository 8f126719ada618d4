"""In-memory span tracer that wraps the package's public functions at the
sites where they are looked up.

A module that does ``from .bpe import encode`` holds its own reference,
so each site is patched in the module that calls it (``decoding.encode``,
``model.encode``, ...).  Spans are recorded only while a root span opened
by the benchmark is active, so the benchmark's own checks never appear
as program work.  A span's self time is its duration minus the time its
direct children cover; calls are strictly nested in this single-threaded
program, so that difference is exact.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from scgpt import autograd, bpe, dataset, decoding, dialog_act, model, synthetic, training

# (module, attribute, span name): one entry per lookup site.
WRAP_SITES = (
    (decoding, "generate_reranked", "decoding.generate_reranked"),
    (decoding, "generate_corpus", "decoding.generate_corpus"),
    (decoding, "generate_candidates", "decoding.generate_candidates"),
    (decoding, "select_next_token", "decoding.select_next_token"),
    (decoding, "pick_best", "decoding.pick_best"),
    (decoding, "encode", "bpe.encode"),
    (decoding, "decode", "bpe.decode"),
    (decoding, "linearize", "dialog_act.linearize"),
    (decoding, "slot_error", "metrics.slot_error"),
    (model, "init_params", "model.init_params"),
    (model, "encode", "bpe.encode"),
    (model, "linearize", "dialog_act.linearize"),
    (model, "pad_batch", "model.pad_batch"),
    (training, "run_stage", "training.run_stage"),
    (training, "build_example", "model.build_example"),
    (training, "nll_loss", "model.nll_loss"),
    (training, "clip_global_norm", "training.clip_global_norm"),
    (training, "adamw_step", "training.adamw_step"),
    (training, "evaluate_loss", "training.evaluate_loss"),
    (autograd, "backward", "autograd.backward"),
    (bpe, "train_bpe", "bpe.train_bpe"),
    (bpe, "encode", "bpe.encode"),
    (bpe, "decode", "bpe.decode"),
    (dialog_act, "linearize", "dialog_act.linearize"),
    (synthetic, "generate", "synthetic.generate"),
    (synthetic, "inject_coined_values", "synthetic.inject_coined_values"),
    (dataset, "build_fewshot", "dataset.build_fewshot"),
    (dataset, "stats", "dataset.stats"),
)

# Inside evaluate_loss the loss forward is evaluation work, not a taped
# training forward: it stays in evaluate_loss's self time.
_EVAL_ONLY_SKIP = ("model.nll_loss", "model.pad_batch")


class Tracer:
    """Spans and counters for one run; install() patches, uninstall() restores."""

    def __init__(self, eos_id: int | None = None):
        self.spans = []  # [name, start_ns, end_ns, parent index, trace id, phase]
        self.counters = defaultdict(float)
        self.eos_id = eos_id
        self._stack = []
        self._saved = []
        self._trace_id = 0
        self.phase = ""

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._trace_id, self.phase])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """One request, call or run: its spans share a fresh trace id."""
        self._trace_id += 1
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- patching ---------------------------------------------------------
    def _wrap(self, fn, name):
        tracer = self
        counter_hook = _COUNTER_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer._stack or (
                name in _EVAL_ONLY_SKIP and tracer._inside("training.evaluate_loss")
            ):
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter_hook is not None:
                counter_hook(tracer, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for mod, attr, name in WRAP_SITES:
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))
        orig_append = model.DecodeSession.append
        self._saved.append((model.DecodeSession, "append", orig_append))
        model.DecodeSession.append = self._wrap_append(orig_append)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def _wrap_append(self, orig):
        tracer = self

        def append(sess, ids, positions, keep):
            if not tracer._stack:
                return orig(sess, ids, positions, keep)
            B, T = ids.shape
            filled = sess.t
            prefill = filled == 0
            name = "model.decode_prefill" if prefill else "model.decode_step"
            idx = tracer._open(name)
            try:
                return orig(sess, ids, positions, keep)
            finally:
                tracer._close(idx)
                c = tracer.counters
                c["decoding.append_row_slots"] += B
                if prefill:
                    c["decoding.prefill_cells"] += keep.size
                    c["decoding.prefill_kept"] += int(keep.sum())
                    c["decoding.rows"] += B
                elif T == 1:
                    c["model.decode_step.rows"] += B
                    flops, nbytes = decode_step_cost(sess.cfg, B, filled)
                    c["model.decode_step.flops"] += flops
                    c["model.decode_step.bytes"] += nbytes

        append.__wrapped__ = orig
        return append

    # -- results ----------------------------------------------------------
    def self_times_ns(self) -> list:
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [s[2] - s[1] - child_ns[i] for i, s in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per span name: call count and self time in ms."""
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0})
        for span, self_ns in zip(self.spans, self.self_times_ns()):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["ms"] += self_ns / 1e6
        return dict(out)

    def root_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0) / 1e9

    def write(self, path) -> None:
        """One JSON object per span, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, self_ns) in enumerate(zip(self.spans, self.self_times_ns())):
                name, start, end, parent, trace_id, phase = span
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "trace": trace_id, "phase": phase,
                    "self_ns": self_ns,
                }) + "\n")


def decode_step_cost(cfg, rows: int, filled: int) -> tuple:
    """FLOPs and bytes moved by one T=1 append, computed from tensor shapes.

    ``filled`` is the cache length before the append.  Bytes count float32
    weights read once per call, the key/value cache read and written, and
    the logits written; activations are assumed to stay in cache.
    """
    d, f, L, V = cfg.d_model, cfg.d_ff, cfg.n_layers, cfg.vocab_size
    keys = filled + 1
    per_layer_flops = 2 * (3 * d * d + d * d + 2 * d * f + 2 * keys * d)
    flops = rows * (L * per_layer_flops + 2 * d * V)
    weights = L * (4 * d * d + 2 * d * f + 9 * d + f) + V * d
    cache = L * 2 * rows * (keys * d + d)
    nbytes = 4 * (weights + cache + rows * V)
    return flops, nbytes


def _count_select(tracer, args, token):
    if token == tracer.eos_id:
        tracer.counters["decoding.eos_rows"] += 1


def _count_pick(tracer, args, index):
    tracer.counters["decoding.picks"] += 1
    tracer.counters["decoding.sampled_winners"] += index != 0


def _count_pad(tracer, args, out):
    _, _, keep = out
    tracer.counters["model.train_cells"] += keep.size
    tracer.counters["model.train_kept"] += int(keep.sum())


def _count_merges(tracer, args, vocab):
    tracer.counters["bpe.train_bpe.merges"] += len(vocab.merges)


_COUNTER_HOOKS = {
    "decoding.select_next_token": _count_select,
    "decoding.pick_best": _count_pick,
    "model.pad_batch": _count_pad,
    "bpe.train_bpe": _count_merges,
}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
    s = tracer.summary()
    c = tracer.counters

    def ms(name):
        return s.get(name, {}).get("ms", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "model.decode_step.ms": (ms("model.decode_step"), "ms"),
        "model.decode_step.calls": (calls("model.decode_step"), "count"),
        "model.decode_step.rows": (c["model.decode_step.rows"], "count"),
        "model.decode_step.flops": (c["model.decode_step.flops"], "flop"),
        "model.decode_step.bytes": (c["model.decode_step.bytes"], "B"),
        "model.decode_prefill.ms": (ms("model.decode_prefill"), "ms"),
        "decoding.select_next_token.calls": (calls("decoding.select_next_token"), "count"),
        "decoding.select_next_token.ms": (ms("decoding.select_next_token"), "ms"),
        "decoding.row_utilization": (
            ratio(calls("decoding.select_next_token"), c["decoding.append_row_slots"]), "frac"),
        "decoding.prefill_pad_frac": (
            1.0 - ratio(c["decoding.prefill_kept"], c["decoding.prefill_cells"])
            if c["decoding.prefill_cells"] else 0.0, "frac"),
        "decoding.winner_sampled_frac": (
            ratio(c["decoding.sampled_winners"], c["decoding.picks"]), "frac"),
        "decoding.capped_frac": (
            1.0 - ratio(c["decoding.eos_rows"], c["decoding.rows"])
            if c["decoding.rows"] else 0.0, "frac"),
        "metrics.slot_error.calls": (calls("metrics.slot_error"), "count"),
        "metrics.slot_error.ms": (ms("metrics.slot_error"), "ms"),
        "dialog_act.linearize.ms": (ms("dialog_act.linearize"), "ms"),
        "bpe.encode.calls": (calls("bpe.encode"), "count"),
        "bpe.encode.ms": (ms("bpe.encode"), "ms"),
        "bpe.decode.ms": (ms("bpe.decode"), "ms"),
        "model.build_example.ms": (ms("model.build_example"), "ms"),
        "model.nll_loss.ms": (ms("model.nll_loss") + ms("model.pad_batch"), "ms"),
        "model.train_pad_frac": (
            1.0 - ratio(c["model.train_kept"], c["model.train_cells"])
            if c["model.train_cells"] else 0.0, "frac"),
        "autograd.backward.ms": (ms("autograd.backward"), "ms"),
        "training.clip_global_norm.ms": (ms("training.clip_global_norm"), "ms"),
        "training.adamw_step.ms": (ms("training.adamw_step"), "ms"),
        "training.evaluate_loss.ms": (ms("training.evaluate_loss"), "ms"),
        "bpe.train_bpe.ms": (ms("bpe.train_bpe"), "ms"),
        "bpe.train_bpe.merges_per_s": (
            ratio(c["bpe.train_bpe.merges"], ms("bpe.train_bpe") / 1e3), "1/s"),
        "synthetic.generate.ms": (ms("synthetic.generate"), "ms"),
        "synthetic.inject_coined_values.ms": (ms("synthetic.inject_coined_values"), "ms"),
        "dataset.build_fewshot.ms": (ms("dataset.build_fewshot"), "ms"),
        "dataset.stats.ms": (ms("dataset.stats"), "ms"),
    }
    return m
