"""Optimizer, schedule, and the three-stage training recipe.

The stages share one loop and differ only in how raw data becomes
examples: "plain" consumes text lines with every next-token prediction
in the loss, while "da_pretrain" and "finetune" consume dialog-act
corpora with the response-only mask.  Each epoch shuffles with a seeded
RNG, measures validation loss, and the best-validation parameters are
what the run returns; training is bitwise deterministic for a fixed
seed in single-threaded mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .bpe import Vocab
from .dataset import Corpus
from .errors import ContextOverflowError, CorpusEmptyError, RangeError, ShapeMismatchError
from .model import ModelParams, build_example, nll_loss

STAGES = ("plain", "da_pretrain", "finetune")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    stage: str
    start_lr: float = 5e-5
    weight_decay: float = 0.01
    batch_size: int = 8
    max_epochs: int = 20
    early_stop_patience: int = 3
    seed: int = 0
    val_fraction: float = 0.1
    grad_clip: float = 1.0

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {self.stage!r}")
        for name in ("start_lr", "weight_decay", "grad_clip"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.start_lr <= 0:
            raise ValueError("start_lr must be positive")
        for name in ("batch_size", "max_epochs", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("weight_decay", "grad_clip"):  # grad_clip 0: no clipping
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")


def default_train_config(stage: str, **overrides) -> TrainConfig:
    """Stage defaults: pre-training runs up to 20 epochs, fine-tuning 5."""
    kw = dict(stage=stage, max_epochs=5 if stage == "finetune" else 20)
    kw.update(overrides)
    return TrainConfig(**kw)


@dataclass
class OptimizerState:
    """Per-parameter Adam moment accumulators and the shared step count."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptimizerState":
        return cls(
            m={n: np.zeros_like(t) for n, t in params.named()},
            v={n: np.zeros_like(t) for n, t in params.named()},
        )


def adamw_step(
    params: ModelParams,
    grads: dict,
    state: OptimizerState,
    lr: float,
    weight_decay: float,
) -> None:
    """One Adam update with decoupled weight decay, in place.

    p <- p - lr * m_hat / (sqrt(v_hat) + eps) - lr * weight_decay * p
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.named():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatchError(
                f"gradient for {name} has shape {g.shape}, parameter {p.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        params.tensors[name] = p - lr * update - lr * weight_decay * p


def lr_at(step: int, total_steps: int, start_lr: float) -> float:
    """Linear decay from start_lr at step 0 to zero at total_steps."""
    if not 0 <= step <= total_steps:
        raise RangeError(f"step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return 0.0
    return start_lr * (1.0 - step / total_steps)


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm > 0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def _build_examples(cfg: TrainConfig, data, vocab: Vocab, max_context: int):
    """Linearize the stage's data as (acts, text) pairs, with no acts for
    plain text; returns (examples, number skipped).

    An example whose linearization exceeds ``max_context`` is skipped and
    counted instead of failing the whole run.
    """
    if cfg.stage == "plain":
        pairs = [(None, str(ln)) for ln in data if str(ln).strip()]
    else:
        if not isinstance(data, Corpus):
            raise TypeError(f"stage {cfg.stage} expects a Corpus, got {type(data).__name__}")
        pairs = [(ex.acts, ex.response) for ex in data]
    examples = []
    for acts, text in pairs:
        try:
            examples.append(build_example(acts, text, vocab, max_context))
        except ContextOverflowError:
            pass
    return examples, len(pairs) - len(examples)


def _batches(examples, batch_size):
    for i in range(0, len(examples), batch_size):
        yield examples[i : i + batch_size]


def evaluate_loss(params: ModelParams, examples, batch_size: int) -> float:
    """Dropout-free mean NLL per masked position over a whole set."""
    total = 0.0
    count = 0
    for batch in _batches(examples, batch_size):
        # each batch's mean re-weighted by its masked positions, so the
        # result does not depend on batch boundaries
        n = sum(sum(ex.loss_mask) for ex in batch)
        total += float(nll_loss(params, batch)[0]) * n
        count += n
    return total / count if count else 0.0


def run_stage(cfg: TrainConfig, data, params: ModelParams, vocab: Vocab):
    """Train params on one stage's data; returns (params, metrics log).

    ``data`` is a Corpus for the dialog-act stages or an iterable of raw
    text lines for "plain".  A val_fraction slice of the examples is held
    out for early stopping; when it is empty the training set itself is
    scored.  The returned params carry the best-validation epoch.

    Over-length policy: an example whose linearization (act prefix, BOS,
    response, EOS; or BOS, text, EOS for "plain") is longer than
    ``params.config.max_context`` is skipped, in every stage.  Each epoch
    record of the log reports the number skipped under ``"skipped"``;
    ``CorpusEmptyError`` is raised when no example fits.

    An epoch record also holds ``epoch``, ``train_loss`` (mean NLL per
    masked position over its steps), ``val_loss``, the last step's
    ``lr`` and ``grad_norm``: the mean over its steps of the global
    gradient norm before clipping.
    """
    examples, skipped = _build_examples(cfg, data, vocab, params.config.max_context)
    if not examples:
        raise CorpusEmptyError(
            f"stage {cfg.stage!r} received no usable examples ({skipped} over max_context)"
        )

    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
    drop_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))

    order = rng.permutation(len(examples))
    n_val = int(round(cfg.val_fraction * len(examples)))
    if n_val >= len(examples):
        n_val = len(examples) - 1
    val = [examples[i] for i in order[:n_val]]
    train = [examples[i] for i in order[n_val:]]
    score_set = val if val else train

    steps_per_epoch = math.ceil(len(train) / cfg.batch_size)
    total_steps = cfg.max_epochs * steps_per_epoch
    state = OptimizerState.for_params(params)

    best_val = math.inf
    # adamw_step rebinds every array instead of writing into it, so a
    # snapshot of the name -> array map keeps an epoch's weights
    best = dict(params.tensors)
    stale = 0
    log = []

    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(len(train))
        epoch_sum = 0.0
        epoch_n = 0
        norm_sum = 0.0
        lr = 0.0
        for batch in _batches([train[i] for i in perm], cfg.batch_size):
            lr = lr_at(state.step, total_steps, cfg.start_lr)
            loss, chain = nll_loss(params, batch, rng=drop_rng)
            grads = ag.backward(loss, chain)
            del chain  # frees the kernels' saved activations before the next forward
            norm_sum += clip_global_norm(grads, cfg.grad_clip)
            adamw_step(params, grads, state, lr, cfg.weight_decay)
            n = sum(sum(ex.loss_mask) for ex in batch)
            epoch_sum += float(loss) * n
            epoch_n += n
        val_loss = evaluate_loss(params, score_set, cfg.batch_size)
        log.append(
            {
                "epoch": epoch,
                "train_loss": epoch_sum / max(epoch_n, 1),
                "val_loss": val_loss,
                "lr": lr,
                "grad_norm": norm_sum / steps_per_epoch,
                "skipped": skipped,
            }
        )
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best = dict(params.tensors)
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                break

    params.tensors.update(best)
    return params, log
