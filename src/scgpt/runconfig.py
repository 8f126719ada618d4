"""Key=value run configuration shared by the command-line stages.

A config file sets dotted keys, one per line; blank lines and ``#``
comments are skipped:

    vocab = out/vocab.bpe
    model.n_layers = 2
    model.d_model = 64
    train.start_lr = 5e-5
    train.batch_size = 8
    decode.n_candidates = 5

``vocab`` names the trained tokenizer file, resolved relative to the
config file itself so a run directory can move as a unit.  The seed is
deliberately not a config key; it comes from the command line so one
config can drive many seeded runs.
"""

import os
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

from .dataset import read_lines
from .decoding import DecodeConfig
from .errors import ParseError
from .model import ModelConfig
from .training import TrainConfig, default_train_config


def _settable(cls, *fixed) -> dict:
    """Name -> type of the dataclass fields a config file may set."""
    types = get_type_hints(cls)
    return {f.name: types[f.name] for f in fields(cls) if f.name not in fixed}


# vocab_size comes from the tokenizer, stage from the command, and the
# seed from --seed, so none of them is a config key.
_KEYS = {
    "model": _settable(ModelConfig, "vocab_size"),
    "train": _settable(TrainConfig, "stage", "seed"),
    "decode": _settable(DecodeConfig, "seed"),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed config: overrides layered onto each stage's defaults.

    An override that a stage's dataclass rejects (``model.n_layers = 0``,
    ``decode.top_k = 0``, ...) raises :class:`ParseError` naming
    ``source``, the config file.
    """

    vocab: str | None = None
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    decode: dict = field(default_factory=dict)
    source: str = field(default="<string>", compare=False)

    def _build(self, make, **kw):
        try:
            return make(**kw)
        except ValueError as e:
            raise ParseError(f"{self.source}: {e}") from None

    def model_config(self, vocab_size: int) -> ModelConfig:
        return self._build(ModelConfig, vocab_size=vocab_size, **self.model)

    def train_config(self, stage: str, seed: int = 0) -> TrainConfig:
        return self._build(default_train_config, stage=stage, seed=seed, **self.train)

    def decode_config(self, seed: int = 0) -> DecodeConfig:
        return self._build(DecodeConfig, seed=seed, **self.decode)


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    vocab = None
    sections = {section: {} for section in _KEYS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ParseError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if key == "vocab":
            vocab = value
            continue
        section, _, name = key.partition(".")
        types = _KEYS.get(section)
        if types is None or name not in types:
            raise ParseError(f"{source}:{lineno}: unknown config key {key!r}")
        try:
            sections[section][name] = types[name](value)
        except ValueError:
            raise ParseError(
                f"{source}:{lineno}: {key} needs a {types[name].__name__}, got {value!r}"
            ) from None
    return RunConfig(vocab=vocab, source=source, **sections)


def load_config(path) -> RunConfig:
    """Parse a config file; a relative vocab path is anchored at the file."""
    rc = parse_config("".join(read_lines(path)), source=str(path))
    if rc.vocab is not None and not os.path.isabs(rc.vocab):
        anchored = os.path.join(os.path.dirname(os.path.abspath(path)), rc.vocab)
        rc = replace(rc, vocab=os.path.normpath(anchored))
    return rc
