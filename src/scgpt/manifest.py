"""Run manifests: enough provenance to re-run a command bit-identically.

Every command hashes its inputs before it runs and writes its manifest,
with the output hashes, only when it finishes, so a failed run leaves
none.  Replaying a manifest re-executes
the recorded argv with outputs redirected and compares hashes, which
holds exactly in single-threaded mode.
"""

import hashlib
import json
import os
import subprocess
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from . import __version__
from .dataset import read_lines
from .errors import ParseError, UnknownFormatError

FORMAT_TAG = "scgpt-manifest v1"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def git_describe() -> str | None:
    """The commit of the checkout this package runs from, or None when it
    is not in a git checkout or git cannot tell in time."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


@dataclass
class RunManifest:
    command: str
    argv: list
    seed: int | None = None
    config_path: str | None = None
    config_text: str | None = None
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    git: str | None = None
    version: str = __version__
    started_at: str = ""
    finished_at: str | None = None

    @classmethod
    def start(cls, command: str, argv, seed=None, config_path=None) -> "RunManifest":
        config_text = None
        if config_path is not None:
            with open(config_path, encoding="utf-8") as fh:
                config_text = fh.read()
        return cls(
            command=command,
            argv=list(argv),
            seed=seed,
            config_path=str(config_path) if config_path is not None else None,
            config_text=config_text,
            git=git_describe(),
            started_at=_now(),
        )

    def add_inputs(self, *paths):
        for p in paths:
            if p is not None:
                self.inputs[str(p)] = sha256_file(p)

    def finish(self, *output_paths):
        for p in output_paths:
            if p is not None:
                self.outputs[str(p)] = sha256_file(p)
        self.finished_at = _now()

    def write(self, path):
        doc = {"format": FORMAT_TAG, **asdict(self)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_manifest(path) -> RunManifest:
    try:
        doc = json.loads("".join(read_lines(path)))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise UnknownFormatError(f"{path}: missing format tag {FORMAT_TAG!r}")
    doc = {k: v for k, v in doc.items() if k != "format"}
    known = set(RunManifest.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ParseError(f"{path}: unknown manifest fields {sorted(unknown)}")
    try:
        return RunManifest(**doc)
    except TypeError as e:
        raise ParseError(f"{path}: incomplete manifest ({e})") from None
