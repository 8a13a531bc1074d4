"""Run configuration: model dimensions, training knobs, and file plumbing.

Desk-scale defaults are sized so a full two-stage run finishes in minutes on a
CPU. Where a published full-scale setting exists it is recorded in a trailing
comment; the architecture is identical, only the dimensions shrink.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

MAX_CONCAT_TOKENS = 256  # cap on s * max_len in a stage-1 concatenation group


@dataclass
class ModelConfig:
    d_model: int = 64            # full-scale reference: 768
    n_blocks: int = 2
    n_heads: int = 4
    ffn_dim: int = 128
    max_len: int = 48            # full-scale reference: 256
    n_sub_modules: int = 6       # T
    sub_layers: tuple[int, ...] = (2, 2, 2, 1, 1, 1)
    bottleneck: int = 128        # b > d; full-scale reference: 1024 at d=768
    eval_top_k: int = 3
    routing: str = "learned"     # "learned" (language-embedding router) or "identity"

    @classmethod
    def from_json(cls, doc) -> "ModelConfig":
        return _typed_config(cls, doc, "model")

    def validate(self) -> None:
        if self.d_model < 2 or self.ffn_dim < 1 or self.n_blocks < 1:
            raise ConfigError("d_model must be >= 2, and ffn_dim and n_blocks >= 1")
        if self.n_heads < 1:
            raise ConfigError("n_heads must be >= 1")
        if self.max_len < 4:
            # the shortest sentence: [CLS] [LANG_n], one token, [SEP]
            raise ConfigError(f"max_len must be >= 4, got {self.max_len}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.bottleneck <= self.d_model:
            raise ConfigError("bottleneck width must exceed d_model")
        if len(self.sub_layers) != self.n_sub_modules:
            raise ConfigError("sub_layers must list one depth per sub-module")
        if any(l < 1 for l in self.sub_layers):
            raise ConfigError("sub-module depths must be >= 1")
        if not 1 <= self.eval_top_k <= self.n_sub_modules:
            raise ConfigError(f"eval_top_k must be in [1, {self.n_sub_modules}]")
        if self.routing not in ("learned", "identity"):
            raise ConfigError("routing must be 'learned' or 'identity'")


@dataclass
class TrainConfig:
    alpha: float = 2.0           # entity loss weight
    beta: float = 1.0            # relation loss weight
    concat_sentences: int = 2    # s, sentences per stage-1 group
    batch_size: int = 16
    lr: float = 1e-3             # full-scale reference: 3e-5
    weight_decay: float = 0.1
    stage1_epochs: int = 5
    stage2_max_epochs: int = 8
    patience: int = 2            # early stopping on dev triple-F1
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"train.{f.name} must be finite, got {value}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("alpha and beta must be positive")
        if self.concat_sentences < 1:
            raise ConfigError("concat_sentences must be >= 1")
        if self.batch_size < 1 or self.stage1_epochs < 0 or self.stage2_max_epochs < 1:
            raise ConfigError("invalid epoch/batch settings")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    corpus_dir: str = ""

    def validate(self) -> None:
        self.model.validate()
        self.train.validate()
        s, max_len = self.train.concat_sentences, self.model.max_len
        if s * max_len > MAX_CONCAT_TOKENS:
            raise ConfigError(
                f"stage-1 concatenation of {s} x max_len {max_len} tokens exceeds the cap of {MAX_CONCAT_TOKENS}"
            )

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["model"]["sub_layers"] = list(self.model.sub_layers)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "RunConfig":
        return _typed_config(cls, dict(
            doc,
            model=ModelConfig.from_json(doc.get("model", {})),
            train=_typed_config(TrainConfig, doc.get("train", {}), "train"),
        ), "config")


def _typed_config(cls, doc, section: str):
    """``cls`` from a JSON object whose every value has its default's type: a
    bool is not an int, an int may fill a float, and a tuple takes a list of
    ints."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {section} keys: {', '.join(unknown)}")
    defaults = cls()
    values = dict(doc)
    for name, value in doc.items():
        want = type(getattr(defaults, name))
        if want is tuple and isinstance(value, list) and all(type(v) is int for v in value):
            values[name] = tuple(value)
        elif type(value) is not want and not (want is float and type(value) is int):
            kind = "list of ints" if want is tuple else want.__name__
            raise ConfigError(f"{section}.{name} must be {kind}, got {value!r}")
    return cls(**values)


def read_json_object(path: str | Path, what: str, error: type[ConfigError] = ConfigError) -> dict:
    """The JSON object in the file at ``path``; a missing file, text that is
    not JSON, or a document that is not an object raises ``error``."""
    p = Path(path)
    if not p.is_file():
        raise error(f"{what} file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"{what} {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {p} must be a JSON object, got {type(doc).__name__}")
    return doc


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to a temporary file beside ``path``, then
    rename it over ``path``: a write that fails leaves the previous file
    whole and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_run_config(path: str | Path) -> RunConfig:
    cfg = RunConfig.from_json(read_json_object(path, "config"))
    cfg.validate()
    return cfg


def save_config_snapshot(cfg: RunConfig, path: str | Path) -> None:
    write_atomic(path, json.dumps(cfg.to_json(), sort_keys=True, indent=1) + "\n")
