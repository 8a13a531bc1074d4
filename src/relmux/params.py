"""Named parameter registry with per-parameter freezing, plus checkpoint I/O.

The registry is an ordered mapping from hierarchical names (``encoder.block0.w_q``)
to Tensors. Freezing a parameter clears its ``requires_grad`` flag so no
gradient is ever computed for it and the optimizer skips it.

Checkpoint files are single JSON documents: a version string, the resolved
config snapshot, every named parameter as (shape, base64 little-endian float64
payload), and an optional opaque ``extra`` section (optimizer moments, rng
state) used to resume training at epoch boundaries. Serialization is byte
deterministic: identical state produces identical files. A checkpoint is
written to a temporary file beside it and then renamed over it, so a write
that fails or is killed halfway leaves the previous checkpoint whole.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .config import read_json_object, write_atomic
from .errors import CheckpointError
from .tensor import Tensor

CHECKPOINT_VERSION = "relmux-checkpoint-1"

EMBED_INIT_STD = 0.1


def matrix_init(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Fan-in scaled normal init; keeps activations O(1) at small widths."""
    return rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols))


def embedding_init(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(0.0, EMBED_INIT_STD, size=(rows, cols))


class ParamRegistry:
    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def freeze(self, names) -> None:
        for name in names:
            self._params[name].requires_grad = False

    def unfreeze_all(self) -> None:
        for t in self._params.values():
            t.requires_grad = True

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays`` into the parameters' own arrays, which may be views
        of an optimizer's buffer; names and shapes must match the registry
        exactly."""
        missing = [n for n in self._params if n not in arrays]
        extra = [n for n in arrays if n not in self._params]
        if missing or extra:
            raise CheckpointError(f"parameter name mismatch: missing={missing[:4]} extra={extra[:4]}")
        for name, t in self._params.items():
            a = arrays[name]
            if tuple(a.shape) != t.shape:
                raise CheckpointError(f"shape mismatch for {name}: checkpoint {a.shape} vs model {t.shape}")
            t.data[...] = a


def _encode_array(a: np.ndarray) -> dict:
    payload = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "data": base64.b64encode(payload).decode("ascii")}


def _decode_array(name: str, rec: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(rec["data"], validate=True)
        shape = [int(x) for x in rec["shape"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"array {name!r} is malformed: {exc!r}") from None
    need = int(np.prod(shape))
    if min(shape, default=0) < 0 or len(raw) != 8 * need:
        raise CheckpointError(f"array {name!r} holds {len(raw)} payload bytes, but shape {shape} needs {8 * need}")
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(a).all():
        raise CheckpointError(f"array {name!r} holds non-finite values")
    return a


def save_checkpoint(path: str | Path, config: dict, registry: ParamRegistry, extra: dict | None = None) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": config,
        "params": {name: _encode_array(t.data) for name, t in registry.items()},
    }
    if extra is not None:
        doc["extra"] = extra
    write_atomic(path, json.dumps(doc, sort_keys=True, separators=(",", ":")))


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray], dict | None]:
    doc = read_json_object(path, "checkpoint", CheckpointError)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version: {doc.get('version')!r}")
    for section in ("config", "params"):
        if not isinstance(doc.get(section), dict):
            raise CheckpointError(f"checkpoint {path} has no {section!r} object")
    params = {name: _decode_array(name, rec) for name, rec in doc["params"].items()}
    return doc["config"], params, doc.get("extra")


def encode_extra_arrays(arrays: dict[str, np.ndarray]) -> dict:
    return {name: _encode_array(a) for name, a in arrays.items()}


def decode_extra_arrays(recs: dict) -> dict[str, np.ndarray]:
    return {name: _decode_array(name, rec) for name, rec in recs.items()}
