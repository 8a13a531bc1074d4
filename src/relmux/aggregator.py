"""Cross-sentence aggregator: one shared self-attention layer over concatenated
sentence representations.

During stage-1 training the hidden states of a group of sentences in different
languages are concatenated along the token axis and attended jointly, so every
token sees tokens of the other sentences; each output row stays at its
sentence position. A batch stacks its groups as (G, s*m, d) and attends
within every group in one pass. In stage-2 training and at evaluation time
each sentence is a group of its own.
Single head, scaled by 1/sqrt(d), no output projection or residual; PAD keys
are masked out.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .encoder import masked_attention
from .params import ParamRegistry, matrix_init
from .tensor import Tensor

AGGREGATOR_PARAMS = ("aggregator.w_q", "aggregator.w_k", "aggregator.w_v")


def build_aggregator_params(reg: ParamRegistry, cfg: ModelConfig, rng: np.random.Generator) -> None:
    d = cfg.d_model
    for name in AGGREGATOR_PARAMS:
        reg.add(name, matrix_init(rng, d, d))


def aggregate(hidden: Tensor, key_mask: np.ndarray, reg: ParamRegistry, cfg: ModelConfig) -> Tensor:
    """Attend within each of the n groups of ``hidden``, (n, L, d): a group's
    L rows are its member sentences concatenated along the token axis.
    ``key_mask`` is (n, L), False on PAD. Groups never attend to each other.
    Returns (n, L, d)."""
    key_mask = np.asarray(key_mask, dtype=bool)
    if hidden.data.ndim != 3 or key_mask.shape != hidden.shape[:2]:
        raise ValueError(f"group boundary mismatch: hidden {hidden.shape} vs key mask {key_mask.shape}")
    q, k, v = (T.matmul(hidden, reg[name]) for name in AGGREGATOR_PARAMS)
    return masked_attention(q, k, v, key_mask)

