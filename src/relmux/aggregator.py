"""Cross-sentence aggregator: one shared self-attention layer over concatenated
sentence representations.

During stage-1 training the hidden states of a group of sentences in different
languages are concatenated along the token axis and attended jointly, so every
token sees tokens of the other sentences; each output row stays at its
sentence position. A batch packs its groups' rows back to back, each group one
span of rows, and attends within every group in one call. In stage-2
training and at evaluation time each sentence is a group of its own.
It is ``tensor.attention`` with a single head, scaled by 1/sqrt(d), with no
output projection or residual.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .params import ParamRegistry, matrix_init
from .tensor import Tensor

AGGREGATOR_PARAMS = ("aggregator.w_q", "aggregator.w_k", "aggregator.w_v")


def build_aggregator_params(reg: ParamRegistry, cfg: ModelConfig, rng: np.random.Generator) -> None:
    d = cfg.d_model
    for name in AGGREGATOR_PARAMS:
        reg.add(name, matrix_init(rng, d, d))


def aggregate(rows: Tensor, group_lengths, reg: ParamRegistry, cfg: ModelConfig) -> Tensor:
    """Attend within each group of ``rows``, (R, d): group i is the next
    ``group_lengths[i]`` rows, its member sentences' rows back to back.
    Groups never attend to each other. Returns (R, d)."""
    q, k, v = (T.matmul(rows, reg[name]) for name in AGGREGATOR_PARAMS)
    return T.attention(q, k, v, group_lengths, 1)
