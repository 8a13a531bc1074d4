"""Relation classification and relation-conditioned entity span extraction.

The relation is predicted first, by projecting the encoder's [CLS] row; at
evaluation time relations unattested in the sentence's language are masked out
before the argmax. Entity recognition then scores every token position four
ways (head-start, head-end, tail-start, tail-end) from the token feature
concatenated with the relation embedding; spans decode greedily (start argmax,
then best end at or after it). Training teacher-forces the gold relation's
embedding; prediction feeds the predicted relation's embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import DataValidationError
from .params import ParamRegistry, embedding_init, matrix_init
from .tensor import NEG_INF, Tensor

ENTITY_KEYS = ("hs", "he", "ts", "te")


def build_head_params(reg: ParamRegistry, cfg: ModelConfig, n_relations: int, rng: np.random.Generator) -> None:
    d = cfg.d_model
    reg.add("relation.w_cls", matrix_init(rng, d, n_relations))
    reg.add("relation.emb", embedding_init(rng, n_relations, d))
    for key in ENTITY_KEYS:
        reg.add(f"entity.{key}.w_down", matrix_init(rng, 2 * d, d))
        reg.add(f"entity.{key}.w_index", matrix_init(rng, d, 1))


def relation_logits(pooled: Tensor, reg: ParamRegistry) -> Tensor:
    """Unmasked relation logits from the pooled vector (used for the training loss)."""
    return T.matmul(pooled, reg["relation.w_cls"])


def lang_relation_mask(allowed_row: np.ndarray) -> np.ndarray:
    """Additive mask over relations: 0 where allowed, NEG_INF where unattested."""
    return np.where(np.asarray(allowed_row, dtype=bool), 0.0, NEG_INF)


def masked_argmax_relation(logits: np.ndarray, allowed_row: np.ndarray) -> int:
    masked = logits.reshape(-1) + lang_relation_mask(allowed_row)
    # np.argmax already breaks ties toward the lower index
    return int(np.argmax(masked))


def check_gold_allowed(gold: int, allowed_row: np.ndarray, example_id: str) -> None:
    if not bool(np.asarray(allowed_row, dtype=bool).reshape(-1)[gold]):
        raise DataValidationError(f"example {example_id}: gold relation {gold} is masked for its language")


def entity_scores(
    features: Tensor,
    relation_emb: Tensor,
    position_mask: np.ndarray,
    reg: ParamRegistry,
) -> dict[str, Tensor]:
    """Four per-position score vectors of length m, specials masked to NEG_INF.

    Each token feature is concatenated with the relation embedding, projected
    down, squashed by tanh, then projected to a scalar score. Several
    sentences of equal length score at once: ``relation_emb`` holds one row
    per sentence and ``features`` their stacked positions.
    """
    m = features.shape[0]
    k = relation_emb.shape[0]
    if relation_emb.data.ndim != 2 or relation_emb.shape[1] != features.shape[1] or m % k:
        raise T.ShapeError(f"relation embedding shape {relation_emb.shape} invalid for features {features.shape}")
    paired = T.concat([features, T.repeat_rows(relation_emb, m // k)], axis=1)
    mask = Tensor(np.asarray(position_mask, dtype=np.float64).reshape(m, 1))
    scores: dict[str, Tensor] = {}
    for key in ENTITY_KEYS:
        down = T.tanh(T.matmul(paired, reg[f"entity.{key}.w_down"]))
        scores[key] = T.add(T.matmul(down, reg[f"entity.{key}.w_index"]), mask)
    return scores


def decode_spans(score_arrays: dict[str, np.ndarray]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Greedy span decode: start = argmax of the start scores, end = argmax of
    the end scores restricted to positions >= start. Ties break low."""
    spans = []
    for start_key, end_key in (("hs", "he"), ("ts", "te")):
        start_scores = np.asarray(score_arrays[start_key]).reshape(-1)
        end_scores = np.asarray(score_arrays[end_key]).reshape(-1)
        if np.max(start_scores) <= NEG_INF or np.max(end_scores) <= NEG_INF:
            raise DataValidationError("all positions masked; cannot decode a span")
        start = int(np.argmax(start_scores))
        end = start + int(np.argmax(end_scores[start:]))
        spans.append((start, end))
    return spans[0], spans[1]


@dataclass
class TriplePrediction:
    example_id: str
    relation: int
    head_span: tuple[int, int]   # content-token coordinates, as gold (sentinel for no_relation)
    tail_span: tuple[int, int]
    relation_logits: np.ndarray
    entity_scores: dict[str, np.ndarray] | None = None
