"""Relation classification and relation-conditioned entity span extraction.

The relation is predicted first, by projecting the encoder's [CLS] row; at
evaluation time relations unattested in the sentence's language are masked out
before the argmax. Entity recognition then scores every content position four
ways (head-start, head-end, tail-start, tail-end) from the token feature
concatenated with the relation embedding; spans decode greedily (start argmax,
then best end at or after it), in content coordinates, as gold is. Training
teacher-forces the gold relation's embedding and prediction feeds the
predicted one's; the special positions of prediction's dumped scores read
exactly NEG_INF. Both heads take rows, in training and prediction alike, and
end in one product per row (``T.row_matmul``), so a sentence gets the bits
it gets alone in any batch. The span decoder takes the entity heads' packed
score columns with each sentence's size, the layout the training loss's
``T.cross_entropy`` takes.
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
    """Unmasked (n, R) relation logits of (n, d) pooled rows, one product per
    row, so each row gets the bits it gets alone."""
    return T.row_matmul(pooled, reg["relation.w_cls"])


def masked_argmax_relation(logits: np.ndarray, allowed: np.ndarray, langs) -> np.ndarray:
    """The predicted relation of each row of (n, R) ``logits``, among those
    attested in the row's language ``langs[i]``: the rest get NEG_INF added."""
    # np.argmax already breaks ties toward the lower index
    return np.argmax(logits + np.where(np.asarray(allowed, dtype=bool)[langs], 0.0, NEG_INF), axis=1)


def entity_scores(features: Tensor, relation_emb: Tensor, reg: ParamRegistry) -> dict[str, Tensor]:
    """Four (m, 1) score columns of m content positions of one or more
    sentences, back to back in (m, d) ``features``: each row concatenated
    with its row of ``relation_emb``, the embedding of its sentence's
    relation, projected down, squashed by tanh, then projected to a scalar
    score, one product per row: one ``T.tanh_score`` node per key."""
    if features.data.ndim != 2 or relation_emb.shape != features.shape:
        raise T.ShapeError(f"relation embedding shape {relation_emb.shape} invalid for features {features.shape}")
    paired = T.concat([features, relation_emb], axis=1)
    return {key: T.tanh_score(paired, reg[f"entity.{key}.w_down"], reg[f"entity.{key}.w_index"]) for key in ENTITY_KEYS}


def decode_spans(columns: dict[str, np.ndarray], sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy span decode of g sentences whose (m,) score ``columns`` hold
    ``sizes[i]`` positions of sentence i back to back, laid out as
    (g, max size) with NEG_INF past each size (``T.pad_packed``, as
    ``T.cross_entropy`` lays out packed scores): start = argmax of the start
    scores, end = argmax of the end scores restricted to positions >= start.
    Ties break low, so a padded position never wins over a real one. Returns
    the head and tail spans as (g, 2) arrays of (start, end)."""
    sizes = np.asarray(sizes, dtype=np.intp)
    spans = []
    for start_key, end_key in (("hs", "he"), ("ts", "te")):
        start_scores, end_scores = (T.pad_packed(columns[key], sizes)[0] for key in (start_key, end_key))
        if (start_scores.max(axis=1) <= NEG_INF).any() or (end_scores.max(axis=1) <= NEG_INF).any():
            raise DataValidationError("all positions masked; cannot decode a span")
        start = np.argmax(start_scores, axis=1)
        # -inf, not NEG_INF: a later position that itself scores NEG_INF must
        # still beat every position before the start
        before = np.arange(end_scores.shape[1]) < start[:, None]
        end = np.argmax(np.where(before, -np.inf, end_scores), axis=1)
        spans.append(np.stack([start, end], axis=1))
    return spans[0], spans[1]


@dataclass
class TriplePrediction:
    example_id: str
    relation: int
    head_span: tuple[int, int]   # content-token coordinates, as gold (sentinel for no_relation)
    tail_span: tuple[int, int]
    relation_logits: np.ndarray
    entity_scores: dict[str, np.ndarray] | None = None
