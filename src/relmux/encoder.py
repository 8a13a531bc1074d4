"""Trainable transformer encoder producing per-token and pooled representations.

Input layout is [CLS] [LANG_n] content... [SEP], so content token j is row
``CONTENT_START + j``; gold spans stay in content coordinates. The encoder
is token + learned position embeddings followed by pre-norm blocks
(attention within each sentence over n_heads heads, then a feed-forward,
each with a residual), each block one ``tensor.encoder_block`` node. The
pooled vector is the [CLS] row of the final hidden states, taken verbatim.

``tokenize`` turns a split into one ``TokenizedSplit``, one int array per
field with the real token ids packed back to back; ``encode`` takes a
batch's packed ids with their lengths and hands its blocks one
``tensor.length_plan`` of one length per sentence, so no PAD row is ever
computed. The [PAD] vocabulary entry is row 0 of ``encoder.tok_emb``, which
no sentence reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import ModelConfig, write_atomic
from .corpus import Example
from .errors import DataValidationError
from .params import ParamRegistry, embedding_init, matrix_init
from .tensor import Tensor

PAD, CLS, SEP = "[PAD]", "[CLS]", "[SEP]"
PAD_ID, CLS_ID, SEP_ID = 0, 1, 2
CONTENT_START = 2  # [CLS] [LANG_n] precede every sentence's content
# a block's parameters, after "encoder.block<b>.", in the order T.encoder_block takes them
BLOCK_PARAMS = ("ln1.gain", "ln1.bias", "w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o",
                "ln2.gain", "ln2.bias", "w_ffn1", "b_ffn1", "w_ffn2", "b_ffn2")


class Vocab:
    """Closed vocabulary: specials, one [LANG_n] per language, then content tokens."""

    def __init__(self, content_tokens: list[str], n_languages: int):
        self.n_languages = n_languages
        self.tokens = [PAD, CLS, SEP]
        self.tokens += [f"[LANG_{n}]" for n in range(n_languages)]
        dupes = [t for t in content_tokens if t in self.tokens]
        if dupes:
            raise DataValidationError(f"content tokens collide with specials: {dupes[:4]}")
        if len(set(content_tokens)) != len(content_tokens):
            raise DataValidationError("content tokens must be unique")
        self.tokens += list(content_tokens)
        self._index = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def lang_token_id(self, lang: int) -> int:
        if not 0 <= lang < self.n_languages:
            raise DataValidationError(f"language id {lang} out of range")
        return 3 + lang

    def id_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise DataValidationError(f"token {token!r} not in vocabulary") from None

    def save(self, path: str | Path) -> None:
        write_atomic(path, "\n".join(self.tokens) + "\n")


@dataclass(frozen=True, eq=False)
class TokenizedSplit:
    """n examples tokenized, one array per field. Sentence i's ``lengths[i]``
    real token ids lie at ``ids[starts[i]:]``, its ``lengths[i] - 3`` content
    tokens from ``CONTENT_START`` on; ``spans[i]`` is its head and tail span,
    (start, end, start, end), in content coordinates as in ``Example``, or
    the sentinel."""

    ids: np.ndarray          # (sum of lengths,) int, real tokens only, back to back
    starts: np.ndarray       # (n,) int
    lengths: np.ndarray      # (n,) int
    langs: np.ndarray        # (n,) int
    relations: np.ndarray    # (n,) int
    spans: np.ndarray        # (n, 4) int
    example_ids: tuple[str, ...]


def tokenize(examples: list[Example], vocab: Vocab, max_len: int) -> TokenizedSplit:
    ids, lengths = [], []
    for ex in examples:
        if not ex.tokens:
            raise DataValidationError(f"example {ex.id} has no content tokens")
        needed = CONTENT_START + len(ex.tokens) + 1
        if needed > max_len:
            raise DataValidationError(
                f"example {ex.id}: {len(ex.tokens)} content tokens need length "
                f"{needed} > max_len {max_len}; refusing to truncate gold spans"
            )
        ids += [CLS_ID, vocab.lang_token_id(ex.lang), *map(vocab.id_of, ex.tokens), SEP_ID]
        lengths.append(needed)
    lengths = np.array(lengths, dtype=np.intp)
    return TokenizedSplit(
        ids=np.array(ids, dtype=np.intp),
        starts=np.cumsum(lengths) - lengths,
        lengths=lengths,
        langs=np.array([ex.lang for ex in examples], dtype=np.intp),
        relations=np.array([ex.relation for ex in examples], dtype=np.intp),
        spans=np.array([ex.head_span + ex.tail_span for ex in examples], dtype=np.intp).reshape(-1, 4),
        example_ids=tuple(ex.id for ex in examples),
    )


def build_encoder_params(reg: ParamRegistry, cfg: ModelConfig, vocab_size: int, rng: np.random.Generator) -> None:
    d, ffn = cfg.d_model, cfg.ffn_dim
    reg.add("encoder.tok_emb", embedding_init(rng, vocab_size, d))
    reg.add("encoder.pos_emb", embedding_init(rng, cfg.max_len, d))
    for b in range(cfg.n_blocks):
        p = f"encoder.block{b}"
        reg.add(f"{p}.ln1.gain", np.ones(d))
        reg.add(f"{p}.ln1.bias", np.zeros(d))
        for name in ("w_q", "w_k", "w_v", "w_o"):
            reg.add(f"{p}.{name}", matrix_init(rng, d, d))
        for name in ("b_q", "b_k", "b_v", "b_o"):
            reg.add(f"{p}.{name}", np.zeros(d))
        reg.add(f"{p}.ln2.gain", np.ones(d))
        reg.add(f"{p}.ln2.bias", np.zeros(d))
        reg.add(f"{p}.w_ffn1", matrix_init(rng, d, ffn))
        reg.add(f"{p}.b_ffn1", np.zeros(ffn))
        reg.add(f"{p}.w_ffn2", matrix_init(rng, ffn, d))
        reg.add(f"{p}.b_ffn2", np.zeros(d))


def encode(ids: np.ndarray, lengths: np.ndarray, reg: ParamRegistry, cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """Encode n sentences at once: their real token ids, R in all, packed
    back to back, ``lengths[i]`` of them for sentence i. The row-wise ops run
    once over all R rows, and attention runs within each sentence. The
    embedding is one ``T.embed`` node and each block one ``T.encoder_block``
    node; the blocks share one ``T.length_plan``. Returns the final hidden
    rows, (R, d), and each sentence's [CLS] row, (n, d)."""
    starts = np.cumsum(lengths) - lengths
    vocab_size = reg["encoder.tok_emb"].shape[0]
    if ids.max() >= vocab_size:
        raise DataValidationError(f"token id {int(ids.max())} out of vocabulary range {vocab_size}")
    x = T.embed(reg["encoder.tok_emb"], reg["encoder.pos_emb"], ids, np.arange(ids.size) - np.repeat(starts, lengths))
    plan = T.length_plan(lengths)
    for b in range(cfg.n_blocks):
        x = T.encoder_block(x, [reg[f"encoder.block{b}.{name}"] for name in BLOCK_PARAMS], plan, cfg.n_heads)
    return x, T.gather_rows(x, starts)
