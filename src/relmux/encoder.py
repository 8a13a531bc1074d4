"""Trainable transformer encoder producing per-token and pooled representations.

Input layout is [CLS] [LANG_n] content... [SEP], gold spans shifted by the
two prepended specials. The encoder is token + learned position embeddings
followed by pre-norm blocks (``tensor.attention`` within each sentence over
n_heads heads, then a feed-forward, each with a residual). The pooled vector
is the [CLS] row of the final hidden states, taken verbatim.

A tokenized sentence holds only its real tokens, and ``encode`` keeps it so:
it packs a batch's sentences' rows back to back and hands ``tensor.attention``
one length per sentence, so no PAD row is ever computed. The [PAD] vocabulary
entry is row 0 of ``encoder.tok_emb``, which no sentence reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .corpus import Example
from .errors import DataValidationError
from .params import ParamRegistry, embedding_init, matrix_init
from .tensor import NEG_INF, Tensor

PAD, CLS, SEP = "[PAD]", "[CLS]", "[SEP]"
PAD_ID, CLS_ID, SEP_ID = 0, 1, 2
CONTENT_START = 2  # [CLS] [LANG_n] precede every sentence's content


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
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")


@dataclass
class TokenizedSentence:
    example_id: str
    lang: int
    input_ids: np.ndarray        # (m,) int, real tokens only
    head_span: tuple[int, int]   # shifted, or sentinel
    tail_span: tuple[int, int]
    relation: int
    n_content: int

    @property
    def length(self) -> int:
        return int(self.input_ids.shape[0])

    def content_position_mask(self, m: int) -> np.ndarray:
        """Additive mask over m positions: 0 on content, NEG_INF elsewhere."""
        mask = np.full(m, NEG_INF)
        mask[CONTENT_START : CONTENT_START + self.n_content] = 0.0
        return mask


def tokenize(example: Example, vocab: Vocab, max_len: int) -> TokenizedSentence:
    if not example.tokens:
        raise DataValidationError(f"example {example.id} has no content tokens")
    needed = CONTENT_START + len(example.tokens) + 1
    if needed > max_len:
        raise DataValidationError(
            f"example {example.id}: {len(example.tokens)} content tokens need length "
            f"{needed} > max_len {max_len}; refusing to truncate gold spans"
        )
    ids = [CLS_ID, vocab.lang_token_id(example.lang)]
    ids += [vocab.id_of(tok) for tok in example.tokens]
    ids.append(SEP_ID)

    def shift(span: tuple[int, int]) -> tuple[int, int]:
        if span == (-1, -1):
            return span
        return (span[0] + CONTENT_START, span[1] + CONTENT_START)

    return TokenizedSentence(
        example_id=example.id,
        lang=example.lang,
        input_ids=np.asarray(ids, dtype=np.intp),
        head_span=shift(example.head_span),
        tail_span=shift(example.tail_span),
        relation=example.relation,
        n_content=len(example.tokens),
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


def encode(sentences: list[TokenizedSentence], reg: ParamRegistry, cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """Encode n sentences at once: their real rows, R in all, packed back to
    back in input order. The row-wise ops run once over all R rows, and
    attention runs within each sentence. Returns the final hidden rows,
    (R, d), and each sentence's [CLS] row, (n, d)."""
    lengths = np.array([ts.length for ts in sentences])
    starts = np.cumsum(lengths) - lengths
    ids = np.concatenate([ts.input_ids for ts in sentences])
    vocab_size = reg["encoder.tok_emb"].shape[0]
    if ids.max() >= vocab_size:
        raise DataValidationError(f"token id {int(ids.max())} out of vocabulary range {vocab_size}")
    x = T.add(
        T.gather_rows(reg["encoder.tok_emb"], ids),
        T.gather_rows(reg["encoder.pos_emb"], np.arange(ids.size) - np.repeat(starts, lengths)),
    )
    for b in range(cfg.n_blocks):
        p = f"encoder.block{b}"
        a = T.layer_norm(x, reg[f"{p}.ln1.gain"], reg[f"{p}.ln1.bias"])
        q, k, v = (T.add(T.matmul(a, reg[f"{p}.w_{name}"]), reg[f"{p}.b_{name}"]) for name in "qkv")
        attn = T.attention(q, k, v, lengths, cfg.n_heads)
        x = T.add(x, T.add(T.matmul(attn, reg[f"{p}.w_o"]), reg[f"{p}.b_o"]))
        f = T.layer_norm(x, reg[f"{p}.ln2.gain"], reg[f"{p}.ln2.bias"])
        ff = T.add(T.matmul(f, reg[f"{p}.w_ffn1"]), reg[f"{p}.b_ffn1"])
        ff = T.add(T.matmul(T.relu(ff), reg[f"{p}.w_ffn2"]), reg[f"{p}.b_ffn2"])
        x = T.add(x, ff)
    return x, T.gather_rows(x, starts)
