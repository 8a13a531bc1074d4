"""Trainable transformer encoder producing per-token and pooled representations.

Input layout is [CLS] [LANG_n] content... [SEP] [PAD]..., gold spans shifted by
the number of prepended specials. The encoder is token + learned position
embeddings followed by pre-norm blocks (multi-head self-attention with PAD key
masking, then a feed-forward, each with a residual). The pooled vector is the
[CLS] row of the final hidden states, taken verbatim.
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

    @classmethod
    def load(cls, path: str | Path, n_languages: int) -> "Vocab":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        expected_specials = 3 + n_languages
        v = cls(lines[expected_specials:], n_languages)
        if v.tokens != lines:
            raise DataValidationError(f"vocabulary file {path} does not match the expected layout")
        return v


@dataclass
class TokenizedSentence:
    example_id: str
    lang: int
    input_ids: np.ndarray        # (m,) int
    attention_mask: np.ndarray   # (m,) bool, False exactly on [PAD]
    head_span: tuple[int, int]   # shifted, or sentinel
    tail_span: tuple[int, int]
    relation: int
    content_start: int
    n_content: int

    @property
    def length(self) -> int:
        return int(self.input_ids.shape[0])

    def content_position_mask(self, m: int | None = None) -> np.ndarray:
        """Additive mask: 0 on content positions, NEG_INF on specials and padding."""
        m = m or self.length
        mask = np.full(m, NEG_INF)
        mask[self.content_start : self.content_start + self.n_content] = 0.0
        return mask


def tokenize(example: Example, vocab: Vocab, max_len: int, lang_prefix: bool = True) -> TokenizedSentence:
    if not example.tokens:
        raise DataValidationError(f"example {example.id} has no content tokens")
    n_prefix = 2 if lang_prefix else 1
    needed = n_prefix + len(example.tokens) + 1
    if needed > max_len:
        raise DataValidationError(
            f"example {example.id}: {len(example.tokens)} content tokens need length "
            f"{needed} > max_len {max_len}; refusing to truncate gold spans"
        )
    ids = [CLS_ID]
    if lang_prefix:
        ids.append(vocab.lang_token_id(example.lang))
    ids += [vocab.id_of(tok) for tok in example.tokens]
    ids.append(SEP_ID)

    def shift(span: tuple[int, int]) -> tuple[int, int]:
        if span == (-1, -1):
            return span
        return (span[0] + n_prefix, span[1] + n_prefix)

    return TokenizedSentence(
        example_id=example.id,
        lang=example.lang,
        input_ids=np.asarray(ids, dtype=np.intp),
        attention_mask=np.ones(len(ids), dtype=bool),
        head_span=shift(example.head_span),
        tail_span=shift(example.tail_span),
        relation=example.relation,
        content_start=n_prefix,
        n_content=len(example.tokens),
    )


@dataclass
class EncoderOutput:
    hidden: Tensor   # (n*m, d): the rows of n sentences of m positions
    pooled: Tensor   # (n, d), each sentence's [CLS] row


def build_encoder_params(reg: ParamRegistry, cfg: ModelConfig, rng: np.random.Generator) -> None:
    d, ffn = cfg.d_model, cfg.ffn_dim
    reg.add("encoder.tok_emb", embedding_init(rng, cfg.vocab_size, d))
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


def encoder_param_names(cfg: ModelConfig) -> list[str]:
    names = ["encoder.tok_emb", "encoder.pos_emb"]
    for b in range(cfg.n_blocks):
        p = f"encoder.block{b}"
        names += [f"{p}.ln1.gain", f"{p}.ln1.bias"]
        names += [f"{p}.{n}" for n in ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o")]
        names += [f"{p}.ln2.gain", f"{p}.ln2.bias"]
        names += [f"{p}.w_ffn1", f"{p}.b_ffn1", f"{p}.w_ffn2", f"{p}.b_ffn2"]
    return names


def masked_attention(q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention over a stack of b independent (m, k)
    blocks, (b, m, k) each: one block per sequence and head. ``key_mask`` is
    (b, m), False on keys that nobody may attend to (PAD); their scores get
    NEG_INF added. Returns (b, m, k)."""
    scores = T.mul(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(q.shape[-1]))
    if not key_mask.all():
        scores = T.add(scores, Tensor(np.where(key_mask, 0.0, NEG_INF)[:, None, :]))
    return T.matmul(T.softmax_rows(scores), v)


def encode(sentences: list[TokenizedSentence], reg: ParamRegistry, cfg: ModelConfig) -> EncoderOutput:
    """Encode n sentences at once. Each is padded to the longest real (non-PAD)
    length m; the row-wise ops run once over all n*m rows, attention runs per
    sentence and head under a PAD key mask, and PAD rows are zeroed at the
    end."""
    reals = []
    for ts in sentences:
        if ts.input_ids.max() >= cfg.vocab_size:
            raise DataValidationError(
                f"token id {int(ts.input_ids.max())} out of vocabulary range {cfg.vocab_size}")
        real = int(ts.attention_mask.sum())
        if not ts.attention_mask[:real].all():
            raise DataValidationError("attention mask must be contiguous: PAD only trails")
        reals.append(real)
    n, m = len(sentences), max(reals)
    positions = np.arange(m)
    key_mask = positions < np.array(reals)[:, None]
    ids = np.full((n, m), PAD_ID, dtype=np.intp)
    for row, ts, real in zip(ids, sentences, reals):
        row[:real] = ts.input_ids[:real]
    x = T.add(
        T.gather_rows(reg["encoder.tok_emb"], ids.reshape(-1)),
        T.gather_rows(reg["encoder.pos_emb"], np.tile(positions, n)),
    )
    head_mask = np.repeat(key_mask, cfg.n_heads, axis=0)
    for b in range(cfg.n_blocks):
        p = f"encoder.block{b}"
        a = T.layer_norm(x, reg[f"{p}.ln1.gain"], reg[f"{p}.ln1.bias"])
        q, k, v = (T.add(T.matmul(a, reg[f"{p}.w_{name}"]), reg[f"{p}.b_{name}"]) for name in "qkv")
        heads = (T.split_heads(t, n, cfg.n_heads) for t in (q, k, v))
        attn = T.merge_heads(masked_attention(*heads, head_mask), cfg.n_heads)
        x = T.add(x, T.add(T.matmul(attn, reg[f"{p}.w_o"]), reg[f"{p}.b_o"]))
        f = T.layer_norm(x, reg[f"{p}.ln2.gain"], reg[f"{p}.ln2.bias"])
        ff = T.add(T.matmul(f, reg[f"{p}.w_ffn1"]), reg[f"{p}.b_ffn1"])
        ff = T.add(T.matmul(T.relu(ff), reg[f"{p}.w_ffn2"]), reg[f"{p}.b_ffn2"])
        x = T.add(x, ff)
    if not key_mask.all():
        x = T.mul(x, Tensor(key_mask.reshape(-1, 1).astype(np.float64)))
    return EncoderOutput(hidden=x, pooled=T.gather_rows(x, np.arange(n) * m))

