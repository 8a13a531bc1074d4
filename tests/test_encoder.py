"""Tokenizer layout and span shifting, encoder shapes, PAD invariance, the
independent forward-pass oracle, and the whole-encoder gradient check."""

import numpy as np
import pytest

from relmux import tensor as T
from relmux.config import ModelConfig
from relmux.corpus import Example
from relmux.encoder import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    EncoderOutput,
    TokenizedSentence,
    Vocab,
    build_encoder_params,
    encode,
    tokenize,
)
from relmux.errors import DataValidationError
from relmux.params import ParamRegistry

from gradcheck import finite_diff_check
from oracles import compare, oracle_encoder_forward


CONTENT = [f"tok{i}" for i in range(10)]


def pad_to(ts: TokenizedSentence, m: int) -> TokenizedSentence:
    if m < ts.length:
        raise DataValidationError(f"cannot pad length {ts.length} down to {m}")
    if m == ts.length:
        return ts
    ids = np.concatenate([ts.input_ids, np.full(m - ts.length, PAD_ID, dtype=np.intp)])
    mask = np.concatenate([ts.attention_mask, np.zeros(m - ts.length, dtype=bool)])
    return TokenizedSentence(
        example_id=ts.example_id,
        lang=ts.lang,
        input_ids=ids,
        attention_mask=mask,
        head_span=ts.head_span,
        tail_span=ts.tail_span,
        relation=ts.relation,
        content_start=ts.content_start,
        n_content=ts.n_content,
    )


def encode_one(ts: TokenizedSentence, reg: ParamRegistry, cfg: ModelConfig) -> EncoderOutput:
    """One sentence through the batched encoder, over its real (non-PAD)
    prefix only; exact-zero rows are spliced back in for PAD positions, so
    padding can never perturb real rows."""
    out = encode([ts], reg, cfg)
    pad = ts.length - out.hidden.shape[0]
    if pad:
        out.hidden = T.concat([out.hidden, T.Tensor(np.zeros((pad, cfg.d_model)))], axis=0)
    return out


def make_vocab(n_langs=2):
    return Vocab(CONTENT, n_langs)


def make_example(tokens=("tok0", "tok1", "tok2"), head=(0, 1), tail=(2, 2), relation=1, lang=0):
    return Example(id="x-1", lang=lang, tokens=tuple(tokens), head_span=head, tail_span=tail, relation=relation)


def toy_cfg(**kw):
    defaults = dict(
        d_model=8, n_blocks=1, n_heads=2, ffn_dim=16, max_len=16,
        n_sub_modules=3, sub_layers=(1, 1, 1), bottleneck=12, eval_top_k=2,
        vocab_size=len(make_vocab()), n_languages=2, n_relations=3,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def build_registry(cfg, seed=0):
    reg = ParamRegistry()
    build_encoder_params(reg, cfg, np.random.default_rng(seed))
    return reg


class TestVocab:
    def test_special_layout(self):
        v = make_vocab(2)
        assert v.tokens[:5] == ["[PAD]", "[CLS]", "[SEP]", "[LANG_0]", "[LANG_1]"]
        assert v.id_of("[PAD]") == PAD_ID and v.id_of("[CLS]") == CLS_ID and v.id_of("[SEP]") == SEP_ID

    def test_file_round_trip(self, tmp_path):
        v = make_vocab(2)
        v.save(tmp_path / "vocab.txt")
        again = Vocab.load(tmp_path / "vocab.txt", 2)
        assert again.tokens == v.tokens

    def test_unknown_token_rejected(self):
        with pytest.raises(DataValidationError):
            make_vocab().id_of("nope")


class TestTokenize:
    def test_layout_and_span_shift(self):
        ts = tokenize(make_example(), make_vocab(), max_len=16)
        # [CLS] [LANG_0] tok0 tok1 tok2 [SEP]
        assert ts.length == 6
        assert ts.input_ids[0] == CLS_ID and ts.input_ids[1] == 3 and ts.input_ids[-1] == SEP_ID
        assert ts.head_span == (2, 3)
        assert ts.tail_span == (4, 4)
        assert ts.content_start == 2 and ts.n_content == 3

    def test_without_lang_prefix_shift_is_one(self):
        ts = tokenize(make_example(), make_vocab(), max_len=16, lang_prefix=False)
        assert ts.length == 5
        assert ts.head_span == (1, 2)

    def test_empty_content_rejected(self):
        ex = Example(id="e", lang=0, tokens=(), head_span=(-1, -1), tail_span=(-1, -1), relation=0)
        with pytest.raises(DataValidationError):
            tokenize(ex, make_vocab(), max_len=16)

    def test_overflow_refused_not_truncated(self):
        ex = make_example(tokens=tuple(f"tok{i % 10}" for i in range(20)), head=(0, 0), tail=(1, 1))
        with pytest.raises(DataValidationError, match="max_len"):
            tokenize(ex, make_vocab(), max_len=16)

    def test_round_trip_content_alignment(self):
        ex = make_example()
        v = make_vocab()
        ts = tokenize(ex, v, max_len=16)
        content_ids = ts.input_ids[ts.content_start : ts.content_start + ts.n_content]
        assert tuple(v.tokens[i] for i in content_ids) == ex.tokens

    def test_attention_mask_false_exactly_on_pad(self):
        ts = pad_to(tokenize(make_example(), make_vocab(), max_len=16), 10)
        assert ts.attention_mask.sum() == 6
        assert not ts.attention_mask[6:].any()
        assert (ts.input_ids[6:] == PAD_ID).all()


class TestEncode:
    def test_output_shapes(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        ts = tokenize(make_example(), make_vocab(), max_len=cfg.max_len)
        out = encode_one(ts, reg, cfg)
        assert out.hidden.shape == (ts.length, cfg.d_model)
        assert out.pooled.shape == (1, cfg.d_model)

    def test_pooled_is_cls_row_exactly(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        ts = tokenize(make_example(), make_vocab(), max_len=cfg.max_len)
        out = encode_one(ts, reg, cfg)
        assert np.array_equal(out.pooled.data[0], out.hidden.data[0])

    def test_changing_pad_id_never_changes_non_pad_rows(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        ts = pad_to(tokenize(make_example(), make_vocab(), max_len=cfg.max_len), 9)
        base = encode_one(ts, reg, cfg).hidden.data[:6].copy()
        hacked = ts.input_ids.copy()
        hacked[-1] = 7  # arbitrary non-pad id in a PAD slot
        ts2 = TokenizedSentence(
            example_id=ts.example_id, lang=ts.lang, input_ids=hacked,
            attention_mask=ts.attention_mask, head_span=ts.head_span, tail_span=ts.tail_span,
            relation=ts.relation, content_start=ts.content_start, n_content=ts.n_content,
        )
        out2 = encode_one(ts2, reg, cfg).hidden.data[:6]
        assert np.array_equal(base, out2)

    def test_pad_extension_invariance(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        ts = tokenize(make_example(), make_vocab(), max_len=cfg.max_len)
        out = encode_one(ts, reg, cfg)
        padded = encode_one(pad_to(ts, 12), reg, cfg)
        assert np.allclose(out.hidden.data, padded.hidden.data[: ts.length], atol=0)
        assert np.array_equal(out.pooled.data, padded.pooled.data)

    def test_out_of_vocab_id_rejected(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        ts = tokenize(make_example(), make_vocab(), max_len=cfg.max_len)
        ts.input_ids[2] = cfg.vocab_size + 5
        with pytest.raises(DataValidationError):
            encode_one(ts, reg, cfg)

    def test_matches_straight_line_oracle(self):
        # single block, d=4, 2 heads, 3 content tokens, seeded weights
        cfg = toy_cfg(d_model=4, n_blocks=1, n_heads=2, ffn_dim=8)
        reg = build_registry(cfg, seed=42)
        ts = tokenize(make_example(), make_vocab(), max_len=cfg.max_len)
        got = encode_one(ts, reg, cfg).hidden.data
        params = {name: t.data for name, t in reg.items()}
        want = oracle_encoder_forward(ts.input_ids, ts.attention_mask, params, cfg.n_blocks, cfg.n_heads)
        report = compare("encoder_forward", got, want, tolerance=1e-10)
        assert report.passed, report

    def test_whole_encoder_gradient_check(self):
        cfg = toy_cfg(d_model=8, n_blocks=1, n_heads=2, ffn_dim=16)
        reg = build_registry(cfg, seed=3)
        ex = make_example(tokens=("tok0", "tok1"), head=(0, 0), tail=(1, 1))
        ts = tokenize(ex, make_vocab(), max_len=cfg.max_len)
        weights = T.Tensor(np.random.default_rng(5).normal(size=(ts.length, cfg.d_model)))
        params = dict(reg.items())
        report = finite_diff_check(
            lambda: T.tsum(T.mul(encode_one(ts, reg, cfg).hidden, weights)),
            params,
            max_coords=4,
            rng=np.random.default_rng(0),
        )
        assert report.max_rel_error < 1e-4
