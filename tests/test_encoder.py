"""Tokenizer layout and span shifting, encoder shapes and its packed rows,
the independent forward-pass oracle, and the whole-encoder gradient check.
That a sentence's rows are bitwise the same alone and in a mixed-length
batch is checked through ``Model._forward`` in test_training.py."""

import numpy as np
import pytest

from relmux import tensor as T
from relmux.config import ModelConfig
from relmux.corpus import Example
from relmux.encoder import (
    CLS_ID,
    CONTENT_START,
    PAD_ID,
    SEP_ID,
    Vocab,
    build_encoder_params,
    encode,
    tokenize,
)
from relmux.errors import DataValidationError
from relmux.params import ParamRegistry

from gradcheck import finite_diff_check, tsum
from oracles import compare, oracle_encoder_forward


CONTENT = [f"tok{i}" for i in range(10)]


def make_vocab(n_langs=2):
    return Vocab(CONTENT, n_langs)


def make_example(tokens=("tok0", "tok1", "tok2"), head=(0, 1), tail=(2, 2), relation=1, lang=0):
    return Example(id="x-1", lang=lang, tokens=tuple(tokens), head_span=head, tail_span=tail, relation=relation)


def toy_cfg(**kw):
    defaults = dict(
        d_model=8, n_blocks=1, n_heads=2, ffn_dim=16, max_len=16,
        n_sub_modules=3, sub_layers=(1, 1, 1), bottleneck=12, eval_top_k=2,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def build_registry(cfg, seed=0):
    reg = ParamRegistry()
    build_encoder_params(reg, cfg, len(make_vocab()), np.random.default_rng(seed))
    return reg


def short_and_long(cfg):
    """A 6-token sentence and a 10-token one."""
    vocab = make_vocab()
    short = tokenize(make_example(), vocab, max_len=cfg.max_len)
    long = tokenize(make_example(tokens=CONTENT[3:10], head=(0, 0), tail=(6, 6)), vocab, max_len=cfg.max_len)
    return short, long


class TestVocab:
    def test_special_layout(self):
        v = make_vocab(2)
        assert v.tokens[:5] == ["[PAD]", "[CLS]", "[SEP]", "[LANG_0]", "[LANG_1]"]
        assert v.id_of("[PAD]") == PAD_ID and v.id_of("[CLS]") == CLS_ID and v.id_of("[SEP]") == SEP_ID

    def test_file_round_trip(self, tmp_path):
        v = make_vocab(2)
        v.save(tmp_path / "vocab.txt")
        assert (tmp_path / "vocab.txt").read_text(encoding="utf-8").splitlines() == v.tokens

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
        assert CONTENT_START == 2 and ts.n_content == 3

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
        content_ids = ts.input_ids[CONTENT_START : CONTENT_START + ts.n_content]
        assert tuple(v.tokens[i] for i in content_ids) == ex.tokens



class TestEncode:
    def test_output_shapes(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        ts = tokenize(make_example(), make_vocab(), max_len=cfg.max_len)
        hidden, pooled = encode([ts], reg, cfg)
        assert hidden.shape == (ts.length, cfg.d_model)
        assert pooled.shape == (1, cfg.d_model)

    def test_pooled_is_cls_row_exactly(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        short, long = short_and_long(cfg)
        hidden, pooled = encode([long, short], reg, cfg)
        assert np.array_equal(pooled.data, hidden.data[[0, long.length]])

    def test_rows_are_the_real_tokens_back_to_back(self):
        # one row per real token, in input order, each position counted from
        # its own sentence's [CLS]: each sentence's rows are bitwise its rows
        # encoded alone
        cfg = toy_cfg()
        reg = build_registry(cfg)
        short, long = short_and_long(cfg)
        hidden, _ = encode([long, short], reg, cfg)
        assert hidden.shape == (long.length + short.length, cfg.d_model)
        for rows, ts in ((slice(0, long.length), long), (slice(long.length, None), short)):
            alone, _ = encode([ts], reg, cfg)
            assert np.array_equal(hidden.data[rows], alone.data)

    def test_changing_pad_id_never_changes_non_pad_rows(self):
        # no sentence holds PAD and encode adds none, so no value of the PAD
        # embedding reaches any row
        cfg = toy_cfg()
        reg = build_registry(cfg)
        short, long = short_and_long(cfg)
        base = encode([long, short], reg, cfg)[0].data.copy()
        reg["encoder.tok_emb"].data[PAD_ID] += np.random.default_rng(1).normal(0.0, 5.0, cfg.d_model)
        assert np.array_equal(encode([long, short], reg, cfg)[0].data, base)

    def test_pad_extension_invariance(self):
        # the short sentence's rows, packed after the long one, are its rows
        # encoded alone
        cfg = toy_cfg()
        reg = build_registry(cfg)
        short, long = short_and_long(cfg)
        alone_hidden, alone_pooled = encode([short], reg, cfg)
        hidden, pooled = encode([long, short], reg, cfg)
        rows = hidden.data[long.length : long.length + short.length]
        assert np.allclose(rows, alone_hidden.data, rtol=0, atol=1e-12)
        assert np.allclose(pooled.data[1], alone_pooled.data[0], rtol=0, atol=1e-12)

    def test_out_of_vocab_id_rejected(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        ts = tokenize(make_example(), make_vocab(), max_len=cfg.max_len)
        ts.input_ids[2] = len(make_vocab()) + 5
        with pytest.raises(DataValidationError):
            encode([ts], reg, cfg)

    def test_matches_straight_line_oracle(self):
        # single block, d=4, 2 heads, 3 content tokens, seeded weights
        cfg = toy_cfg(d_model=4, n_blocks=1, n_heads=2, ffn_dim=8)
        reg = build_registry(cfg, seed=42)
        ts = tokenize(make_example(), make_vocab(), max_len=cfg.max_len)
        got = encode([ts], reg, cfg)[0].data
        params = {name: t.data for name, t in reg.items()}
        want = oracle_encoder_forward(ts.input_ids, np.ones(ts.length, dtype=bool), params, cfg.n_blocks, cfg.n_heads)
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
            lambda: tsum(T.mul(encode([ts], reg, cfg)[0], weights)),
            params,
            max_coords=4,
            rng=np.random.default_rng(0),
        )
        assert report.max_rel_error < 1e-4
