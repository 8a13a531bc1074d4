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
    """A 6-token sentence and a 10-token one, each tokenized alone, and the
    two packed long first."""
    vocab = make_vocab()
    short_ex = make_example()
    long_ex = make_example(tokens=CONTENT[3:10], head=(0, 0), tail=(6, 6))
    return tuple(tokenize(exs, vocab, max_len=cfg.max_len) for exs in ([short_ex], [long_ex], [long_ex, short_ex]))


def enc(split, reg, cfg):
    return encode(split.ids, split.lengths, reg, cfg)


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

    def test_the_last_language_id_is_taken_and_the_next_refused(self):
        v = make_vocab(2)
        assert v.lang_token_id(1) == v.id_of("[LANG_1]")
        # language id 2 would map to id 5, the first content token
        for lang in (2, -1):
            with pytest.raises(DataValidationError, match=f"language id {lang} out of range"):
                v.lang_token_id(lang)


class TestTokenize:
    def test_layout_and_span_shift(self):
        ts = tokenize([make_example()], make_vocab(), max_len=16)
        # [CLS] [LANG_0] tok0 tok1 tok2 [SEP]
        assert ts.lengths.tolist() == [6] and ts.starts.tolist() == [0]
        assert ts.ids[0] == CLS_ID and ts.ids[1] == 3 and ts.ids[-1] == SEP_ID
        # the spans are not shifted: they stay the example's content coordinates
        assert ts.spans.tolist() == [[0, 1, 2, 2]]
        assert CONTENT_START == 2 and ts.example_ids == ("x-1",)

    def test_split_packs_sentences_back_to_back_and_keeps_the_sentinel(self):
        none = Example(id="x-2", lang=1, tokens=("tok3", "tok4"), head_span=(-1, -1), tail_span=(-1, -1), relation=0)
        ts = tokenize([make_example(), none], make_vocab(), max_len=16)
        assert ts.lengths.tolist() == [6, 5] and ts.starts.tolist() == [0, 6]
        assert ts.ids[6:].tolist() == [CLS_ID, 4, 8, 9, SEP_ID]
        assert ts.langs.tolist() == [0, 1] and ts.relations.tolist() == [1, 0]
        assert ts.spans.tolist() == [[0, 1, 2, 2], [-1, -1, -1, -1]]
        assert ts.example_ids == ("x-1", "x-2")

    def test_empty_content_rejected(self):
        ex = Example(id="e", lang=0, tokens=(), head_span=(-1, -1), tail_span=(-1, -1), relation=0)
        with pytest.raises(DataValidationError, match="example e has no content tokens"):
            tokenize([make_example(), ex], make_vocab(), max_len=16)

    def test_overflow_refused_not_truncated(self):
        ex = make_example(tokens=tuple(f"tok{i % 10}" for i in range(20)), head=(0, 0), tail=(1, 1))
        with pytest.raises(DataValidationError, match="max_len"):
            tokenize([ex], make_vocab(), max_len=16)

    def test_a_sentence_that_exactly_fills_max_len_is_taken_and_one_token_more_refused(self):
        fits = make_example(tokens=tuple(f"tok{i % 10}" for i in range(13)), head=(0, 0), tail=(12, 12))
        assert tokenize([fits], make_vocab(), max_len=16).lengths.tolist() == [16]
        over = make_example(tokens=fits.tokens + ("tok0",), head=(0, 0), tail=(13, 13))
        with pytest.raises(DataValidationError, match="14 content tokens need length 17 > max_len 16"):
            tokenize([over], make_vocab(), max_len=16)

    def test_unknown_token_rejected(self):
        with pytest.raises(DataValidationError, match="'nope' not in vocabulary"):
            tokenize([make_example(tokens=("tok0", "nope"), head=(0, 0), tail=(1, 1))], make_vocab(), max_len=16)

    def test_round_trip_content_alignment(self):
        ex = make_example()
        v = make_vocab()
        ts = tokenize([ex], v, max_len=16)
        content_ids = ts.ids[CONTENT_START : ts.lengths[0] - 1]
        assert tuple(v.tokens[i] for i in content_ids) == ex.tokens


class TestEncode:
    def test_output_shapes(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        ts = tokenize([make_example()], make_vocab(), max_len=cfg.max_len)
        hidden, pooled = enc(ts, reg, cfg)
        assert hidden.shape == (ts.lengths[0], cfg.d_model)
        assert pooled.shape == (1, cfg.d_model)

    def test_pooled_is_cls_row_exactly(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        _, _, both = short_and_long(cfg)
        hidden, pooled = enc(both, reg, cfg)
        assert np.array_equal(pooled.data, hidden.data[both.starts])

    def test_rows_are_the_real_tokens_back_to_back(self):
        # one row per real token, in input order, each position counted from
        # its own sentence's [CLS]: each sentence's rows are bitwise its rows
        # encoded alone
        cfg = toy_cfg()
        reg = build_registry(cfg)
        short, long, both = short_and_long(cfg)
        hidden, _ = enc(both, reg, cfg)
        n_long = long.lengths[0]
        assert hidden.shape == (n_long + short.lengths[0], cfg.d_model)
        for rows, ts in ((slice(0, n_long), long), (slice(n_long, None), short)):
            alone, _ = enc(ts, reg, cfg)
            assert np.array_equal(hidden.data[rows], alone.data)

    def test_changing_pad_id_never_changes_non_pad_rows(self):
        # no sentence holds PAD and encode adds none, so no value of the PAD
        # embedding reaches any row
        cfg = toy_cfg()
        reg = build_registry(cfg)
        _, _, both = short_and_long(cfg)
        base = enc(both, reg, cfg)[0].data.copy()
        reg["encoder.tok_emb"].data[PAD_ID] += np.random.default_rng(1).normal(0.0, 5.0, cfg.d_model)
        assert np.array_equal(enc(both, reg, cfg)[0].data, base)

    def test_pad_extension_invariance(self):
        # the short sentence's rows, packed after the long one, are its rows
        # encoded alone
        cfg = toy_cfg()
        reg = build_registry(cfg)
        short, long, both = short_and_long(cfg)
        alone_hidden, alone_pooled = enc(short, reg, cfg)
        hidden, pooled = enc(both, reg, cfg)
        rows = hidden.data[long.lengths[0] :]
        assert np.allclose(rows, alone_hidden.data, rtol=0, atol=1e-12)
        assert np.allclose(pooled.data[1], alone_pooled.data[0], rtol=0, atol=1e-12)

    def test_out_of_vocab_id_rejected(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        ts = tokenize([make_example()], make_vocab(), max_len=cfg.max_len)
        ids = ts.ids.copy()
        ids[2] = len(make_vocab()) + 5
        with pytest.raises(DataValidationError):
            encode(ids, ts.lengths, reg, cfg)

    def test_the_last_vocabulary_id_is_taken_and_the_next_refused(self):
        cfg = toy_cfg()
        reg = build_registry(cfg)
        ts = tokenize([make_example()], make_vocab(), max_len=cfg.max_len)
        ids = ts.ids.copy()
        ids[2] = len(make_vocab()) - 1
        assert encode(ids, ts.lengths, reg, cfg)[0].shape == (6, cfg.d_model)
        ids[2] = len(make_vocab())
        with pytest.raises(DataValidationError, match=f"token id {len(make_vocab())} out of vocabulary range"):
            encode(ids, ts.lengths, reg, cfg)

    def test_matches_straight_line_oracle(self):
        # single block, d=4, 2 heads, 3 content tokens, seeded weights
        cfg = toy_cfg(d_model=4, n_blocks=1, n_heads=2, ffn_dim=8)
        reg = build_registry(cfg, seed=42)
        ts = tokenize([make_example()], make_vocab(), max_len=cfg.max_len)
        got = enc(ts, reg, cfg)[0].data
        params = {name: t.data for name, t in reg.items()}
        want = oracle_encoder_forward(ts.ids, np.ones(ts.lengths[0], dtype=bool), params, cfg.n_blocks, cfg.n_heads)
        report = compare("encoder_forward", got, want, tolerance=1e-10)
        assert report.passed, report

    def test_whole_encoder_gradient_check(self):
        cfg = toy_cfg(d_model=8, n_blocks=1, n_heads=2, ffn_dim=16)
        reg = build_registry(cfg, seed=3)
        ex = make_example(tokens=("tok0", "tok1"), head=(0, 0), tail=(1, 1))
        ts = tokenize([ex], make_vocab(), max_len=cfg.max_len)
        weights = T.Tensor(np.random.default_rng(5).normal(size=(ts.lengths[0], cfg.d_model)))
        params = dict(reg.items())
        report = finite_diff_check(
            lambda: tsum(T.mul(enc(ts, reg, cfg)[0], weights)),
            params,
            max_coords=4,
            rng=np.random.default_rng(0),
        )
        assert report.max_rel_error < 1e-4
