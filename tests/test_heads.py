"""Relation classification, entity scoring, span decoding, and prediction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relmux import tensor as T
from relmux.config import ModelConfig
from relmux.corpus import LanguageSpec, RelationSchema, generate_corpus
from relmux.errors import DataValidationError
from relmux.heads import (
    build_head_params,
    check_gold_allowed,
    decode_spans,
    entity_scores,
    masked_argmax_relation,
    relation_logits,
)
from relmux.model import Model
from relmux.params import ParamRegistry
from relmux.tensor import NEG_INF, Tensor

from gradcheck import finite_diff_check
from oracles import compare, oracle_entity_scores, oracle_pair_argmax, oracle_relation_logits


def toy_cfg(**kw):
    defaults = dict(
        d_model=4, n_blocks=1, n_heads=2, ffn_dim=8, max_len=16,
        n_sub_modules=3, sub_layers=(1, 1, 1), bottleneck=6, eval_top_k=2,
        vocab_size=10, n_languages=2, n_relations=5,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def build_reg(cfg, seed=0):
    reg = ParamRegistry()
    build_head_params(reg, cfg, np.random.default_rng(seed))
    return reg


class TestClassifyRelation:
    def test_zero_classifier_uniform_logits_tie_breaks_low(self):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        reg["relation.w_cls"].data[:] = 0.0
        logits = relation_logits(Tensor(np.ones((1, 4))), reg).data
        assert np.allclose(logits, 0.0)
        allowed = np.array([False, True, True, False, True])
        assert masked_argmax_relation(logits, allowed) == 1

    def test_mask_restricts_to_allowed(self, rng):
        allowed = np.array([True, False, False, False, False])
        for _ in range(20):
            logits = rng.normal(size=5)
            assert masked_argmax_relation(logits, allowed) == 0

    @given(st.lists(st.floats(-100, 100), min_size=5, max_size=5), st.integers(0, 30))
    def test_masked_relation_never_argmax(self, logits, seed):
        allowed = np.random.default_rng(seed).random(5) > 0.5
        if not allowed.any():
            allowed[2] = True
        pick = masked_argmax_relation(np.array(logits), allowed)
        assert allowed[pick]

    def test_seeded_logits_match_matrix_vector_oracle(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=3)
        pooled = rng.normal(size=(1, 4))
        got = relation_logits(Tensor(pooled), reg).data.reshape(-1)
        want = oracle_relation_logits(pooled, reg["relation.w_cls"].data)
        assert compare("relation_logits", got, want, 1e-12).passed

    def test_gold_disallowed_is_data_error(self):
        with pytest.raises(DataValidationError):
            check_gold_allowed(2, np.array([True, True, False]), "x-1")


class TestEntityScores:
    def test_zero_down_projection_gives_zero_scores(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        for key in ("hs", "he", "ts", "te"):
            reg[f"entity.{key}.w_down"].data[:] = 0.0
        mask = np.array([NEG_INF, 0.0, 0.0, NEG_INF])
        scores = entity_scores(Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(1, 4))), mask, reg)
        for vec in scores.values():
            out = vec.data.reshape(-1)
            assert out[1] == 0.0 and out[2] == 0.0
            assert out[0] == NEG_INF and out[3] == NEG_INF

    def test_four_vectors_of_length_m(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=1)
        scores = entity_scores(Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(1, 4))),
                               np.zeros(6), reg)
        assert set(scores) == {"hs", "he", "ts", "te"}
        for vec in scores.values():
            assert vec.shape == (6, 1)

    def test_matches_concat_tanh_oracle(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=7)
        features = rng.normal(size=(3, 4))
        rel = rng.normal(size=(1, 4))
        mask = np.array([0.0, 0.0, NEG_INF])
        scores = entity_scores(Tensor(features), Tensor(rel), mask, reg)
        for key in ("hs", "he", "ts", "te"):
            want = oracle_entity_scores(features, rel, reg[f"entity.{key}.w_down"].data,
                                        reg[f"entity.{key}.w_index"].data, mask)
            assert compare(key, scores[key].data.reshape(-1), want, 1e-10).passed

    def test_combined_head_gradient_check(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=5)
        features = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        rel = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        mask = np.zeros(4)
        params = {"features": features, "rel": rel,
                  **{n: t for n, t in reg.items() if n.startswith("entity.")}}

        def f():
            scores = entity_scores(features, rel, mask, reg)
            ces = [T.cross_entropy(scores[k], g) for k, g in
                   (("hs", 0), ("he", 1), ("ts", 2), ("te", 3))]
            return T.mul(T.add_n(ces), 0.5)

        report = finite_diff_check(f, params, max_coords=5, rng=np.random.default_rng(2))
        assert report.max_rel_error < 1e-4


class TestDecodeSpans:
    def _scores(self, hs, he, ts=None, te=None):
        m = len(hs)
        ts = ts if ts is not None else hs
        te = te if te is not None else he
        return {"hs": np.array(hs, float), "he": np.array(he, float),
                "ts": np.array(ts, float), "te": np.array(te, float)}

    def test_simple_peaks(self):
        s = self._scores(hs=[0, 0, 5, 0, 0, 0], he=[0, 0, 0, 0, 5, 0])
        head, tail = decode_spans(s)
        assert head == (2, 4)

    def test_end_constrained_to_follow_start(self):
        # end's global peak precedes the start; the best end at >= start wins
        s = self._scores(hs=[0, 0, 0, 5, 0, 0], he=[9, 0, 0, 0, 0, 3])
        head, _ = decode_spans(s)
        assert head == (3, 5)

    def test_all_masked_is_error(self):
        s = {k: np.full(4, NEG_INF) for k in ("hs", "he", "ts", "te")}
        with pytest.raises(DataValidationError):
            decode_spans(s)

    def test_sequential_rule_with_bruteforce_diagnostic(self, rng):
        # the decode rule is sequential by construction; the exhaustive
        # pair-argmax may pick another span, but never one that scores less
        for _ in range(200):
            start = rng.normal(size=6)
            end = rng.normal(size=6)
            s = {"hs": start, "he": end, "ts": start, "te": end}
            head, _ = decode_spans(s)
            seq_start = int(np.argmax(start))
            seq_end = seq_start + int(np.argmax(end[seq_start:]))
            assert head == (seq_start, seq_end)
            pair = oracle_pair_argmax(start, end)
            assert pair[0] <= pair[1]
            assert start[pair[0]] + end[pair[1]] >= start[head[0]] + end[head[1]]


class TestOraclePairArgmax:
    def test_single_token(self):
        assert oracle_pair_argmax(np.array([1.0]), np.array([2.0])) == (0, 0)

    def test_monotone_scores_enumerated(self):
        start = np.array([0.0, 1.0, 2.0, 3.0])
        end = np.array([0.0, 1.0, 2.0, 3.0])
        assert oracle_pair_argmax(start, end) == (3, 3)


@pytest.fixture(scope="module")
def tiny_setup():
    langs = [
        LanguageSpec(0, "valo", "SVO", "valic", 30),
        LanguageSpec(1, "koru", "SOV", "korvic", 30),
    ]
    rels = ("no_relation", "has-kind", "locat-in")
    schema = RelationSchema(relations=rels, allowed=np.ones((2, 3), dtype=bool))
    corpus = generate_corpus(langs, schema, seed=2)
    cfg = toy_cfg(d_model=8, ffn_dim=16, bottleneck=12, n_relations=3, max_len=24)
    model = Model.build(cfg, corpus.registry, init_seed=0)
    return corpus, model


class TestPredict:

    def test_predict_deterministic(self, tiny_setup):
        corpus, model = tiny_setup
        ex = corpus.train[0]
        a = model.predict(ex)
        b = model.predict(ex)
        assert (a.relation, a.head_span, a.tail_span) == (b.relation, b.head_span, b.tail_span)
        assert np.array_equal(a.relation_logits, b.relation_logits)

    def test_no_relation_prediction_has_sentinel_spans(self, tiny_setup):
        corpus, model = tiny_setup
        # force no_relation by masking everything else out
        model.languages.schema.allowed[:, 1:] = False
        try:
            pred = model.predict(corpus.train[0])
            assert pred.relation == 0
            assert pred.head_span == (-1, -1) and pred.tail_span == (-1, -1)
        finally:
            model.languages.schema.allowed[:, 1:] = True

    def test_predicted_spans_lie_in_content(self, tiny_setup):
        corpus, model = tiny_setup
        for ex in corpus.train[:10]:
            pred = model.predict(ex)
            if pred.relation == 0:
                continue
            n = len(ex.tokens)
            assert 0 <= pred.head_span[0] <= pred.head_span[1] < n
            assert 0 <= pred.tail_span[0] <= pred.tail_span[1] < n

    def test_relation_conditioning_changes_entity_scores(self, tiny_setup):
        corpus, model = tiny_setup
        ex = next(e for e in corpus.train if e.relation != 0)
        ts = model.tokenize(ex)
        _, feats = model._forward([ts], 1)
        mask = ts.content_position_mask(feats.shape[0])
        out = {}
        for rel in (1, 2):
            emb = T.narrow(model.registry["relation.emb"], 0, rel, 1)
            out[rel] = entity_scores(feats, emb, mask, model.registry)["hs"].data.copy()
        assert not np.allclose(out[1], out[2])
