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
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def build_reg(cfg, seed=0):
    reg = ParamRegistry()
    build_head_params(reg, cfg, 5, np.random.default_rng(seed))
    return reg


class TestClassifyRelation:
    def test_zero_classifier_uniform_logits_tie_breaks_low(self):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        reg["relation.w_cls"].data[:] = 0.0
        logits = relation_logits(Tensor(np.ones((1, 4))), reg).data
        assert np.allclose(logits, 0.0)
        allowed = np.array([[False, True, True, False, True]])
        assert masked_argmax_relation(logits, allowed, [0]).tolist() == [1]

    def test_mask_restricts_to_allowed(self, rng):
        allowed = np.array([[True, False, False, False, False]])
        picks = masked_argmax_relation(rng.normal(size=(20, 5)), allowed, [0] * 20)
        assert picks.tolist() == [0] * 20

    @given(st.lists(st.floats(-100, 100), min_size=15, max_size=15), st.integers(0, 30))
    def test_masked_relation_never_argmax(self, logits, seed):
        # three rows, each under its own language's mask row
        draw = np.random.default_rng(seed)
        allowed = draw.random((2, 5)) > 0.5
        allowed[:, 2] |= ~allowed.any(axis=1)
        langs = draw.integers(0, 2, size=3)
        picks = masked_argmax_relation(np.array(logits).reshape(3, 5), allowed, langs)
        assert allowed[langs, picks].all()

    def test_rows_match_one_row_at_a_time(self, rng):
        allowed = rng.random((3, 5)) > 0.4
        allowed[:, 0] = True
        langs = rng.integers(0, 3, size=12)
        logits = rng.normal(size=(12, 5))
        picks = masked_argmax_relation(logits, allowed, langs)
        for row, lang, pick in zip(logits, langs, picks):
            masked = np.where(allowed[lang], row, -np.inf)
            assert pick == int(np.argmax(masked))

    def test_seeded_logits_match_matrix_vector_oracle(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=3)
        pooled = rng.normal(size=(1, 4))
        got = relation_logits(Tensor(pooled), reg).data.reshape(-1)
        want = oracle_relation_logits(pooled, reg["relation.w_cls"].data)
        assert compare("relation_logits", got, want, 1e-12).passed

    def test_each_row_is_bitwise_the_row_alone(self, rng):
        reg = build_reg(toy_cfg(), seed=4)
        pooled = rng.normal(size=(32, 4)) * 10.0 ** rng.integers(-2, 3, size=(32, 1))
        logits = relation_logits(Tensor(pooled), reg).data
        assert logits.shape == (32, 5)
        for i in range(32):
            assert logits[i].tobytes() == relation_logits(Tensor(pooled[i : i + 1]), reg).data.tobytes(), i
        with pytest.raises(T.ShapeError):
            relation_logits(Tensor(pooled[:, None]), reg)


class TestEntityScores:
    def test_zero_down_projection_gives_zero_scores(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        for key in ("hs", "he", "ts", "te"):
            reg[f"entity.{key}.w_down"].data[:] = 0.0
        mask = np.array([NEG_INF, 0.0, 0.0, NEG_INF])
        features, rel = rng.normal(size=(4, 4)), rng.normal(size=(1, 4))
        scores = entity_scores(Tensor(features), Tensor(np.repeat(rel, 4, axis=0)), mask, reg)
        for vec in scores.values():
            out = vec.data.reshape(-1)
            assert out[1] == 0.0 and out[2] == 0.0
            assert out[0] == NEG_INF and out[3] == NEG_INF

    def test_four_vectors_of_length_m(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=1)
        features, rel = rng.normal(size=(6, 4)), rng.normal(size=(1, 4))
        scores = entity_scores(Tensor(features), Tensor(np.repeat(rel, 6, axis=0)), np.zeros(6), reg)
        assert set(scores) == {"hs", "he", "ts", "te"}
        for vec in scores.values():
            assert vec.shape == (6, 1)

    def test_matches_concat_tanh_oracle(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=7)
        features = rng.normal(size=(3, 4))
        rel = rng.normal(size=(1, 4))
        mask = np.array([0.0, 0.0, NEG_INF])
        # one relation row per feature row; the oracle pairs every row with the one row
        scores = entity_scores(Tensor(features), Tensor(np.repeat(rel, 3, axis=0)), mask, reg)
        for key in ("hs", "he", "ts", "te"):
            want = oracle_entity_scores(features, rel, reg[f"entity.{key}.w_down"].data,
                                        reg[f"entity.{key}.w_index"].data, mask)
            assert compare(key, scores[key].data.reshape(-1), want, 1e-10).passed

    def test_packed_rows_score_each_sentence_as_alone(self, rng):
        # sentences of mixed lengths back to back, each under its own relation
        # row, at the benchmark's width; a sentence has at least four rows,
        # [CLS], [LANG], one token and [SEP]
        reg = build_reg(toy_cfg(d_model=32), seed=2)
        lengths = [6, 4, 6, 9, 4, 5]
        features = rng.normal(size=(sum(lengths), 32)) * 10.0 ** rng.integers(-2, 3, size=(sum(lengths), 1))
        rels = np.repeat(rng.normal(size=(len(lengths), 32)), lengths, axis=0)
        masks = np.where(rng.random(sum(lengths)) < 0.3, NEG_INF, 0.0)
        packed = entity_scores(Tensor(features), Tensor(rels), masks, reg)
        for rows in np.split(np.arange(sum(lengths)), np.cumsum(lengths)[:-1]):
            alone = entity_scores(Tensor(features[rows]), Tensor(rels[rows]), masks[rows], reg)
            for key, t in packed.items():
                assert t.shape == (sum(lengths), 1)
                assert t.data[rows].tobytes() == alone[key].data.tobytes(), (rows, key)

    def test_relation_rows_must_align_with_feature_rows(self, rng):
        # 12 feature rows need 12 relation rows: neither 2 rows nor one per
        # sentence is broadcast over them; features are (m, d) rows only
        reg = build_reg(toy_cfg())
        features = rng.normal(size=(12, 4))
        for k in (1, 2, 3):
            with pytest.raises(T.ShapeError):
                entity_scores(Tensor(features), Tensor(rng.normal(size=(k, 4))), np.zeros(12), reg)
        with pytest.raises(T.ShapeError):
            entity_scores(Tensor(features.reshape(3, 4, 4)), Tensor(rng.normal(size=(12, 4))), np.zeros(12), reg)
        with pytest.raises(ValueError):
            entity_scores(Tensor(features), Tensor(rng.normal(size=(12, 4))), np.zeros(4), reg)

    def test_combined_head_gradient_check(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=5)
        features = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        rel = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        mask = np.zeros(4)
        params = {"features": features, "rel": rel,
                  **{n: t for n, t in reg.items() if n.startswith("entity.")}}

        def f():
            scores = entity_scores(features, T.gather_rows(rel, [0] * 4), mask, reg)
            ces = [T.cross_entropy(scores[k], g) for k, g in
                   (("hs", 0), ("he", 1), ("ts", 2), ("te", 3))]
            return T.mul(T.add_n(ces), 0.5)

        report = finite_diff_check(f, params, max_coords=5, rng=np.random.default_rng(2))
        assert report.max_rel_error < 1e-4


def sequential_decode(start_scores, end_scores):
    """The decode rule for one row: start = argmax, end = the best end at or
    after it, both breaking ties low."""
    start = int(np.argmax(start_scores))
    return start, start + int(np.argmax(end_scores[start:]))


class TestDecodeSpans:
    def _scores(self, hs, he, ts=None, te=None):
        # one row of (1, m) score arrays
        ts = ts if ts is not None else hs
        te = te if te is not None else he
        return {key: np.array([v], float) for key, v in (("hs", hs), ("he", he), ("ts", ts), ("te", te))}

    def test_simple_peaks(self):
        s = self._scores(hs=[0, 0, 5, 0, 0, 0], he=[0, 0, 0, 0, 5, 0])
        head, tail = decode_spans(s)
        assert head.tolist() == [[2, 4]]

    def test_end_constrained_to_follow_start(self):
        # end's global peak precedes the start; the best end at >= start wins
        s = self._scores(hs=[0, 0, 0, 5, 0, 0], he=[9, 0, 0, 0, 0, 3])
        head, _ = decode_spans(s)
        assert head.tolist() == [[3, 5]]

    def test_masked_ends_after_the_start_still_follow_it(self):
        # every end after the start is masked; the end stays at the start
        # rather than falling back on the unmasked position before it
        s = self._scores(hs=[0, 5, 0], he=[5, NEG_INF, NEG_INF])
        head, _ = decode_spans(s)
        assert head.tolist() == [[1, 1]]

    def test_all_masked_is_error(self):
        s = {k: np.full((1, 4), NEG_INF) for k in ("hs", "he", "ts", "te")}
        with pytest.raises(DataValidationError):
            decode_spans(s)

    @pytest.mark.parametrize("key", ["hs", "he", "ts", "te"])
    def test_one_all_masked_row_in_a_batch_is_error(self, rng, key):
        s = {k: rng.normal(size=(3, 5)) for k in ("hs", "he", "ts", "te")}
        s[key][1] = NEG_INF
        with pytest.raises(DataValidationError):
            decode_spans(s)

    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_rows_follow_the_sequential_rule(self, g, m, seed):
        # few distinct values, NEG_INF among them, so ties are common
        draw = np.random.default_rng(seed)
        values = np.array([NEG_INF, -1.0, 0.0, 0.5, 2.0])
        s = {k: values[draw.integers(1 if k in ("hs", "ts") else 0, 5, size=(g, m))] for k in ("hs", "he", "ts", "te")}
        for k in ("he", "te"):
            s[k][:, 0] = 0.0  # no row all masked
        head, tail = decode_spans(s)
        assert head.shape == tail.shape == (g, 2)
        for i in range(g):
            assert tuple(head[i]) == sequential_decode(s["hs"][i], s["he"][i])
            assert tuple(tail[i]) == sequential_decode(s["ts"][i], s["te"][i])

    def test_sequential_rule_with_bruteforce_diagnostic(self, rng):
        # the decode rule is sequential by construction; the exhaustive
        # pair-argmax may pick another span, but never one that scores less
        start = rng.normal(size=(200, 6))
        end = rng.normal(size=(200, 6))
        heads, _ = decode_spans({"hs": start, "he": end, "ts": start, "te": end})
        for row_start, row_end, head in zip(start, end, heads):
            assert tuple(head) == sequential_decode(row_start, row_end)
            pair = oracle_pair_argmax(row_start, row_end)
            assert pair[0] <= pair[1]
            assert row_start[pair[0]] + row_end[pair[1]] >= row_start[head[0]] + row_end[head[1]]


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
    cfg = toy_cfg(d_model=8, ffn_dim=16, bottleneck=12, max_len=24)
    model = Model.build(cfg, corpus.registry, init_seed=0)
    return corpus, model


class TestPredict:

    def test_predict_deterministic(self, tiny_setup):
        corpus, model = tiny_setup
        ex = corpus.train[0]
        a, b = (model.predict_all([ex])[0] for _ in range(2))
        assert (a.relation, a.head_span, a.tail_span) == (b.relation, b.head_span, b.tail_span)
        assert np.array_equal(a.relation_logits, b.relation_logits)

    def test_no_relation_prediction_has_sentinel_spans(self, tiny_setup):
        corpus, model = tiny_setup
        # force no_relation by masking everything else out
        model.languages.schema.allowed[:, 1:] = False
        try:
            pred = model.predict_all([corpus.train[0]])[0]
            assert pred.relation == 0
            assert pred.head_span == (-1, -1) and pred.tail_span == (-1, -1)
        finally:
            model.languages.schema.allowed[:, 1:] = True

    def test_predicted_spans_lie_in_content(self, tiny_setup):
        corpus, model = tiny_setup
        for ex, pred in zip(corpus.train[:10], model.predict_all(corpus.train[:10])):
            if pred.relation == 0:
                continue
            n = len(ex.tokens)
            assert 0 <= pred.head_span[0] <= pred.head_span[1] < n
            assert 0 <= pred.tail_span[0] <= pred.tail_span[1] < n

    def test_relation_conditioning_changes_entity_scores(self, tiny_setup):
        corpus, model = tiny_setup
        ex = next(e for e in corpus.train if e.relation != 0)
        split = model.tokenize([ex])
        _, feats = model._forward(split, np.arange(1), 1)
        out = {}
        for rel in (1, 2):
            out[rel] = model._entity_scores(feats, np.array([rel]), split.lengths)["hs"].data.copy()
        assert not np.allclose(out[1], out[2])
