"""Ablation drivers on a miniature corpus: row contracts and variant wiring.

These exercise the sweep machinery end to end with one-epoch trainings; the
substantive comparisons (monolingual vs multilingual, stage-2 benefit) run at
full desk scale in the acceptance suite.
"""

from dataclasses import replace

import numpy as np
import pytest

from relmux import ablation
from relmux import tensor as T
from relmux.ablation import _restrict_corpus, run_ablation
from relmux.config import ModelConfig, RunConfig, TrainConfig
from relmux.corpus import LanguageSpec, RelationSchema, check_group_size, generate_corpus
from relmux.heads import masked_argmax_relation, relation_logits
from relmux.switcher import switch_train


@pytest.fixture(scope="module")
def mini():
    langs = [
        LanguageSpec(0, "valo", "SVO", "valic", 16),
        LanguageSpec(1, "vena", "SVO", "valic", 14),
        LanguageSpec(2, "koru", "SOV", "korvic", 12),
        LanguageSpec(3, "zahr", "VSO", "zahric", 10),
    ]
    rels = ("no_relation", "has-kind", "locat-in", "works-for")
    schema = RelationSchema(relations=rels, allowed=np.ones((4, 4), dtype=bool))
    corpus = generate_corpus(langs, schema, seed=9)
    cfg = RunConfig(
        model=ModelConfig(d_model=8, n_blocks=1, n_heads=2, ffn_dim=16, max_len=32,
                          n_sub_modules=3, sub_layers=(1, 1, 1), bottleneck=16, eval_top_k=2),
        train=TrainConfig(stage1_epochs=1, stage2_max_epochs=1, patience=2, batch_size=8,
                          concat_sentences=2, lr=3e-3, seed=0),
    )
    return corpus, cfg


class TestDrivers:
    def test_concat_count_produces_four_variants(self, mini, tmp_path):
        corpus, cfg = mini
        rows = run_ablation("concat_count", corpus, cfg, tmp_path)
        variants = {r["variant"] for r in rows}
        assert variants == {"s=1", "s=2", "s=3", "s=4"}
        csv = (tmp_path / "concat_count.csv").read_text().splitlines()
        assert csv[0] == "variant,language,triple_f1"
        # per variant: one row per language + the AVG row
        assert len(csv) - 1 == 4 * (corpus.registry.n_languages + 1)

    def test_topk_sweep_k_equals_t_matches_train_mode_mixing(self, mini, tmp_path):
        corpus, cfg = mini
        rows = run_ablation("topk_sweep", corpus, cfg, tmp_path)
        assert {r["variant"] for r in rows} == {"k=1", "k=2", "k=3"}
        # re-evaluate the trained checkpoint with explicit train-mode mixing
        from relmux.model import Model, _content_rows

        model, snap, _ = Model.load(tmp_path / "base" / "stage2.ckpt", corpus.registry)

        t_total = model.cfg.n_sub_modules
        scored = 0
        examples = corpus.test[:20]
        for exm, pred in zip(examples, model.predict_all(examples, top_k=t_total, dump_scores=True)):
            split = model.tokenize([exm])
            pooled, fused = model._forward(split, np.arange(1), 1)
            logits = relation_logits(pooled, model.registry).data
            assert pred.relation == masked_argmax_relation(logits, model.languages.schema.allowed, split.langs)[0]
            if pred.relation == 0:
                continue
            scored += 1
            # the entity scores read the mixed content rows, whatever the relation head reads
            _, sizes, content = _content_rows(split.starts, split.lengths, [True])
            feats = switch_train(T.gather_rows(fused, content), exm.lang, model.registry, model.cfg)
            want = model._entity_scores(feats, np.array([pred.relation]), sizes)
            for key, t in want.items():
                gap = np.abs(pred.entity_scores[key][content] - t.data.reshape(-1)).max()
                assert gap <= 1e-12, (key, gap)
        assert scored > 0

    def test_layer_numbers_variants(self, mini, tmp_path):
        corpus, cfg = mini
        rows = run_ablation("layer_numbers", corpus, cfg, tmp_path)
        assert {r["variant"] for r in rows} == {"layers=1-1", "layers=1-2", "layers=2-2"}

    def test_mono_vs_multi_rows(self, mini, tmp_path):
        # the shared model scores every language and AVG; each monolingual
        # model scores only its own language
        corpus, cfg = mini
        rows = run_ablation("mono_vs_multi", corpus, cfg, tmp_path)
        codes = [lang.code for lang in corpus.registry.languages]
        want = [("multilingual", code) for code in [*codes, "AVG"]] + [(f"mono_{code}", code) for code in codes]
        assert [(r["variant"], r["language"]) for r in rows] == want

    def test_language_groups_variants(self, mini, tmp_path):
        corpus, cfg = mini
        rows = run_ablation("language_groups", corpus, cfg, tmp_path)
        variants = {r["variant"] for r in rows}
        assert "all" in variants and "family_valic" in variants and "svo" in variants

    def test_no_selection_uses_one_submodule_per_language(self, mini, tmp_path):
        corpus, cfg = mini
        rows = run_ablation("no_selection_T_experts", corpus, cfg, tmp_path)
        assert {r["variant"] for r in rows} == {"routed", "one_per_language"}
        from relmux.model import Model

        model, snap, _ = Model.load(tmp_path / "one_per_language" / "stage2.ckpt", corpus.registry)
        assert model.cfg.routing == "identity"
        assert model.cfg.n_sub_modules == corpus.registry.n_languages
        from relmux.switcher import router_matrix

        for lang in range(corpus.registry.n_languages):
            probs = router_matrix(model.registry, model.cfg)[:, lang]
            assert probs[lang] == 1.0

    def test_unknown_name_rejected(self, mini, tmp_path):
        corpus, cfg = mini
        from relmux.errors import ConfigError

        with pytest.raises(ConfigError):
            run_ablation("bogus", corpus, cfg, tmp_path)

    def test_unknown_name_leaves_no_directory(self, mini, tmp_path):
        corpus, cfg = mini
        from relmux.errors import ConfigError

        with pytest.raises(ConfigError):
            run_ablation("bogus", corpus, cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_shared_seeds_across_variants(self, mini, tmp_path):
        # the same seed drives every variant: two runs of the same sweep agree
        corpus, cfg = mini
        rows1 = run_ablation("topk_sweep", corpus, cfg, tmp_path / "a")
        rows2 = run_ablation("topk_sweep", corpus, cfg, tmp_path / "b")
        assert rows1 == rows2


def recorded_variants(monkeypatch, name, corpus, cfg, out_dir):
    """The (variant, language codes, config) of each variant the sweep
    ``name`` trains, in order, with training and scoring stubbed out; each
    config passes ``RunConfig.validate``, and its group size
    ``check_group_size`` over the languages of its training split."""
    seen = []

    def train_two_stage(variant_corpus, run_cfg, variant_dir):
        seen.append((variant_dir.name, [l.code for l in variant_corpus.registry.languages], run_cfg))
        run_cfg.validate()
        check_group_size(run_cfg.train.concat_sentences, len({ex.lang for ex in variant_corpus.train}))

    def test_scores(model, variant_corpus, top_k=None):
        return {**{l.code: 0.0 for l in variant_corpus.registry.languages}, "AVG": 0.0}

    monkeypatch.setattr(ablation, "train_two_stage", train_two_stage)
    monkeypatch.setattr(ablation, "_test_scores", test_scores)
    run_ablation(name, corpus, cfg, out_dir)
    return seen


class TestVariantConfigs:
    """Every variant a sweep trains is a valid run, whatever the base config
    allows: no sweep fails after training its earlier variants."""

    def test_concat_count_skips_groups_past_the_token_cap(self, mini, tmp_path, monkeypatch):
        # 2 x 128 tokens fill the cap of 256 exactly, and 3 x 128 pass it
        corpus, cfg = mini
        cfg = replace(cfg, model=replace(cfg.model, max_len=128))
        seen = recorded_variants(monkeypatch, "concat_count", corpus, cfg, tmp_path)
        assert [(d, c.train.concat_sentences) for d, _, c in seen] == [("s1", 1), ("s2", 2)]

    def test_language_groups_skips_groups_smaller_than_s(self, mini, tmp_path, monkeypatch):
        corpus, cfg = mini
        seen = recorded_variants(monkeypatch, "language_groups", corpus, cfg, tmp_path)
        # the largest family and the SVO languages, each of two languages
        assert [(d, codes) for d, codes, _ in seen] == [
            ("all", ["valo", "vena", "koru", "zahr"]), ("family_valic", ["valo", "vena"]), ("svo", ["valo", "vena"]),
        ]
        cfg = replace(cfg, train=replace(cfg.train, concat_sentences=3))
        seen = recorded_variants(monkeypatch, "language_groups", corpus, cfg, tmp_path)
        assert [d for d, _, _ in seen] == ["all"]

    def test_no_selection_cuts_eval_top_k_to_the_languages(self, mini, tmp_path, monkeypatch):
        corpus, cfg = mini
        three = _restrict_corpus(corpus, [0, 1, 2])
        cfg = replace(cfg, model=replace(cfg.model, n_sub_modules=4, sub_layers=(1, 1, 1, 1), eval_top_k=4))
        seen = recorded_variants(monkeypatch, "no_selection_T_experts", three, cfg, tmp_path)
        assert [(d, c.model.routing, c.model.n_sub_modules, c.model.eval_top_k) for d, _, c in seen] == [
            ("routed", "learned", 4, 4), ("one_per_language", "identity", 3, 3),
        ]
