"""Ablation drivers on a miniature corpus: row contracts and variant wiring.

These exercise the sweep machinery end to end with one-epoch trainings; the
substantive comparisons (monolingual vs multilingual, stage-2 benefit) run at
full desk scale in the acceptance suite.
"""

import numpy as np
import pytest

from relmux import tensor as T
from relmux.ablation import run_ablation
from relmux.config import ModelConfig, RunConfig, TrainConfig
from relmux.corpus import LanguageSpec, RelationSchema, generate_corpus
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
