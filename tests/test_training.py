"""Two-stage training: the joint loss formula, freezing, determinism, resume,
and the degenerate s=1 contract."""

from dataclasses import replace

import numpy as np
import pytest

from relmux import tensor as T
from relmux.config import ModelConfig, RunConfig, TrainConfig
from relmux.corpus import LanguageSpec, RelationSchema, generate_corpus
from relmux.aggregator import aggregate
from relmux.errors import NumericsError
from relmux.heads import ENTITY_KEYS, entity_scores, masked_argmax_relation, relation_logits
from relmux.model import Model, sentence_ere_loss
from relmux.params import load_checkpoint
from relmux.switcher import switch_eval, switch_train
from relmux.training import TrainLog, train_stage1, train_stage2
from relmux.tensor import Tensor

from gradcheck import finite_diff_check
from test_encoder import encode_one


def tiny_corpus(seed=5, sizes=(32, 28, 20)):
    langs = [
        LanguageSpec(0, "valo", "SVO", "valic", sizes[0]),
        LanguageSpec(1, "koru", "SOV", "korvic", sizes[1]),
        LanguageSpec(2, "zahr", "VSO", "zahric", sizes[2]),
    ]
    rels = ("no_relation", "has-kind", "locat-in", "works-for", "made-by")
    schema = RelationSchema(relations=rels, allowed=np.ones((3, 5), dtype=bool))
    return generate_corpus(langs, schema, seed=seed)


def tiny_run_cfg(**train_kw):
    train = dict(stage1_epochs=2, stage2_max_epochs=2, patience=5, batch_size=8,
                 concat_sentences=2, lr=3e-3, seed=0)
    train.update(train_kw)
    return RunConfig(
        model=ModelConfig(d_model=16, n_blocks=1, n_heads=2, ffn_dim=32, max_len=32,
                          n_sub_modules=3, sub_layers=(2, 1, 1), bottleneck=32, eval_top_k=2),
        train=TrainConfig(**train),
    )


def batch_mean(losses: list[Tensor]) -> Tensor:
    if not losses:
        raise ValueError("empty batch")
    total = losses[0] if len(losses) == 1 else T.add_n(losses)
    return T.mul(total, 1.0 / len(losses))


def composed_sentence_loss(model, ts, pooled_encoder, feats, alpha, beta):
    """One sentence's joint loss from its encoder [CLS] row and its (m, d)
    features, each entity key its own cross entropy."""
    reg, cfg = model.registry, model.cfg
    pooled = pooled_encoder if cfg.relation_pooled_from == "encoder" else T.narrow(feats, 0, 0, 1)
    rel_ce = T.cross_entropy(relation_logits(pooled, reg), ts.relation)
    entity_ces = []
    if ts.relation != 0:
        rel_emb = T.narrow(reg["relation.emb"], 0, ts.relation, 1)
        scores = entity_scores(feats, rel_emb, ts.content_position_mask(), reg)
        golds = ts.head_span + ts.tail_span
        entity_ces = [T.cross_entropy(scores[key], g) for key, g in zip(ENTITY_KEYS, golds)]
    return sentence_ere_loss(rel_ce, entity_ces, alpha, beta)


def composed_stage1_loss(model, groups, alpha, beta):
    """The stage-1 loss composed one sentence at a time: each sentence encoded
    alone, each group aggregated over its members' concatenated rows, and each
    sentence's heads and joint loss computed alone."""
    reg, cfg = model.registry, model.cfg
    losses = []
    for group in groups:
        tss = [model.tokenize(ex) for ex in group]
        encoded = [encode_one(ts, reg, cfg) for ts in tss]
        total = sum(ts.length for ts in tss)
        h_cat = T.reshape(T.concat([eo.hidden for eo in encoded], axis=0), (1, total, cfg.d_model))
        fused = T.reshape(aggregate(h_cat, np.ones((1, total), dtype=bool), reg, cfg), (total, cfg.d_model))
        offset = 0
        for ts, eo in zip(tss, encoded):
            feats = T.narrow(fused, 0, offset, ts.length)
            offset += ts.length
            losses.append(composed_sentence_loss(model, ts, eo.pooled, feats, alpha, beta))
    return batch_mean(losses)


def composed_stage2_loss(model, batch, alpha, beta):
    """The stage-2 loss composed one sentence at a time: each sentence encoded
    and aggregated alone, unpadded, switched under its own language, and its
    heads and joint loss computed alone."""
    reg, cfg = model.registry, model.cfg
    losses = []
    for ex in batch:
        ts = model.tokenize(ex)
        m, d = ts.length, cfg.d_model
        eo = encode_one(ts, reg, cfg)
        fused = T.reshape(aggregate(T.reshape(eo.hidden, (1, m, d)), ts.attention_mask[None], reg, cfg), (m, d))
        feats = switch_train(fused, ts.lang, reg, cfg)
        losses.append(composed_sentence_loss(model, ts, eo.pooled, feats, alpha, beta))
    return batch_mean(losses)


def composed_predict(model, ex, k):
    """One prediction's relation logits and entity scores (None when it
    predicts no relation), composed straight: encode, aggregate as a group of
    one, switch_eval from stage 2 on, the relation head and the masked argmax,
    then the entity scores under the predicted relation."""
    reg, cfg = model.registry, model.cfg
    ts = model.tokenize(ex)
    m, d = ts.length, cfg.d_model
    eo = encode_one(ts, reg, cfg)
    feats = T.reshape(aggregate(T.reshape(eo.hidden, (1, m, d)), ts.attention_mask[None], reg, cfg), (m, d))
    if model.stage >= 2:
        feats, _ = switch_eval(feats, ts.lang, reg, cfg, k)
    pooled = eo.pooled if cfg.relation_pooled_from == "encoder" else T.narrow(feats, 0, 0, 1)
    logits = relation_logits(pooled, reg).data.reshape(-1)
    relation = masked_argmax_relation(logits, model.languages.schema.allowed[ts.lang])
    if relation == 0:
        return logits, None
    rel_emb = T.narrow(reg["relation.emb"], 0, relation, 1)
    scores = entity_scores(feats, rel_emb, ts.content_position_mask(), reg)
    return logits, {key: t.data.reshape(-1) for key, t in scores.items()}


class TestLossFormula:
    def test_exact_substitution(self):
        entity = [Tensor(1.0) for _ in range(4)]
        rel = Tensor(0.5)
        loss = sentence_ere_loss(rel, entity, alpha=2.0, beta=1.0)
        assert loss.item() == 4.5  # (2/2)*4 + 1*0.5, exactly

    def test_batch_average(self):
        l1 = sentence_ere_loss(Tensor(0.5), [Tensor(1.0)] * 4, 2.0, 1.0)
        l2 = sentence_ere_loss(Tensor(1.5), [], 2.0, 1.0)  # no_relation sentence
        assert batch_mean([l1, l2]).item() == pytest.approx((4.5 + 1.5) / 2, abs=1e-15)

    def test_alpha_beta_weighting(self):
        entity = [Tensor(1.0) for _ in range(4)]
        loss = sentence_ere_loss(Tensor(2.0), entity, alpha=3.0, beta=0.25)
        assert loss.item() == pytest.approx((3.0 / 2.0) * 4.0 + 0.25 * 2.0, abs=1e-15)

    def test_beta_zero_kills_relation_gradient(self):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        model = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
        batch = [e for e in corpus.train if e.relation != 0][:2]
        model.registry.zero_grad()
        loss = model.stage1_batch_loss([batch], alpha=2.0, beta=0.0)
        loss.backward()
        g = model.registry["relation.w_cls"].grad
        assert g is None or np.allclose(g, 0.0)

    def test_full_loss_gradient_check(self):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        model = Model.build(replace(cfg.model, d_model=8, ffn_dim=16, bottleneck=12),
                            corpus.registry, init_seed=1)
        groups = [[corpus.train[0], next(e for e in corpus.train if e.lang != corpus.train[0].lang)]]
        params = {n: t for n, t in model.registry.items() if not n.startswith("switcher.")}
        report = finite_diff_check(
            lambda: model.stage1_batch_loss(groups, 2.0, 1.0),
            params, max_coords=2, rng=np.random.default_rng(0),
        )
        assert report.max_rel_error < 1e-4


class TestStage1:
    def test_epoch_losses_decrease_on_overfit_corpus(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=6, batch_size=8)
        model = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
        log = TrainLog()
        train_stage1(model, corpus, cfg, tmp_path, log)
        means = log.epoch_mean_losses(1)
        assert len(means) == 6
        for a, b in zip(means, means[1:]):
            assert b < a

    def test_seeded_runs_bitwise_identical(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()

        def run(out):
            model = Model.build(replace(cfg.model), corpus.registry, init_seed=cfg.train.seed)
            log = TrainLog()
            train_stage1(model, corpus, cfg, out, log)
            return model, [l["loss"] for l in log.lines if "loss" in l]

        m1, losses1 = run(tmp_path / "a")
        m2, losses2 = run(tmp_path / "b")
        assert losses1 == losses2
        for name in m1.registry.names():
            assert np.array_equal(m1.registry[name].data, m2.registry[name].data)

    def test_s1_reduces_to_per_sentence_training(self, tmp_path):
        # a group of one sentence must produce that sentence's joint loss
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(concat_sentences=1, stage1_epochs=1)
        model = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
        # an equivalent manual single-sentence pipeline gives the same value
        manual = composed_stage1_loss(model, [[corpus.train[0]]], 2.0, 1.0)
        solo = model.stage1_batch_loss([[corpus.train[0]]], 2.0, 1.0)
        assert solo.item() == pytest.approx(manual.item(), abs=1e-15)

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("pooled_from", ["encoder", "switched"])
    def test_batched_loss_matches_single_sentence_composition(self, s, pooled_from):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        model = Model.build(replace(cfg.model, relation_pooled_from=pooled_from),
                            corpus.registry, init_seed=3)
        model.registry.freeze([n for n in model.registry.names() if n.startswith("switcher.")])
        # distinct languages within a group; no_relation and entity-bearing
        # sentences alternate
        pools = {}
        for ex in corpus.train:
            pools.setdefault((ex.lang, ex.relation != 0), []).append(ex)
        groups = [[pools[((g + j) % 3, (g + j) % 2 == 1)][g // 3] for j in range(s)] for g in range(6)]
        batch = [ex for group in groups for ex in group]
        assert len({len(ex.tokens) for ex in batch}) > 1
        assert any(ex.relation == 0 for ex in batch) and any(ex.relation != 0 for ex in batch)

        def grads(f):
            model.registry.zero_grad()
            loss = f()
            loss.backward()
            return loss.item(), {n: t.grad.copy() for n, t in model.registry.items() if t.grad is not None}

        got, got_grads = grads(lambda: model.stage1_batch_loss(groups, 2.0, 1.0))
        want, want_grads = grads(lambda: composed_stage1_loss(model, groups, 2.0, 1.0))
        assert got == pytest.approx(want, abs=1e-12)
        assert set(got_grads) == set(want_grads)
        for name, g in want_grads.items():
            assert np.allclose(got_grads[name], g, rtol=0.0, atol=1e-12), name

    def test_unequal_groups_rejected(self):
        corpus = tiny_corpus()
        model = Model.build(replace(tiny_run_cfg().model), corpus.registry, init_seed=0)
        with pytest.raises(ValueError, match="same size"):
            model.stage1_batch_loss([corpus.train[:2], corpus.train[2:3]], 2.0, 1.0)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=4)
        straight = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
        train_stage1(straight, corpus, cfg, tmp_path / "straight", TrainLog())

        cfg_short = replace(cfg, train=replace(cfg.train, stage1_epochs=2))
        part = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
        train_stage1(part, corpus, cfg_short, tmp_path / "resumed", TrainLog())
        model2, snap, extra = Model.load(tmp_path / "resumed" / "stage1.ckpt", corpus.registry)
        assert extra is not None and extra["epochs_done"] == 2
        train_stage1(model2, corpus, cfg, tmp_path / "resumed", TrainLog(), resume_extra=extra)
        for name in straight.registry.names():
            assert np.array_equal(straight.registry[name].data, model2.registry[name].data), name

    def test_nan_loss_aborts(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(lr=3e-3, stage1_epochs=1)
        model = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
        model.registry["encoder.tok_emb"].data[:] = np.nan
        with pytest.raises(NumericsError):
            train_stage1(model, corpus, cfg, tmp_path, TrainLog())


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stage2")
    corpus = tiny_corpus()
    cfg = tiny_run_cfg(stage1_epochs=2, stage2_max_epochs=3)
    model = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
    log = TrainLog()
    ck1 = train_stage1(model, corpus, cfg, tmp, log)
    stage1_arrays = {n: t.data.copy() for n, t in model.registry.items()}
    ck2 = train_stage2(model, corpus, cfg, tmp, log)
    return corpus, cfg, model, stage1_arrays, ck1, ck2, log


class TestStage2:

    def test_frozen_set_bitwise_identical(self, trained):
        corpus, cfg, model, stage1_arrays, ck1, ck2, log = trained
        plan = model.stage2_freeze_plan()
        for name in plan.frozen:
            assert np.array_equal(model.registry[name].data, stage1_arrays[name]), name
        # and the trainable set did move
        moved = [n for n in plan.trainable
                 if not np.array_equal(model.registry[n].data, stage1_arrays[n])]
        assert moved

    def test_freeze_plan_partitions_registry(self, trained):
        corpus, cfg, model, *_ = trained
        plan = model.stage2_freeze_plan()
        assert set(plan.frozen) | set(plan.trainable) == set(model.registry.names())
        assert not set(plan.frozen) & set(plan.trainable)

    def test_router_gradients_nonzero_after_first_step(self, trained):
        corpus, cfg, model, *_ = trained
        model.registry.zero_grad()
        batch = corpus.train[:4]
        loss = model.stage2_batch_loss(batch, 2.0, 1.0)
        loss.backward()
        assert np.linalg.norm(model.registry["switcher.lang_emb"].grad) > 0
        assert np.linalg.norm(model.registry["switcher.w_router"].grad) > 0

    def test_checkpoint_contains_stage_and_config(self, trained):
        corpus, cfg, model, stage1_arrays, ck1, ck2, log = trained
        snap, params, extra = load_checkpoint(ck2)
        assert snap["stage"] == 2
        assert snap["model"]["d_model"] == cfg.model.d_model
        assert set(params) == set(model.registry.names())

    def test_stage2_requires_stage1_model(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        fresh = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
        from relmux.errors import CheckpointError

        with pytest.raises(CheckpointError):
            train_stage2(fresh, corpus, cfg, tmp_path, TrainLog())

    def test_early_stopping_respects_patience(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=1, stage2_max_epochs=8, patience=1)
        model = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
        log = TrainLog()
        train_stage1(model, corpus, cfg, tmp_path, log)
        train_stage2(model, corpus, cfg, tmp_path, log)
        evals = [l for l in log.lines if "dev_triple_f1" in l]
        stops = [l for l in log.lines if l.get("early_stop")]
        assert len(evals) <= 8
        if len(evals) < 8:
            assert stops


class TestBatchedStage2:
    @pytest.mark.parametrize("routing", ["learned", "identity"])
    @pytest.mark.parametrize("pooled_from", ["encoder", "switched"])
    def test_batch_matches_sentence_at_a_time(self, pooled_from, routing):
        """One padded pass over a batch of mixed lengths and languages gives
        the loss and every gradient of the sentence-at-a-time composition.
        Nothing is frozen, so a gradient leaking through PAD rows into the
        encoder or the aggregator would show too."""
        corpus = tiny_corpus()
        cfg = replace(tiny_run_cfg().model, relation_pooled_from=pooled_from, routing=routing)
        model = Model.build(cfg, corpus.registry, init_seed=6)
        lang_emb = model.registry["switcher.lang_emb"]
        # spread the languages' routing apart; at init it is near uniform
        lang_emb.data = np.random.default_rng(7).normal(size=lang_emb.shape)
        by_lang = {}
        for ex in corpus.train:
            by_lang.setdefault(ex.lang, []).append(ex)
        batch = [by_lang[lang][i] for i in range(2) for lang in sorted(by_lang)]
        batch.append(next(ex for ex in corpus.train if ex.relation == 0))
        assert len({len(ex.tokens) for ex in batch}) > 1
        assert len({ex.lang for ex in batch}) >= 2
        assert {ex.relation == 0 for ex in batch} == {True, False}

        def loss_and_grads(loss_fn):
            model.registry.zero_grad()
            loss = loss_fn()
            loss.backward()
            return loss.item(), {n: t.grad.copy() for n, t in model.registry.items() if t.grad is not None}

        got_loss, got = loss_and_grads(lambda: model.stage2_batch_loss(batch, 2.0, 1.0))
        want_loss, want = loss_and_grads(lambda: composed_stage2_loss(model, batch, 2.0, 1.0))
        assert abs(got_loss - want_loss) <= 1e-12
        assert got.keys() == want.keys()
        assert "encoder.tok_emb" in got and "switcher.sub0.layer0.w_up" in got
        for name, g in want.items():
            assert np.abs(got[name] - g).max() <= 1e-12, name


class TestLossProperties:
    def test_loss_nonnegative(self, rng):
        # cross-entropy terms are nonnegative, so the weighted sum must be too
        for _ in range(50):
            rel = Tensor(float(rng.exponential()))
            ents = [Tensor(float(rng.exponential())) for _ in range(4)]
            if rng.random() < 0.3:
                ents = []
            alpha = float(rng.uniform(0.1, 5))
            beta = float(rng.uniform(0.1, 5))
            assert sentence_ere_loss(rel, ents, alpha, beta).item() >= 0.0

    def test_log_lines_carry_components_and_lr(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=1)
        model = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
        log = TrainLog()
        train_stage1(model, corpus, cfg, tmp_path, log)
        step_lines = [l for l in log.lines if "loss" in l]
        assert step_lines
        for line in step_lines:
            assert {"stage", "step", "loss", "relation_ce", "entity_ce", "lr"} <= set(line)

    def test_relation_pooling_source_flag_changes_behavior(self):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        model = Model.build(replace(cfg.model), corpus.registry, init_seed=3)
        model.stage = 2
        ex = corpus.train[0]
        enc_pred = model.predict(ex)
        model.cfg.relation_pooled_from = "switched"
        sw_pred = model.predict(ex)
        model.cfg.relation_pooled_from = "encoder"
        assert not np.array_equal(enc_pred.relation_logits, sw_pred.relation_logits)


class TestConditioningOnTrainedModel:
    def test_relation_embedding_permutation_changes_scores(self, trained):
        corpus, cfg, model, *_ = trained
        from relmux.heads import entity_scores

        ex = next(e for e in corpus.train if e.relation != 0)
        ts = model.tokenize(ex)
        _, feats = model._forward([ts], 1)
        mask = ts.content_position_mask(feats.shape[0])
        outputs = {}
        for rel in (1, 2):
            emb = T.narrow(model.registry["relation.emb"], 0, rel, 1)
            outputs[rel] = entity_scores(feats, emb, mask, model.registry)["hs"].data.copy()
        assert not np.allclose(outputs[1], outputs[2])


class TestPredictComposition:
    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("pooled_from", ["encoder", "switched"])
    def test_predict_is_bitwise_the_straight_composition(self, stage, pooled_from):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        model = Model.build(replace(cfg.model, relation_pooled_from=pooled_from), corpus.registry, init_seed=4)
        model.stage = stage
        top_ks = range(1, model.cfg.n_sub_modules + 1) if stage == 2 else [None]
        scored = 0
        for ex in corpus.dev[:12]:
            for k in top_ks:
                pred = model.predict(ex, top_k=k, dump_scores=True)
                logits, scores = composed_predict(model, ex, k)
                assert pred.relation_logits.tobytes() == logits.tobytes()
                if scores is None:
                    assert pred.relation == 0 and pred.entity_scores is None
                    continue
                scored += 1
                assert pred.entity_scores.keys() == scores.keys()
                for key, want in scores.items():
                    assert pred.entity_scores[key].tobytes() == want.tobytes(), key
        assert scored > 0


class TestCheckpointRoundTrip:
    def test_save_load_eval_reproduces_metrics(self, tmp_path):
        from relmux.evaluation import evaluate_model

        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=1)
        model = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
        train_stage1(model, corpus, cfg, tmp_path, TrainLog())
        before = evaluate_model(model, corpus.dev, corpus.registry)
        again, snap, extra = Model.load(tmp_path / "stage1.ckpt", corpus.registry)
        after = evaluate_model(again, corpus.dev, corpus.registry)
        assert before.to_json() == after.to_json()
