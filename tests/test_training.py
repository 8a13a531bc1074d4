"""Two-stage training: the joint loss formula, freezing, determinism, resume,
and the degenerate s=1 contract."""

from dataclasses import replace

import numpy as np
import pytest

from relmux import tensor as T
from relmux.ablation import _restrict_corpus
from relmux.config import ModelConfig, RunConfig, TrainConfig
from relmux.corpus import LanguageSpec, RelationSchema, generate_corpus, language_pools
from relmux.aggregator import aggregate, build_aggregator_params
from relmux.encoder import build_encoder_params
from relmux.errors import NumericsError
from relmux.heads import ENTITY_KEYS, build_head_params, entity_scores, masked_argmax_relation, relation_logits
from relmux.model import Model, sentence_ere_loss
from relmux.params import ParamRegistry, load_checkpoint
from relmux.switcher import build_switcher_params, router_matrix, switch_eval, switch_train
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


def built_names(model: Model, *builders) -> list[str]:
    """The parameter names that ``builders`` register into a fresh registry,
    each given the size it takes from ``model``'s corpus."""
    langs = model.languages
    sizes = {build_encoder_params: (len(model.vocab),), build_switcher_params: (langs.n_languages,),
             build_head_params: (langs.n_relations,)}
    reg = ParamRegistry()
    for build in builders:
        build(reg, model.cfg, *sizes.get(build, ()), np.random.default_rng(0))
    return reg.names()


def epoch_mean_losses(log: TrainLog, stage: int) -> list[float]:
    """The mean step loss of each epoch of ``stage``, in epoch order."""
    by_epoch: dict[int, list[float]] = {}
    for line in log.lines:
        if line.get("stage") == stage and "loss" in line:
            by_epoch.setdefault(line["epoch"], []).append(line["loss"])
    return [float(np.mean(by_epoch[e])) for e in sorted(by_epoch)]


def batch_mean(losses: list[Tensor]) -> Tensor:
    if not losses:
        raise ValueError("empty batch")
    total = losses[0] if len(losses) == 1 else T.add_n(losses)
    return T.mul(total, 1.0 / len(losses))


def composed_sentence_loss(model, ts, pooled_encoder, feats, alpha, beta):
    """One sentence's joint loss from its encoder [CLS] row and its (m, d)
    features, each entity key its own cross entropy."""
    reg = model.registry
    rel_ce = T.cross_entropy(relation_logits(pooled_encoder, reg), ts.relation)
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
    logits = relation_logits(eo.pooled, reg).data.reshape(-1)
    relation = masked_argmax_relation(logits, model.languages.schema.allowed[ts.lang])
    if relation == 0:
        return logits, None
    rel_emb = T.narrow(reg["relation.emb"], 0, relation, 1)
    scores = entity_scores(feats, rel_emb, ts.content_position_mask(), reg)
    return logits, {key: t.data.reshape(-1) for key, t in scores.items()}


class TestBuild:
    def test_models_built_from_one_config_stay_independent(self):
        # the sizes come from each model's own corpus; building a second model
        # on a one-language corpus must not resize the first one's config
        corpus = tiny_corpus()
        cfg = tiny_run_cfg().model
        before = replace(cfg)
        first = Model.build(cfg, corpus.registry, init_seed=0)
        first.stage = 2
        examples = [next(ex for ex in corpus.dev if ex.lang == lang) for lang in range(3)]
        want = [first.predict(ex).relation_logits for ex in examples]
        Model.build(cfg, _restrict_corpus(corpus, [0]).registry, init_seed=0)
        assert router_matrix(first.registry, first.cfg).shape == (3, 3)
        for ex, logits in zip(examples, want):
            assert first.predict(ex).relation_logits.tobytes() == logits.tobytes()
        assert first.cfg == before


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
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        batch = [model.tokenize(e) for e in corpus.train if e.relation != 0][:2]
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
        pair = [corpus.train[0], next(e for e in corpus.train if e.lang != corpus.train[0].lang)]
        groups = [[model.tokenize(e) for e in pair]]
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
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        log = TrainLog()
        train_stage1(model, corpus, cfg, tmp_path, log)
        means = epoch_mean_losses(log, 1)
        assert len(means) == 6
        for a, b in zip(means, means[1:]):
            assert b < a

    def test_seeded_runs_bitwise_identical(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()

        def run(out):
            model = Model.build(cfg.model, corpus.registry, init_seed=cfg.train.seed)
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
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        # an equivalent manual single-sentence pipeline gives the same value
        manual = composed_stage1_loss(model, [[corpus.train[0]]], 2.0, 1.0)
        solo = model.stage1_batch_loss([[model.tokenize(corpus.train[0])]], 2.0, 1.0)
        assert solo.item() == pytest.approx(manual.item(), abs=1e-15)

    @pytest.mark.parametrize("s", [1, 2])
    def test_batched_loss_matches_single_sentence_composition(self, s):
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=3)
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

        tokenized = [[model.tokenize(ex) for ex in group] for group in groups]
        got, got_grads = grads(lambda: model.stage1_batch_loss(tokenized, 2.0, 1.0))
        want, want_grads = grads(lambda: composed_stage1_loss(model, groups, 2.0, 1.0))
        assert got == pytest.approx(want, abs=1e-12)
        assert set(got_grads) == set(want_grads)
        for name, g in want_grads.items():
            assert np.allclose(got_grads[name], g, rtol=0.0, atol=1e-12), name

    def test_unequal_groups_rejected(self):
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=0)
        with pytest.raises(ValueError, match="same size"):
            model.stage1_batch_loss([[model.tokenize(ex) for ex in group]
                                     for group in (corpus.train[:2], corpus.train[2:3])], 2.0, 1.0)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=4)
        straight = Model.build(cfg.model, corpus.registry, init_seed=0)
        train_stage1(straight, corpus, cfg, tmp_path / "straight", TrainLog())

        cfg_short = replace(cfg, train=replace(cfg.train, stage1_epochs=2))
        part = Model.build(cfg.model, corpus.registry, init_seed=0)
        train_stage1(part, corpus, cfg_short, tmp_path / "resumed", TrainLog())
        model2, snap, extra = Model.load(tmp_path / "resumed" / "stage1.ckpt", corpus.registry)
        assert extra is not None and extra["epochs_done"] == 2
        train_stage1(model2, corpus, cfg, tmp_path / "resumed", TrainLog(), resume_extra=extra)
        for name in straight.registry.names():
            assert np.array_equal(straight.registry[name].data, model2.registry[name].data), name

    def test_stage1_freezes_exactly_the_switcher(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=0)
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        model.registry.freeze(model.stage2_freeze_plan().frozen)
        train_stage1(model, corpus, cfg, tmp_path, TrainLog())
        frozen = [n for n, t in model.registry.items() if not t.requires_grad]
        assert sorted(frozen) == sorted(built_names(model, build_switcher_params))

    def test_nan_loss_aborts(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(lr=3e-3, stage1_epochs=1)
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        model.registry["encoder.tok_emb"].data[:] = np.nan
        with pytest.raises(NumericsError):
            train_stage1(model, corpus, cfg, tmp_path, TrainLog())


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stage2")
    corpus = tiny_corpus()
    cfg = tiny_run_cfg(stage1_epochs=2, stage2_max_epochs=3)
    model = Model.build(cfg.model, corpus.registry, init_seed=0)
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

    def test_freeze_plan_partitions_registry(self):
        # the encoder and aggregator freeze, the switcher and heads train;
        # identity routing also freezes its vestigial router
        corpus = tiny_corpus()
        for routing in ("learned", "identity"):
            model = Model.build(replace(tiny_run_cfg().model, routing=routing), corpus.registry, init_seed=0)
            frozen = built_names(model, build_encoder_params, build_aggregator_params)
            trainable = built_names(model, build_switcher_params, build_head_params)
            if routing == "identity":
                router = ["switcher.lang_emb", "switcher.w_router"]
                frozen += router
                trainable = [n for n in trainable if n not in router]
            plan = model.stage2_freeze_plan()
            assert sorted(plan.frozen) == sorted(frozen), routing
            assert sorted(plan.trainable) == sorted(trainable), routing

    def test_router_gradients_nonzero_after_first_step(self, trained):
        corpus, cfg, model, *_ = trained
        model.registry.zero_grad()
        batch = model.frozen_prefix([model.tokenize(ex) for ex in corpus.train[:4]], cfg.train.batch_size)
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
        fresh = Model.build(cfg.model, corpus.registry, init_seed=0)
        from relmux.errors import CheckpointError

        with pytest.raises(CheckpointError):
            train_stage2(fresh, corpus, cfg, tmp_path, TrainLog())

    def test_early_stopping_respects_patience(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=1, stage2_max_epochs=8, patience=1)
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        log = TrainLog()
        train_stage1(model, corpus, cfg, tmp_path, log)
        train_stage2(model, corpus, cfg, tmp_path, log)
        evals = [l for l in log.lines if "dev_triple_f1" in l]
        stops = [l for l in log.lines if l.get("early_stop")]
        assert len(evals) <= 8
        if len(evals) < 8:
            assert stops


def stage2_frozen_model(routing="learned", seed=6):
    """A tiny model frozen for stage 2, and its corpus."""
    corpus = tiny_corpus()
    model = Model.build(replace(tiny_run_cfg().model, routing=routing), corpus.registry, init_seed=seed)
    model.registry.freeze(model.stage2_freeze_plan().frozen)
    model.stage = 2
    return corpus, model


class TestBatchedStage2:
    @pytest.mark.parametrize("routing", ["learned", "identity"])
    def test_batch_matches_sentence_at_a_time(self, routing):
        """A batch drawn from a frozen-prefix table, of several languages,
        holding one sentence twice and one without a relation, gives the
        loss and every gradient of the sentence-at-a-time composition, both
        when its relation-bearing sentences differ in length and when they
        share one. Nothing is frozen, so the table passes gradients on to
        the encoder and the aggregator, and a row gathered from the wrong
        place would show there too."""
        corpus = tiny_corpus()
        cfg = replace(tiny_run_cfg().model, routing=routing)
        model = Model.build(cfg, corpus.registry, init_seed=6)
        lang_emb = model.registry["switcher.lang_emb"]
        # spread the languages' routing apart; at init it is near uniform
        lang_emb.data = np.random.default_rng(7).normal(size=lang_emb.shape)
        bearing = [ex for ex in corpus.train if ex.relation != 0]
        langs_at = {n: {ex.lang for ex in bearing if len(ex.tokens) == n} for n in {len(ex.tokens) for ex in bearing}}
        common = max(langs_at, key=lambda n: len(langs_at[n]))
        no_relation = next(ex for ex in corpus.train if ex.relation == 0)
        mixed = [pool[i] for i in range(2) for pool in language_pools(corpus.train)] + [no_relation]
        equal = [pool[i] for pool in language_pools([ex for ex in bearing if len(ex.tokens) == common])
                 for i in range(min(2, len(pool)))] + [no_relation]

        def loss_and_grads(loss_fn):
            model.registry.zero_grad()
            loss = loss_fn()
            loss.backward()
            return loss.item(), {n: t.grad.copy() for n, t in model.registry.items() if t.grad is not None}

        for batch, bearing_lengths in ((mixed, "several"), (equal, "one")):
            lengths = {len(ex.tokens) for ex in batch if ex.relation != 0}
            assert (len(lengths) > 1) == (bearing_lengths == "several")
            assert len({ex.lang for ex in batch}) >= 2
            assert {ex.relation == 0 for ex in batch} == {True, False}
            again = next(i for i, ex in enumerate(batch) if ex.relation != 0)

            def table_loss():
                # a fresh table per loss: its rows hold the last backward's gradients
                entries = model.frozen_prefix([model.tokenize(ex) for ex in batch], 2)
                return model.stage2_batch_loss(entries + [entries[again]], 2.0, 1.0)

            got_loss, got = loss_and_grads(table_loss)
            want_loss, want = loss_and_grads(lambda: composed_stage2_loss(model, batch + [batch[again]], 2.0, 1.0))
            assert abs(got_loss - want_loss) <= 1e-12, bearing_lengths
            assert got.keys() == want.keys()
            assert "encoder.tok_emb" in got and "switcher.sub0.layer0.w_up" in got
            for name, g in want.items():
                assert np.abs(got[name] - g).max() <= 1e-12, (bearing_lengths, name)

    def test_chunked_table_is_bitwise_the_whole_bucket_table(self):
        corpus, model = stage2_frozen_model()
        tss = [model.tokenize(ex) for ex in corpus.train]
        chunk = 3
        lengths = [ts.length for ts in tss]
        assert max(lengths.count(n) for n in set(lengths)) > chunk
        chunked = model.frozen_prefix(tss, chunk)
        whole = model.frozen_prefix(tss, len(tss))
        for ts, a, b in zip(tss, chunked, whole):
            assert a.ts is ts and b.ts is ts and a.length == b.length == ts.length
            assert a.table.pooled.data[a.index].tobytes() == b.table.pooled.data[b.index].tobytes()
            rows_a = a.table.rows.data[a.start : a.start + a.length]
            rows_b = b.table.rows.data[b.start : b.start + b.length]
            assert rows_a.tobytes() == rows_b.tobytes()

    def test_step_runs_no_frozen_layer(self, monkeypatch):
        import relmux.model

        corpus, model = stage2_frozen_model()
        entries = model.frozen_prefix([model.tokenize(ex) for ex in corpus.train], 8)

        def frozen_layer(*args, **kwargs):
            raise AssertionError("a stage-2 step ran a frozen layer")

        monkeypatch.setattr(relmux.model, "encode", frozen_layer)
        monkeypatch.setattr(relmux.model, "aggregate", frozen_layer)
        loss = model.stage2_batch_loss(entries[:8], 2.0, 1.0)
        frozen = {id(t) for n, t in model.registry.items() if n.startswith(("encoder.", "aggregator."))}
        tape = T._toposort(loss)
        assert len(tape) > 1
        assert not any(id(node) in frozen for node in tape)
        # the table's rows reach the tape only as leaves
        assert all(node.requires_grad or not node._parents for node in tape)
        loss.backward()
        assert all(t.grad is None for _, t in model.registry.items() if id(t) in frozen)


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
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        log = TrainLog()
        train_stage1(model, corpus, cfg, tmp_path, log)
        step_lines = [l for l in log.lines if "loss" in l]
        assert step_lines
        for line in step_lines:
            assert {"stage", "step", "loss", "relation_ce", "entity_ce", "lr"} <= set(line)


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
    def test_predict_is_bitwise_the_straight_composition(self, stage):
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=4)
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
    def test_load_draws_no_init_and_keeps_every_bit(self, tmp_path, monkeypatch):
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=3)
        model.save(tmp_path / "m.ckpt")

        def no_draws(*args, **kwargs):
            raise AssertionError("Model.load drew a random initialization")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        again, _, _ = Model.load(tmp_path / "m.ckpt", corpus.registry)
        assert again.registry.names() == model.registry.names()
        for name, t in model.registry.items():
            assert again.registry[name].data.tobytes() == t.data.tobytes(), name

    def test_save_load_eval_reproduces_metrics(self, tmp_path):
        from relmux.evaluation import evaluate_model

        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=1)
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        train_stage1(model, corpus, cfg, tmp_path, TrainLog())
        before = evaluate_model(model, corpus.dev, corpus.registry)
        again, snap, extra = Model.load(tmp_path / "stage1.ckpt", corpus.registry)
        after = evaluate_model(again, corpus.dev, corpus.registry)
        assert before.to_json() == after.to_json()
