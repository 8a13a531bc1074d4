"""Two-stage training: the joint loss formula, freezing, determinism, resume,
and the degenerate s=1 contract."""

import math
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from relmux import model as model_module
from relmux import training as training_module
from relmux import tensor as T
from relmux.ablation import _restrict_corpus
from relmux.config import ModelConfig, RunConfig, TrainConfig, load_run_config
from relmux.corpus import (
    SENTINEL_SPAN, Example, GeneratorConfig, LanguageRegistry, LanguageSpec, RelationSchema, generate_corpus,
    index_pools,
)
from relmux.aggregator import aggregate, build_aggregator_params
from relmux.encoder import CONTENT_START, PAD_ID, build_encoder_params, encode
from relmux.errors import ConfigError, DataValidationError, NumericsError
from relmux.evaluation import evaluate_model
from relmux.heads import ENTITY_KEYS, build_head_params, entity_scores, masked_argmax_relation, relation_logits
from relmux.model import _PASS, Model, _content_rows, _scored, sentence_ere_loss
from relmux.optim import AdamW
from relmux.params import ParamRegistry, load_checkpoint, matrix_init
from relmux.switcher import (
    build_switcher_params, eval_weights, router_matrix, switch_eval, switch_train, top_k_weights,
)
from relmux.training import TrainLog, _train_step, train_stage1, train_stage2
from relmux.tensor import NEG_INF, Tensor

from gradcheck import finite_diff_check

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def step_lines(log: TrainLog, stage: int) -> list[dict]:
    return [l for l in log.lines if l["stage"] == stage and "loss" in l]


def without_seconds(lines: list[dict]) -> list[dict]:
    return [{k: v for k, v in l.items() if k != "epoch_seconds"} for l in lines]


def inf_loss_on_call(monkeypatch, n: int) -> None:
    """Make the n-th ``Model.stage1_batch_loss`` call return an infinite loss."""
    real = Model.stage1_batch_loss
    calls = []

    def patched(self, *args):
        calls.append(None)
        return Tensor(np.inf) if len(calls) == n else real(self, *args)

    monkeypatch.setattr(Model, "stage1_batch_loss", patched)


def batch_mean(losses: list[Tensor]) -> Tensor:
    if not losses:
        raise ValueError("empty batch")
    total = losses[0] if len(losses) == 1 else T.add_n(losses)
    return T.mul(total, 1.0 / len(losses))


def content_positions(length: int) -> np.ndarray:
    """One sentence's positions as booleans: True on its content, False on
    its specials."""
    return (CONTENT_START <= np.arange(length)) & (np.arange(length) < length - 1)


def composed_sentence_loss(model, ts, pooled_encoder, feats, alpha, beta):
    """One sentence's joint loss, ``ts`` the one-row split of it, from its
    encoder [CLS] row and its (length, d) features, whose content rows go to
    the entity heads, each entity key its own cross entropy over the content
    positions."""
    reg = model.registry
    relation, length = int(ts.relations[0]), int(ts.lengths[0])
    rel_ce = T.cross_entropy(relation_logits(pooled_encoder, reg), relation)
    entity_ces = []
    if relation != 0:
        content = T.gather_rows(feats, np.arange(CONTENT_START, length - 1))
        rel_emb = T.gather_rows(reg["relation.emb"], [relation] * content.shape[0])
        scores = entity_scores(content, rel_emb, reg)
        entity_ces = [T.cross_entropy(scores[key], g) for key, g in zip(ENTITY_KEYS, ts.spans[0].tolist())]
    return sentence_ere_loss(rel_ce, entity_ces, alpha, beta)


def composed_stage1_loss(model, groups, alpha, beta):
    """The stage-1 loss composed one sentence at a time: each sentence encoded
    alone, each group aggregated over its members' concatenated rows, and each
    sentence's heads and joint loss computed alone."""
    reg, cfg = model.registry, model.cfg
    losses = []
    for group in groups:
        tss = [model.tokenize([ex]) for ex in group]
        encoded = [encode(ts.ids, ts.lengths, reg, cfg) for ts in tss]
        total = sum(int(ts.lengths[0]) for ts in tss)
        fused = aggregate(T.concat([hidden for hidden, _ in encoded], axis=0), [total], reg, cfg)
        offset = 0
        for ts, (_, pooled) in zip(tss, encoded):
            length = int(ts.lengths[0])
            feats = T.gather_rows(fused, np.arange(offset, offset + length))
            offset += length
            losses.append(composed_sentence_loss(model, ts, pooled, feats, alpha, beta))
    return batch_mean(losses)


def composed_stage2_loss(model, batch, alpha, beta):
    """The stage-2 loss composed one sentence at a time: each sentence encoded
    and aggregated alone, unpadded, switched under its own language, and its
    heads and joint loss computed alone."""
    reg, cfg = model.registry, model.cfg
    losses = []
    for ex in batch:
        ts = model.tokenize([ex])
        hidden, pooled = encode(ts.ids, ts.lengths, reg, cfg)
        feats = switch_train(aggregate(hidden, ts.lengths, reg, cfg), ex.lang, reg, cfg)
        losses.append(composed_sentence_loss(model, ts, pooled, feats, alpha, beta))
    return batch_mean(losses)


def composed_predict(model, ex, k):
    """One prediction's relation logits and entity scores (None when it
    predicts no relation), composed straight: encode, aggregate as a group of
    one, switch_eval from stage 2 on, the relation head and the masked argmax,
    then the entity scores under the predicted relation."""
    reg, cfg = model.registry, model.cfg
    ts = model.tokenize([ex])
    length = int(ts.lengths[0])
    hidden, pooled = encode(ts.ids, ts.lengths, reg, cfg)
    feats = aggregate(hidden, ts.lengths, reg, cfg)
    if model.stage >= 2:
        weights = top_k_weights(router_matrix(reg, cfg)[:, ex.lang], cfg.eval_top_k if k is None else k)
        feats = switch_eval(feats, weights, reg, cfg)
    logits = relation_logits(pooled, reg).data.reshape(-1)
    relation = int(masked_argmax_relation(logits[None], model.languages.schema.allowed, [ex.lang])[0])
    if relation == 0:
        return logits, None
    rel_emb = T.gather_rows(reg["relation.emb"], [relation] * length)
    scores = entity_scores(feats, rel_emb, reg)
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
        want = [pred.relation_logits for pred in first.predict_all(examples)]
        Model.build(cfg, _restrict_corpus(corpus, [0]).registry, init_seed=0)
        assert router_matrix(first.registry, first.cfg).shape == (3, 3)
        for pred, logits in zip(first.predict_all(examples), want):
            assert pred.relation_logits.tobytes() == logits.tobytes()
        assert first.cfg == before

    @pytest.mark.parametrize("rows", [16, 64, 256])
    def test_matrix_init_draws_at_fan_in_scale(self, rows):
        draw = matrix_init(np.random.default_rng(rows), rows, 256)
        assert draw.std(ddof=1) == pytest.approx(1.0 / np.sqrt(rows), rel=0.05)


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
        split = model.tokenize([e for e in corpus.train if e.relation != 0][:2])
        model.registry.zero_grad()
        loss = model.stage1_batch_loss(split, np.array([[0, 1]]), alpha=2.0, beta=0.0)
        loss.backward()
        g = model.registry["relation.w_cls"].grad
        assert g is None or np.allclose(g, 0.0)

    def test_full_loss_gradient_check(self):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        model = Model.build(replace(cfg.model, d_model=8, ffn_dim=16, bottleneck=12),
                            corpus.registry, init_seed=1)
        pair = [corpus.train[0], next(e for e in corpus.train if e.lang != corpus.train[0].lang)]
        split = model.tokenize(pair)
        params = {n: t for n, t in model.registry.items() if not n.startswith("switcher.")}
        report = finite_diff_check(
            lambda: model.stage1_batch_loss(split, np.array([[0, 1]]), 2.0, 1.0),
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
        solo = model.stage1_batch_loss(model.tokenize(corpus.train[:1]), np.array([[0]]), 2.0, 1.0)
        assert solo.item() == pytest.approx(manual.item(), abs=1e-15)

    @pytest.mark.parametrize("s", [1, 2])
    def test_batched_loss_matches_single_sentence_composition(self, s):
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=3)
        model.enter_stage(1)
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

        split = model.tokenize(batch)
        got, got_grads = grads(lambda: model.stage1_batch_loss(split, np.arange(len(batch)).reshape(-1, s), 2.0, 1.0))
        want, want_grads = grads(lambda: composed_stage1_loss(model, groups, 2.0, 1.0))
        assert got == pytest.approx(want, abs=1e-12)
        assert set(got_grads) == set(want_grads)
        for name, g in want_grads.items():
            assert np.allclose(got_grads[name], g, rtol=0.0, atol=1e-12), name

    def test_pad_embedding_moves_no_loss_or_gradient(self):
        # no sentence holds PAD and nothing pads a batch of mixed lengths, so
        # no value of the PAD embedding reaches a loss or a gradient
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=3)
        model.enter_stage(1)
        split = model.tokenize(corpus.train[:12])
        assert len(set(split.lengths.tolist())) > 1 and split.relations.any()

        def loss_and_grads():
            model.registry.zero_grad()
            loss = model.stage1_batch_loss(split, np.arange(12).reshape(6, 2), 2.0, 1.0)
            loss.backward()
            return loss.data.tobytes(), {n: t.grad.tobytes() for n, t in model.registry.items() if t.grad is not None}

        before = loss_and_grads()
        model.registry["encoder.tok_emb"].data[PAD_ID] += np.random.default_rng(1).normal(0.0, 5.0, model.cfg.d_model)
        assert loss_and_grads() == before

    def test_entity_heads_read_only_the_bearing_sentences_real_rows(self, monkeypatch):
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=3)
        model.enter_stage(1)
        split = model.tokenize(corpus.train[:12])
        bearing = split.relations != 0
        assert len(set(split.lengths[bearing].tolist())) > 1 and bearing.sum() < 12
        seen = []

        def spy(features, relation_emb, reg):
            seen.append((features.shape, relation_emb.shape))
            return entity_scores(features, relation_emb, reg)

        monkeypatch.setattr(model_module, "entity_scores", spy)
        model.stage1_batch_loss(split, np.arange(12).reshape(6, 2), 2.0, 1.0)
        rows = int((split.lengths[bearing] - (CONTENT_START + 1)).sum())
        assert seen == [((rows, model.cfg.d_model), (rows, model.cfg.d_model))]

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=4)
        straight = Model.build(cfg.model, corpus.registry, init_seed=0)
        straight_log = TrainLog()
        train_stage1(straight, corpus, cfg, tmp_path / "straight", straight_log)

        cfg_short = replace(cfg, train=replace(cfg.train, stage1_epochs=2))
        part = Model.build(cfg.model, corpus.registry, init_seed=0)
        train_stage1(part, corpus, cfg_short, tmp_path / "resumed", TrainLog())
        model2, snap, extra = Model.load(tmp_path / "resumed" / "stage1.ckpt", corpus.registry)
        assert extra is not None and extra["epochs_done"] == 2
        resumed_log = TrainLog()
        train_stage1(model2, corpus, cfg, tmp_path / "resumed", resumed_log, resume_extra=extra)
        # the step numbers go on from the optimizer's restored count
        assert without_seconds(resumed_log.lines) == \
            without_seconds([l for l in straight_log.lines if l["epoch"] >= 2])
        for name in straight.registry.names():
            assert np.array_equal(straight.registry[name].data, model2.registry[name].data), name
        # the whole training state: params, moments, rng state and step count
        ckpt = "stage1.ckpt"
        assert (tmp_path / "resumed" / ckpt).read_bytes() == (tmp_path / "straight" / ckpt).read_bytes()

    @pytest.mark.parametrize("done, total", [(0, 1), (2, 2)])
    def test_resume_at_either_end_writes_the_straight_runs_checkpoint(self, tmp_path, done, total):
        # a zero-epoch checkpoint (no epoch done, no step taken) resumes as a
        # fresh run; a finished one writes itself again into a new directory
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=total)
        train_stage1(Model.build(cfg.model, corpus.registry, init_seed=0), corpus, cfg, tmp_path / "straight")
        cfg_part = replace(cfg, train=replace(cfg.train, stage1_epochs=done))
        train_stage1(Model.build(cfg.model, corpus.registry, init_seed=0), corpus, cfg_part, tmp_path / "part")
        model, _, extra = Model.load(tmp_path / "part" / "stage1.ckpt", corpus.registry)
        assert extra["epochs_done"] == done
        if done == 0:
            assert extra["step_count"] == 0
        train_stage1(model, corpus, cfg, tmp_path / "resumed", resume_extra=extra)
        ckpt = "stage1.ckpt"
        assert (tmp_path / "resumed" / ckpt).read_bytes() == (tmp_path / "straight" / ckpt).read_bytes()

    def test_stage1_freezes_exactly_the_switcher(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=0)
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        model.enter_stage(2)
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

    def test_nonfinite_loss_names_its_stage_and_logged_step(self, tmp_path, monkeypatch):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=2)
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        inf_loss_on_call(monkeypatch, 3)
        log = TrainLog()
        with pytest.raises(NumericsError, match=r"^stage 1 loss became inf at step 3$"):
            train_stage1(model, corpus, cfg, tmp_path, log)
        assert [l["step"] for l in step_lines(log, 1)] == [1, 2]


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


class TestNoRelationBatch:
    """A batch with no relation-bearing sentence gives the entity scorers,
    and in stage 2 the switcher, no gradient; the step still runs."""

    @staticmethod
    def _no_relation_by_language(corpus):
        """The indices of the training sentences without a relation, by language."""
        by_lang: dict[int, list] = {}
        for i, ex in enumerate(corpus.train):
            if ex.relation == 0:
                by_lang.setdefault(ex.lang, []).append(i)
        return by_lang

    @staticmethod
    def _decayed_only(model, name, before, tc):
        # no gradient and zero moments: the update is weight decay alone
        return model.registry[name].data.tobytes() == (before - (tc.weight_decay * before) * tc.lr).tobytes()

    @staticmethod
    def _unreached(model, loss, name):
        # exactly zero, and not on the step's tape
        p = model.registry[name]
        return not p.grad.any() and all(node is not p for node in T._toposort(loss))

    def test_stage1_step(self):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        model.enter_stage(1)
        by_lang = self._no_relation_by_language(corpus)
        batch = np.array([[by_lang[0][0], by_lang[1][0]], [by_lang[2][0], by_lang[0][1]]])
        batch_loss = partial(model.stage1_batch_loss, model.tokenize(corpus.train))
        before = model.registry["entity.hs.w_down"].data.copy()
        opt = AdamW(model.registry, lr=cfg.train.lr, weight_decay=cfg.train.weight_decay)
        _train_step(opt, batch_loss, batch, cfg.train, TrainLog(), 1, 0)
        assert opt.step_count == 1
        loss = batch_loss(batch, cfg.train.alpha, cfg.train.beta, {})
        assert self._unreached(model, loss, "entity.hs.w_down")
        assert self._decayed_only(model, "entity.hs.w_down", before, cfg.train)
        assert model.registry["switcher.sub0.layer0.w_up"].grad is None

    def test_stage2_step(self):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        model.enter_stage(2)
        batch = np.array([i for pool in self._no_relation_by_language(corpus).values() for i in pool])
        table = model.frozen_prefix(model.tokenize(corpus.train))
        names = ("entity.te.w_index", "switcher.sub0.layer0.w_up")
        before = {n: model.registry[n].data.copy() for n in names}
        opt = AdamW(model.registry, lr=cfg.train.lr, weight_decay=cfg.train.weight_decay)
        batch_loss = partial(model.stage2_batch_loss, table)
        _train_step(opt, batch_loss, batch, cfg.train, TrainLog(), 2, 0)
        assert opt.step_count == 1
        loss = batch_loss(batch, cfg.train.alpha, cfg.train.beta, {})
        for name in names:
            assert self._unreached(model, loss, name), name
            assert self._decayed_only(model, name, before[name], cfg.train), name
        assert model.registry["relation.w_cls"].grad.any()
        assert model.registry["encoder.tok_emb"].grad is None


class TestStage2:

    def test_frozen_set_bitwise_identical(self, trained):
        corpus, cfg, model, stage1_arrays, ck1, ck2, log = trained
        frozen = built_names(model, build_encoder_params, build_aggregator_params)
        for name in frozen:
            assert np.array_equal(model.registry[name].data, stage1_arrays[name]), name
        # and the trainable set did move
        moved = [n for n in model.registry.names()
                 if n not in frozen and not np.array_equal(model.registry[n].data, stage1_arrays[n])]
        assert moved

    def test_stage2_freezes_exactly_the_encoder_and_aggregator(self):
        # the encoder and aggregator freeze, the switcher and heads train;
        # identity routing also freezes its vestigial router. Entering stage 2
        # from stage 1 unfreezes the switcher.
        corpus = tiny_corpus()
        for routing in ("learned", "identity"):
            model = Model.build(replace(tiny_run_cfg().model, routing=routing), corpus.registry, init_seed=0)
            frozen = built_names(model, build_encoder_params, build_aggregator_params)
            trainable = built_names(model, build_switcher_params, build_head_params)
            if routing == "identity":
                router = ["switcher.lang_emb", "switcher.w_router"]
                frozen += router
                trainable = [n for n in trainable if n not in router]
            model.enter_stage(1)
            model.enter_stage(2)
            assert model.stage == 2
            got = {flag: sorted(n for n, t in model.registry.items() if t.requires_grad == flag)
                   for flag in (False, True)}
            assert got[False] == sorted(frozen), routing
            assert got[True] == sorted(trainable), routing

    def test_router_gradients_nonzero_after_first_step(self, trained):
        corpus, cfg, model, *_ = trained
        model.registry.zero_grad()
        table = model.frozen_prefix(model.tokenize(corpus.train[:4]))
        loss = model.stage2_batch_loss(table, np.arange(4), 2.0, 1.0)
        loss.backward()
        assert np.linalg.norm(model.registry["switcher.lang_emb"].grad) > 0
        assert np.linalg.norm(model.registry["switcher.w_router"].grad) > 0

    def test_each_stage_logs_its_steps_from_one(self, trained):
        corpus, cfg, *_, log = trained
        tc, n = cfg.train, len(corpus.train)
        # stage 1 draws groups of concat_sentences sentences; neither stage stops early here
        per_epoch = {1: math.ceil(n / (tc.concat_sentences * tc.batch_size)), 2: math.ceil(n / tc.batch_size)}
        epochs = {1: tc.stage1_epochs, 2: tc.stage2_max_epochs}
        for stage in (1, 2):
            steps = [l["step"] for l in step_lines(log, stage)]
            assert steps == list(range(1, epochs[stage] * per_epoch[stage] + 1)), stage

    def test_epoch_seconds_are_a_wall_clock_duration(self, trained):
        *_, log = trained
        seconds = [(l["stage"], l["epoch_seconds"]) for l in log.lines if "epoch_seconds" in l]
        assert [stage for stage, _ in seconds] == [1, 1, 2, 2, 2]
        assert all(0.0 <= s < 3600.0 for _, s in seconds)

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

    def test_stage2_validates_its_run_config(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        model.enter_stage(1)
        for bad in (replace(cfg.train, batch_size=0), replace(cfg.train, patience=0)):
            with pytest.raises(ConfigError):
                train_stage2(model, corpus, replace(cfg, train=bad), tmp_path / "out", TrainLog())
        assert not (tmp_path / "out").exists()

    @staticmethod
    def scripted_run(tmp_path, monkeypatch, f1s, **train_kw):
        """Stage 2 with ``training.evaluate_model`` returning the dev F1s ``f1s``
        in turn: the model, its optimizer, the optimizer's values at each
        evaluation, the log and the checkpoint path."""
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=1, **train_kw)
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        train_stage1(model, corpus, cfg, tmp_path / "s1", TrainLog())
        opts, at_eval = [], []

        class RecordingAdamW(AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

        scripted = iter(f1s)

        def scripted_eval(model, examples, registry):
            at_eval.append(opts[-1].values.copy())
            return SimpleNamespace(overall=SimpleNamespace(triple_f1=next(scripted)))

        monkeypatch.setattr(training_module, "AdamW", RecordingAdamW)
        monkeypatch.setattr(training_module, "evaluate_model", scripted_eval)
        log = TrainLog()
        ckpt = train_stage2(model, corpus, cfg, tmp_path / "s2", log)
        (opt,) = opts
        return model, opt, at_eval, log, ckpt

    def test_best_dev_restore_writes_into_the_optimizer_buffer(self, tmp_path, monkeypatch):
        # scripted dev F1s make epoch 1 the best and stop at epoch 3, so the
        # restore has something to undo
        model, opt, at_eval, _, ckpt = self.scripted_run(tmp_path, monkeypatch, [0.5, 0.7, 0.6, 0.65],
                                                         stage2_max_epochs=6, patience=2)
        assert len(at_eval) == 4 and at_eval[1].tobytes() != at_eval[3].tobytes()
        assert opt.values.tobytes() == at_eval[1].tobytes()
        trainable = [(name, t) for name, t in model.registry.items() if t.requires_grad]
        assert trainable and all(np.shares_memory(t.data, opt.values) for _, t in trainable)
        _, params, _ = load_checkpoint(ckpt)
        assert all(params[name].tobytes() == t.data.tobytes() for name, t in trainable)

    def test_a_tie_keeps_the_later_values(self, tmp_path, monkeypatch):
        _, opt, at_eval, log, _ = self.scripted_run(tmp_path, monkeypatch, [0.5, 0.5, 0.4],
                                                    stage2_max_epochs=3, patience=5)
        assert len(at_eval) == 3 and at_eval[0].tobytes() != at_eval[1].tobytes()
        assert opt.values.tobytes() == at_eval[1].tobytes()
        assert not any(l.get("early_stop") for l in log.lines)

    def test_a_tie_does_not_reset_patience(self, tmp_path, monkeypatch):
        _, opt, at_eval, log, _ = self.scripted_run(tmp_path, monkeypatch, [0.5] * 6,
                                                    stage2_max_epochs=6, patience=2)
        assert len(at_eval) == 3 and opt.values.tobytes() == at_eval[2].tobytes()
        assert [l["epoch"] for l in log.lines if l.get("early_stop")] == [2]

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
    model.enter_stage(2)
    return corpus, model


@pytest.fixture(scope="module")
def benchmark_sentences():
    """A fresh model under the benchmark config, and its benchmark corpus's
    tokenized training split."""
    registry_in = LanguageRegistry.load(CONFIGS / "benchmark_langs.json")
    corpus = generate_corpus(registry_in.languages, registry_in.schema, seed=1,
                             gen=GeneratorConfig(family_share=0.85))
    model = Model.build(load_run_config(CONFIGS / "benchmark.json").model, corpus.registry, init_seed=1)
    model.enter_stage(1)
    return model, model.tokenize(corpus.train)


class TestBatchInvariance:
    @pytest.mark.parametrize("s, batches", [(1, 50), (2, 30)])
    def test_group_rows_are_bitwise_the_same_alone_and_in_a_mixed_batch(self, benchmark_sentences, s, batches):
        """``_forward`` gives every group of s sentences, inside a batch of
        eight groups of mixed lengths, the encoder [CLS] rows and the
        aggregator rows it gives the group alone, bit for bit."""
        model, split = benchmark_sentences
        rng = np.random.default_rng(s)
        for _ in range(batches):
            batch = rng.choice(split.lengths.size, size=8 * s, replace=False)
            assert len(set(split.lengths[batch].tolist())) > 1
            pooled, rows = model._forward(split, batch, s)
            start = 0
            for g in range(8):
                group = batch[g * s : (g + 1) * s]
                pooled_alone, rows_alone = model._forward(split, group, s)
                end = start + rows_alone.shape[0]
                assert pooled.data[g * s : (g + 1) * s].tobytes() == pooled_alone.data.tobytes()
                assert rows.data[start:end].tobytes() == rows_alone.data.tobytes()
                start = end
            assert start == rows.shape[0]


    def test_head_outputs_are_bitwise_the_same_alone_and_in_a_mixed_batch(self, benchmark_sentences):
        """A sentence's relation logits and, over its content rows, its four
        entity score columns, taken alone, are the bits of its rows inside a
        batch of sentences of mixed lengths, each under its own relation."""
        model, split = benchmark_sentences
        rng = np.random.default_rng(3)
        n_relations = model.languages.n_relations
        for _ in range(10):
            batch = rng.choice(split.lengths.size, size=32, replace=False)
            lengths = split.lengths[batch]
            assert len(set(lengths.tolist())) > 1
            relations = rng.integers(1, n_relations, size=32)
            pooled, rows = model._forward(split, batch, 1)
            logits = relation_logits(pooled, model.registry).data
            # the content rows and counts that stage1_batch_loss scores
            scored, sizes, content = _content_rows(np.cumsum(lengths) - lengths, lengths, _scored(relations, lengths))
            assert len(set(sizes.tolist())) > 1
            scores = model._entity_scores(T.gather_rows(rows, content), relations[scored], sizes)
            offsets = dict(zip(scored.tolist(), (np.cumsum(sizes) - sizes).tolist()))
            for i in range(batch.size):
                pooled_alone, rows_alone = model._forward(split, batch[i : i + 1], 1)
                assert logits[i].tobytes() == relation_logits(pooled_alone, model.registry).data.tobytes()
                if i not in offsets:
                    continue
                _, size, content_alone = _content_rows(np.zeros(1, dtype=np.intp), lengths[i : i + 1], [True])
                alone = model._entity_scores(T.gather_rows(rows_alone, content_alone), relations[i : i + 1], size)
                span = slice(offsets[i], offsets[i] + size[0])
                for key, t in scores.items():
                    assert t.data[span].tobytes() == alone[key].data.tobytes(), (i, key)


class TestBatchedStage2:
    @pytest.mark.parametrize("routing", ["learned", "identity"])
    def test_batch_matches_sentence_at_a_time(self, routing, monkeypatch):
        """A batch drawn from a frozen-prefix table built in passes of two,
        of several languages, holding one sentence's index twice and one
        without a relation, gives the loss and every gradient of the
        sentence-at-a-time composition, both when its relation-bearing
        sentences differ in length and when they share one. Nothing is
        frozen, so the table passes gradients on to the encoder and the
        aggregator, and a row gathered from the wrong place would show there
        too."""
        monkeypatch.setattr(model_module, "_PASS", 2)
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
        mixed = [corpus.train[pool[i]] for i in range(2) for pool in index_pools([ex.lang for ex in corpus.train])]
        mixed.append(no_relation)
        same = [ex for ex in bearing if len(ex.tokens) == common]
        equal = [same[i] for pool in index_pools([ex.lang for ex in same]) for i in pool[:2]] + [no_relation]

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
                table = model.frozen_prefix(model.tokenize(batch))
                return model.stage2_batch_loss(table, np.r_[np.arange(len(batch)), again], 2.0, 1.0)

            got_loss, got = loss_and_grads(table_loss)
            want_loss, want = loss_and_grads(lambda: composed_stage2_loss(model, batch + [batch[again]], 2.0, 1.0))
            assert abs(got_loss - want_loss) <= 1e-12, bearing_lengths
            assert got.keys() == want.keys()
            assert "encoder.tok_emb" in got and "switcher.sub0.layer0.w_up" in got
            for name, g in want.items():
                assert np.abs(got[name] - g).max() <= 1e-12, (bearing_lengths, name)

    def test_chunked_table_is_bitwise_the_whole_bucket_table(self, monkeypatch):
        corpus, model = stage2_frozen_model()
        split = model.tokenize(corpus.train)
        lengths = split.lengths.tolist()
        assert max(lengths.count(n) for n in set(lengths)) > 3
        passes = []
        forward = model._forward

        def recorded(split, part, s):
            passes.append(len(part))
            return forward(split, part, s)

        model._forward = recorded
        tables = {}
        for size in (3, len(lengths)):
            monkeypatch.setattr(model_module, "_PASS", size)
            passes.clear()
            tables[size] = model.frozen_prefix(split)
            assert max(passes) <= size and sum(passes) == len(lengths)
        # the whole split takes one pass per length, and passes of 3 take more
        assert len(passes) == len(set(lengths))
        chunked, whole = tables[3], tables[len(lengths)]
        assert chunked.split is split and whole.split is split
        for i in range(len(lengths)):
            assert chunked.pooled.data[chunked.index[i]].tobytes() == whole.pooled.data[whole.index[i]].tobytes()
            rows_a = chunked.rows.data[chunked.starts[i] : chunked.starts[i] + lengths[i]]
            rows_b = whole.rows.data[whole.starts[i] : whole.starts[i] + lengths[i]]
            assert rows_a.tobytes() == rows_b.tobytes()

    def test_step_runs_no_frozen_layer(self, monkeypatch):
        import relmux.model

        corpus, model = stage2_frozen_model()
        table = model.frozen_prefix(model.tokenize(corpus.train))

        def frozen_layer(*args, **kwargs):
            raise AssertionError("a stage-2 step ran a frozen layer")

        monkeypatch.setattr(relmux.model, "encode", frozen_layer)
        monkeypatch.setattr(relmux.model, "aggregate", frozen_layer)
        loss = model.stage2_batch_loss(table, np.arange(8), 2.0, 1.0)
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

    def test_logged_parts_recompose_every_step_loss(self, tmp_path):
        # each step's loss is beta * relation_ce + (alpha / 2) * entity_ce,
        # both parts means over the step's sentences, in both stages
        corpus = tiny_corpus()
        cfg = tiny_run_cfg(stage1_epochs=2, stage2_max_epochs=1, alpha=3.0, beta=0.5)
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        log = TrainLog()
        train_stage1(model, corpus, cfg, tmp_path / "s1", log)
        train_stage2(model, corpus, cfg, tmp_path / "s2", log)
        step_lines = [l for l in log.lines if "loss" in l]
        assert {l["stage"] for l in step_lines} == {1, 2}
        assert all(l["entity_ce"] > 0.0 for l in step_lines)
        for line in step_lines:
            parts = cfg.train.beta * line["relation_ce"] + cfg.train.alpha / 2.0 * line["entity_ce"]
            assert parts == pytest.approx(line["loss"], rel=1e-12), line


class TestTokenizedTrainSplit:
    def test_masked_gold_relation_is_refused_before_any_step(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        first = next(ex for ex in corpus.train if ex.relation != 0)
        model.languages.schema.allowed[first.lang, first.relation] = False
        log = TrainLog()
        with pytest.raises(DataValidationError,
                           match=f"^example {first.id}: gold relation {first.relation} is masked for its language$"):
            train_stage1(model, corpus, cfg, tmp_path, log)
        assert log.lines == [] and not (tmp_path / "stage1.ckpt").exists()
        with pytest.raises(DataValidationError, match=first.id):
            model.tokenize(corpus.train)

    def test_empty_split_has_zero_rows_and_training_refuses_it(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()
        model = Model.build(cfg.model, corpus.registry, init_seed=0)
        split = model.tokenize([])
        assert split.ids.shape == split.lengths.shape == split.relations.shape == (0,)
        assert split.spans.shape == (0, 4) and split.example_ids == ()
        assert model.predict_all([]) == []
        empty = replace(corpus, train=[])
        with pytest.raises(ConfigError, match="group size"):
            train_stage1(model, empty, cfg, tmp_path / "s1")
        model.stage = 1
        with pytest.raises(ConfigError, match="group size"):
            train_stage2(model, empty, cfg, tmp_path / "s2")


class TestConditioningOnTrainedModel:
    def test_relation_embedding_permutation_changes_scores(self, trained):
        corpus, cfg, model, *_ = trained
        from relmux.heads import entity_scores

        ex = next(e for e in corpus.train if e.relation != 0)
        split = model.tokenize([ex])
        _, feats = model._forward(split, np.arange(1), 1)
        feats = T.gather_rows(feats, np.arange(CONTENT_START, feats.shape[0] - 1))
        outputs = {}
        for rel in (1, 2):
            emb = T.gather_rows(model.registry["relation.emb"], [rel] * feats.shape[0])
            outputs[rel] = entity_scores(feats, emb, model.registry)["hs"].data.copy()
        assert not np.allclose(outputs[1], outputs[2])


class TestPredictComposition:
    @staticmethod
    def _assert_bitwise_the_composition(model, examples):
        """Every prediction of ``examples``, at every k from stage 2 on, has
        the relation logits of ``composed_predict`` bit for bit, and dumped
        entity scores of the sentence's length with its content positions
        bit for bit the composition's and its specials exactly NEG_INF; its
        relation and spans are Python ints, and some predict a relation."""
        top_ks = range(1, model.cfg.n_sub_modules + 1) if model.stage == 2 else [None]
        scored = 0
        for k in top_ks:
            want = {ex.id: composed_predict(model, ex, k) for ex in examples}
            preds = model.predict_all(examples, top_k=k, dump_scores=True)
            assert [p.example_id for p in preds] == [ex.id for ex in examples]
            for pred in preds:
                logits, scores = want[pred.example_id]
                assert pred.relation_logits.tobytes() == logits.tobytes()
                assert {type(v) for v in (pred.relation, *pred.head_span, *pred.tail_span)} == {int}
                if scores is None:
                    assert pred.relation == 0 and pred.entity_scores is None
                    continue
                scored += 1
                assert pred.entity_scores.keys() == scores.keys()
                for key, value in scores.items():
                    got, content = pred.entity_scores[key], content_positions(value.size)
                    assert got.shape == value.shape, key
                    assert got[content].tobytes() == value[content].tobytes(), key
                    assert (got[~content] == NEG_INF).all(), key
        assert scored > 0

    @pytest.mark.parametrize("stage", [1, 2])
    def test_predict_is_bitwise_the_straight_composition(self, stage):
        # the whole dev split goes through one table, so sentences of one
        # length share an encoder pass; each prediction must still be the
        # one-sentence composition bit for bit
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=4)
        model.stage = stage
        lengths = [len(ex.tokens) for ex in corpus.dev]
        assert len(set(lengths)) < len(lengths)
        self._assert_bitwise_the_composition(model, corpus.dev)

    def test_languages_switched_over_several_passes_are_bitwise_the_composition(self):
        # the dev split repeated until every language's sentences fill more
        # than one switcher pass; each pass writes its rows into one array of
        # the call's, so a row switched twice or by another language's
        # weights, or a pass that skips rows, shows as a changed score
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=4)
        model.stage = 2
        per_lang = np.bincount([ex.lang for ex in corpus.dev])
        assert per_lang.min() > 0
        examples = corpus.dev * (_PASS // int(per_lang.min()) + 1)
        assert (np.bincount([ex.lang for ex in examples]) > _PASS).all()
        self._assert_bitwise_the_composition(model, examples)

    def test_one_language_over_several_head_passes_is_bitwise_the_composition(self, monkeypatch):
        # the dev split repeated until each language's relation-bearing
        # sentences fill more than one head pass; a pass that scores or
        # decodes another pass's rows, or skips some, shows as a changed score
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=4)
        model.stage = 2
        bearing = [ex for ex, pred in zip(corpus.dev, model.predict_all(corpus.dev)) if pred.relation]
        # every bearing dev sentence's content size names its language, so a
        # decode call's sizes show which languages it took
        lang_of = {len(ex.tokens): ex.lang for ex in bearing}
        assert len({(len(ex.tokens), ex.lang) for ex in bearing}) == len(lang_of)
        per_lang = np.bincount([ex.lang for ex in bearing])
        assert per_lang.min() > 0
        examples = corpus.dev * (_PASS // int(per_lang.min()) + 1)
        passes = []
        decode = model_module.decode_spans

        def counted(columns, sizes):
            passes.append(sizes.tolist())
            return decode(columns, sizes)

        monkeypatch.setattr(model_module, "decode_spans", counted)
        self._assert_bitwise_the_composition(model, examples)
        # the relation head reads no switched row, so every k has the same
        # sentences to score: each pass at most _PASS of one language, each
        # language over two passes or more per k, sizes mixed within a pass
        assert all(len({lang_of[n] for n in sizes}) == 1 and len(sizes) <= _PASS for sizes in passes)
        langs = [lang_of[sizes[0]] for sizes in passes]
        assert min(langs.count(lang) for lang in range(len(per_lang))) >= 2 * model.cfg.n_sub_modules
        assert any(len(set(sizes)) > 1 for sizes in passes)

    @pytest.mark.parametrize("routing", ["learned", "identity"])
    def test_eval_decisions_are_each_languages_top_k(self, routing):
        corpus = tiny_corpus()
        cfg = replace(tiny_run_cfg().model, routing=routing)
        model = Model.build(cfg, corpus.registry, init_seed=4)
        reg = model.registry
        reg["switcher.lang_emb"].data = np.random.default_rng(7).normal(size=reg["switcher.lang_emb"].shape)
        n_langs = corpus.registry.n_languages
        assert eval_weights(reg, cfg).tobytes() == eval_weights(reg, cfg, cfg.eval_top_k).tobytes()
        for k in range(1, cfg.n_sub_modules + 1):
            weights = eval_weights(reg, cfg, k)
            assert weights.shape == (n_langs, cfg.n_sub_modules)
            for lang in range(n_langs):
                want = top_k_weights(router_matrix(reg, cfg)[:, lang], k)
                assert weights[lang].tobytes() == want.tobytes()


def one_token_pair(model, corpus):
    """Two one-content-token examples of one language that both predict a
    relation; prediction's relation logits read no switched row, so they
    predict one at every k."""
    for lang in corpus.registry.languages:
        candidates = [Example(f"one-{lang.code}-{tok}", lang.id, (tok,), SENTINEL_SPAN, SENTINEL_SPAN, 0)
                      for tok in lang.vocab]
        bearing = [ex for ex, pred in zip(candidates, model.predict_all(candidates)) if pred.relation]
        if len(bearing) >= 2:
            return bearing[:2]
    raise AssertionError("no language has two one-token sentences that predict a relation")


def record_products(model, monkeypatch) -> list:
    """From now on, for every product of rows by a matrix that a
    ``T.matmul`` call makes, and that ``T.bottleneck``, ``T.encoder_block``
    and ``T.tanh_score`` make inside their nodes (their ``matmul``s when
    composed): the parameter name of the matrix (None for an activation) and
    the row count of the rows, which is the node's rows for each of them."""
    names = {id(t): n for n, t in model.registry.items()}
    seen = []
    matrices = {
        "matmul": lambda w, *_: [w],
        "bottleneck": lambda w_up, w_down, *_: [w_up, w_down],
        "encoder_block": lambda weights, *_: [*weights[2:10:2], *weights[12:16:2]],  # q, k, v, o, ffn1, ffn2
        "tanh_score": lambda w_down, _: [w_down],
    }
    for op_name, products in matrices.items():
        op = getattr(T, op_name)

        def recorded(x, *a, op=op, products=products):
            seen.extend((names.get(id(w)), x.shape[0]) for w in products(*a))
            return op(x, *a)

        monkeypatch.setattr(T, op_name, recorded)
    return seen


def loss_grads_bytes(model, loss_fn) -> tuple:
    """The bytes of ``loss_fn()``'s loss, of the stats it fills and of every
    parameter gradient its backward leaves, after checking that all are
    finite."""
    model.registry.zero_grad()
    stats = {}
    loss = loss_fn(stats)
    loss.backward()
    grads = {n: t.grad for n, t in model.registry.items() if t.grad is not None}
    assert np.isfinite(loss.data) and all(np.isfinite(g).all() for g in grads.values())
    assert np.isfinite(list(stats.values())).all()
    return loss.data.tobytes(), stats, {n: g.tobytes() for n, g in grads.items()}


class TestTrainingReadsContentRowsOnly:
    """The training heads and stage 2's switcher read only the content rows
    of the sentences they score, as prediction does."""

    @staticmethod
    def _special_rows(starts, lengths) -> np.ndarray:
        """The [CLS], [LANG_n] and [SEP] rows of sentences whose real rows
        start at ``starts``."""
        return np.concatenate([starts, starts + CONTENT_START - 1, starts + lengths - 1])

    def test_nan_in_stage1_special_aggregator_rows_moves_no_bit(self, monkeypatch):
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=3)
        model.enter_stage(1)
        split = model.tokenize(corpus.train[:12])
        batch = np.arange(12).reshape(6, 2)
        assert split.relations.any() and not split.relations.all()
        step = partial(model.stage1_batch_loss, split, batch, 2.0, 1.0)
        clean = loss_grads_bytes(model, step)

        def poisoned(rows, group_lengths, reg, cfg):
            out = aggregate(rows, group_lengths, reg, cfg)
            out.data[self._special_rows(split.starts, split.lengths)] = np.nan
            return out

        monkeypatch.setattr(model_module, "aggregate", poisoned)
        assert loss_grads_bytes(model, step) == clean
        assert "entity.hs.w_down" in clean[2] and "encoder.tok_emb" in clean[2]

    def test_nan_in_stage2_special_table_rows_moves_no_bit(self):
        corpus, model = stage2_frozen_model()
        table = model.frozen_prefix(model.tokenize(corpus.train))
        batch = np.arange(16)
        assert table.split.relations[batch].any() and not table.split.relations[batch].all()
        step = partial(model.stage2_batch_loss, table, batch, 2.0, 1.0)
        clean = loss_grads_bytes(model, step)
        table.rows.data[self._special_rows(table.starts, table.split.lengths)] = np.nan
        assert loss_grads_bytes(model, step) == clean
        assert "entity.hs.w_down" in clean[2] and "switcher.sub0.layer0.w_up" in clean[2]

    @pytest.mark.parametrize("stage", [1, 2])
    def test_a_one_token_sentence_gives_no_product_a_one_row_operand(self, stage, monkeypatch):
        """A relation-bearing sentence of one content token has one class per
        entity key, whose cross entropy is exactly 0 with a zero gradient:
        the batch losses leave its row out, so no product gets it alone,
        and the loss and every gradient are still the composition's, which
        scores it."""
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=6)
        lang = corpus.registry.languages[0]
        one = Example("one-token", lang.id, (lang.vocab[0],), (0, 0), (0, 0), 1)
        longer = next(ex for ex in corpus.train if ex.relation != 0 and len(ex.tokens) >= 2)
        no_relation = [ex for ex in corpus.train if ex.relation == 0][:3]
        for batch in ([one] + no_relation, [one, longer] + no_relation[:2]):
            split = model.tokenize(batch)
            seen = record_products(model, monkeypatch)
            if stage == 1:
                groups = [batch[:2], batch[2:]]
                got = loss_grads_bytes(model, partial(model.stage1_batch_loss, split, np.arange(4).reshape(2, 2),
                                                      2.0, 1.0))
            else:
                table = model.frozen_prefix(split)
                seen.clear()
                got = loss_grads_bytes(model, partial(model.stage2_batch_loss, table, np.arange(4), 2.0, 1.0))
            monkeypatch.undo()
            assert all(m >= 2 for _, m in seen)
            entity_rows = [m for name, m in seen if name == "entity.hs.w_down"]
            assert entity_rows == ([len(longer.tokens)] if longer in batch else [])
            model.registry.zero_grad()
            want = composed_stage1_loss(model, groups, 2.0, 1.0) if stage == 1 else \
                composed_stage2_loss(model, batch, 2.0, 1.0)
            want.backward()
            assert abs(np.frombuffer(got[0])[0] - want.item()) <= 1e-12
            for name, t in model.registry.items():
                g = np.frombuffer(got[2][name]) if name in got[2] else 0.0
                assert np.abs(g - (0.0 if t.grad is None else t.grad.reshape(-1))).max() <= 1e-12, name


class TestOneContentRow:
    """A lone relation-bearing sentence with one content token is one content
    row, which prediction must not hand a product alone: a one-row operand
    takes numpy's gemv path, which may give it other bits."""

    @staticmethod
    def _model(stage):
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=4)
        model.stage = stage
        return corpus, model

    @pytest.mark.parametrize("stage", [1, 2])
    def test_predicted_alone_it_gets_the_bits_it_gets_in_a_larger_call(self, stage):
        # in the larger call its row shares the switcher pass with its
        # language's dev rows and the head pass with its partner's row
        corpus, model = self._model(stage)
        partner, ex = one_token_pair(model, corpus)
        for k in range(1, model.cfg.n_sub_modules + 1) if stage == 2 else [None]:
            alone = model.predict_all([ex], top_k=k, dump_scores=True)[0]
            inside = model.predict_all(corpus.dev + [partner, ex], top_k=k, dump_scores=True)[-1]
            assert alone.relation == inside.relation != 0
            assert (alone.head_span, alone.tail_span) == (inside.head_span, inside.tail_span) == ((0, 0), (0, 0))
            assert alone.relation_logits.tobytes() == inside.relation_logits.tobytes()
            for key, scores in alone.entity_scores.items():
                assert scores.shape == (CONTENT_START + 2,)
                assert scores[CONTENT_START].tobytes() == inside.entity_scores[key][CONTENT_START].tobytes(), key
        TestPredictComposition._assert_bitwise_the_composition(model, [ex])

    def test_no_product_gets_a_one_row_operand(self, monkeypatch):
        corpus, model = self._model(2)
        _, ex = one_token_pair(model, corpus)
        seen = record_products(model, monkeypatch)
        model.predict_all([ex], top_k=1)
        # router_matrix routes one language per product in every caller, so
        # its one-row product has no batched twin
        products = [(name, m) for name, m in seen if name != "switcher.w_router"]
        ran = {str(name) for name, _ in products}
        assert {f"entity.{key}.w_down" for key in ENTITY_KEYS} <= ran
        assert any(name.startswith("switcher.sub") for name in ran)
        assert min(m for _, m in products) >= 2


class TestPredictionCalls:
    """The benchmark harness times and counts predictions by replacing
    ``model.predict`` on the instance, so every evaluation path must call it
    once per example, in order."""

    @staticmethod
    def _record(model) -> list[str]:
        seen: list[str] = []
        predict = model.predict

        def recorded(example_id, *a, **kw):
            seen.append(example_id)
            return predict(example_id, *a, **kw)

        model.predict = recorded
        return seen

    @pytest.mark.parametrize("stage", [1, 2])
    def test_evaluate_model_calls_the_instance_predict_once_per_example(self, stage):
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=4)
        model.stage = stage
        seen = self._record(model)
        report = evaluate_model(model, corpus.test, corpus.registry, top_k=1)
        assert seen == [ex.id for ex in corpus.test]
        assert report.overall.n_sentences == len(corpus.test)

    def test_stage2_dev_eval_calls_the_instance_predict_once_per_example(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()  # two epochs, and patience enough for both
        model = Model.build(cfg.model, corpus.registry, init_seed=4)
        model.stage = 1
        seen = self._record(model)
        train_stage2(model, corpus, cfg, tmp_path)
        assert seen == [ex.id for ex in corpus.dev] * 2


def predictions_bytes(preds) -> list:
    """Every field of each prediction, arrays as bytes."""
    return [(p.example_id, p.relation, p.head_span, p.tail_span, p.relation_logits.tobytes(),
             sorted((k, a.tobytes()) for k, a in (p.entity_scores or {}).items())) for p in preds]


class TestKeptPredictionTable:
    """``predict_all`` keeps its last table and reuses it only while the
    examples and the frozen-prefix values it was built from compare equal."""

    @staticmethod
    def _record_builds(model) -> list:
        """The table of every ``frozen_prefix`` call ``model`` makes from now on."""
        built = []
        frozen_prefix = model.frozen_prefix

        def recorded(split):
            table = frozen_prefix(split)
            built.append(table)
            return table

        model.frozen_prefix = recorded
        return built

    def test_every_k_reads_one_table(self):
        corpus, model = stage2_frozen_model()
        built = self._record_builds(model)
        TestPredictComposition._assert_bitwise_the_composition(model, corpus.dev)
        assert len(built) == 1

    def test_stage2_dev_evals_build_the_dev_table_once(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_cfg()  # two epochs, and patience enough for both
        model = Model.build(cfg.model, corpus.registry, init_seed=4)
        model.stage = 1
        built = self._record_builds(model)
        log = TrainLog()
        train_stage2(model, corpus, cfg, tmp_path, log)
        assert len([l for l in log.lines if "dev_triple_f1" in l]) == 2
        # the train table, then the dev table
        assert [t.pooled.shape[0] for t in built] == [len(corpus.train), len(corpus.dev)]

    @pytest.mark.parametrize("name", ["encoder.pos_emb", "aggregator.w_v"])
    def test_changed_value_rebuilds_as_a_fresh_load_predicts(self, tmp_path, name):
        corpus, model = stage2_frozen_model()
        built = self._record_builds(model)
        before = predictions_bytes(model.predict_all(corpus.dev, dump_scores=True))
        model.registry[name].data[0] *= 1.5
        after = predictions_bytes(model.predict_all(corpus.dev, dump_scores=True))
        assert len(built) == 2
        assert after != before
        model.save(tmp_path / "m.ckpt")
        fresh, _, _ = Model.load(tmp_path / "m.ckpt", corpus.registry)
        assert after == predictions_bytes(fresh.predict_all(corpus.dev, dump_scores=True))

    def test_equal_examples_reuse_the_table_and_a_replaced_one_rebuilds(self):
        corpus, model = stage2_frozen_model()
        built = self._record_builds(model)
        model.predict_all(corpus.dev)
        copies = [replace(ex) for ex in corpus.dev]
        assert copies == corpus.dev and copies[0] is not corpus.dev[0]
        model.predict_all(copies, top_k=1)
        assert len(built) == 1
        swapped = [corpus.test[0]] + corpus.dev[1:]
        got = predictions_bytes(model.predict_all(swapped, dump_scores=True))
        assert len(built) == 2
        _, fresh = stage2_frozen_model()
        assert got == predictions_bytes(fresh.predict_all(swapped, dump_scores=True))

    def test_prediction_leaves_the_kept_table_as_it_was(self):
        corpus, model = stage2_frozen_model()
        built = self._record_builds(model)
        model.predict_all(corpus.dev)
        table = built[0]
        before = (table.pooled.data.tobytes(), table.rows.data.tobytes())
        for k in range(1, model.cfg.n_sub_modules + 1):
            model.predict_all(corpus.dev, top_k=k)
        assert len(built) == 1
        assert (table.pooled.data.tobytes(), table.rows.data.tobytes()) == before
        with pytest.raises(ValueError):
            table.rows.data[0] = 0.0


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

    def test_load_rejects_a_corpus_of_another_vocabulary(self, tmp_path):
        # one content token renamed in every language that has it: the same
        # languages, relations and vocabulary size, so every shape matches,
        # but tok_emb's rows would embed other tokens
        from relmux.errors import CheckpointError

        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=3)
        model.save(tmp_path / "m.ckpt")
        token = corpus.registry.content_vocab()[0]
        languages = [replace(l, vocab=tuple(sorted("zz" + t if t == token else t for t in l.vocab)))
                     for l in corpus.registry.languages]
        other = replace(corpus.registry, languages=languages)
        assert len(other.content_vocab()) == len(corpus.registry.content_vocab())
        assert other.content_vocab() != corpus.registry.content_vocab()
        with pytest.raises(CheckpointError, match="vocabulary"):
            Model.load(tmp_path / "m.ckpt", other)
        Model.load(tmp_path / "m.ckpt", corpus.registry)

    def test_save_failing_halfway_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        corpus = tiny_corpus()
        model = Model.build(tiny_run_cfg().model, corpus.registry, init_seed=3)
        path = tmp_path / "m.ckpt"
        model.save(path)
        before = path.read_bytes()
        model.stage = 2  # a checkpoint of other bytes
        real_write_text = Path.write_text

        def write_half(self, text, *a, **kw):
            real_write_text(self, text[: len(text) // 2], *a, **kw)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half)
        with pytest.raises(OSError):
            model.save(path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]
        monkeypatch.undo()
        model.save(path)
        assert path.read_bytes() != before
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]

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
