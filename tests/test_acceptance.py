"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Full-scale published scores are out of reach by design here (no pretrained
encoder, synthetic data), so acceptance is property-based and directional:
gradient integrity, switcher algebra, freezing, the loss formula, overfit
capacity, multilingual transfer on the standard benchmark, stage-2 benefit,
metric dominance, and bitwise determinism.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import json
import time
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from relmux import tensor as T
from relmux.ablation import _restrict_corpus, train_two_stage
from relmux.cli import main as cli_main
from relmux.config import ModelConfig, load_run_config
from relmux.corpus import (
    Example,
    GeneratorConfig,
    LanguageRegistry,
    LanguageSpec,
    RelationSchema,
    generate_corpus,
)
from relmux.evaluation import evaluate_model
from relmux.model import Model, sentence_ere_loss
from relmux.params import ParamRegistry, load_checkpoint
from relmux.switcher import (
    apply_submodule,
    build_switcher_params,
    router_matrix,
    switch_eval,
    switch_train,
    top_k_weights,
)
from relmux.tensor import Tensor
from relmux.training import TrainLog, train_stage1, train_stage2

from gradcheck import finite_diff_check, tsum
from oracles import layer_norm, relu, tanh
from test_training import batch_mean

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCHMARK_SEEDS = (1, 2, 3)


def criterion(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} — {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared training fixtures


@pytest.fixture(scope="module")
def benchmark_runs(tmp_path_factory):
    """Three seeded runs on the standard skewed 6-language benchmark: the shared
    multilingual model (both stages, dev and test reports) plus a monolingual
    model for the lowest-resource language."""
    tmp = tmp_path_factory.mktemp("benchmark")
    registry_in = LanguageRegistry.load(CONFIGS / "benchmark_langs.json")
    base_cfg = load_run_config(CONFIGS / "benchmark.json")
    # the benchmark corpus uses heavy within-family vocabulary sharing (real
    # families share most cognates); the generator default stays lower
    gen = GeneratorConfig(family_share=0.85)
    runs = []
    for seed in BENCHMARK_SEEDS:
        t0 = time.time()
        corpus = generate_corpus(registry_in.languages, registry_in.schema, seed=100 + seed, gen=gen)
        cfg = replace(base_cfg, train=replace(base_cfg.train, seed=seed))
        out = tmp / f"seed{seed}"
        model = Model.build(replace(cfg.model), corpus.registry, init_seed=seed)
        log = TrainLog()
        train_stage1(model, corpus, cfg, out, log)
        dev_stage1 = evaluate_model(model, corpus.dev, corpus.registry)
        train_stage2(model, corpus, cfg, out, log)
        dev_stage2 = evaluate_model(model, corpus.dev, corpus.registry)
        test_stage2 = evaluate_model(model, corpus.test, corpus.registry)

        lowest = min(corpus.registry.languages, key=lambda l: l.resource_size)
        mono_corpus = _restrict_corpus(corpus, [lowest.id])
        mono_cfg = replace(cfg, train=replace(cfg.train, concat_sentences=1))
        mono_model = train_two_stage(mono_corpus, mono_cfg, out / "mono")
        mono_test = evaluate_model(mono_model, mono_corpus.test, mono_corpus.registry)
        runs.append(
            {
                "seed": seed,
                "corpus": corpus,
                "model": model,
                "lowest": lowest.code,
                "dev_stage1": dev_stage1,
                "dev_stage2": dev_stage2,
                "test_stage2": test_stage2,
                "mono_test": mono_test,
                "seconds": time.time() - t0,
            }
        )
    return runs


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    """The 64-sentence, 3-language overfit run under the shipped configs."""
    tmp = tmp_path_factory.mktemp("overfit")
    registry_in = LanguageRegistry.load(CONFIGS / "overfit_langs.json")
    cfg = load_run_config(CONFIGS / "overfit.json")
    corpus = generate_corpus(registry_in.languages, registry_in.schema, seed=5)
    assert len(corpus.train) == 64
    t0 = time.time()
    model = Model.build(replace(cfg.model), corpus.registry, init_seed=cfg.train.seed)
    log = TrainLog()
    train_stage1(model, corpus, cfg, tmp, log)
    train_stage2(model, corpus, cfg, tmp, log)
    elapsed = time.time() - t0
    steps = len([l for l in log.lines if "loss" in l])
    report = evaluate_model(model, corpus.train, corpus.registry)
    return {"report": report, "steps": steps, "seconds": elapsed, "log": log,
            "model": model, "corpus": corpus}


def _toy_examples():
    # m <= 6 after [CLS] [LANG] three tokens [SEP]
    langs = [
        LanguageSpec(0, "la", "SVO", "fa", 10, vocab=("aka", "bok", "cul", "dor")),
        LanguageSpec(1, "lb", "SOV", "fb", 10, vocab=("aka", "eme", "fin", "gor")),
    ]
    schema = RelationSchema(
        relations=("no_relation", "rel-a", "rel-b"), allowed=np.ones((2, 3), dtype=bool)
    )
    registry = LanguageRegistry(languages=langs, schema=schema)
    examples = [
        Example(id="a", lang=0, tokens=("aka", "bok", "cul"), head_span=(0, 0), tail_span=(2, 2), relation=1),
        Example(id="b", lang=1, tokens=("eme", "fin", "gor"), head_span=(0, 1), tail_span=(2, 2), relation=2),
        Example(id="c", lang=0, tokens=("dor", "aka", "bok"), head_span=(-1, -1), tail_span=(-1, -1), relation=0),
    ]
    return registry, examples


# ---------------------------------------------------------------------------
# criteria


def test_criterion_scope_note():
    criterion(
        "published-score reproduction out of scope",
        True,
        "absolute full-scale F1 requires a pretrained encoder and the original corpus; "
        "acceptance here is property-based and directional",
    )


def test_criterion_gradient_integrity():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = {}

    # (a) every tensor-engine primitive
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    worst["matmul"] = finite_diff_check(lambda: tsum(T.matmul(a, b)), {"a": a, "b": b}).max_rel_error
    x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 6)))
    worst["softmax"] = finite_diff_check(
        lambda: tsum(T.mul(T.softmax_rows(x), w)), {"x": x}
    ).max_rel_error
    g = Tensor(rng.normal(size=6), requires_grad=True)
    bias = Tensor(rng.normal(size=6), requires_grad=True)
    worst["layer_norm"] = finite_diff_check(
        lambda: tsum(T.mul(layer_norm(x, g, bias), w)), {"x": x, "g": g, "b": bias}
    ).max_rel_error
    y = Tensor(rng.normal(size=(2, 6)) + 0.1, requires_grad=True)
    worst["relu"] = finite_diff_check(lambda: tsum(relu(y)), {"y": y}).max_rel_error
    worst["tanh"] = finite_diff_check(lambda: tsum(tanh(x)), {"x": x}).max_rel_error
    lg = Tensor(rng.normal(size=5), requires_grad=True)
    worst["cross_entropy"] = finite_diff_check(lambda: T.cross_entropy(lg, 2), {"lg": lg}).max_rel_error

    # (b) the full stage-1 loss and (c) the full stage-2 loss with the router
    # active, at toy dimensions d=8, m<=6, T=3
    registry, examples = _toy_examples()
    cfg = ModelConfig(
        d_model=8, n_blocks=1, n_heads=2, ffn_dim=16, max_len=8,
        n_sub_modules=3, sub_layers=(2, 1, 1), bottleneck=12, eval_top_k=2,
    )
    model = Model.build(cfg, registry, init_seed=11)
    split = model.tokenize(examples)
    params_s1 = {n: t for n, t in model.registry.items() if not n.startswith("switcher.")}
    worst["stage1_loss"] = finite_diff_check(
        lambda: model.stage1_batch_loss(split, np.array([[0, 1]]), 2.0, 1.0),
        params_s1, max_coords=3, rng=np.random.default_rng(1),
    ).max_rel_error
    params_all = dict(model.registry.items())
    model.stage = 2  # the switcher runs, and nothing is frozen
    worst["stage2_loss"] = finite_diff_check(
        lambda: model.stage2_batch_loss(model.frozen_prefix(split), np.arange(len(examples)), 2.0, 1.0),
        params_all, max_coords=3, rng=np.random.default_rng(2),
    ).max_rel_error

    elapsed = time.time() - t0
    peak = max(worst.values())
    criterion(
        "gradient integrity",
        peak < 1e-4 and elapsed < 120.0,
        f"max rel error {peak:.3e} over {list(worst)} in {elapsed:.1f}s (< 1e-4, < 120s)",
    )


def test_criterion_switcher_algebra():
    cfg = ModelConfig(
        d_model=8, n_blocks=1, n_heads=2, ffn_dim=16, max_len=8,
        n_sub_modules=6, sub_layers=(2, 2, 2, 1, 1, 1), bottleneck=12, eval_top_k=3,
    )
    n_languages = 4
    reg = ParamRegistry()
    build_switcher_params(reg, cfg, n_languages, np.random.default_rng(3))
    reg["switcher.lang_emb"].data = np.random.default_rng(4).normal(size=reg["switcher.lang_emb"].shape)
    rng = np.random.default_rng(5)
    h = Tensor(rng.normal(size=(5, 8)))

    full_gap = 0.0
    for lang in range(n_languages):
        train_out = switch_train(h, lang, reg, cfg)
        eval_out = switch_eval(h, top_k_weights(router_matrix(reg, cfg)[:, lang], cfg.n_sub_modules), reg, cfg)
        full_gap = max(full_gap, float(np.abs(train_out.data - eval_out.data).max()))

    want = apply_submodule(2, h, reg, cfg).data
    # every other sub-module gives NaN, so running one at weight 0 shows;
    # the checks below read only the router
    for t, depth in enumerate(cfg.sub_layers):
        for layer in range(depth):
            if t != 2:
                reg[f"switcher.sub{t}.layer{layer}.ln.bias"].data[:] = np.nan
    one_hot = switch_eval(h, np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), reg, cfg)
    exact = np.array_equal(one_hot.data, want)

    nested = True
    for lang in range(n_languages):
        probs = router_matrix(reg, cfg)[:, lang]
        prev: set = set()
        for k in range(1, cfg.n_sub_modules + 1):
            cur = set(np.flatnonzero(top_k_weights(probs, k)).tolist())
            nested = nested and prev <= cur
            prev = cur

    heat = router_matrix(reg, cfg)
    col_err = float(np.abs(heat.sum(axis=0) - 1.0).max())

    criterion(
        "switcher algebra",
        full_gap <= 1e-12 and exact and nested and col_err <= 1e-9,
        f"eval(T)-train gap {full_gap:.2e} (<=1e-12), one-hot exact {exact}, "
        f"top-k nested {nested}, heatmap column error {col_err:.2e} (<=1e-9)",
    )


def test_criterion_freezing_contract(tmp_path):
    langs = [
        LanguageSpec(0, "valo", "SVO", "valic", 32),
        LanguageSpec(1, "koru", "SOV", "korvic", 28),
        LanguageSpec(2, "zahr", "VSO", "zahric", 20),
    ]
    rels = ("no_relation", "has-kind", "locat-in", "works-for", "made-by")
    schema = RelationSchema(relations=rels, allowed=np.ones((3, 5), dtype=bool))
    corpus = generate_corpus(langs, schema, seed=5)
    cfg = load_run_config(CONFIGS / "overfit.json")
    cfg = replace(cfg, train=replace(cfg.train, stage1_epochs=3, stage2_max_epochs=4, patience=10))
    model = Model.build(replace(cfg.model), corpus.registry, init_seed=0)
    log = TrainLog()
    ck1 = train_stage1(model, corpus, cfg, tmp_path, log)
    train_stage2(model, corpus, cfg, tmp_path, log)
    _, stage1_params, _ = load_checkpoint(ck1)
    # the shared layers, named here rather than read from the model's freezing
    frozen = [name for name in model.registry.names() if name.startswith(("encoder.", "aggregator."))]
    bad = [
        name for name in frozen
        if not np.array_equal(model.registry[name].data, stage1_params[name])
    ]
    moved = sum(
        1 for name in model.registry.names()
        if name not in frozen and not np.array_equal(model.registry[name].data, stage1_params[name])
    )
    criterion(
        "freezing contract",
        not bad and moved > 0,
        f"{len(frozen)} frozen tensors bitwise identical after stage 2 "
        f"(violations: {bad[:3]}), {moved} trainable tensors updated",
    )


def test_criterion_loss_formula():
    entity = [Tensor(1.0) for _ in range(4)]
    loss = sentence_ere_loss(Tensor(0.5), entity, alpha=2.0, beta=1.0)
    err = abs(loss.item() - 4.5)
    known = [
        sentence_ere_loss(Tensor(0.25), [Tensor(0.5), Tensor(1.5), Tensor(2.0), Tensor(1.0)], 2.0, 1.0).item(),
        batch_mean([sentence_ere_loss(Tensor(1.0), [Tensor(2.0)] * 4, 2.0, 1.0),
                    sentence_ere_loss(Tensor(3.0), [], 2.0, 1.0)]).item(),
    ]
    err = max(err, abs(known[0] - ((0.5 + 1.5 + 2.0 + 1.0) + 0.25)), abs(known[1] - (9.0 + 3.0) / 2))
    criterion("loss formula", err < 1e-12, f"max deviation from hand substitution {err:.2e} (< 1e-12)")


def test_criterion_overfit(overfit_run):
    f1 = overfit_run["report"].overall.triple_f1
    ok = f1 >= 0.95 and overfit_run["steps"] <= 300 and overfit_run["seconds"] < 300.0
    criterion(
        "overfit sanity",
        ok,
        f"train triple-F1 {f1:.3f} (>= 0.95) in {overfit_run['steps']} steps (<= 300), "
        f"{overfit_run['seconds']:.0f}s (< 300s)",
    )


def test_overfit_model_emits_sentinels_for_no_relation(overfit_run):
    model = overfit_run["model"]
    corpus = overfit_run["corpus"]
    null_golds = [e for e in corpus.train if e.relation == 0]
    assert null_golds
    for pred in model.predict_all(null_golds):
        assert pred.relation == 0
        assert pred.head_span == (-1, -1) and pred.tail_span == (-1, -1)


def test_criterion_multilingual_transfer(benchmark_runs):
    gaps = []
    for run in benchmark_runs:
        code = run["lowest"]
        multi = run["test_stage2"].per_language[code].triple_f1
        mono = run["mono_test"].per_language[code].triple_f1
        gaps.append(multi - mono)
    mean_gap = float(np.mean(gaps))
    criterion(
        "directional multilingual transfer",
        mean_gap >= 0.05,
        f"lowest-resource language triple-F1 gap multi-mono per seed {[round(g, 3) for g in gaps]}, "
        f"3-seed mean {mean_gap:.3f} (>= 0.05)",
    )


def test_criterion_stage2_benefit(benchmark_runs):
    codes = list(benchmark_runs[0]["dev_stage1"].per_language)
    s1 = {c: np.mean([r["dev_stage1"].per_language[c].triple_f1 for r in benchmark_runs]) for c in codes}
    s2 = {c: np.mean([r["dev_stage2"].per_language[c].triple_f1 for r in benchmark_runs]) for c in codes}
    macro1 = float(np.mean(list(s1.values())))
    macro2 = float(np.mean(list(s2.values())))
    improved = [c for c in codes if s2[c] > s1[c]]
    ok = macro2 >= macro1 - 1e-12 and len(improved) >= len(codes) / 2
    # information only: each seed's overall triple-F1, so a change that moves
    # bits shows its effect in the log
    per_seed = "; ".join(
        f"seed {r['seed']} {r['dev_stage1'].overall.triple_f1:.3f}/{r['dev_stage2'].overall.triple_f1:.3f}/"
        f"{r['test_stage2'].overall.triple_f1:.3f}" for r in benchmark_runs
    )
    criterion(
        "stage-2 benefit",
        ok,
        f"3-seed mean dev triple-F1 {macro1:.3f} -> {macro2:.3f}, improved on "
        f"{len(improved)}/{len(codes)} languages ({improved}); overall triple-F1 dev-s1/dev-s2/test {per_seed}",
    )


def test_criterion_metric_dominance(benchmark_runs, overfit_run):
    reports = [overfit_run["report"]]
    for run in benchmark_runs:
        reports += [run["dev_stage1"], run["dev_stage2"], run["test_stage2"], run["mono_test"]]
    worst = 0.0
    for report in reports:
        report.check_invariants()
        for m in list(report.per_language.values()) + [report.overall]:
            worst = max(worst, m.triple_f1 - min(m.relation_f1, m.entity_pair_f1))
    criterion(
        "metric dominance",
        worst <= 1e-12,
        f"triple_f1 - min(relation_f1, pair_f1) <= {worst:.2e} over {len(reports)} reports "
        "(also enforced inside the report writer)",
    )


def test_criterion_determinism(tmp_path):
    langs_doc = {
        "schema_version": 1,
        "languages": [
            {"code": "valo", "word_order": "SVO", "family": "valic", "resource_size": 24},
            {"code": "koru", "word_order": "SOV", "family": "korvic", "resource_size": 20},
        ],
        "relations": ["no_relation", "has-kind", "locat-in"],
        "allowed": {"valo": ["no_relation", "has-kind", "locat-in"],
                    "koru": ["no_relation", "has-kind", "locat-in"]},
    }
    langs = tmp_path / "langs.json"
    langs.write_text(json.dumps(langs_doc), encoding="utf-8")
    run_doc = {
        "model": {"d_model": 16, "n_blocks": 1, "n_heads": 2, "ffn_dim": 32, "max_len": 32,
                  "n_sub_modules": 3, "sub_layers": [1, 1, 1], "bottleneck": 32, "eval_top_k": 2},
        "train": {"concat_sentences": 2, "batch_size": 8, "lr": 0.003,
                  "stage1_epochs": 2, "stage2_max_epochs": 2, "patience": 3, "seed": 4},
    }

    def workflow(root: Path) -> dict[str, bytes]:
        doc = dict(run_doc)
        doc["corpus_dir"] = str(root / "corpus")
        cfgp = root / "run.json"
        root.mkdir(parents=True, exist_ok=True)
        cfgp.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["generate", "--langs", str(langs), "--seed", "9", "--out", str(root / "corpus")]) == 0
        assert cli_main(["train", "--stage", "1", "--config", str(cfgp), "--out", str(root / "run")]) == 0
        assert cli_main(["train", "--stage", "2", "--config", str(cfgp),
                         "--resume", str(root / "run" / "stage1.ckpt"), "--out", str(root / "run")]) == 0
        assert cli_main(["eval", "--ckpt", str(root / "run" / "stage2.ckpt"),
                         "--corpus", str(root / "corpus"), "--split", "dev",
                         "--out", str(root / "eval")]) == 0
        files = {}
        for rel in ("corpus/train.txt", "corpus/dev.txt", "corpus/test.txt", "corpus/registry.json",
                    "corpus/vocab.txt", "run/stage1.ckpt", "run/stage2.ckpt",
                    "eval/report.json", "eval/report.txt", "eval/relation_grid.csv",
                    "eval/predictions.jsonl", "eval/router_heatmap.csv"):
            files[rel] = (root / rel).read_bytes()
        return files

    first = workflow(tmp_path / "a")
    second = workflow(tmp_path / "b")
    differing = [rel for rel in first if first[rel] != second[rel]]
    criterion(
        "determinism",
        not differing,
        f"{len(first)} artifacts byte-identical across reruns (differing: {differing})",
    )


# ---------------------------------------------------------------------------
# supporting findings measured on the benchmark runs


def test_router_family_structure(benchmark_runs):
    """Same-family languages retain overlapping top-3 sub-module sets."""
    jaccards = []
    for run in benchmark_runs:
        model = run["model"]
        corpus = run["corpus"]
        mat = router_matrix(model.registry, model.cfg)
        retained = {
            l.code: set(np.flatnonzero(top_k_weights(mat[:, l.id], 3)).tolist())
            for l in corpus.registry.languages
        }
        families: dict[str, list[str]] = {}
        for l in corpus.registry.languages:
            families.setdefault(l.family, []).append(l.code)
        for codes in families.values():
            for a, b in combinations(codes, 2):
                jaccards.append(len(retained[a] & retained[b]) / len(retained[a] | retained[b]))
    mean_jac = float(np.mean(jaccards))
    print(f"router family structure: mean same-family top-3 Jaccard {mean_jac:.3f} over 3 seeds")
    assert mean_jac >= 0.5


# Wall time of the whole benchmark fixture (3 seeds, a shared and a monolingual
# model each): BENCHMARK_FIXTURE_MEASURED_S is the median of 3 timings (21.2,
# 21.3 and 23.4 s) on a 2-core x86 host with Python 3.11 and numpy 2.4, BLAS
# threads left at their default; the bound leaves 2.5x for host speed drift.
# Never raise it to get a pass: a slower suite is the regression this catches.
BENCHMARK_FIXTURE_MEASURED_S = 21.3
BENCHMARK_FIXTURE_BOUND_S = 2.5 * BENCHMARK_FIXTURE_MEASURED_S


def test_benchmark_runtime_is_desk_scale(benchmark_runs):
    assert len(benchmark_runs) == 3
    seconds = [round(run["seconds"], 1) for run in benchmark_runs]
    print(f"benchmark fixture: {sum(seconds):.1f}s over 3 seeds {seconds} (bound {BENCHMARK_FIXTURE_BOUND_S:.0f}s)")
    assert sum(seconds) < BENCHMARK_FIXTURE_BOUND_S
