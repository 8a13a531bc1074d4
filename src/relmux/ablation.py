"""Ablation sweep drivers.

Each driver trains or evaluates a family of variants under shared seeds and
writes a comparison CSV of triple-F1 per variant per language:

  concat_count            stage-1 group size s in {1, 2, 3, 4}
  topk_sweep              evaluation-time k in {1..T} on one trained checkpoint
  layer_numbers           sub-module depth layouts (two groups of T/2)
  mono_vs_multi           per-language monolingual models vs one shared model
  language_groups         training restricted to a family or word-order group
  no_selection_T_experts  one dedicated sub-module per language, identity routing

Variants that train independent models can run in parallel worker processes
(`jobs` > 1); each variant is fully seeded, so results do not depend on the
degree of parallelism.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .config import RunConfig
from .corpus import Corpus, LanguageRegistry, LanguageSpec, RelationSchema
from .errors import ConfigError
from .evaluation import evaluate_model
from .model import Model
from .training import TrainLog, train_stage1, train_stage2

def train_two_stage(corpus: Corpus, run_cfg: RunConfig, out_dir: Path) -> Model:
    model = Model.build(run_cfg.model, corpus.registry, init_seed=run_cfg.train.seed)
    log = TrainLog()
    train_stage1(model, corpus, run_cfg, out_dir, log)
    train_stage2(model, corpus, run_cfg, out_dir, log)
    return model


def _run_variant(job: tuple[str, Corpus, RunConfig, str]) -> tuple[str, dict[str, float]]:
    """Train one variant and score its test split; top-level so workers can pickle it."""
    variant, corpus, run_cfg, out_dir = job
    model = train_two_stage(corpus, run_cfg, Path(out_dir))
    return variant, _test_scores(model, corpus)


def _test_scores(model: Model, corpus: Corpus, top_k: int | None = None) -> dict[str, float]:
    """Test triple-F1 per language code, and the macro average under ``AVG``."""
    report = evaluate_model(model, corpus.test, corpus.registry, top_k=top_k)
    return {**{code: m.triple_f1 for code, m in report.per_language.items()}, "AVG": report.macro_avg["triple_f1"]}


def _execute(jobs: list[tuple[str, Corpus, RunConfig, str]], n_workers: int) -> dict[str, dict[str, float]]:
    if n_workers <= 1 or len(jobs) <= 1:
        results = [_run_variant(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
            results = list(pool.map(_run_variant, jobs))
    return dict(results)


def _sweep(jobs_list: list[tuple[str, Corpus, RunConfig, str]], n_workers: int) -> list[dict]:
    """Run every variant and collect its rows, in job order."""
    results = _execute(jobs_list, n_workers)
    return [row for variant, *_ in jobs_list for row in _rows(variant, results[variant])]


def _rows(variant: str, scores: dict[str, float], languages: list[str] | None = None) -> list[dict]:
    rows = []
    for code, f1 in scores.items():
        if code == "AVG":
            continue
        if languages is None or code in languages:
            rows.append({"variant": variant, "language": code, "triple_f1": f1})
    if languages is None:
        rows.append({"variant": variant, "language": "AVG", "triple_f1": scores["AVG"]})
    return rows


def write_rows_csv(rows: list[dict], path: Path) -> None:
    lines = ["variant,language,triple_f1"]
    for row in rows:
        lines.append(f"{row['variant']},{row['language']},{repr(float(row['triple_f1']))}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def ablate_concat_count(corpus: Corpus, run_cfg: RunConfig, out_dir: Path, jobs: int = 1) -> list[dict]:
    jobs_list = []
    for s in (1, 2, 3, 4):
        if s > corpus.registry.n_languages:
            continue
        variant_cfg = replace(run_cfg, train=replace(run_cfg.train, concat_sentences=s))
        jobs_list.append((f"s={s}", corpus, variant_cfg, str(out_dir / f"s{s}")))
    return _sweep(jobs_list, jobs)


def ablate_topk_sweep(corpus: Corpus, run_cfg: RunConfig, out_dir: Path, jobs: int = 1) -> list[dict]:
    model = train_two_stage(corpus, run_cfg, out_dir / "base")
    return [row for k in range(1, run_cfg.model.n_sub_modules + 1)
            for row in _rows(f"k={k}", _test_scores(model, corpus, top_k=k))]


def ablate_layer_numbers(corpus: Corpus, run_cfg: RunConfig, out_dir: Path, jobs: int = 1) -> list[dict]:
    t = run_cfg.model.n_sub_modules
    half = t // 2
    jobs_list = []
    for depth_a, depth_b in ((1, 1), (1, 2), (2, 2)):
        layers = tuple([depth_a] * half + [depth_b] * (t - half))
        variant_cfg = replace(run_cfg, model=replace(run_cfg.model, sub_layers=layers))
        jobs_list.append((f"layers={depth_a}-{depth_b}", corpus, variant_cfg,
                          str(out_dir / f"layers_{depth_a}-{depth_b}")))
    return _sweep(jobs_list, jobs)


def ablate_mono_vs_multi(corpus: Corpus, run_cfg: RunConfig, out_dir: Path, jobs: int = 1) -> list[dict]:
    """One shared multilingual model against one model per language."""
    jobs_list = [("multilingual", corpus, run_cfg, str(out_dir / "multi"))]
    mono_langs = []
    for lang in corpus.registry.languages:
        mono_corpus = _restrict_corpus(corpus, [lang.id])
        mono_cfg = replace(run_cfg, train=replace(run_cfg.train, concat_sentences=1))
        jobs_list.append((f"mono_{lang.code}", mono_corpus, mono_cfg, str(out_dir / f"mono_{lang.code}")))
        mono_langs.append(lang.code)
    results = _execute(jobs_list, jobs)
    rows = _rows("multilingual", results["multilingual"])
    for code in mono_langs:
        rows += _rows(f"mono_{code}", results[f"mono_{code}"], languages=[code])
    return rows


def _restrict_corpus(corpus: Corpus, keep_ids: list[int]) -> Corpus:
    """Keep a subset of languages, renumbering ids densely."""
    remap = {old: new for new, old in enumerate(keep_ids)}
    languages = []
    for old in keep_ids:
        l = corpus.registry.languages[old]
        languages.append(LanguageSpec(remap[old], l.code, l.word_order, l.family, l.resource_size, l.vocab))
    allowed = corpus.registry.schema.allowed[keep_ids, :]
    registry = LanguageRegistry(
        languages=languages,
        schema=RelationSchema(relations=corpus.registry.schema.relations, allowed=allowed),
    )

    def remap_examples(examples):
        return [replace(ex, lang=remap[ex.lang]) for ex in examples if ex.lang in remap]

    return Corpus(
        registry=registry,
        train=remap_examples(corpus.train),
        dev=remap_examples(corpus.dev),
        test=remap_examples(corpus.test),
    )


def ablate_language_groups(corpus: Corpus, run_cfg: RunConfig, out_dir: Path, jobs: int = 1) -> list[dict]:
    """Full multilingual training vs the largest family group vs an SVO group."""
    langs = corpus.registry.languages
    families: dict[str, list[int]] = {}
    for l in langs:
        families.setdefault(l.family, []).append(l.id)
    family_name, family_ids = max(families.items(), key=lambda kv: len(kv[1]))
    groups = {f"family_{family_name}": family_ids, "svo": [l.id for l in langs if l.word_order == "SVO"]}

    jobs_list = [("all", corpus, run_cfg, str(out_dir / "all"))]
    for name, ids in groups.items():
        if len(ids) < 2:
            continue
        sub = _restrict_corpus(corpus, sorted(ids))
        jobs_list.append((name, sub, run_cfg, str(out_dir / name)))
    return _sweep(jobs_list, jobs)


def ablate_no_selection(corpus: Corpus, run_cfg: RunConfig, out_dir: Path, jobs: int = 1) -> list[dict]:
    """Learned routing over T sub-modules vs one dedicated sub-module per language."""
    n = corpus.registry.n_languages
    depth = run_cfg.model.sub_layers[0]
    identity_model = replace(run_cfg.model, routing="identity", n_sub_modules=n, sub_layers=(depth,) * n)
    identity_cfg = replace(run_cfg, model=identity_model)
    jobs_list = [
        ("routed", corpus, run_cfg, str(out_dir / "routed")),
        ("one_per_language", corpus, identity_cfg, str(out_dir / "one_per_language")),
    ]
    return _sweep(jobs_list, jobs)


DRIVERS = {
    "concat_count": ablate_concat_count,
    "topk_sweep": ablate_topk_sweep,
    "layer_numbers": ablate_layer_numbers,
    "mono_vs_multi": ablate_mono_vs_multi,
    "language_groups": ablate_language_groups,
    "no_selection_T_experts": ablate_no_selection,
}
ABLATION_NAMES = tuple(DRIVERS)


def run_ablation(name: str, corpus: Corpus, run_cfg: RunConfig, out_dir: str | Path, jobs: int = 1) -> list[dict]:
    if name not in DRIVERS:
        raise ConfigError(f"unknown ablation {name!r}; choose from {', '.join(ABLATION_NAMES)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = DRIVERS[name](corpus, run_cfg, out, jobs=jobs)
    write_rows_csv(rows, out / f"{name}.csv")
    (out / f"{name}.json").write_text(json.dumps(rows, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return rows
