"""Ablation sweep drivers.

Each driver trains or evaluates a family of variants under shared seeds and
writes a comparison CSV of triple-F1 per variant per language:

  concat_count            stage-1 group size s in {1, 2, 3, 4}
  topk_sweep              evaluation-time k in {1..T} on one trained checkpoint
  layer_numbers           sub-module depth layouts (two groups of T/2)
  mono_vs_multi           per-language monolingual models vs one shared model
  language_groups         training restricted to a family or word-order group
  no_selection_T_experts  one dedicated sub-module per language, identity routing

Every variant is fully seeded, and the variants train one after another.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from .config import MAX_CONCAT_TOKENS, RunConfig, write_atomic
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


def _test_scores(model: Model, corpus: Corpus, top_k: int | None = None) -> dict[str, float]:
    """Test triple-F1 per language code, and the macro average under ``AVG``."""
    report = evaluate_model(model, corpus.test, corpus.registry, top_k=top_k)
    return {**{code: m.triple_f1 for code, m in report.per_language.items()}, "AVG": report.macro_avg["triple_f1"]}


def _sweep(variants: list[tuple[str, Corpus, RunConfig, Path, list[str] | None]]) -> list[dict]:
    """Train each (name, corpus, config, out_dir, languages) variant in order
    and collect its test rows: every language and ``AVG``, or only
    ``languages`` when the variant names them."""
    rows = []
    for variant, corpus, run_cfg, out_dir, languages in variants:
        model = train_two_stage(corpus, run_cfg, out_dir)
        rows += _rows(variant, _test_scores(model, corpus), languages)
    return rows


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
    write_atomic(path, "\n".join(lines) + "\n")


def ablate_concat_count(corpus: Corpus, run_cfg: RunConfig, out_dir: Path) -> list[dict]:
    """Each group size s the corpus's languages and ``MAX_CONCAT_TOKENS`` allow."""
    variants = []
    for s in (1, 2, 3, 4):
        if s > corpus.registry.n_languages or s * run_cfg.model.max_len > MAX_CONCAT_TOKENS:
            continue
        variant_cfg = replace(run_cfg, train=replace(run_cfg.train, concat_sentences=s))
        variants.append((f"s={s}", corpus, variant_cfg, out_dir / f"s{s}", None))
    return _sweep(variants)


def ablate_topk_sweep(corpus: Corpus, run_cfg: RunConfig, out_dir: Path) -> list[dict]:
    model = train_two_stage(corpus, run_cfg, out_dir / "base")
    return [row for k in range(1, run_cfg.model.n_sub_modules + 1)
            for row in _rows(f"k={k}", _test_scores(model, corpus, top_k=k))]


def ablate_layer_numbers(corpus: Corpus, run_cfg: RunConfig, out_dir: Path) -> list[dict]:
    t = run_cfg.model.n_sub_modules
    half = t // 2
    variants = []
    for depth_a, depth_b in ((1, 1), (1, 2), (2, 2)):
        layers = tuple([depth_a] * half + [depth_b] * (t - half))
        variant_cfg = replace(run_cfg, model=replace(run_cfg.model, sub_layers=layers))
        variants.append((f"layers={depth_a}-{depth_b}", corpus, variant_cfg,
                         out_dir / f"layers_{depth_a}-{depth_b}", None))
    return _sweep(variants)


def ablate_mono_vs_multi(corpus: Corpus, run_cfg: RunConfig, out_dir: Path) -> list[dict]:
    """One shared multilingual model against one model per language."""
    mono_cfg = replace(run_cfg, train=replace(run_cfg.train, concat_sentences=1))
    variants = [("multilingual", corpus, run_cfg, out_dir / "multi", None)]
    for lang in corpus.registry.languages:
        variants.append((f"mono_{lang.code}", _restrict_corpus(corpus, [lang.id]), mono_cfg,
                         out_dir / f"mono_{lang.code}", [lang.code]))
    return _sweep(variants)


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


def ablate_language_groups(corpus: Corpus, run_cfg: RunConfig, out_dir: Path) -> list[dict]:
    """Full multilingual training vs the largest family group vs an SVO group;
    a group of fewer than two languages, or of fewer than the stage-1 group
    size, is left out."""
    langs = corpus.registry.languages
    families: dict[str, list[int]] = {}
    for l in langs:
        families.setdefault(l.family, []).append(l.id)
    family_name, family_ids = max(families.items(), key=lambda kv: len(kv[1]))
    groups = {f"family_{family_name}": family_ids, "svo": [l.id for l in langs if l.word_order == "SVO"]}

    variants = [("all", corpus, run_cfg, out_dir / "all", None)]
    for name, ids in groups.items():
        if len(ids) < max(2, run_cfg.train.concat_sentences):
            continue
        sub = _restrict_corpus(corpus, sorted(ids))
        variants.append((name, sub, run_cfg, out_dir / name, None))
    return _sweep(variants)


def ablate_no_selection(corpus: Corpus, run_cfg: RunConfig, out_dir: Path) -> list[dict]:
    """Learned routing over T sub-modules vs one dedicated sub-module per
    language. Identity routing mixes every language's one sub-module alone at
    any k, so its ``eval_top_k`` is only cut to the n sub-modules it has."""
    n = corpus.registry.n_languages
    depth = run_cfg.model.sub_layers[0]
    identity_model = replace(run_cfg.model, routing="identity", n_sub_modules=n, sub_layers=(depth,) * n,
                             eval_top_k=min(run_cfg.model.eval_top_k, n))
    identity_cfg = replace(run_cfg, model=identity_model)
    return _sweep([
        ("routed", corpus, run_cfg, out_dir / "routed", None),
        ("one_per_language", corpus, identity_cfg, out_dir / "one_per_language", None),
    ])


DRIVERS = {
    "concat_count": ablate_concat_count,
    "topk_sweep": ablate_topk_sweep,
    "layer_numbers": ablate_layer_numbers,
    "mono_vs_multi": ablate_mono_vs_multi,
    "language_groups": ablate_language_groups,
    "no_selection_T_experts": ablate_no_selection,
}
ABLATION_NAMES = tuple(DRIVERS)


def run_ablation(name: str, corpus: Corpus, run_cfg: RunConfig, out_dir: str | Path) -> list[dict]:
    if name not in DRIVERS:
        raise ConfigError(f"unknown ablation {name!r}; choose from {', '.join(ABLATION_NAMES)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = DRIVERS[name](corpus, run_cfg, out)
    write_rows_csv(rows, out / f"{name}.csv")
    write_atomic(out / f"{name}.json", json.dumps(rows, sort_keys=True, indent=1) + "\n")
    return rows
