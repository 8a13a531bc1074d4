"""Scoring and reporting: micro-F1 per language for relation / entity pair /
triple, head-vs-tail breakdowns, a per-relation grid, and the router heatmap.

Spans must match exactly on both endpoints. A triple is correct when the
entity pair and the relation are both correct. All metrics pool over the same
sentence population: a sentence whose gold relation is no_relation carries
sentinel spans, and its pair/triple predictions count as correct exactly when
the model also predicts no_relation. Pooling every metric over one population
makes the dominance chain triple <= min(relation, entity pair) hold by
construction; the report writer still checks it and refuses to emit a
violating report. With one prediction per sentence every micro-F1 here
coincides with accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Example, LanguageRegistry
from .errors import CheckpointError, RelmuxError
from .heads import TriplePrediction
from .switcher import router_matrix


class MetricsInvariantError(RelmuxError):
    """A produced evaluation violated a structural metric invariant."""


@dataclass
class TripleScore:
    relation_ok: bool
    entity_bearing: bool            # gold carries real spans
    head_ok: bool
    tail_ok: bool
    pair_ok: bool
    triple_ok: bool


def score_triple(pred: TriplePrediction, gold: Example) -> TripleScore:
    if pred.example_id != gold.id:
        raise ValueError(f"prediction {pred.example_id} scored against example {gold.id}")
    relation_ok = pred.relation == gold.relation
    # For a no_relation gold both spans are sentinels, so the exact-match rule
    # below degenerates to "did the model also predict no_relation".
    head_ok = pred.head_span == gold.head_span
    tail_ok = pred.tail_span == gold.tail_span
    pair_ok = head_ok and tail_ok
    return TripleScore(
        relation_ok=relation_ok,
        entity_bearing=gold.relation != 0,
        head_ok=head_ok,
        tail_ok=tail_ok,
        pair_ok=pair_ok,
        triple_ok=pair_ok and relation_ok,
    )


def micro_f1(tp: int, fp: int, fn: int) -> float:
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be nonnegative")
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


@dataclass
class _Counts:
    n_sentences: int = 0
    n_entity_bearing: int = 0
    rel_correct: int = 0
    head_tp: int = 0
    tail_tp: int = 0
    pair_tp: int = 0
    triple_tp: int = 0

    def add(self, score: TripleScore) -> None:
        self.n_sentences += 1
        self.n_entity_bearing += int(score.entity_bearing)
        self.rel_correct += int(score.relation_ok)
        self.head_tp += int(score.head_ok)
        self.tail_tp += int(score.tail_ok)
        self.pair_tp += int(score.pair_ok)
        self.triple_tp += int(score.triple_ok)


@dataclass
class LanguageMetrics:
    relation_f1: float
    entity_pair_f1: float
    triple_f1: float
    head_f1: float
    tail_f1: float
    n_sentences: int
    n_entity_bearing: int

    def to_json(self) -> dict:
        return {
            "relation_f1": self.relation_f1,
            "entity_pair_f1": self.entity_pair_f1,
            "triple_f1": self.triple_f1,
            "head_f1": self.head_f1,
            "tail_f1": self.tail_f1,
            "n_sentences": self.n_sentences,
            "n_entity_bearing": self.n_entity_bearing,
        }


def _metrics_from_counts(c: _Counts) -> LanguageMetrics:
    def pooled_f1(tp: int) -> float:
        wrong = c.n_sentences - tp
        return micro_f1(tp, wrong, wrong)

    return LanguageMetrics(
        relation_f1=pooled_f1(c.rel_correct),
        entity_pair_f1=pooled_f1(c.pair_tp),
        triple_f1=pooled_f1(c.triple_tp),
        head_f1=pooled_f1(c.head_tp),
        tail_f1=pooled_f1(c.tail_tp),
        n_sentences=c.n_sentences,
        n_entity_bearing=c.n_entity_bearing,
    )


@dataclass
class MetricsReport:
    per_language: dict[str, LanguageMetrics]
    overall: LanguageMetrics
    macro_avg: dict[str, float]
    relation_grid: dict[str, dict[str, dict]]   # lang code -> relation name -> {f1, support} (absent if no support)
    router_heatmap: list[list[float]] | None
    heatmap_languages: list[str] | None
    config_snapshot: dict = field(default_factory=dict)

    def check_invariants(self) -> None:
        for code, m in list(self.per_language.items()) + [("_overall", self.overall)]:
            for value in (m.relation_f1, m.entity_pair_f1, m.triple_f1, m.head_f1, m.tail_f1):
                if not 0.0 <= value <= 1.0:
                    raise MetricsInvariantError(f"{code}: F1 {value} outside [0, 1]")
            if m.triple_f1 > min(m.relation_f1, m.entity_pair_f1) + 1e-12:
                raise MetricsInvariantError(
                    f"{code}: triple_f1 {m.triple_f1} exceeds min(relation_f1 {m.relation_f1}, "
                    f"entity_pair_f1 {m.entity_pair_f1})"
                )

    def to_json(self) -> dict:
        return {
            "per_language": {c: m.to_json() for c, m in self.per_language.items()},
            "overall": self.overall.to_json(),
            "macro_avg": self.macro_avg,
            "relation_grid": self.relation_grid,
            "router_heatmap": self.router_heatmap,
            "heatmap_languages": self.heatmap_languages,
            "config_snapshot": self.config_snapshot,
        }


def evaluate_model(
    model,
    examples: list[Example],
    registry: LanguageRegistry,
    top_k: int | None = None,
) -> MetricsReport:
    """Predict every example and assemble the metrics report."""
    preds = [model.predict(ex, top_k=top_k) for ex in examples]
    return report_from_predictions(preds, examples, registry, model=model)


def report_from_predictions(
    preds: list[TriplePrediction],
    examples: list[Example],
    registry: LanguageRegistry,
    model=None,
) -> MetricsReport:
    by_lang: dict[int, _Counts] = {l.id: _Counts() for l in registry.languages}
    overall = _Counts()
    grid: dict[int, dict[int, dict[str, int]]] = {
        l.id: {r: {"tp": 0, "fp": 0, "fn": 0, "support": 0} for r in range(registry.n_relations)}
        for l in registry.languages
    }
    for pred, gold in zip(preds, examples):
        score = score_triple(pred, gold)
        by_lang[gold.lang].add(score)
        overall.add(score)
        cell = grid[gold.lang]
        cell[gold.relation]["support"] += 1
        if pred.relation == gold.relation:
            cell[gold.relation]["tp"] += 1
        else:
            cell[gold.relation]["fn"] += 1
            cell[pred.relation]["fp"] += 1

    per_language = {
        registry.languages[lid].code: _metrics_from_counts(c)
        for lid, c in sorted(by_lang.items())
        if c.n_sentences > 0
    }
    keys = ("relation_f1", "entity_pair_f1", "triple_f1", "head_f1", "tail_f1")
    macro = {
        k: float(np.mean([getattr(m, k) for m in per_language.values()])) if per_language else 0.0
        for k in keys
    }
    relation_grid: dict[str, dict[str, dict]] = {}
    for lid, cells in grid.items():
        code = registry.languages[lid].code
        if by_lang[lid].n_sentences == 0:
            continue
        relation_grid[code] = {}
        for rid, cnt in cells.items():
            if cnt["support"] == 0:
                continue  # zero-support cells are absent, not zero
            relation_grid[code][registry.schema.relations[rid]] = {
                "f1": micro_f1(cnt["tp"], cnt["fp"], cnt["fn"]),
                "support": cnt["support"],
            }

    router = None
    heat_langs = None
    if model is not None and model.stage >= 2 and model.cfg.routing == "learned":
        router, heat_langs = heatmap_with_language_order(model)
    snapshot = model.config_snapshot() if model is not None else {}
    report = MetricsReport(
        per_language=per_language,
        overall=_metrics_from_counts(overall),
        macro_avg=macro,
        relation_grid=relation_grid,
        router_heatmap=None if router is None else [[float(x) for x in row] for row in router],
        heatmap_languages=heat_langs,
        config_snapshot=snapshot,
    )
    report.check_invariants()
    return report


def heatmap_with_language_order(model) -> tuple[np.ndarray, list[str]]:
    """Router probabilities (T, N) with language columns ordered by resource
    size descending."""
    matrix = router_matrix(model.registry, model.cfg)
    langs = model.languages.languages
    order = sorted(range(len(langs)), key=lambda i: (-langs[i].resource_size, langs[i].code))
    return matrix[:, order], [langs[i].code for i in order]


def export_router_heatmap(model, path: str | Path) -> np.ndarray:
    """Write the selection-probability heatmap CSV for a stage-2 checkpoint."""
    if model.stage < 2:
        raise CheckpointError("router heatmap requires a stage-2 checkpoint; the router is untrained")
    matrix, codes = heatmap_with_language_order(model)
    lines = ["sub_module," + ",".join(codes)]
    for t in range(matrix.shape[0]):
        lines.append(f"sub_{t + 1}," + ",".join(repr(float(x)) for x in matrix[t]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return matrix


def format_report_table(report: MetricsReport) -> str:
    header = f"{'language':<10} {'rel_f1':>8} {'pair_f1':>8} {'triple_f1':>10} {'head_f1':>8} {'tail_f1':>8} {'n':>6}"
    lines = [header, "-" * len(header)]
    for code, m in report.per_language.items():
        lines.append(
            f"{code:<10} {m.relation_f1:>8.4f} {m.entity_pair_f1:>8.4f} {m.triple_f1:>10.4f} "
            f"{m.head_f1:>8.4f} {m.tail_f1:>8.4f} {m.n_sentences:>6}"
        )
    m = report.overall
    lines.append(
        f"{'micro':<10} {m.relation_f1:>8.4f} {m.entity_pair_f1:>8.4f} {m.triple_f1:>10.4f} "
        f"{m.head_f1:>8.4f} {m.tail_f1:>8.4f} {m.n_sentences:>6}"
    )
    lines.append(
        f"{'AVG':<10} {report.macro_avg['relation_f1']:>8.4f} {report.macro_avg['entity_pair_f1']:>8.4f} "
        f"{report.macro_avg['triple_f1']:>10.4f} {report.macro_avg['head_f1']:>8.4f} "
        f"{report.macro_avg['tail_f1']:>8.4f}"
    )
    return "\n".join(lines)


def write_report(report: MetricsReport, out_dir: str | Path) -> None:
    """Persist the machine-readable report, the human table, and the grid CSV."""
    report.check_invariants()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.to_json(), sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    (out / "report.txt").write_text(format_report_table(report) + "\n", encoding="utf-8")
    grid_lines = ["language,relation,f1,support"]
    for code in sorted(report.relation_grid):
        for rel in sorted(report.relation_grid[code]):
            cell = report.relation_grid[code][rel]
            grid_lines.append(f"{code},{rel},{repr(float(cell['f1']))},{cell['support']}")
    (out / "relation_grid.csv").write_text("\n".join(grid_lines) + "\n", encoding="utf-8")


def dump_predictions(
    preds: list[TriplePrediction],
    examples: list[Example],
    registry: LanguageRegistry,
    path: str | Path,
    include_scores: bool = False,
) -> None:
    """One JSON record per sentence with the gold and predicted triple."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for pred, gold in zip(preds, examples):
            rec = {
                "id": gold.id,
                "lang": registry.languages[gold.lang].code,
                "gold": {
                    "relation": registry.schema.relations[gold.relation],
                    "head_span": list(gold.head_span),
                    "tail_span": list(gold.tail_span),
                },
                "pred": {
                    "relation": registry.schema.relations[pred.relation],
                    "head_span": list(pred.head_span),
                    "tail_span": list(pred.tail_span),
                },
            }
            if include_scores and pred.entity_scores is not None:
                rec["entity_scores"] = {k: [float(x) for x in v] for k, v in pred.entity_scores.items()}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
