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
coincides with accuracy. A split is scored as two ``(n, 5)`` int arrays,
gold and predicted, each row (relation, head start, head end, tail start,
tail end), compared whole.
A report carries the router heatmap of a learned-routing stage-2 model, and
the writer writes ``router_heatmap.csv`` exactly when the report carries one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import write_atomic
from .corpus import Example, LanguageRegistry
from .errors import RelmuxError
from .heads import TriplePrediction
from .switcher import router_matrix


class MetricsInvariantError(RelmuxError):
    """A produced evaluation violated a structural metric invariant."""


def _triples(items) -> np.ndarray:
    """``(n, 5)`` int rows (relation, head start, head end, tail start, tail
    end) of objects with ``.relation``, ``.head_span`` and ``.tail_span``:
    gold ``Example``s and ``TriplePrediction``s alike."""
    return np.array([(x.relation, *x.head_span, *x.tail_span) for x in items], dtype=np.intp).reshape(-1, 5)


def _check_paired(preds: list[TriplePrediction], examples: list[Example]) -> None:
    """Refuse unequal lengths, or a prediction made for another example."""
    if len(preds) != len(examples):
        raise ValueError(f"{len(preds)} predictions for {len(examples)} examples")
    for pred, gold in zip(preds, examples):
        if pred.example_id != gold.id:
            raise ValueError(f"prediction {pred.example_id} paired with example {gold.id}")


def micro_f1(tp: int, fp: int, fn: int) -> float:
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be nonnegative")
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


@dataclass
class LanguageMetrics:
    relation_f1: float
    entity_pair_f1: float
    triple_f1: float
    head_f1: float
    tail_f1: float
    n_sentences: int
    n_entity_bearing: int

    @classmethod
    def from_outcomes(cls, outcomes: np.ndarray, gold_relations: np.ndarray) -> "LanguageMetrics":
        """Metrics of the sentences with these ``(n, 5)`` 0/1 outcome rows
        (columns in the order of this class's F1 fields) and gold relations.
        Each sentence carries one prediction, so a wrong one is both a false
        positive and a false negative."""
        n = len(outcomes)
        f1s = [micro_f1(tp, n - tp, n - tp) for tp in outcomes.sum(axis=0).tolist()]
        return cls(*f1s, n_sentences=n, n_entity_bearing=int(np.count_nonzero(gold_relations)))

    def to_json(self) -> dict:
        return asdict(self)


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
        return asdict(self)


def evaluate_model(
    model,
    examples: list[Example],
    registry: LanguageRegistry,
    top_k: int | None = None,
) -> MetricsReport:
    """Predict every example and assemble the metrics report."""
    preds = model.predict_all(examples, top_k=top_k)
    return report_from_predictions(preds, examples, registry, model=model)


def report_from_predictions(
    preds: list[TriplePrediction],
    examples: list[Example],
    registry: LanguageRegistry,
    model=None,
) -> MetricsReport:
    _check_paired(preds, examples)
    langs = np.array([g.lang for g in examples], dtype=np.intp)
    gold_rows, pred_rows = _triples(examples), _triples(preds)
    # exact match per column; a no_relation gold's spans are sentinels, which
    # a prediction carries exactly when it also predicts no_relation
    match = gold_rows == pred_rows
    gold, predicted, right = gold_rows[:, 0], pred_rows[:, 0], match[:, 0]
    head_ok, tail_ok = match[:, 1:3].all(axis=1), match[:, 3:].all(axis=1)
    outcomes = np.column_stack([right, head_ok & tail_ok, match.all(axis=1), head_ok, tail_ok])

    # relation grid counts per (language, relation); a wrong prediction is a
    # false positive of the relation it predicted
    support, tp, fp = np.zeros((3, registry.n_languages, registry.n_relations), dtype=np.intp)
    np.add.at(support, (langs, gold), 1)
    np.add.at(tp, (langs[right], gold[right]), 1)
    np.add.at(fp, (langs[~right], predicted[~right]), 1)

    per_language: dict[str, LanguageMetrics] = {}
    relation_grid: dict[str, dict[str, dict]] = {}
    for lang in registry.languages:
        rows = langs == lang.id
        if not rows.any():
            continue
        per_language[lang.code] = LanguageMetrics.from_outcomes(outcomes[rows], gold[rows])
        cells = zip(registry.schema.relations, support[lang.id].tolist(), tp[lang.id].tolist(),
                    fp[lang.id].tolist())
        relation_grid[lang.code] = {  # zero-support cells are absent, not zero
            name: {"f1": micro_f1(t, f, s - t), "support": s} for name, s, t, f in cells if s
        }
    keys = ("relation_f1", "entity_pair_f1", "triple_f1", "head_f1", "tail_f1")
    macro = {
        k: float(np.mean([getattr(m, k) for m in per_language.values()])) if per_language else 0.0
        for k in keys
    }

    router = heat_langs = None
    if model is not None and model.stage >= 2 and model.cfg.routing == "learned":
        # router probabilities (T, N), language columns by resource size descending
        langs = model.languages.languages
        order = sorted(range(len(langs)), key=lambda i: (-langs[i].resource_size, langs[i].code))
        router = router_matrix(model.registry, model.cfg)[:, order].tolist()
        heat_langs = [langs[i].code for i in order]
    snapshot = model.config_snapshot() if model is not None else {}
    report = MetricsReport(
        per_language=per_language,
        overall=LanguageMetrics.from_outcomes(outcomes, gold),
        macro_avg=macro,
        relation_grid=relation_grid,
        router_heatmap=router,
        heatmap_languages=heat_langs,
        config_snapshot=snapshot,
    )
    report.check_invariants()
    return report


def format_report_table(report: MetricsReport) -> str:
    header = f"{'language':<10} {'rel_f1':>8} {'pair_f1':>8} {'triple_f1':>10} {'head_f1':>8} {'tail_f1':>8} {'n':>6}"
    lines = [header, "-" * len(header)]
    rows = [(code, m.to_json()) for code, m in report.per_language.items()]
    # the AVG row has no sentence count; its blank column is stripped
    rows += [("micro", report.overall.to_json()), ("AVG", dict(report.macro_avg, n_sentences=""))]
    for label, v in rows:
        lines.append(
            f"{label:<10} {v['relation_f1']:>8.4f} {v['entity_pair_f1']:>8.4f} {v['triple_f1']:>10.4f} "
            f"{v['head_f1']:>8.4f} {v['tail_f1']:>8.4f} {v['n_sentences']:>6}".rstrip()
        )
    return "\n".join(lines)


def write_report(report: MetricsReport, out_dir: str | Path) -> None:
    """Persist the machine-readable report, the human table, the grid CSV,
    and the router heatmap CSV when the report carries one."""
    report.check_invariants()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "report.json", json.dumps(report.to_json(), sort_keys=True, indent=1) + "\n")
    write_atomic(out / "report.txt", format_report_table(report) + "\n")
    grid_lines = ["language,relation,f1,support"]
    for code in sorted(report.relation_grid):
        for rel in sorted(report.relation_grid[code]):
            cell = report.relation_grid[code][rel]
            grid_lines.append(f"{code},{rel},{repr(float(cell['f1']))},{cell['support']}")
    write_atomic(out / "relation_grid.csv", "\n".join(grid_lines) + "\n")
    if report.router_heatmap is not None:
        heat_lines = ["sub_module," + ",".join(report.heatmap_languages)]
        for t, row in enumerate(report.router_heatmap):
            heat_lines.append(f"sub_{t + 1}," + ",".join(repr(float(x)) for x in row))
        write_atomic(out / "router_heatmap.csv", "\n".join(heat_lines) + "\n")


def dump_predictions(
    preds: list[TriplePrediction],
    examples: list[Example],
    registry: LanguageRegistry,
    path: str | Path,
    include_scores: bool = False,
) -> None:
    """One JSON record per sentence with the gold and predicted triple."""
    _check_paired(preds, examples)
    lines = []
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
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    write_atomic(path, "".join(lines))
