"""Scoring rules, micro-F1, report structure and invariants, the router
heatmap a report carries and writes, and crash-safe output files."""

import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relmux.ablation import write_rows_csv
from relmux.config import RunConfig, TrainConfig, save_config_snapshot, write_atomic
from relmux.corpus import Example, LanguageRegistry, LanguageSpec, RelationSchema, save_examples
from relmux.encoder import Vocab
from relmux.evaluation import (
    MetricsInvariantError,
    MetricsReport,
    LanguageMetrics,
    dump_predictions,
    format_report_table,
    micro_f1,
    report_from_predictions,
    score_triple,
    write_report,
)
from relmux.heads import TriplePrediction
from relmux.params import ParamRegistry, save_checkpoint
from relmux.switcher import router_matrix
from relmux.training import TrainLog, run_summary

from oracles import oracle_report


def make_registry(n_langs=2):
    langs = [
        LanguageSpec(0, "valo", "SVO", "valic", 100),
        LanguageSpec(1, "koru", "SOV", "korvic", 60),
    ][:n_langs]
    rels = ("no_relation", "has-kind", "locat-in")
    return LanguageRegistry(
        languages=langs,
        schema=RelationSchema(relations=rels, allowed=np.ones((n_langs, 3), dtype=bool)),
    )


def ex(id="e1", lang=0, relation=1, head=(0, 1), tail=(3, 3), n=5):
    if relation == 0:
        head = tail = (-1, -1)
    return Example(id=id, lang=lang, tokens=tuple(f"t{i}" for i in range(n)),
                   head_span=head, tail_span=tail, relation=relation)


def pred(example, relation=None, head=None, tail=None):
    relation = example.relation if relation is None else relation
    head = example.head_span if head is None else head
    tail = example.tail_span if tail is None else tail
    if relation == 0:
        head = tail = (-1, -1)
    return TriplePrediction(example_id=example.id, relation=relation,
                            head_span=head, tail_span=tail,
                            relation_logits=np.zeros(3))


class TestScoreTriple:
    def test_identical_all_true(self):
        e = ex()
        s = score_triple(pred(e), e)
        assert s.relation_ok and s.pair_ok and s.triple_ok and s.head_ok and s.tail_ok

    def test_correct_spans_wrong_relation(self):
        e = ex(relation=1)
        s = score_triple(pred(e, relation=2), e)
        assert s.pair_ok and not s.relation_ok and not s.triple_ok

    def test_head_off_by_one(self):
        e = ex(head=(0, 1))
        s = score_triple(pred(e, head=(1, 1)), e)
        assert not s.head_ok and not s.pair_ok and not s.triple_ok

    def test_id_mismatch_rejected(self):
        e = ex()
        p = pred(e)
        p.example_id = "other"
        with pytest.raises(ValueError):
            score_triple(p, e)

    def test_no_relation_gold_counts_via_sentinels(self):
        e = ex(relation=0)
        agree = score_triple(pred(e, relation=0), e)
        assert agree.relation_ok and agree.pair_ok and agree.triple_ok
        disagree = score_triple(pred(e, relation=1, head=(0, 0), tail=(1, 1)), e)
        assert not disagree.relation_ok and not disagree.pair_ok and not disagree.triple_ok


class TestMicroF1:
    def test_balanced_case(self):
        assert micro_f1(8, 2, 2) == pytest.approx(0.8)

    def test_zero_tp_is_zero(self):
        assert micro_f1(0, 5, 3) == 0.0
        assert micro_f1(0, 0, 0) == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            micro_f1(-1, 0, 0)

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_single_prediction_micro_f1_equals_accuracy(self, outcomes):
        tp = sum(outcomes)
        wrong = len(outcomes) - tp
        acc = tp / len(outcomes)
        assert micro_f1(tp, wrong, wrong) == pytest.approx(acc)


class TestReports:
    def _report(self, registry, pairs):
        preds, golds = zip(*pairs)
        return report_from_predictions(list(preds), list(golds), registry)

    def test_dominance_holds_and_is_checked(self):
        registry = make_registry()
        golds = [ex(id=f"e{i}", relation=1 + i % 2) for i in range(6)]
        pairs = [(pred(g, relation=1), g) for g in golds]  # half relations wrong
        report = self._report(registry, pairs)
        m = report.per_language["valo"]
        assert m.triple_f1 <= min(m.relation_f1, m.entity_pair_f1)

    def test_invariant_violation_raises(self):
        bad = LanguageMetrics(relation_f1=0.5, entity_pair_f1=0.5, triple_f1=0.9,
                              head_f1=0.5, tail_f1=0.5, n_sentences=4, n_entity_bearing=4)
        report = MetricsReport(per_language={"x": bad}, overall=bad, macro_avg={},
                               relation_grid={}, router_heatmap=None, heatmap_languages=None)
        with pytest.raises(MetricsInvariantError):
            report.check_invariants()

    def test_dominance_tolerance_is_inclusive(self):
        # triple-F1 may exceed min(relation, entity-pair) by 1e-12 exactly,
        # and by no more
        for triple, raises in ((0.5 + 1e-12, False), (np.nextafter(0.5 + 1e-12, 1.0), True)):
            m = LanguageMetrics(relation_f1=0.5, entity_pair_f1=0.75, triple_f1=triple,
                                head_f1=0.5, tail_f1=0.5, n_sentences=4, n_entity_bearing=4)
            report = MetricsReport(per_language={"x": m}, overall=m, macro_avg={},
                                   relation_grid={}, router_heatmap=None, heatmap_languages=None)
            if raises:
                with pytest.raises(MetricsInvariantError):
                    report.check_invariants()
            else:
                report.check_invariants()

    def test_scoring_independent_of_order(self):
        registry = make_registry()
        golds = [ex(id=f"e{i}", relation=1 + i % 2, lang=i % 2) for i in range(8)]
        pairs = [(pred(g, relation=1), g) for g in golds]
        fwd = self._report(registry, pairs)
        rev = self._report(registry, list(reversed(pairs)))
        assert fwd.to_json() == rev.to_json()

    def test_grid_supports_reproduce_language_counts(self):
        registry = make_registry()
        golds = [ex(id=f"e{i}", relation=(i % 3), lang=i % 2) for i in range(12)]
        pairs = [(pred(g), g) for g in golds]
        report = self._report(registry, pairs)
        for lang in registry.languages:
            total = sum(cell["support"] for cell in report.relation_grid[lang.code].values())
            assert total == report.per_language[lang.code].n_sentences

    def test_zero_support_cells_absent(self):
        registry = make_registry()
        golds = [ex(id=f"e{i}", relation=1, lang=0) for i in range(4)]
        pairs = [(pred(g), g) for g in golds]
        report = self._report(registry, pairs)
        assert "locat-in" not in report.relation_grid["valo"]
        assert "has-kind" in report.relation_grid["valo"]

    def test_macro_average_is_unweighted_language_mean(self):
        registry = make_registry()
        golds = [ex(id="a", lang=0), ex(id="b", lang=1), ex(id="c", lang=1)]
        pairs = [(pred(golds[0]), golds[0]),
                 (pred(golds[1], relation=2), golds[1]),
                 (pred(golds[2], relation=2), golds[2])]
        report = self._report(registry, pairs)
        want = (report.per_language["valo"].triple_f1 + report.per_language["koru"].triple_f1) / 2
        assert report.macro_avg["triple_f1"] == pytest.approx(want)

    def test_short_prediction_list_rejected(self):
        registry = make_registry()
        golds = [ex(id=f"e{i}") for i in range(4)]
        with pytest.raises(ValueError, match="3 predictions for 4 examples"):
            report_from_predictions([pred(g) for g in golds[:3]], golds, registry)

    def test_write_report_files(self, tmp_path):
        registry = make_registry()
        golds = [ex(id=f"e{i}", relation=1) for i in range(4)]
        pairs = [(pred(g), g) for g in golds]
        report = self._report(registry, pairs)
        write_report(report, tmp_path)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "relation_grid.csv").exists()
        table = format_report_table(report)
        assert "AVG" in table and "valo" in table

    def test_dump_predictions_jsonl(self, tmp_path):
        registry = make_registry()
        golds = [ex(id=f"e{i}") for i in range(3)]
        preds = [pred(g) for g in golds]
        dump_predictions(preds, golds, registry, tmp_path / "p.jsonl")
        lines = (tmp_path / "p.jsonl").read_text().splitlines()
        assert len(lines) == 3
        import json

        rec = json.loads(lines[0])
        assert rec["gold"]["relation"] == "has-kind" and rec["pred"]["relation"] == "has-kind"

    def test_dump_predictions_refuses_short_prediction_list(self, tmp_path):
        registry = make_registry()
        golds = [ex(id=f"e{i}") for i in range(3)]
        with pytest.raises(ValueError, match="2 predictions for 3 examples"):
            dump_predictions([pred(g) for g in golds[:2]], golds, registry, tmp_path / "p.jsonl")
        assert not (tmp_path / "p.jsonl").exists()

    def test_dump_predictions_refuses_prediction_for_another_example(self, tmp_path):
        registry = make_registry()
        golds = [ex(id=f"e{i}") for i in range(3)]
        preds = [pred(golds[0]), pred(golds[2]), pred(golds[1])]
        with pytest.raises(ValueError, match="prediction e2 paired with example e1"):
            dump_predictions(preds, golds, registry, tmp_path / "p.jsonl")
        assert not (tmp_path / "p.jsonl").exists()


SPANS = [(0, 0), (0, 1), (1, 1), (3, 3), (3, 4)]
SENTENCES = st.tuples(
    st.sampled_from([0, 1]),                    # language
    st.integers(0, 2), st.integers(0, 2),       # gold and predicted relation
    st.sampled_from(SPANS), st.sampled_from(SPANS),   # gold head and tail
    st.sampled_from(SPANS), st.sampled_from(SPANS),   # predicted head and tail
)


class TestReportAgainstOracle:
    @given(st.lists(SENTENCES, max_size=30))
    @example([])
    @example([(1, 2, 1, (0, 1), (3, 3), (0, 1), (3, 4))])   # valo has no sentences
    def test_report_matches_oracle(self, sentences):
        registry = make_registry()
        relations = list(registry.schema.relations)
        golds, preds, rows = [], [], []
        for i, (lang, gold_rel, pred_rel, gold_head, gold_tail, pred_head, pred_tail) in enumerate(sentences):
            g = ex(id=f"e{i}", lang=lang, relation=gold_rel, head=gold_head, tail=gold_tail)
            p = pred(g, relation=pred_rel, head=pred_head, tail=pred_tail)
            golds.append(g)
            preds.append(p)
            rows.append((registry.languages[lang].code, relations[g.relation], g.head_span, g.tail_span,
                         relations[p.relation], p.head_span, p.tail_span))
        got = report_from_predictions(preds, golds, registry).to_json()
        want = oracle_report(rows, [l.code for l in registry.languages], relations)
        for key in ("per_language", "overall", "relation_grid"):
            assert got[key] == want[key]
        assert got["macro_avg"] == pytest.approx(want["macro_avg"], abs=1e-15)

    def test_table_and_grid_bytes_pinned(self, tmp_path):
        registry = make_registry()
        golds = [ex(id="a", lang=0, relation=1), ex(id="b", lang=0, relation=2), ex(id="c", lang=0, relation=0),
                 ex(id="d", lang=1, relation=1), ex(id="e", lang=1, relation=0)]
        preds = [pred(golds[0]), pred(golds[1], relation=1), pred(golds[2]),
                 pred(golds[3], head=(1, 1)), pred(golds[4], relation=2, head=(0, 0), tail=(2, 2))]
        report = report_from_predictions(preds, golds, registry)
        assert format_report_table(report) == (
            "language     rel_f1  pair_f1  triple_f1  head_f1  tail_f1      n\n"
            "----------------------------------------------------------------\n"
            "valo         0.6667   1.0000     0.6667   1.0000   1.0000      3\n"
            "koru         0.5000   0.0000     0.0000   0.0000   0.5000      2\n"
            "micro        0.6000   0.6000     0.4000   0.6000   0.8000      5\n"
            "AVG          0.5833   0.5000     0.3333   0.5000   0.7500"
        )
        write_report(report, tmp_path)
        assert (tmp_path / "relation_grid.csv").read_text(encoding="utf-8") == (
            "language,relation,f1,support\n"
            "koru,has-kind,1.0,1\n"
            "koru,no_relation,0.0,1\n"
            "valo,has-kind,0.6666666666666666,1\n"
            "valo,locat-in,0.0,1\n"
            "valo,no_relation,1.0,1\n"
        )


class TestHeatmapExport:
    @staticmethod
    def _written_report(tmp_path, stage, routing="learned"):
        """The report of a ``stage`` model of ``routing`` on two sentences,
        written to ``tmp_path``."""
        from relmux.config import ModelConfig
        from relmux.model import Model

        registry = make_registry()
        n = 2 if routing == "identity" else 3
        cfg = ModelConfig(d_model=8, n_blocks=1, n_heads=2, ffn_dim=16, max_len=16,
                          n_sub_modules=n, sub_layers=(1,) * n, bottleneck=12, eval_top_k=2, routing=routing)
        model = Model.build(cfg, registry, init_seed=0)
        model.stage = stage
        golds = [ex(id="e0", lang=0), ex(id="e1", lang=1)]
        report = report_from_predictions([pred(g) for g in golds], golds, registry, model=model)
        write_report(report, tmp_path)
        return report, model

    def test_untrained_router_writes_no_heatmap(self, tmp_path):
        # only a learned router trained in stage 2 has a heatmap to show
        for stage, routing in ((0, "learned"), (1, "learned"), (2, "identity")):
            out = tmp_path / f"{stage}-{routing}"
            report, _ = self._written_report(out, stage, routing)
            assert report.router_heatmap is None and report.heatmap_languages is None
            assert (out / "report.json").exists()
            assert not (out / "router_heatmap.csv").exists(), (stage, routing)

    def test_heatmap_shape_columns_and_sums(self, tmp_path):
        report, model = self._written_report(tmp_path, 2)
        matrix = np.array(report.router_heatmap)
        assert matrix.shape == (3, 2)
        assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-9)
        assert report.heatmap_languages == ["valo", "koru"]  # resource-descending order
        lines = (tmp_path / "router_heatmap.csv").read_text().splitlines()
        assert lines[0] == "sub_module,valo,koru"
        assert len(lines) == 4
        # each cell is the router probability, written in full
        probs = router_matrix(model.registry, model.cfg)
        for t, line in enumerate(lines[1:]):
            assert line == f"sub_{t + 1}," + ",".join(repr(float(x)) for x in probs[t])


def _write_report(out, v):
    from relmux.config import ModelConfig
    from relmux.model import Model

    registry = make_registry()
    cfg = ModelConfig(d_model=8, n_blocks=1, n_heads=2, ffn_dim=16, max_len=16,
                      n_sub_modules=3, sub_layers=(1,) * 3, bottleneck=12, eval_top_k=2)
    model = Model.build(cfg, registry, init_seed=0)
    model.stage = 2  # so the report carries a heatmap: all four files
    golds = [ex(id="e0", lang=0), ex(id="e1", lang=1)]
    write_report(report_from_predictions([pred(g, relation=1 + v) for g in golds], golds, registry, model=model), out)


def _write_checkpoint(out, v):
    reg = ParamRegistry()
    reg.add("w", np.full(3, float(v)))
    save_checkpoint(out / "stage1.ckpt", {}, reg, {"stage": 1})


# each writes version ``v`` of its files into the directory ``out``
WRITERS = {
    "report": _write_report,
    "checkpoint": _write_checkpoint,
    "train_log": lambda out, v: TrainLog(lines=[{"step": v}]).save(out / "stage1_log.jsonl"),
    "run_summary": lambda out, v: run_summary(out, RunConfig(), {"v": v}),
    "config_snapshot": lambda out, v: save_config_snapshot(RunConfig(train=TrainConfig(seed=v)), out / "config.json"),
    "predictions": lambda out, v: dump_predictions([pred(ex(), relation=1 + v)], [ex()], make_registry(),
                                                   out / "predictions.jsonl"),
    "rows_csv": lambda out, v: write_rows_csv([{"variant": "all", "language": "valo", "triple_f1": v}],
                                              out / "rows.csv"),
    "write_atomic": lambda out, v: write_atomic(out / "eval_snapshot.json", f'{{"topk": {v}}}\n'),
    "corpus_split": lambda out, v: save_examples(out / "train.txt", [ex(n=5 + v)], make_registry()),
    "registry": lambda out, v: make_registry(1 + v).save(out / "registry.json"),
    "vocab": lambda out, v: Vocab([f"t{i}" for i in range(3 + v)], 2).save(out / "vocab.txt"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_failed_write_leaves_the_previous_file_whole(tmp_path, monkeypatch, writer):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir(), new.mkdir()
    WRITERS[writer](old, 0)
    WRITERS[writer](new, 1)
    before = {p.name: p.read_bytes() for p in old.iterdir()}
    assert before and before != {p.name: p.read_bytes() for p in new.iterdir()}

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        WRITERS[writer](old, 1)
    # the previous bytes, and no temporary file beside them
    assert {p.name: p.read_bytes() for p in old.iterdir()} == before
