"""End-to-end CLI workflow on a miniature corpus: every command, determinism
byte-for-byte, and the exit-code contract."""

import base64
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relmux
from relmux import cli as cli_module
from relmux.cli import main
from relmux.model import Model
from relmux.params import decode_extra_arrays, encode_extra_arrays

from test_training import inf_loss_on_call

LANGS_DOC = {
    "schema_version": 1,
    "languages": [
        {"code": "valo", "word_order": "SVO", "family": "valic", "resource_size": 30},
        {"code": "koru", "word_order": "SOV", "family": "korvic", "resource_size": 25},
        {"code": "zahr", "word_order": "VSO", "family": "zahric", "resource_size": 20},
    ],
    "relations": ["no_relation", "has-kind", "locat-in", "works-for"],
    "allowed": {
        "valo": ["no_relation", "has-kind", "locat-in", "works-for"],
        "koru": ["no_relation", "has-kind", "locat-in", "works-for"],
        "zahr": ["no_relation", "has-kind", "locat-in"],
    },
}

RUN_DOC = {
    "model": {
        "d_model": 16, "n_blocks": 1, "n_heads": 2, "ffn_dim": 32, "max_len": 32,
        "n_sub_modules": 3, "sub_layers": [2, 1, 1], "bottleneck": 32, "eval_top_k": 2,
    },
    "train": {
        "alpha": 2.0, "beta": 1.0, "concat_sentences": 2, "batch_size": 8,
        "lr": 0.003, "stage1_epochs": 2, "stage2_max_epochs": 2, "patience": 3, "seed": 0,
    },
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    langs = ws / "langs.json"
    langs.write_text(json.dumps(LANGS_DOC), encoding="utf-8")
    config = ws / "run.json"
    run_doc = dict(RUN_DOC)
    run_doc["corpus_dir"] = str(ws / "corpus")
    config.write_text(json.dumps(run_doc), encoding="utf-8")
    rc = main(["generate", "--langs", str(langs), "--seed", "3", "--out", str(ws / "corpus")])
    assert rc == 0
    rc = main(["train", "--stage", "1", "--config", str(config), "--out", str(ws / "run")])
    assert rc == 0
    rc = main(["train", "--stage", "2", "--config", str(config),
               "--resume", str(ws / "run" / "stage1.ckpt"), "--out", str(ws / "run")])
    assert rc == 0
    return ws, langs, config


class TestGenerate:
    def test_writes_corpus_files_and_counts(self, workspace, capsys):
        ws, langs, _ = workspace
        for name in ("train.txt", "dev.txt", "test.txt", "registry.json", "vocab.txt"):
            assert (ws / "corpus" / name).exists()

    def test_same_seed_byte_identical(self, workspace, tmp_path):
        ws, langs, _ = workspace
        assert main(["generate", "--langs", str(langs), "--seed", "3", "--out", str(tmp_path / "c2")]) == 0
        for name in ("train.txt", "dev.txt", "test.txt", "registry.json", "vocab.txt"):
            assert (tmp_path / "c2" / name).read_bytes() == (ws / "corpus" / name).read_bytes()

    def test_single_language_generates_then_stage1_fails_fast(self, tmp_path):
        doc = {
            "schema_version": 1,
            "languages": [{"code": "solo", "word_order": "SVO", "family": "f", "resource_size": 20}],
            "relations": ["no_relation", "has-kind"],
            "allowed": {"solo": ["no_relation", "has-kind"]},
        }
        langs = tmp_path / "solo.json"
        langs.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["generate", "--langs", str(langs), "--seed", "0", "--out", str(tmp_path / "c")]) == 0
        run_doc = dict(RUN_DOC)
        run_doc["corpus_dir"] = str(tmp_path / "c")
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps(run_doc), encoding="utf-8")
        rc = main(["train", "--stage", "1", "--config", str(cfgp), "--out", str(tmp_path / "r")])
        assert rc == 2  # concat_sentences=2 > 1 language, surfaced as a config error

    def test_out_root_prefixes_relative_out_only(self, workspace, tmp_path, monkeypatch):
        _, langs, _ = workspace
        root, cwd = tmp_path / "root", tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("RELMUX_OUT_ROOT", str(root))
        assert main(["generate", "--langs", str(langs), "--seed", "3", "--out", "rel"]) == 0
        assert (root / "rel" / "train.txt").exists() and not (cwd / "rel").exists()
        assert main(["generate", "--langs", str(langs), "--seed", "3", "--out", str(tmp_path / "abs")]) == 0
        assert (tmp_path / "abs" / "train.txt").exists()
        assert [p.name for p in root.iterdir()] == ["rel"] and not any(cwd.iterdir())

    def test_invalid_langs_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99}), encoding="utf-8")
        rc = main(["generate", "--langs", str(bad), "--seed", "0", "--out", str(tmp_path / "c")])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        "{not json",
        "[1, 2]",
        json.dumps({k: v for k, v in LANGS_DOC.items() if k != "languages"}),
        json.dumps({k: v for k, v in LANGS_DOC.items() if k != "relations"}),
        json.dumps(dict(LANGS_DOC, languages=[{"code": "valo", "family": "valic", "resource_size": 30}])),
        json.dumps(dict(LANGS_DOC, languages=[dict(LANGS_DOC["languages"][0], resource_size="lots")])),
        json.dumps(dict(LANGS_DOC, languages=[dict(LANGS_DOC["languages"][0], resource_size=True)])),
        json.dumps(dict(LANGS_DOC, languages=5)),
        json.dumps(dict(LANGS_DOC, allowed=["no_relation", "has-kind"])),
        json.dumps(dict(LANGS_DOC, allowed=dict(LANGS_DOC["allowed"], zahrr=["no_relation"]))),
        json.dumps(dict(LANGS_DOC, relations=["no_relation", 7])),
        None,
    ], ids=["not_json", "non_object_document", "no_languages", "no_relations", "no_word_order",
            "string_resource_size", "bool_resource_size", "languages_not_a_list", "allowed_not_an_object",
            "allowed_unknown_language", "non_string_relation", "missing_file"])
    def test_malformed_registry_exits_2_with_one_line(self, tmp_path, capsys, text):
        langs = tmp_path / "langs.json"
        if text is not None:
            langs.write_text(text, encoding="utf-8")
        rc = main(["generate", "--langs", str(langs), "--seed", "0", "--out", str(tmp_path / "c")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_corrupt_corpus_registry_exits_2_with_one_line(self, workspace, tmp_path, capsys, command):
        ws, _, config = workspace
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("train.txt", "dev.txt", "test.txt"):
            (corpus / name).write_bytes((ws / "corpus" / name).read_bytes())
        (corpus / "registry.json").write_text('{"schema_version": 1, "languages": [', encoding="utf-8")
        if command == "eval":
            argv = ["eval", "--ckpt", str(ws / "run" / "stage2.ckpt")]
        else:
            argv = ["train", "--stage", "1", "--config", str(config)]
        rc = main(argv + ["--corpus", str(corpus), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err


class TestTrain:
    def test_outputs_exist(self, workspace):
        ws, _, _ = workspace
        out = ws / "run"
        for name in ("stage1.ckpt", "stage2.ckpt", "config_snapshot.json",
                      "stage1_log.jsonl", "stage2_log.jsonl", "run_summary.json"):
            assert (out / name).exists()

    @pytest.mark.parametrize("damage", ["not_utf8", "repeated_field", "unknown_lang", "unknown_rel"])
    def test_damaged_dev_split_exits_3_naming_the_file(self, workspace, tmp_path, capsys, damage):
        ws, _, config = workspace
        corpus = tmp_path / "corpus"
        shutil.copytree(ws / "corpus", corpus)
        dev = corpus / "dev.txt"
        lines = dev.read_bytes().split(b"\n")
        if damage == "not_utf8":
            lines[2] = lines[2].replace(b"tokens=", b"tokens=\xff", 1)
        elif damage == "repeated_field":
            lines[2] += b"\tid=again"
        else:  # a code the registry does not know
            field = b"lang=" if damage == "unknown_lang" else b"rel="
            lines[2] = lines[2].replace(field, field + b"qq", 1)
        dev.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["train", "--stage", "1", "--config", str(config), "--corpus", str(corpus),
                     "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data validation error: {dev}: line 3: "), err

    @pytest.mark.parametrize("command", ["generate", "train", "eval"])
    def test_out_naming_an_existing_file_exits_2_with_one_line(self, workspace, tmp_path, capsys, command):
        ws, langs, config = workspace
        argv = {
            "generate": ["generate", "--langs", str(langs), "--seed", "0"],
            "train": ["train", "--stage", "1", "--config", str(config)],
            "eval": ["eval", "--ckpt", str(ws / "run" / "stage2.ckpt"), "--corpus", str(ws / "corpus")],
        }[command]
        out = tmp_path / "taken"
        out.write_text("keep\n", encoding="utf-8")
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot create --out directory {out}"), err
        assert out.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("command", ["generate", "eval"])
    @pytest.mark.parametrize("where", ["a file", "below a file"])
    def test_out_that_cannot_be_a_directory_is_rejected_before_the_work(
        self, workspace, tmp_path, capsys, monkeypatch, command, where
    ):
        ws, langs, _ = workspace

        def never(*args, **kwargs):
            raise AssertionError(f"{command} did its work before checking --out")

        if command == "generate":
            monkeypatch.setattr(cli_module, "generate_corpus", never)
            argv = ["generate", "--langs", str(langs), "--seed", "0"]
        else:
            monkeypatch.setattr(Model, "predict_all", never)
            argv = ["eval", "--ckpt", str(ws / "run" / "stage2.ckpt"), "--corpus", str(ws / "corpus")]
        taken = tmp_path / "taken"
        taken.write_text("keep\n", encoding="utf-8")
        out = taken if where == "a file" else taken / "sub"
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot create --out directory {out}"), err
        assert taken.read_text(encoding="utf-8") == "keep\n" and list(tmp_path.iterdir()) == [taken]

    def test_stage2_without_resume_is_usage_error(self, workspace):
        ws, _, config = workspace
        rc = main(["train", "--stage", "2", "--config", str(config), "--out", str(ws / "x")])
        assert rc == 2

    def test_invalid_alpha_rejected_before_training(self, workspace, tmp_path):
        ws, _, _ = workspace
        doc = dict(RUN_DOC)
        doc["train"] = dict(doc["train"], alpha=-1.0)
        doc["corpus_dir"] = str(ws / "corpus")
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["train", "--stage", "1", "--config", str(cfgp), "--out", str(tmp_path / "r")])
        assert rc == 2

    @pytest.mark.parametrize("doc", [
        [1, 2],
        dict(RUN_DOC, model="ab"),
        dict(RUN_DOC, model=dict(RUN_DOC["model"], n_heads=0)),
        dict(RUN_DOC, train=dict(RUN_DOC["train"], lr=float("nan"))),
        dict(RUN_DOC, model=dict(RUN_DOC["model"], d_model="x")),
        dict(RUN_DOC, train=dict(RUN_DOC["train"], batch_size=2.5)),
        dict(RUN_DOC, corpus_dir=5),
        dict(RUN_DOC, model=dict(RUN_DOC["model"], d_model=1, n_heads=1, bottleneck=2)),
        dict(RUN_DOC, model=dict(RUN_DOC["model"], d_model=0)),
        dict(RUN_DOC, model=dict(RUN_DOC["model"], d_model=-4, bottleneck=-1)),
        dict(RUN_DOC, model=dict(RUN_DOC["model"], ffn_dim=0)),
        dict(RUN_DOC, model=dict(RUN_DOC["model"], n_blocks=-1)),
        dict(RUN_DOC, train=dict(RUN_DOC["train"], patience=0)),
        dict(RUN_DOC, train=dict(RUN_DOC["train"], seed=-1)),
        dict(RUN_DOC, out_dir="x"),
        dict(RUN_DOC, model=dict(RUN_DOC["model"], max_len=-1)),
        dict(RUN_DOC, model=dict(RUN_DOC["model"], max_len=0)),
        dict(RUN_DOC, train=dict(RUN_DOC["train"], weight_decay=-0.5)),
    ], ids=["non_object_document", "non_object_model", "zero_heads", "nan_lr",
            "string_d_model", "fractional_batch_size", "corpus_dir_int", "one_wide_d_model",
            "zero_d_model", "negative_d_model", "zero_ffn_dim", "negative_n_blocks", "zero_patience",
            "negative_seed", "out_dir_key", "negative_max_len", "zero_max_len",
            "negative_weight_decay"])
    def test_malformed_config_rejected_before_training(self, workspace, tmp_path, capsys, doc):
        ws, _, _ = workspace
        if isinstance(doc, dict):
            doc = {"corpus_dir": str(ws / "corpus"), **doc}
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["train", "--stage", "1", "--config", str(cfgp), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert not (tmp_path / "r").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    def test_concat_over_token_cap_rejected(self, workspace, tmp_path, capsys):
        # 2 sentences x max_len 200 exceeds the 256-token stage-1 cap
        ws, _, _ = workspace
        doc = dict(RUN_DOC, corpus_dir=str(ws / "corpus"), model=dict(RUN_DOC["model"], max_len=200))
        cfgp = tmp_path / "long.json"
        cfgp.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["train", "--stage", "1", "--config", str(cfgp), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert not (tmp_path / "r").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and "256" in err[0]

    def test_rejected_run_leaves_no_output_directory(self, workspace, tmp_path, capsys):
        ws, _, config = workspace
        valo = LANGS_DOC["languages"][0]
        one = dict(LANGS_DOC, languages=[valo], allowed={"valo": LANGS_DOC["allowed"]["valo"]})
        langs = tmp_path / "one.json"
        langs.write_text(json.dumps(one), encoding="utf-8")
        assert main(["generate", "--langs", str(langs), "--seed", "3", "--out", str(tmp_path / "corpus")]) == 0
        shutil.copytree(ws / "corpus", tmp_path / "untrained")
        train = tmp_path / "untrained" / "train.txt"
        train.write_text(train.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        short = tmp_path / "short.json"
        short.write_text(json.dumps(dict(json.loads(config.read_text()), model=dict(RUN_DOC["model"], max_len=4))),
                         encoding="utf-8")
        stage1 = str(ws / "run" / "stage1.ckpt")
        runs = {
            "one language for groups of two": (2, ["--stage", "1", "--corpus", str(tmp_path / "corpus")]),
            "no training sentence": (2, ["--stage", "2", "--resume", stage1, "--corpus", str(tmp_path / "untrained")]),
            "stage 2 without --resume": (2, ["--stage", "2"]),
            "a negative --seed": (2, ["--stage", "1", "--seed", "-1"]),
            "checkpoint of other languages": (2, ["--stage", "2", "--resume", stage1,
                                                  "--corpus", str(tmp_path / "corpus")]),
            # argparse keeps the last --config
            "sentences longer than max_len": (3, ["--stage", "1", "--config", str(short)]),
        }
        prefix = {2: "config error: ", 3: "data validation error: "}
        for i, (why, (code, argv)) in enumerate(runs.items()):
            capsys.readouterr()
            out = tmp_path / f"r{i}"
            assert main(["train", "--config", str(config), *argv, "--out", str(out)]) == code, why
            assert not out.exists(), why
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(prefix[code]), why

    @pytest.mark.parametrize("stage", [1, 2])
    def test_resume_with_another_model_config_exits_2(self, workspace, tmp_path, capsys, stage):
        # the run would train the checkpoint's model but record the config's
        ws, _, config = workspace
        other = tmp_path / "other.json"
        model = dict(RUN_DOC["model"], n_blocks=3, eval_top_k=3)
        other.write_text(json.dumps(dict(json.loads(config.read_text()), model=model)), encoding="utf-8")
        capsys.readouterr()
        rc = main(["train", "--stage", str(stage), "--config", str(other),
                   "--resume", str(ws / "run" / "stage1.ckpt"), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert not (tmp_path / "r").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert "model.n_blocks is 3" in err[0] and "eval_top_k" not in err[0], err

    def test_rejected_generate_eval_and_ablate_leave_no_output_directory(self, workspace, tmp_path, capsys):
        ws, langs, config = workspace
        bad_langs = tmp_path / "bad.json"
        bad_langs.write_text(json.dumps({"schema_version": 99}), encoding="utf-8")
        valo = LANGS_DOC["languages"][0]
        one = tmp_path / "one.json"
        one.write_text(json.dumps(dict(LANGS_DOC, languages=[valo], allowed={"valo": LANGS_DOC["allowed"]["valo"]})),
                       encoding="utf-8")
        assert main(["generate", "--langs", str(one), "--seed", "3", "--out", str(tmp_path / "one_corpus")]) == 0
        short = tmp_path / "short.json"
        short.write_text(json.dumps(dict(json.loads(config.read_text()), model=dict(RUN_DOC["model"], max_len=6))),
                         encoding="utf-8")
        stage2 = str(ws / "run" / "stage2.ckpt")
        corpus = str(ws / "corpus")
        runs = {
            "generate from a malformed registry": (2, ["generate", "--langs", str(bad_langs)]),
            "generate at a negative seed": (2, ["generate", "--langs", str(langs), "--seed", "-1"]),
            "eval at a k over T": (2, ["eval", "--ckpt", stage2, "--corpus", corpus, "--topk", "99"]),
            "eval of a missing checkpoint": (2, ["eval", "--ckpt", str(tmp_path / "none.ckpt"), "--corpus", corpus]),
            "ablate with sentences longer than max_len": (3, ["ablate", "--name", "topk_sweep",
                                                              "--config", str(short)]),
            "ablate with one language for groups of two": (2, ["ablate", "--name", "topk_sweep", "--config",
                                                               str(config), "--corpus", str(tmp_path / "one_corpus")]),
        }
        prefix = {2: "config error: ", 3: "data validation error: "}
        for i, (why, (code, argv)) in enumerate(runs.items()):
            capsys.readouterr()
            out = tmp_path / f"r{i}"
            assert main([*argv, "--out", str(out)]) == code, why
            assert not out.exists(), why
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(prefix[code]), why

    def test_nonfinite_loss_exits_4_with_one_line(self, workspace, tmp_path, capsys, monkeypatch):
        _, _, config = workspace
        inf_loss_on_call(monkeypatch, 3)
        capsys.readouterr()
        assert main(["train", "--stage", "1", "--config", str(config), "--out", str(tmp_path / "r")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical failure: stage 1 loss became inf at step 3"]

    def test_train_rerun_identical_checkpoint(self, workspace, tmp_path):
        ws, _, config = workspace
        rc = main(["train", "--stage", "1", "--config", str(config), "--out", str(tmp_path / "again")])
        assert rc == 0
        assert (tmp_path / "again" / "stage1.ckpt").read_bytes() == (ws / "run" / "stage1.ckpt").read_bytes()

    def test_resume_mid_training_matches_straight_run(self, workspace, tmp_path):
        ws, _, config = workspace
        doc = json.loads(Path(config).read_text())
        doc["train"]["stage1_epochs"] = 1
        short_cfg = tmp_path / "short.json"
        short_cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["train", "--stage", "1", "--config", str(short_cfg), "--out", str(tmp_path / "part")]) == 0
        assert main(["train", "--stage", "1", "--config", str(config),
                     "--resume", str(tmp_path / "part" / "stage1.ckpt"), "--out", str(tmp_path / "part")]) == 0
        assert (tmp_path / "part" / "stage1.ckpt").read_bytes() == (ws / "run" / "stage1.ckpt").read_bytes()


class TestEval:
    def test_eval_writes_reports(self, workspace, tmp_path):
        ws, _, _ = workspace
        rc = main(["eval", "--ckpt", str(ws / "run" / "stage2.ckpt"), "--corpus", str(ws / "corpus"),
                   "--split", "dev", "--out", str(tmp_path / "ev")])
        assert rc == 0
        for name in ("report.json", "report.txt", "relation_grid.csv",
                      "predictions.jsonl", "router_heatmap.csv"):
            assert (tmp_path / "ev" / name).exists()

    def test_eval_twice_identical_reports(self, workspace, tmp_path):
        ws, _, _ = workspace
        for d in ("e1", "e2"):
            assert main(["eval", "--ckpt", str(ws / "run" / "stage2.ckpt"), "--corpus", str(ws / "corpus"),
                         "--split", "dev", "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "e1" / "report.json").read_bytes() == (tmp_path / "e2" / "report.json").read_bytes()
        assert (tmp_path / "e1" / "predictions.jsonl").read_bytes() == (tmp_path / "e2" / "predictions.jsonl").read_bytes()

    def test_topk_full_matches_train_equivalent_mixing(self, workspace, tmp_path):
        ws, _, _ = workspace
        assert main(["eval", "--ckpt", str(ws / "run" / "stage2.ckpt"), "--corpus", str(ws / "corpus"),
                     "--split", "dev", "--topk", "3", "--out", str(tmp_path / "full")]) == 0
        # k = T keeps every sub-module with its training weight
        report = json.loads((tmp_path / "full" / "report.json").read_text())
        assert report["overall"]["n_sentences"] > 0

    def test_topk_out_of_range_exits_2(self, workspace, tmp_path):
        ws, _, _ = workspace
        rc = main(["eval", "--ckpt", str(ws / "run" / "stage2.ckpt"), "--corpus", str(ws / "corpus"),
                   "--topk", "9", "--out", str(tmp_path / "bad")])
        assert rc == 2

    def test_dump_scores_flag_adds_scores(self, workspace, tmp_path):
        ws, _, _ = workspace
        assert main(["eval", "--ckpt", str(ws / "run" / "stage2.ckpt"), "--corpus", str(ws / "corpus"),
                     "--split", "dev", "--dump-scores", "--out", str(tmp_path / "ds")]) == 0
        lines = (tmp_path / "ds" / "predictions.jsonl").read_text().splitlines()
        recs = [json.loads(l) for l in lines]
        assert any("entity_scores" in r for r in recs)

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        ws, _, _ = workspace
        rc = main(["eval", "--ckpt", str(tmp_path / "none.ckpt"), "--corpus", str(ws / "corpus"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2


def _drop_params(doc):
    del doc["params"]


def _truncate_payload(doc):
    rec = next(iter(doc["params"].values()))
    rec["data"] = base64.b64encode(base64.b64decode(rec["data"])[:-8]).decode("ascii")


def _poison_value(doc):
    rec = next(iter(doc["params"].values()))
    values = np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8").copy()
    values[0] = np.nan
    rec["data"] = base64.b64encode(values.tobytes()).decode("ascii")


def _flatten_param(doc):
    # the payload stays whole, so only the shape check can catch it
    rec = doc["params"]["relation.w_cls"]
    rec["shape"] = [int(np.prod(rec["shape"]))]


def _drop_param(doc):
    del doc["params"]["relation.w_cls"]


def _drop_model_config(doc):
    del doc["config"]["model"]


def _unknown_model_field(doc):
    doc["config"]["model"]["bogus"] = 1


def _stage_word(doc):
    doc["config"]["stage"] = "two"


def _stage_list(doc):
    doc["config"]["stage"] = [2]


def _stage_null(doc):
    doc["config"]["stage"] = None


def _stage_fraction(doc):
    doc["config"]["stage"] = 2.5


def _extra_string(doc):
    doc["extra"] = "stage 1"


def _epochs_done_word(doc):
    doc["extra"]["epochs_done"] = "x"


def _rng_state_not_json(doc):
    doc["extra"]["rng_state"] = "{not json"


def _drop_optimizer(doc):
    del doc["extra"]["optimizer"]


def _drop_moment(doc):
    del doc["extra"]["optimizer"]["m.aggregator.w_k"]


def _misshape_moment(doc):
    # the payload stays whole, so only the check against the parameter's shape can catch it
    rec = doc["extra"]["optimizer"]["v.aggregator.w_k"]
    rec["shape"] = [int(np.prod(rec["shape"]))]


def _overflow_moment(doc):
    # an int64 product of this shape wraps to 0, which an empty payload matches
    doc["extra"]["optimizer"]["v.aggregator.w_k"] = {"shape": [2**32, 2**32], "data": ""}


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("corrupt", [_drop_params, _truncate_payload, _poison_value, _flatten_param,
                                         _drop_param, _drop_model_config, _unknown_model_field,
                                         _stage_word, _stage_list, _stage_null, _stage_fraction])
    def test_eval_exits_2_with_one_line(self, workspace, tmp_path, corrupt):
        ws, _, _ = workspace
        doc = json.loads((ws / "run" / "stage2.ckpt").read_text(encoding="utf-8"))
        corrupt(doc)
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        src = Path(relmux.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "relmux.cli", "eval", "--ckpt", str(bad), "--corpus", str(ws / "corpus"),
             "--out", str(tmp_path / "ev")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "ev").exists()

    # the first two shapes' int64 products wrap to 0, which the empty payload
    # matches; numpy refuses the third's dimension, whose product is 0
    @pytest.mark.parametrize("shape", [[2**32, 2**32], [2**62, 4], [0, 2**70]], ids=str)
    def test_an_overflowing_or_over_large_shape_exits_2_with_one_line(self, workspace, tmp_path, capsys, shape):
        ws, _, _ = workspace
        doc = json.loads((ws / "run" / "stage2.ckpt").read_text(encoding="utf-8"))
        doc["params"]["relation.w_cls"] = {"shape": shape, "data": ""}
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["eval", "--ckpt", str(bad), "--corpus", str(ws / "corpus"), "--out", str(tmp_path / "ev")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        # the line names the payload size the shape needs, not a wrapped one
        assert ("numpy refuses" if 0 in shape else f"needs {8 * math.prod(shape)}") in err[0], err
        assert not (tmp_path / "ev").exists()

    def test_a_zero_size_array_is_not_corrupt(self):
        # the shape check refuses a negative dimension, not a zero one
        arrays = {"empty": np.zeros((0, 3)), "scalar": np.array(2.5)}
        back = decode_extra_arrays(encode_extra_arrays(arrays))
        assert {n: (a.shape, a.tobytes()) for n, a in back.items()} == \
            {n: (a.shape, a.tobytes()) for n, a in arrays.items()}

    @pytest.mark.parametrize("corrupt", [_extra_string, _epochs_done_word, _rng_state_not_json, _drop_optimizer,
                                         _drop_moment, _misshape_moment, _overflow_moment])
    def test_stage1_resume_exits_2_with_one_line(self, workspace, tmp_path, capsys, corrupt):
        ws, _, config = workspace
        doc = json.loads((ws / "run" / "stage1.ckpt").read_text(encoding="utf-8"))
        corrupt(doc)
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["train", "--stage", "1", "--config", str(config), "--resume", str(bad),
                   "--out", str(tmp_path / "r")])
        assert rc == 2
        assert not (tmp_path / "r").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err


class TestInputImmutability:
    def test_train_never_mutates_inputs(self, workspace, tmp_path):
        import hashlib

        ws, langs, config = workspace
        corpus_files = sorted((ws / "corpus").iterdir())
        before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in corpus_files}
        assert main(["train", "--stage", "1", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
        after = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((ws / "corpus").iterdir())}
        assert before == after


class TestAblate:
    def test_topk_sweep_emits_exactly_t_rows_per_language(self, workspace, tmp_path):
        ws, _, config = workspace
        rc = main(["ablate", "--name", "topk_sweep", "--config", str(config),
                   "--out", str(tmp_path / "ab")])
        assert rc == 0
        rows = json.loads((tmp_path / "ab" / "topk_sweep.json").read_text())
        variants = {r["variant"] for r in rows}
        assert variants == {f"k={k}" for k in range(1, 4)}  # exactly T variants

    def test_unknown_ablation_rejected(self, workspace, tmp_path):
        ws, _, config = workspace
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--name", "nonsense", "--config", str(config), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
