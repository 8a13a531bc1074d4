"""Command-line entry point.

Subcommands cover the whole workflow:

  generate  synthesize a multilingual corpus from one language registry and
            relation schema file
  train     stage-1 or stage-2 training (stage 2 resumes a stage-1 checkpoint)
  eval      score a checkpoint on a corpus split and write reports, with the
            router heatmap CSV for a learned-routing stage-2 checkpoint
  ablate    run a named ablation sweep

Every command is deterministic given (config, seed, inputs), writes its
resolved config snapshot next to its outputs, and never mutates input files.
A command rejects an --out path that is neither a directory nor absent before
any work, and creates the directory only once its inputs have passed every
check that can reject them.
Exit codes: 0 success, 2 usage/config error, 3 data validation error,
4 numerical failure. The RELMUX_OUT_ROOT environment variable supplies the
default parent directory for --out paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .ablation import ABLATION_NAMES, run_ablation
from .config import RunConfig, load_run_config, save_config_snapshot, write_atomic
from .corpus import (
    SPLITS, Corpus, GeneratorConfig, LanguageRegistry, check_group_size, generate_corpus, load_corpus,
    save_corpus,
)
from .encoder import Vocab
from .errors import ConfigError, DataValidationError, NumericsError, RelmuxError
from .evaluation import dump_predictions, evaluate_model, report_from_predictions, write_report
from .model import Model
from .optim import check_moments
from .training import TrainLog, run_summary, stage1_resume_state, train_stage1, train_stage2

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _out_dir(path: str) -> Path:
    """The --out directory ``path``, under RELMUX_OUT_ROOT when it is relative
    and the variable is set, not created yet. A ``ConfigError`` unless it is a
    directory, or absent with a directory as its nearest existing ancestor,
    so a command rejects it before any work."""
    root = os.environ.get("RELMUX_OUT_ROOT")
    p = Path(path)
    if root and not p.is_absolute():
        p = Path(root) / p
    try:
        existing = next(a for a in (p, *p.parents) if a.exists())
    except OSError as exc:
        raise ConfigError(f"cannot create --out directory {p}: {exc.strerror}") from None
    if not existing.is_dir():
        raise ConfigError(f"cannot create --out directory {p}: {existing} is not a directory")
    return p


def _create(out: Path) -> Path:
    """Create the --out directory ``out``; a ``ConfigError`` if it cannot be."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out directory {out}: {exc.strerror}") from None
    return out


def cmd_generate(args) -> int:
    out = _out_dir(args.out)
    registry_in = LanguageRegistry.load(args.langs)
    gen = GeneratorConfig(no_relation_fraction=args.no_relation_fraction, family_share=args.family_share)
    corpus = generate_corpus(registry_in.languages, registry_in.schema, seed=args.seed, gen=gen)
    save_corpus(_create(out), corpus)
    vocab = Vocab(corpus.registry.content_vocab(), corpus.registry.n_languages)
    vocab.save(out / "vocab.txt")
    write_atomic(out / "generate_snapshot.json",
                 json.dumps({"seed": args.seed, "langs": args.langs,
                             "no_relation_fraction": gen.no_relation_fraction,
                             "family_share": gen.family_share}, sort_keys=True, indent=1) + "\n")
    print(f"{'language':<10} {'train':>7} {'dev':>6} {'test':>6}")
    for lang in corpus.registry.languages:
        counts = [sum(1 for e in corpus.split(s) if e.lang == lang.id) for s in SPLITS]
        print(f"{lang.code:<10} {counts[0]:>7} {counts[1]:>6} {counts[2]:>6}")
    print(f"wrote corpus to {out}")
    return 0


def _load_run(args) -> tuple[RunConfig, Corpus]:
    """The validated run config and its corpus. The ``--out`` directory is
    not created yet: a command creates it once every check that can reject
    the run has passed."""
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    if getattr(args, "corpus", None):
        cfg = replace(cfg, corpus_dir=args.corpus)
    if not cfg.corpus_dir:
        raise ConfigError("no corpus directory: set corpus_dir in the config or pass --corpus")
    cfg.validate()
    return cfg, load_corpus(cfg.corpus_dir)


def _check_inputs(model: Model, corpus: Corpus, group_size: int) -> None:
    """Reject a run that training would reject, before its --out exists: a
    train split whose languages cannot fill groups of ``group_size``, or a
    train or dev sentence that ``model`` cannot take."""
    check_group_size(group_size, len({ex.lang for ex in corpus.train}))
    model.tokenize(corpus.train)
    model.tokenize(corpus.dev)


def cmd_train(args) -> int:
    out = _out_dir(args.out)
    cfg, corpus = _load_run(args)
    extra = None
    if args.resume:
        model, _, extra = Model.load(args.resume, corpus.registry)
        # the run trains the checkpoint's model, so the config must describe it
        differs = (f.name for f in fields(cfg.model) if getattr(cfg.model, f.name) != getattr(model.cfg, f.name))
        name = next(differs, None)
        if name is not None:
            raise ConfigError(f"config model.{name} is {getattr(cfg.model, name)!r}, "
                              f"but the --resume checkpoint's is {getattr(model.cfg, name)!r}")
        if args.stage == 1:
            # the moments must fit the parameters stage 1 trains
            _, _, moments, _ = stage1_resume_state(extra)
            model.enter_stage(1)
            check_moments({n: t.shape for n, t in model.registry.items() if t.requires_grad}, moments)
        elif model.stage < 1:
            raise ConfigError("--resume checkpoint has not completed stage 1")
    elif args.stage == 1:
        model = Model.build(cfg.model, corpus.registry, init_seed=cfg.train.seed)
    else:
        raise ConfigError("stage 2 requires --resume pointing at a stage-1 checkpoint")
    # stage 1 draws groups of concat_sentences languages, stage 2 groups of one
    _check_inputs(model, corpus, cfg.train.concat_sentences if args.stage == 1 else 1)
    save_config_snapshot(cfg, _create(out) / "config_snapshot.json")
    log = TrainLog()
    if args.stage == 1:
        ckpt = train_stage1(model, corpus, cfg, out, log, resume_extra=extra)
    else:
        ckpt = train_stage2(model, corpus, cfg, out, log)
    report = evaluate_model(model, corpus.dev, corpus.registry)
    run_summary(out, cfg, {
        "stage": args.stage,
        "checkpoint": str(ckpt),
        "dev_triple_f1": report.overall.triple_f1,
        "dev_macro_triple_f1": report.macro_avg["triple_f1"],
    })
    print(f"stage {args.stage} done; checkpoint at {ckpt}; dev triple-F1 {report.overall.triple_f1:.4f}")
    return 0


def cmd_eval(args) -> int:
    out = _out_dir(args.out)
    corpus = load_corpus(args.corpus)
    model, _, _ = Model.load(args.ckpt, corpus.registry)
    if args.topk is not None and not 1 <= args.topk <= model.cfg.n_sub_modules:
        raise ConfigError(f"--topk must be in [1, {model.cfg.n_sub_modules}]")
    examples = corpus.split(args.split)
    preds = model.predict_all(examples, top_k=args.topk, dump_scores=args.dump_scores)
    report = report_from_predictions(preds, examples, corpus.registry, model=model)
    write_report(report, _create(out))
    dump_predictions(preds, examples, corpus.registry, out / "predictions.jsonl", include_scores=args.dump_scores)
    snapshot = {"ckpt": str(args.ckpt), "split": args.split, "topk": args.topk}
    write_atomic(out / "eval_snapshot.json", json.dumps(snapshot, sort_keys=True, indent=1) + "\n")
    print(f"split={args.split} micro triple-F1 {report.overall.triple_f1:.4f} "
          f"macro {report.macro_avg['triple_f1']:.4f}; reports in {out}")
    return 0


def cmd_ablate(args) -> int:
    out = _out_dir(args.out)
    cfg, corpus = _load_run(args)
    _check_inputs(Model.build(cfg.model, corpus.registry, init_seed=cfg.train.seed), corpus,
                  cfg.train.concat_sentences)
    save_config_snapshot(cfg, _create(out) / "config_snapshot.json")
    rows = run_ablation(args.name, corpus, cfg, out)
    print(f"ablation {args.name}: {len(rows)} rows written to {out / (args.name + '.csv')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relmux", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a multilingual corpus")
    p.add_argument("--langs", required=True, help="language registry and relation schema JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--no-relation-fraction", type=float, default=GeneratorConfig.no_relation_fraction,
                   dest="no_relation_fraction")
    p.add_argument("--family-share", type=float, default=GeneratorConfig.family_share, dest="family_share")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--resume", default=None)
    p.add_argument("--corpus", default=None, help="override corpus_dir from the config")
    p.add_argument("--seed", type=int, default=None, help="override train.seed from the config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--topk", type=int, default=None)
    p.add_argument("--dump-scores", action="store_true", dest="dump_scores")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation sweep")
    p.add_argument("--name", required=True, choices=ABLATION_NAMES)
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataValidationError as exc:
        print(f"data validation error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RelmuxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
