"""Two-stage training orchestration.

Stage 1 trains everything but the switcher jointly on randomly concatenated
groups of sentences in different languages. Stage 2 reloads the stage-1
checkpoint, freezes the encoder and the aggregator, and fine-tunes the
switcher, the router, the relation classifier and embeddings, and the entity
matrices on batches of single sentences, early-stopping on dev triple
micro-F1 and keeping the best-dev parameters. Each stage starts with
``Model.enter_stage``, which decides what it freezes, tokenizes the train
split once into one ``TokenizedSplit`` record, which checks every gold
relation before any step, and draws every batch as sentence indices into
that record with one sampler from per-language index pools
(``corpus.index_pools`` of the record's ``langs``): a (batch, s) array of
groups in stage 1, a flat array in stage 2.

Right after freezing, stage 2 computes the frozen encoder and aggregator
output of every training sentence once, as one ``Model.frozen_prefix``
table, and a step indexes that table's arrays with its batch, so it runs
only the switcher and the heads. The table lives as long as the
``train_stage2`` call. The per-epoch dev evaluation
goes through ``Model.predict_all``, which encodes the dev split into a
table at the first evaluation and keeps it for the later ones, since stage 2
changes none of the values it holds; it decides each language's top-k once
per evaluation, and runs the heads in whole-array passes rather than one
sentence at a time.

Both stages checkpoint at epoch boundaries with enough state (optimizer
moments, rng state, epoch counter) that an interrupted stage-1 run resumed
from its last checkpoint reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .config import RunConfig, TrainConfig, write_atomic
from .corpus import Corpus, check_group_size, index_pools, sample_stage1_batch
from .errors import CheckpointError, NumericsError
from .evaluation import evaluate_model
from .model import Model
from .optim import AdamW
from .params import decode_extra_arrays, encode_extra_arrays


@dataclass
class TrainLog:
    lines: list[dict] = field(default_factory=list)

    def log(self, **kv) -> None:
        self.lines.append(kv)

    def save(self, path: str | Path) -> None:
        write_atomic(path, "".join(json.dumps(line, sort_keys=True) + "\n" for line in self.lines))


def _check_finite(loss_value: float, stage: int, step: int) -> None:
    if not np.isfinite(loss_value):
        raise NumericsError(f"stage {stage} loss became {loss_value} at step {step}")


def _train_step(
    opt: AdamW, batch_loss, batch, tc: TrainConfig, log: TrainLog, stage: int, epoch: int, step: int
) -> int:
    """One optimizer step on ``batch``'s mean loss; returns the new step count."""
    opt.zero_grad()
    stats: dict = {}
    loss = batch_loss(batch, tc.alpha, tc.beta, stats)
    value = loss.item()
    _check_finite(value, stage, step)
    loss.backward()
    # release the step's tape before the optimizer step, not on return
    del loss
    opt.step()
    n = max(1, stats.get("sentences", 1))
    log.log(stage=stage, epoch=epoch, step=step + 1, loss=value,
            relation_ce=stats.get("relation_ce", 0.0) / n,
            entity_ce=stats.get("entity_ce", 0.0) / n, lr=tc.lr)
    return step + 1


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state

def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(np.random.PCG64(0))
    rng.bit_generator.state = state
    return rng


def stage1_resume_state(extra) -> tuple[int, int, dict[str, np.ndarray], np.random.Generator]:
    """The epochs done, optimizer step count and moments, and sampling rng of a
    stage-1 checkpoint's ``extra`` section; any other section raises CheckpointError."""
    if not isinstance(extra, dict) or extra.get("stage") != 1:
        raise CheckpointError("resume checkpoint is not a stage-1 training state")
    try:
        counts = extra["epochs_done"], extra["step_count"]
        if any(type(c) is not int or c < 0 for c in counts):
            raise ValueError(f"epochs_done and step_count must be counts, got {counts}")
        moments = decode_extra_arrays(extra["optimizer"])
        rng = _restore_rng(json.loads(extra["rng_state"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"stage-1 resume state is malformed: {exc!r}") from None
    return *counts, moments, rng


def steps_per_epoch(n_train: int, sentences_per_batch: int) -> int:
    return max(1, int(np.ceil(n_train / sentences_per_batch)))


def train_stage1(
    model: Model,
    corpus: Corpus,
    run_cfg: RunConfig,
    out_dir: str | Path,
    log: TrainLog | None = None,
    resume_extra: dict | None = None,
) -> Path:
    """Run (or resume) stage-1 training; writes stage1.ckpt at every epoch end."""
    run_cfg.validate()
    resume = None if resume_extra is None else stage1_resume_state(resume_extra)
    tc = run_cfg.train
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = log if log is not None else TrainLog()
    s = tc.concat_sentences
    model.enter_stage(1)
    opt = AdamW(model.registry, tc.lr, tc.weight_decay)
    rng = np.random.default_rng(np.random.PCG64(tc.seed + 1))
    start_epoch = 0
    if resume is not None:
        start_epoch, step_count, moments, rng = resume
        opt.load_state_arrays(moments, step_count)

    def stage1_extra(epochs_done: int) -> dict:
        return {
            "stage": 1,
            "epochs_done": epochs_done,
            "step_count": opt.step_count,
            "optimizer": encode_extra_arrays(opt.state_arrays()),
            "rng_state": json.dumps(_rng_state(rng), sort_keys=True),
        }

    split = model.tokenize(corpus.train)
    pools = index_pools(split.langs)
    batch_loss = partial(model.stage1_batch_loss, split)
    per_epoch = steps_per_epoch(len(corpus.train), s * tc.batch_size)
    step = opt.step_count
    ckpt_path = out / "stage1.ckpt"
    for epoch in range(start_epoch, tc.stage1_epochs):
        t0 = time.time()
        for _ in range(per_epoch):
            batch = np.array(sample_stage1_batch(pools, s, tc.batch_size, rng))
            step = _train_step(opt, batch_loss, batch, tc, log, 1, epoch, step)
        model.save(ckpt_path, run_cfg, stage1_extra(epoch + 1))
        log.log(stage=1, epoch=epoch, epoch_seconds=round(time.time() - t0, 3))
    if tc.stage1_epochs == 0 or start_epoch >= tc.stage1_epochs:
        model.save(ckpt_path, run_cfg, stage1_extra(start_epoch))
    log.save(out / "stage1_log.jsonl")
    return ckpt_path


def train_stage2(
    model: Model,
    corpus: Corpus,
    run_cfg: RunConfig,
    out_dir: str | Path,
    log: TrainLog | None = None,
) -> Path:
    """Fine-tune the switcher and heads from a stage-1 model; encoder and
    aggregator are frozen. Keeps the best-dev checkpoint (dev triple micro-F1)."""
    run_cfg.validate()
    if model.stage < 1:
        raise CheckpointError("stage 2 requires a stage-1 checkpoint to start from")
    tc = run_cfg.train
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = log if log is not None else TrainLog()
    model.enter_stage(2)
    opt = AdamW(model.registry, tc.lr, tc.weight_decay)
    rng = np.random.default_rng(np.random.PCG64(tc.seed + 2))
    split = model.tokenize(corpus.train)
    pools = index_pools(split.langs)
    check_group_size(1, len(pools))
    table = model.frozen_prefix(split)
    batch_loss = partial(model.stage2_batch_loss, table)
    per_epoch = steps_per_epoch(len(corpus.train), tc.batch_size)
    ckpt_path = out / "stage2.ckpt"
    best_f1 = -1.0
    best_values: np.ndarray | None = None
    epochs_without_gain = 0
    step = 0
    for epoch in range(tc.stage2_max_epochs):
        t0 = time.time()
        for _ in range(per_epoch):
            batch = np.array(sample_stage1_batch(pools, 1, tc.batch_size, rng)).reshape(-1)
            step = _train_step(opt, batch_loss, batch, tc, log, 2, epoch, step)
        report = evaluate_model(model, corpus.dev, corpus.registry)
        dev_f1 = report.overall.triple_f1
        log.log(stage=2, epoch=epoch, dev_triple_f1=dev_f1, epoch_seconds=round(time.time() - t0, 3))
        improved = dev_f1 > best_f1
        if dev_f1 >= best_f1:
            # ties keep the most recent parameters
            best_f1 = dev_f1
            # only the trainable set moves, and it is the optimizer's flat
            # buffer; the frozen set needs no snapshot
            best_values = opt.values.copy()
        if improved:
            epochs_without_gain = 0
        else:
            epochs_without_gain += 1
            if epochs_without_gain >= tc.patience:
                log.log(stage=2, epoch=epoch, early_stop=True)
                break
    if best_values is not None:
        # in place, so every trainable parameter stays a view of the buffer
        opt.values[...] = best_values
    model.save(ckpt_path, run_cfg, {"stage": 2, "best_dev_triple_f1": best_f1})
    log.save(out / "stage2_log.jsonl")
    return ckpt_path


def run_summary(out_dir: str | Path, run_cfg: RunConfig, fields: dict) -> None:
    cfg_doc = run_cfg.to_json()
    canonical = json.dumps(cfg_doc, sort_keys=True)
    doc = {
        "config": cfg_doc,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        **fields,
    }
    write_atomic(Path(out_dir, "run_summary.json"), json.dumps(doc, sort_keys=True, indent=1) + "\n")
