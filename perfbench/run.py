"""relmux benchmark runner.

    python3 perfbench/run.py --workload stage1_train --seed 1 --seconds 10 --trace 0

Run it from the root of a relmux checkout. It imports relmux from ``src/``,
generates its corpus from ``--seed``, runs one workload through the public
entry points (``train_stage1``, ``train_stage2``, ``evaluate_model``,
``Model.load``), checks the outputs, and prints one metric per line followed
by a JSON result as the last line of standard output. ``--trace 0`` reports
the end-to-end metrics, measured untraced and scaled to the host's nominal
speed by the probe in ``perfbench/hostspeed.py``; ``--trace 1`` runs the same work
under the span tracer in ``perfbench/tracer.py`` and reports the per-layer
metrics. Full results, the environment and the spans are written under
``.perfbench_out/``. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"

# The workloads are single-threaded by design; BLAS threads on matrices this
# small would only add scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# imported once the thread settings above are in place, because it imports numpy
from hostspeed import NOMINAL_PROBE_MS, HostClock, Probe  # noqa: E402

WORKLOADS = ("stage1_train", "stage2_finetune", "topk_eval")

# One timed call is one unit of work: a 2-epoch train_stage1 from a fresh
# init, a 1-epoch train_stage2 from the set-up's stage-1 checkpoint, or one
# evaluate_model sweep over train/dev/test at every k. Every call of a run
# starts from the same state and repeats the same work. A run makes this many
# calls per 10 seconds of --seconds, so every commit does the same work for
# the same --seconds and faster code simply finishes sooner. Each step or
# prediction counts with its median over the calls, which drops a sample
# that a short stall of the host lengthened in one call; two calls would
# give only their mean. A stage-1 call trains two epochs, so that it has 68
# distinct steps like a stage-2 call: the p95 of one epoch's 34 batches
# would depend on the one or two largest batches of the seed's corpus.
CALLS_PER_10S = {"stage1_train": 3, "stage2_finetune": 3, "topk_eval": 3}
STAGE1_CALL_EPOCHS = 2
# Set-up runs this many times and its median repetition goes into setup_s.
# Interpreter start and imports happen once, so they are recorded apart
# (detail.import_s) and not part of setup_s.
SETUP_REPEATS = {"stage1_train": 21, "stage2_finetune": 3, "topk_eval": 7}
# stage2_finetune only needs a real stage-1 model to fine-tune: its step cost
# does not depend on how well that model is trained. Each set-up repetition
# trains one stage-1 epoch on every PREREQ_STAGE1_STRIDE-th training sentence.
PREREQ_STAGE1_STRIDE = 4
# topk_eval needs a trained model: Model.predict scores and decodes spans only
# for sentences it assigns a relation, so the share of those sets the path
# mix. Trained on the whole training split for TOPK_SCHEDULE, a model assigns
# a relation as often as one trained on the config's full schedule does (and
# as often as the gold labels have one), in about half the time. It is
# trained once per process; only the corpus and the checkpoint load are
# repeated. Its dev and test triple-F1 at the config's eval_top_k must reach
# F1_FLOOR, which a model that stopped learning or decoding would miss.
TOPK_SCHEDULE = {"stage1_epochs": 6, "stage2_max_epochs": 3, "patience": 3}
F1_FLOOR = 0.4
FAMILY_SHARE = 0.85

END_TO_END_UNITS = {
    "setup_s": "s",
    "sentences_per_s": "sentences/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from spans are named <span name>.<field>, with field
# self_s or calls; they are totals over the traced timed calls.
SPAN_METRICS = (
    "encoder.encode.self_s",
    "encoder.encode.calls",
    "aggregator.aggregate.self_s",
    "switcher.switch_train.self_s",
    "switcher.switch_eval.self_s",
    "switcher.apply_submodule.self_s",
    "switcher.apply_submodule.calls",
    "heads.relation_logits.self_s",
    "heads.entity_scores.self_s",
    "heads.decode_spans.self_s",
    "tensor.backward.self_s",
    "tensor.toposort.self_s",
    "optim.step.self_s",
    "params.save_checkpoint.self_s",
    "evaluation.evaluate_model.self_s",
    "model.predict.self_s",
    "model.stage1_batch_loss.self_s",
    "model.stage2_batch_loss.self_s",
    "corpus.sample_stage1_batch.self_s",
    "training.train_stage1.self_s",
    "training.train_stage2.self_s",
)
# layers that only run in set-up: reported per set-up repetition
SETUP_SPAN_METRICS = ("corpus.generate_corpus.self_s", "params.load_checkpoint.self_s")
PER_LAYER_UNITS = {"self_s": "s", "calls": "count"}
COUNTER_UNITS = {
    "tensor.tape_nodes": "count",
    "tensor.grad_node_share": "ratio",
    "params.save_checkpoint.bytes": "bytes",
    "runtime.gc.pause_s": "s",
    "runtime.gc.collections": "count",
    "trace.overhead_ratio": "ratio",
    "evaluation.dev_triple_f1": "ratio",
    "evaluation.test_triple_f1": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="relmux benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--config", default="configs/benchmark.json", help="model and training config, relative to the checkout")
    p.add_argument("--langs", default="configs/benchmark_langs.json", help="language and relation spec, relative to the checkout")
    p.add_argument("--f1-floor", type=float, default=F1_FLOOR, help="least dev and test triple-F1 topk_eval accepts")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# run state


class Aborted(Exception):
    """A relmux call raised RelmuxError; the run stops and reports it as failed."""


@dataclass
class Tally:
    """Operations attempted (training steps or predictions) and failed checks."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"perfbench: CHECK FAILED: {what}", file=sys.stderr)

    def guard(self, what: str, fn, *args, **kwargs):
        """Call ``fn``; a RelmuxError it raises (a non-finite loss, a report
        that breaks its invariants, an unreadable checkpoint) is one attempted
        and failed operation, and aborts the run."""
        from relmux.errors import RelmuxError

        try:
            return fn(*args, **kwargs)
        except RelmuxError as exc:
            self.attempted += 1
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            raise Aborted(what) from exc


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def params_equal(a, b) -> bool:
    """Bit-equality of two parameter registries."""
    if a.names() != b.names():
        return False
    return all(a[n].data.tobytes() == b[n].data.tobytes() and a[n].shape == b[n].shape for n in a.names())


def corpus_sha256(corpus) -> str:
    """Fingerprint of the generated corpus, to show which inputs a run used."""
    h = hashlib.sha256()
    for split in ("train", "dev", "test"):
        for ex in corpus.split(split):
            h.update(repr((split, ex.id, ex.lang, ex.tokens, ex.head_span, ex.tail_span, ex.relation)).encode())
    return h.hexdigest()


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' exclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------------------
# the benchmark


class Bench:
    def __init__(self, args, tracer):
        from relmux import training

        self.args = args
        self.tracer = tracer
        self.tally = Tally()
        self.work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        self.probe = Probe()
        self.probes_ms: list[float] = []
        self.digests: dict[str, set[str]] = {}
        self.detail: dict = {}

        class StepClock(training.TrainLog):
            """TrainLog that closes a unit of ``clock`` at every line it is
            given: unit i ends at line i, and one more unit ends when the
            clock stops."""

            def __init__(self, clock: HostClock):
                super().__init__()
                self.clock = clock

            def log(self, **kv) -> None:
                self.clock.mark()
                super().log(**kv)

        self.StepClock = StepClock

    def clock(self, probed: bool) -> HostClock:
        """A started clock; unprobed (raw times only) for traced work."""
        clock = HostClock(self.probe if probed else None)
        clock.start()
        return clock

    def stop(self, clock: HostClock) -> float:
        """Stop ``clock``; returns its scaled seconds."""
        clock.stop()
        self.probes_ms.extend(clock.probes_ms)
        return sum(clock.scaled)

    def run_as(self, run_id: str) -> None:
        if self.tracer is not None:
            self.tracer.run_id = run_id

    def digest(self, what: str, value: str) -> None:
        self.digests.setdefault(what, set()).add(value)

    # -- inputs ------------------------------------------------------------

    def load_inputs(self):
        from relmux.config import load_run_config
        from relmux.corpus import LanguageRegistry

        self.registry_in = LanguageRegistry.load(ROOT / self.args.langs)
        self.cfg = load_run_config(ROOT / self.args.config)

    def make_corpus(self):
        from relmux import corpus as corpus_mod

        return corpus_mod.generate_corpus(
            self.registry_in.languages,
            self.registry_in.schema,
            seed=self.args.seed,
            gen=corpus_mod.GeneratorConfig(family_share=FAMILY_SHARE),
        )

    def fresh_model(self, corpus):
        from relmux.model import Model

        return Model.build(replace(self.cfg.model), corpus.registry, init_seed=self.cfg.train.seed)

    def cfg_with(self, **train):
        return replace(self.cfg, train=replace(self.cfg.train, **train))

    # -- checks ------------------------------------------------------------
    # relmux raises on a non-finite loss and on a report that breaks its
    # invariants; Tally.guard counts those raises. The benchmark repeats both
    # checks on what it gets back, so they still hold if relmux stops making
    # them.

    def check_log(self, log, stage: int) -> list[float]:
        losses = [line["loss"] for line in log.lines if line.get("stage") == stage and "loss" in line]
        self.tally.check(all(math.isfinite(v) for v in losses), f"non-finite stage-{stage} loss")
        return losses

    def check_roundtrip(self, model, ckpt: Path, registry):
        """Reload ``ckpt`` with Model.load; its parameters must be bit-equal."""
        from relmux.model import Model

        loaded, _, _ = self.tally.guard(f"load {ckpt.name}", Model.load, ckpt, registry)
        self.tally.check(params_equal(model.registry, loaded.registry), f"{ckpt.name} reload is not bit-equal")
        return loaded

    def evaluate(self, model, examples, what: str):
        from relmux import evaluation

        report = self.tally.guard(what, evaluation.evaluate_model, model, examples, self.corpus.registry)
        self.tally.guard(f"{what} invariants", report.check_invariants)
        return report

    def check_f1(self) -> None:
        for split in ("dev", "test"):
            f1 = self.detail[f"{split}_triple_f1"]
            floor = self.args.f1_floor
            self.tally.check(f1 >= floor, f"{split} triple-F1 {f1:.4f} is below {floor}")

    # -- set-up ------------------------------------------------------------

    def train_topk_model(self) -> float:
        """Train topk_eval's model on TOPK_SCHEDULE, once per process;
        returns the scaled seconds it took."""
        from relmux import training

        self.run_as("prereq")
        clock = self.clock(self.tracer is None)
        corpus = self.make_corpus()
        model = self.fresh_model(corpus)
        out = self.work / "prereq"
        log = self.StepClock(clock)
        run_cfg = self.cfg_with(**TOPK_SCHEDULE)
        self.tally.guard("prerequisite stage 1", training.train_stage1, model, corpus, run_cfg, out, log)
        ckpt = self.tally.guard("prerequisite stage 2", training.train_stage2, model, corpus, run_cfg, out, log)
        seconds = self.stop(clock)
        self.detail["setup_once_raw_s"] = sum(clock.raw)
        self.run_as("idle")
        losses = self.check_log(log, 1) + self.check_log(log, 2)
        self.tally.attempted += len(losses)
        self.digest("prereq", json.dumps(losses) + sha256_file(ckpt))
        self.trained, self.setup_ckpt = model, ckpt
        return seconds

    def setup_once(self, rep: int, clock: HostClock):
        """One set-up repetition: corpus, then a fresh model (stage1_train),
        a light stage-1 training saved and reloaded (stage2_finetune), or the
        trained checkpoint reloaded (topk_eval)."""
        from relmux import training

        wl = self.args.workload
        corpus = self.make_corpus()
        if wl == "stage1_train":
            return corpus, self.fresh_model(corpus)
        if wl == "stage2_finetune":
            model = self.fresh_model(corpus)
            light = replace(corpus, train=corpus.train[::PREREQ_STAGE1_STRIDE])
            log = self.StepClock(clock)
            ckpt = self.tally.guard("set-up stage 1", training.train_stage1, model, light,
                                    self.cfg_with(stage1_epochs=1), self.work / f"setup{rep}", log)
            losses = self.check_log(log, 1)
            self.tally.attempted += len(losses)
            self.digest("setup", json.dumps(losses) + sha256_file(ckpt))
            self.trained, self.setup_ckpt = model, ckpt
        return corpus, self.check_roundtrip(self.trained, self.setup_ckpt, corpus.registry)

    def setup(self) -> float:
        once = self.train_topk_model() if self.args.workload == "topk_eval" else 0.0
        if self.tracer is not None:
            self.tracer.install()
        times, raw = [], []
        for rep in range(SETUP_REPEATS[self.args.workload]):
            self.run_as(f"setup-{rep}")
            clock = self.clock(self.tracer is None)
            self.corpus, self.model = self.setup_once(rep, clock)
            times.append(self.stop(clock))
            raw.append(sum(clock.raw))
        self.run_as("idle")
        self.detail["setup_once_s"] = once
        self.detail["setup_rep_s"] = times
        self.detail["setup_rep_raw_s"] = raw
        self.detail["corpus_sha256"] = corpus_sha256(self.corpus)
        return once + statistics.median(times)

    # -- timed calls ---------------------------------------------------------

    def count_relations(self, model) -> list[int]:
        """Record the relation of every prediction ``model`` makes from now on;
        only predictions of a relation go on to score and decode spans."""
        relations: list[int] = []
        predict = type(model).predict.__get__(model)

        def counted(*a, **kw):
            pred = predict(*a, **kw)
            relations.append(pred.relation)
            return pred

        model.predict = counted
        return relations

    def call(self, i: int, tag: str, probed: bool) -> dict:
        """One timed unit of work; returns its raw and scaled times."""
        from relmux import evaluation, training
        from relmux.model import Model

        wl = self.args.workload
        tc = self.cfg.train
        out = self.work / f"{tag}{i}"
        guard = self.tally.guard
        if wl == "topk_eval":
            model = self.model
            self.relations = []
            predict = type(model).predict.__get__(model)
            reports = {}
            self.run_as(f"{tag}-{i}")
            t0, c0 = time.perf_counter(), time.process_time()
            clock = self.clock(probed)

            def timed_predict(*a, **kw):
                pred = predict(*a, **kw)
                clock.mark()
                self.relations.append(pred.relation)
                return pred

            model.predict = timed_predict
            for split in ("train", "dev", "test"):
                for k in self.top_ks:
                    reports[(split, k)] = guard(f"{split}@k={k} eval", evaluation.evaluate_model,
                                                model, self.corpus.split(split), self.corpus.registry, top_k=k)
            self.stop(clock)
            t1, cpu = time.perf_counter(), time.process_time() - c0
            self.run_as("idle")
            del model.predict
            for (split, k), report in reports.items():
                guard(f"{split}@k={k} invariants", report.check_invariants)
                self.digest(f"{split}@k={k}", json.dumps(report.to_json(), sort_keys=True))
            self.reports = reports
            # unit j ends at prediction j; the last unit is the tail after it
            samples = range(len(self.relations))
            sentences = len(self.relations)
        else:
            self.run_as(f"reload-{i}")
            if wl == "stage1_train":
                model = self.fresh_model(self.corpus)
                run_cfg, stage = self.cfg_with(stage1_epochs=STAGE1_CALL_EPOCHS), 1
                per_step = tc.batch_size * tc.concat_sentences
                train = training.train_stage1
            else:
                model, _, _ = guard("reload stage-1 checkpoint", Model.load, self.setup_ckpt, self.corpus.registry)
                run_cfg, stage, per_step = self.cfg_with(stage2_max_epochs=1, patience=1), 2, tc.batch_size
                train = training.train_stage2
                self.relations = self.count_relations(model)
            self.run_as(f"{tag}-{i}")
            t0, c0 = time.perf_counter(), time.process_time()
            clock = self.clock(probed)
            log = self.StepClock(clock)
            ckpt = guard(f"train_stage{stage}", train, model, self.corpus, run_cfg, out, log)
            self.stop(clock)
            t1, cpu = time.perf_counter(), time.process_time() - c0
            self.run_as("idle")
            losses = self.check_log(log, stage)
            self.check_roundtrip(model, ckpt, self.corpus.registry)
            self.digest("call", json.dumps(losses) + sha256_file(ckpt))
            self.last_model = model
            # the unit that ends at a per-step line is that step
            samples = [j for j, line in enumerate(log.lines) if "loss" in line]
            sentences = len(samples) * per_step
        return {"wall": sum(clock.raw), "scaled": sum(clock.scaled), "cpu_over_wall": cpu / (t1 - t0),
                "units": len(clock.raw), "ops": len(samples), "sentences": sentences,
                "step_ms": [clock.scaled[j] * 1000.0 for j in samples],
                "raw_step_ms": [clock.raw[j] * 1000.0 for j in samples],
                "probe_ms": statistics.median(clock.probes_ms) if clock.probes_ms else None}

    def timed(self, n_calls: int) -> tuple[list[dict], list[dict]]:
        """Run the timed calls. With a tracer, each traced call is paired with
        an untraced one, in alternating order, for the overhead ratio. Only
        untraced calls run the host-speed probe."""
        traced, untraced = [], []
        for i in range(n_calls):
            # every call starts from a collected heap, so that the garbage
            # collector runs at the same points of the work in each call
            gc.collect()
            if self.tracer is None:
                traced.append(self.call(i, "timed", probed=True))
            else:
                for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
                    if with_trace:
                        self.tracer.install()
                        traced.append(self.call(i, "timed", probed=False))
                        self.tracer.uninstall()
                    else:
                        untraced.append(self.call(i, "untraced", probed=True))
        return traced, untraced

    # -- the run -------------------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        args = self.args
        self.load_inputs()
        setup_s = self.setup()
        self.top_ks = sorted({1, self.cfg.model.eval_top_k, self.cfg.model.n_sub_modules})
        n_calls = max(1, round(CALLS_PER_10S[args.workload] * args.seconds / 10))
        if self.tracer is not None:
            self.tracer.uninstall()
        calls, untraced = self.timed(n_calls)
        for c in calls + untraced:
            self.tally.attempted += c["ops"]
        for what, values in self.digests.items():
            self.tally.check(len(values) == 1, f"determinism digest '{what}' differs across repeats")

        if args.workload == "topk_eval":
            k = self.cfg.model.eval_top_k
            for split in ("dev", "test"):
                self.detail[f"{split}_triple_f1"] = self.reports[(split, k)].overall.triple_f1
            self.check_f1()
        else:
            # a model one call into training: recorded, not checked
            for split in ("dev", "test"):
                report = self.evaluate(self.last_model, self.corpus.split(split), f"{split} eval")
                self.detail[f"{split}_triple_f1"] = report.overall.triple_f1
        if args.workload != "stage1_train":
            # topk_eval: every timed prediction; stage2_finetune: the last
            # call's dev eval
            self.detail["relation_predicted_share"] = sum(r != 0 for r in self.relations) / len(self.relations)

        # End-to-end numbers come from untraced calls only, in scaled
        # seconds (hostspeed.py): each unit of work counts at the host's
        # nominal speed, by the probes around it. The calls repeat identical
        # work, so the j-th step (or prediction) is the same work in each;
        # its time is the median over the calls, which drops a step that a
        # stall of the host, too short for a probe to see, lengthened once.
        measured = untraced or calls
        self.tally.check(len({c["units"] for c in measured}) == 1, "timed calls differ in length")
        steps = [statistics.median(col) for col in zip(*(c["step_ms"] for c in measured))]
        raw_steps = [statistics.median(col) for col in zip(*(c["raw_step_ms"] for c in measured))]
        sentences = sum(c["sentences"] for c in measured)
        e2e = {
            "setup_s": setup_s,
            "sentences_per_s": sentences / sum(c["scaled"] for c in measured),
            "step_ms_p50": statistics.median(steps),
            "step_ms_p95": percentile(steps, 95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        probes = self.probes_ms or [NOMINAL_PROBE_MS]
        self.detail.update({
            "import_s": self.import_s,
            "digest": hashlib.sha256("".join(sorted(v for vs in self.digests.values() for v in vs)).encode()).hexdigest(),
            "calls": len(measured),
            "call_wall_s": [c["wall"] for c in measured],
            "call_scaled_s": [c["scaled"] for c in measured],
            "call_probe_ms": [c["probe_ms"] for c in measured],
            "call_step_ms": [c["step_ms"] for c in measured],
            "call_raw_step_ms": [c["raw_step_ms"] for c in measured],
            "cpu_over_wall": statistics.mean(c["cpu_over_wall"] for c in measured),
            "step_samples": len(steps),
            "raw_sentences_per_s": sentences / sum(c["wall"] for c in measured),
            "raw_step_ms_p50": statistics.median(raw_steps),
            "raw_step_ms_p95": percentile(raw_steps, 95),
            "failed_ratio": self.tally.failed / max(1, self.tally.attempted),
            "probes": len(self.probes_ms),
            "probe_ms_median": statistics.median(probes),
            "host_speed": NOMINAL_PROBE_MS / statistics.median(probes),
            "host_speed_range": [NOMINAL_PROBE_MS / max(probes), NOMINAL_PROBE_MS / min(probes)],
        })
        if self.tracer is None:
            return e2e, {}
        return e2e, self.per_layer(calls, untraced)

    def per_layer(self, calls, untraced) -> dict:
        tr = self.tracer
        timed_runs = {f"timed-{i}" for i in range(len(calls))}
        setup_runs = {f"setup-{i}" for i in range(SETUP_REPEATS[self.args.workload])}
        timed = tr.self_times(timed_runs)
        setup = tr.self_times(setup_runs)
        counts = tr.counts_over(timed_runs)
        out = {}
        for metric in SPAN_METRICS:
            name, fld = metric.rsplit(".", 1)
            out[metric] = timed[name][fld] if name in timed else 0
        for metric in SETUP_SPAN_METRICS:
            name, fld = metric.rsplit(".", 1)
            out[metric] = (setup[name][fld] if name in setup else 0) / len(setup_runs)
        nodes = counts.get("tensor.tape_nodes", 0)
        out["tensor.tape_nodes"] = nodes
        out["tensor.grad_node_share"] = counts.get("tensor.grad_nodes", 0) / nodes if nodes else 0.0
        out["params.save_checkpoint.bytes"] = counts.get("params.save_checkpoint.bytes", 0)
        out["runtime.gc.pause_s"] = counts.get("runtime.gc.pause_s", 0.0)
        out["runtime.gc.collections"] = counts.get("runtime.gc.collections", 0)
        out["trace.overhead_ratio"] = sum(c["wall"] for c in calls) / sum(c["wall"] for c in untraced)
        out["evaluation.dev_triple_f1"] = self.detail["dev_triple_f1"]
        out["evaluation.test_triple_f1"] = self.detail["test_triple_f1"]
        self.detail["timed_wall_s"] = sum(c["wall"] for c in calls)
        self.detail["layers"] = {name: dict(rec) for name, rec in sorted(timed.items())}
        self.detail["unpatched"] = tr.unpatched
        return out


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric in COUNTER_UNITS:
        return COUNTER_UNITS[metric]
    return PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/relmux/__init__.py", args.config, args.langs) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a relmux checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # imported here so that import time is measured once, apart from set-up
    import numpy  # noqa: F401
    import relmux.training  # noqa: F401

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    bench = Bench(args, tracer)
    bench.import_s = time.perf_counter() - PROCESS_T0
    OUT.mkdir(exist_ok=True)
    e2e, layers = {}, {}
    try:
        e2e, layers = bench.run()
    except Aborted:
        pass
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(bench.work, ignore_errors=True)
    metrics = layers if args.trace else e2e
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "config": args.config, "langs": args.langs,
        "environment": env, "end_to_end": e2e, "per_layer": layers, "detail": bench.detail,
        "attempted": bench.tally.attempted, "failed": bench.tally.failed, "failed_checks": bench.tally.notes,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    d = bench.detail
    print(f"# env python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"threads={env['thread_env']['OPENBLAS_NUM_THREADS']} nproc={env['nproc']} "
          f"host_speed={d.get('host_speed', float('nan')):.3f} cpu/wall={d.get('cpu_over_wall', float('nan')):.3f}")
    if metrics:
        share = d.get("relation_predicted_share")
        print(f"# {args.workload}: {d['calls']} calls, {d['step_samples']} step samples (each a median over the calls), "
              f"failed_ratio={d['failed_ratio']:.6f} ({bench.tally.failed}/{bench.tally.attempted}), "
              f"dev_triple_f1={d['dev_triple_f1']:.4f} test_triple_f1={d['test_triple_f1']:.4f}"
              + ("" if share is None else f" relation_predicted_share={share:.4f}"))
        print(f"# digest {d['digest']} corpus {d['corpus_sha256']}")
        if "raw_sentences_per_s" in d:
            print(f"# unscaled: sentences_per_s={d['raw_sentences_per_s']:.6g} step_ms_p50={d['raw_step_ms_p50']:.6g} "
                  f"step_ms_p95={d['raw_step_ms_p95']:.6g}, over {d['probes']} host-speed probes")
    else:
        print(f"# {args.workload}: aborted after {bench.tally.failed} failed of {bench.tally.attempted} attempted")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
