"""In-memory span tracer for the relmux benchmark's traced run.

The tracer wraps public functions of each relmux layer from outside the
package. A wrapped call records a span (name, start, end, parent, run id)
into a list kept in memory; the runner writes the list out when the run ends.
A layer's self time is its span's duration minus the durations of its child
spans. Calls on one thread nest, so child spans never overlap and their
summed durations are the covered part of the parent's interval.

Each function is replaced at every module that looks it up, because relmux
modules import each other's functions by name: ``relmux.model`` calls its own
``encode`` binding, not ``relmux.encoder.encode``.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# Book-keeping the tracer itself does inside a traced call (counting tape
# nodes, sizing a checkpoint) is recorded as a span with this name, so it is
# subtracted from the enclosing layer's self time and reported nowhere else.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index, run id]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = "idle"
        self.unpatched: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counts[self.run_id][key] += value

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span. ``on_result(tracer, result, args)``
        runs after the span closes, inside a book-keeping span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                book = self._open(BOOKKEEPING)
                try:
                    on_result(self, result, args)
                finally:
                    self._close(book)
            return result

        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.count("runtime.gc.pause_s", time.perf_counter() - self._gc_start)
            self.count("runtime.gc.collections", 1)

    # -- installation ------------------------------------------------------

    def patch(self, name: str, sites: list[tuple[object, str]], on_result=None) -> None:
        """Replace the function at every site that binds it. The first site
        that exists supplies the original function; a layer with no site at
        all is listed in ``unpatched`` and its metrics read 0."""
        present = [(owner, attr) for owner, attr in sites if attr in vars(owner)]
        if not present:
            self.unpatched.append(name)
            return
        original = vars(present[0][0])[present[0][1]]
        wrapper = self.wrap(name, original, on_result)
        for owner, attr in present:
            self._restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        import relmux.aggregator as aggregator
        import relmux.corpus as corpus
        import relmux.encoder as encoder
        import relmux.evaluation as evaluation
        import relmux.heads as heads
        import relmux.model as model
        import relmux.optim as optim
        import relmux.params as params
        import relmux.switcher as switcher
        import relmux.tensor as tensor
        import relmux.training as training

        self.unpatched = []

        def tape_counts(tr: "Tracer", order, args) -> None:
            tr.count("tensor.tape_nodes", len(order))
            tr.count("tensor.grad_nodes", sum(1 for node in order if node.requires_grad))

        def checkpoint_bytes(tr: "Tracer", result, args) -> None:
            tr.count("params.save_checkpoint.bytes", os.path.getsize(args[0]))

        targets = [
            ("corpus.generate_corpus", [(corpus, "generate_corpus")]),
            ("corpus.sample_stage1_batch", [(training, "sample_stage1_batch"), (corpus, "sample_stage1_batch")]),
            ("encoder.encode", [(model, "encode"), (encoder, "encode")]),
            ("aggregator.aggregate", [(model, "aggregate"), (aggregator, "aggregate")]),
            ("switcher.switch_train", [(model, "switch_train"), (switcher, "switch_train")]),
            ("switcher.switch_eval", [(model, "switch_eval"), (switcher, "switch_eval")]),
            ("switcher.apply_submodule", [(switcher, "apply_submodule")]),
            ("heads.relation_logits", [(model, "relation_logits"), (heads, "relation_logits")]),
            ("heads.entity_scores", [(model, "entity_scores"), (heads, "entity_scores")]),
            ("heads.decode_spans", [(model, "decode_spans"), (heads, "decode_spans")]),
            ("tensor.backward", [(tensor.Tensor, "backward")]),
            ("optim.step", [(optim.AdamW, "step")]),
            ("params.load_checkpoint", [(model, "load_checkpoint"), (params, "load_checkpoint")]),
            ("evaluation.evaluate_model", [(training, "evaluate_model"), (evaluation, "evaluate_model")]),
            ("model.predict", [(model.Model, "predict")]),
            ("model.stage1_batch_loss", [(model.Model, "stage1_batch_loss")]),
            ("model.stage2_batch_loss", [(model.Model, "stage2_batch_loss")]),
            ("training.train_stage1", [(training, "train_stage1")]),
            ("training.train_stage2", [(training, "train_stage2")]),
        ]
        for name, sites in targets:
            self.patch(name, sites)
        self.patch("tensor.toposort", [(tensor, "_toposort")], tape_counts)
        self.patch("params.save_checkpoint", [(model, "save_checkpoint"), (params, "save_checkpoint")],
                   checkpoint_bytes)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- analysis ----------------------------------------------------------

    def self_times(self, runs) -> dict[str, dict[str, float]]:
        """Per span name: total self seconds, total seconds and calls over
        the spans whose run id is in ``runs``."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run in runs:
                rec = out[name]
                rec["self_s"] += end - start - child_s[i]
                rec["total_s"] += end - start
                rec["calls"] += 1
        return out

    def counts_over(self, runs) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for run in runs:
            for key, value in self.counts.get(run, {}).items():
                total[key] += value
        return total

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run}) + "\n")
