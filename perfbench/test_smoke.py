"""Smoke test of the benchmark runner on the tiny overfit config.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced for a single timed call.
The test checks that each metric named in BENCHMARK.json is printed with its
unit, that spans nest, that per-layer self times fit in the wall time, that
the seed reaches the generated corpus, that an error raised by relmux is
reported as a failed run rather than a crash, and that the runner refuses to
run outside a relmux checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The overfit config memorises its training split and scores about 0 on dev,
# so topk_eval's triple-F1 floor is lifted for it.
TINY = ["--config", "configs/overfit.json", "--langs", "configs/overfit_langs.json", "--f1-floor", "0"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *TINY]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_doc(workload: str, seed: int, trace: int) -> dict:
    return json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(workload, 3, trace)
            assert proc.returncode == 0, proc.stderr
            out[(workload, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    result = runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_times_fit_in_wall_time(runs, workload):
    spans = [json.loads(line) for line in (OUT / f"{workload}-seed3-trace1-spans.jsonl").open(encoding="utf-8")]
    assert spans
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["run"] == span["run"]
    detail = result_doc(workload, 3, 1)["detail"]
    self_total = sum(rec["self_s"] for rec in detail["layers"].values())
    assert 0 < self_total <= detail["timed_wall_s"]
    assert detail["unpatched"] == []


def test_bypass_predictions_hold(runs):
    stage1 = runs[("stage1_train", 1)]["metrics"]
    stage2 = runs[("stage2_finetune", 1)]["metrics"]
    topk = runs[("topk_eval", 1)]["metrics"]
    for name in stage1:
        if name.startswith("switcher."):
            assert stage1[name]["value"] == 0, name
    assert topk["tensor.backward.self_s"]["value"] == 0
    assert 0 < stage2["tensor.grad_node_share"]["value"] < stage1["tensor.grad_node_share"]["value"]


def test_seed_reaches_the_corpus(runs):
    assert run("stage1_train", 4, 0).returncode == 0
    digest = {seed: result_doc("stage1_train", seed, 0)["detail"]["corpus_sha256"] for seed in (3, 4)}
    assert digest[3] != digest[4]
    assert run("stage1_train", 3, 0).returncode == 0
    assert result_doc("stage1_train", 3, 0)["detail"]["corpus_sha256"] == digest[3]


def test_a_relmux_error_is_a_failed_run(monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    import run as runner
    from relmux import training
    from relmux.errors import NumericsError

    def diverge(*args, **kwargs):
        raise NumericsError("stage 1 loss became nan at step 0")

    monkeypatch.setattr(training, "train_stage1", diverge)
    argv = ["--workload", "stage1_train", "--seed", "3", "--seconds", "1", "--trace", "0", *TINY]
    assert runner.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] >= 1


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_clock_scales_each_block_by_the_probes_around_it():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from hostspeed import NOMINAL_PROBE_MS, HostClock

    class FixedProbe:
        """Reads twice the nominal time, except one disturbed reading."""

        def __init__(self):
            self.readings = iter([2 * NOMINAL_PROBE_MS, 50 * NOMINAL_PROBE_MS, 2 * NOMINAL_PROBE_MS])

        def time_ms(self):
            return next(self.readings)

    clock = HostClock(FixedProbe(), every_s=0.0)
    clock.start()
    clock.mark()
    clock.mark()
    clock.stop()
    assert len(clock.raw) == len(clock.scaled) == 3 and len(clock.probes_ms) == 3
    # the median of each block's neighbouring probes drops the disturbed one
    for raw, scaled in zip(clock.raw, clock.scaled):
        assert scaled == raw / 2

    unprobed = HostClock(None)
    unprobed.start()
    unprobed.mark()
    unprobed.stop()
    assert unprobed.scaled == unprobed.raw and unprobed.probes_ms == []
