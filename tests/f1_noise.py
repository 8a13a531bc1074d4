"""The accuracy effect of a change that moves bits, beside a one-ulp noise floor.

    python tests/f1_noise.py --base origin/main --seeds 24

For corpus seeds 100 + s, s = 1 .. N, it trains the acceptance fixture's two
stages (``configs/benchmark.json``, ``family_share`` 0.85, init and train
seed s) and evaluates dev and test triple-F1 in three arms:

- ``base``: the ``--base`` ref, checked out into a temporary git worktree;
- ``change``: the working tree;
- ``control``: the base again, with both batch losses times 1 + 2^-52.

Every run is a subprocess that imports relmux from its arm's ``src``, at
most two at a time. The control patches the base's loss in that subprocess,
never in a source file. The output gives each arm's mean F1, the paired
change - base and control - base means with bootstrap 95% intervals over the
seeds, and a sign-flip permutation p for change against control: when it is
small, the change moved F1 by more than rounding alone does. The worktree is
removed on exit.

Needs numpy and the standard library only. This file is a script: its name
does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ARMS = ("base", "change", "control")
WORKERS = 2
RESAMPLES = 20_000

# One run in a fresh interpreter: argv is the arm, the seed, the configs
# directory and an output directory; it prints {"dev": f1, "test": f1}.
WORKER = r"""
import json, sys
from dataclasses import replace
from pathlib import Path
from relmux import tensor as T
from relmux.config import load_run_config
from relmux.corpus import GeneratorConfig, LanguageRegistry, generate_corpus
from relmux.evaluation import evaluate_model
from relmux.model import Model
from relmux.training import train_stage1, train_stage2

arm, seed, configs, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), Path(sys.argv[4])
if arm == "control":
    for name in ("stage1_batch_loss", "stage2_batch_loss"):
        def scaled(self, *args, _loss=getattr(Model, name), **kwargs):
            return T.mul(_loss(self, *args, **kwargs), 1.0 + 2.0 ** -52)
        setattr(Model, name, scaled)
langs = LanguageRegistry.load(configs / "benchmark_langs.json")
corpus = generate_corpus(langs.languages, langs.schema, seed=100 + seed, gen=GeneratorConfig(family_share=0.85))
cfg = load_run_config(configs / "benchmark.json")
cfg = replace(cfg, train=replace(cfg.train, seed=seed))
model = Model.build(replace(cfg.model), corpus.registry, init_seed=seed)
train_stage1(model, corpus, cfg, out)
train_stage2(model, corpus, cfg, out)
f1 = {split: evaluate_model(model, getattr(corpus, split), corpus.registry).overall.triple_f1
      for split in ("dev", "test")}
print(json.dumps(f1))
"""


def run(root: Path, arm: str, seed: int, work: Path) -> dict[str, float]:
    """Dev and test triple-F1 of one arm at one seed, trained by the relmux
    under ``root / "src"``."""
    out = work / f"{arm}-{seed}"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", WORKER, arm, str(seed), str(ROOT / "configs"), str(out)],
                          cwd=work, env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{arm} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def bootstrap(d: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    """A 95% percentile interval of the mean of ``d``, resampling its seeds."""
    means = d[rng.integers(0, d.size, size=(RESAMPLES, d.size))].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def sign_flip_p(d: np.ndarray, rng: np.random.Generator) -> float:
    """Two-sided p of mean(d) = 0 against random sign flips of the paired
    differences ``d``, counting the observed one."""
    flips = rng.choice([-1.0, 1.0], size=(RESAMPLES, d.size))
    extreme = (np.abs((flips * d).mean(axis=1)) >= abs(d.mean()) - 1e-15).sum()
    return float((extreme + 1) / (RESAMPLES + 1))


def summary(f1: dict[str, np.ndarray]) -> list[str]:
    """The report lines of one split's F1, (seeds,) per arm."""
    rng = np.random.default_rng(0)
    lines = ["  mean: " + ", ".join(f"{arm} {f1[arm].mean():.4f}" for arm in ARMS)]
    for arm in ("change", "control"):
        d = f1[arm] - f1["base"]
        lo, hi = bootstrap(d, rng)
        lines.append(f"  {arm} - base: {d.mean():+.4f} [{lo:+.4f}, {hi:+.4f}], sd {d.std(ddof=1):.4f}")
    lines.append(f"  change against control: permutation p {sign_flip_p(f1['change'] - f1['control'], rng):.3f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the git ref to compare the working tree with")
    parser.add_argument("--seeds", type=int, default=24, help="seeds 1 .. N (default 24)")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    seeds = range(1, args.seeds + 1)
    with tempfile.TemporaryDirectory() as tmp:
        work, base = Path(tmp), Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base), args.base], cwd=ROOT, check=True,
                       capture_output=True)
        try:
            roots = {"base": base, "change": ROOT, "control": base}
            jobs = [(arm, seed) for seed in seeds for arm in ARMS]
            with ThreadPoolExecutor(WORKERS) as pool:
                results = list(pool.map(lambda job: run(roots[job[0]], *job, work), jobs))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT, check=True)
    by_job = dict(zip(jobs, results))
    print(f"# triple-F1 over seeds 1..{args.seeds}, base {args.base}")
    print("seed " + " ".join(f"{arm}_{split}" for arm in ARMS for split in ("dev", "test")))
    for seed in seeds:
        print(seed, " ".join(f"{by_job[arm, seed][split]:.4f}" for arm in ARMS for split in ("dev", "test")))
    for split in ("dev", "test"):
        print(f"{split}:")
        print("\n".join(summary({arm: np.array([by_job[arm, s][split] for s in seeds]) for arm in ARMS})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
