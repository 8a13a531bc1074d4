"""Config validation at every bound: each check accepts the value exactly at
its bound and rejects, with a ``ConfigError`` naming the check, the value
one step past it."""

import math
from dataclasses import replace

import pytest

from relmux.config import MAX_CONCAT_TOKENS, ModelConfig, RunConfig, TrainConfig
from relmux.errors import ConfigError

# the least positive float: one step past 0.0
TINY = math.nextafter(0.0, 1.0)

# (fields accepted at the bound, fields one step past it, the rejection's message)
MODEL_BOUNDS = {
    "d_model": (dict(d_model=2, n_heads=1), dict(d_model=1, n_heads=1), "d_model must be >= 2"),
    "ffn_dim": (dict(ffn_dim=1), dict(ffn_dim=0), "ffn_dim and n_blocks >= 1"),
    "n_blocks": (dict(n_blocks=1), dict(n_blocks=0), "ffn_dim and n_blocks >= 1"),
    "n_heads": (dict(n_heads=1), dict(n_heads=0), "n_heads must be >= 1"),
    "max_len": (dict(max_len=4), dict(max_len=3), "max_len must be >= 4"),
    "heads divide d_model": (dict(d_model=12, n_heads=12), dict(d_model=12, n_heads=8), "not divisible"),
    "bottleneck": (dict(d_model=64, bottleneck=65), dict(d_model=64, bottleneck=64), "bottleneck width"),
    "one depth per sub-module": (dict(n_sub_modules=2, sub_layers=(1, 1), eval_top_k=2),
                                 dict(n_sub_modules=2, sub_layers=(1, 1, 1), eval_top_k=2), "one depth per"),
    "depths": (dict(sub_layers=(1,) * 6), dict(sub_layers=(1,) * 5 + (0,)), "depths must be >= 1"),
    "eval_top_k at 1": (dict(eval_top_k=1), dict(eval_top_k=0), r"eval_top_k must be in \[1, 6\]"),
    "eval_top_k at T": (dict(eval_top_k=6), dict(eval_top_k=7), r"eval_top_k must be in \[1, 6\]"),
    "routing": (dict(routing="identity"), dict(routing="Identity"), "routing must be"),
}

TRAIN_BOUNDS = {
    "alpha": (dict(alpha=TINY), dict(alpha=0.0), "alpha and beta must be positive"),
    "beta": (dict(beta=TINY), dict(beta=0.0), "alpha and beta must be positive"),
    "concat_sentences": (dict(concat_sentences=1), dict(concat_sentences=0), "concat_sentences must be >= 1"),
    "batch_size": (dict(batch_size=1), dict(batch_size=0), "invalid epoch/batch"),
    "stage1_epochs": (dict(stage1_epochs=0), dict(stage1_epochs=-1), "invalid epoch/batch"),
    "stage2_max_epochs": (dict(stage2_max_epochs=1), dict(stage2_max_epochs=0), "invalid epoch/batch"),
    "patience": (dict(patience=1), dict(patience=0), "patience must be >= 1"),
    "lr": (dict(lr=TINY), dict(lr=0.0), "learning rate must be positive"),
    "weight_decay": (dict(weight_decay=0.0), dict(weight_decay=-TINY), "weight_decay must be >= 0"),
    "seed": (dict(seed=0), dict(seed=-1), "seed must be >= 0"),
    "finite": (dict(lr=1e308), dict(lr=math.inf), "train.lr must be finite"),
    "not nan": (dict(weight_decay=0.5), dict(weight_decay=math.nan), "train.weight_decay must be finite"),
}


def test_the_defaults_are_valid():
    RunConfig().validate()


@pytest.mark.parametrize("check", MODEL_BOUNDS)
def test_model_bound(check):
    at, past, message = MODEL_BOUNDS[check]
    replace(ModelConfig(), **at).validate()
    with pytest.raises(ConfigError, match=message):
        replace(ModelConfig(), **past).validate()


@pytest.mark.parametrize("check", TRAIN_BOUNDS)
def test_train_bound(check):
    at, past, message = TRAIN_BOUNDS[check]
    replace(TrainConfig(), **at).validate()
    with pytest.raises(ConfigError, match=message):
        replace(TrainConfig(), **past).validate()


@pytest.mark.parametrize("s", [1, 2, 4])
def test_concatenation_cap(s):
    """s sentences of max_len tokens fill the cap exactly, and one more
    token each passes it."""
    max_len = MAX_CONCAT_TOKENS // s
    assert s * max_len == MAX_CONCAT_TOKENS

    def run(max_len):
        return RunConfig(model=ModelConfig(max_len=max_len), train=TrainConfig(concat_sentences=s))

    run(max_len).validate()
    with pytest.raises(ConfigError, match=f"concatenation of {s} x max_len {max_len + 1} tokens exceeds"):
        run(max_len + 1).validate()


def test_run_validation_checks_both_sections():
    with pytest.raises(ConfigError, match="n_heads"):
        RunConfig(model=ModelConfig(n_heads=0)).validate()
    with pytest.raises(ConfigError, match="patience"):
        RunConfig(train=TrainConfig(patience=0)).validate()


def test_from_json_names_only_the_unknown_keys():
    assert ModelConfig.from_json({"d_model": 32}) == replace(ModelConfig(), d_model=32)
    with pytest.raises(ConfigError, match="^unknown model keys: d_modle, zz$"):
        ModelConfig.from_json({"d_model": 32, "zz": 1, "d_modle": 32})
