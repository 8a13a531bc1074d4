"""Language switcher: a bank of adapter sub-modules mixed by a language router.

The router maps a language id to a probability vector over the T sub-modules
(softmax of a language embedding projected by the router matrix). Each
sub-module is a stack of residual bottleneck blocks LN(relu(h W_u) W_d + h),
one ``T.bottleneck`` tape node each. Training mixes all T sub-module outputs
by their routing probabilities, which keeps the router differentiable;
evaluation keeps only the k most probable sub-modules and renormalizes their
weights, so k = T reproduces the training mix exactly. An evaluation mix is
a row of T weights like the training mix's routing probabilities, with
exact zeros off the kept set. Both mixes are one ``T.mix`` node over the
same ``apply_submodule`` outputs. Routing depends on the language alone, so
``eval_weights`` takes every language's row once, as one (n_languages, T)
array, and ``switch_eval`` applies one row to all of a language's rows in a
pass, running only the sub-modules of nonzero weight.
With identity routing every language owns one dedicated sub-module and the
router parameters are unused.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import ConfigError, DataValidationError
from .params import ParamRegistry, embedding_init, matrix_init
from .tensor import Tensor

ROUTER_PARAMS = ("switcher.lang_emb", "switcher.w_router")


def build_switcher_params(reg: ParamRegistry, cfg: ModelConfig, n_languages: int, rng: np.random.Generator) -> None:
    d, b = cfg.d_model, cfg.bottleneck
    # near-zero language embeddings start every language at uniform routing, so
    # selection structure is driven by the data rather than by init noise
    reg.add("switcher.lang_emb", 0.01 * embedding_init(rng, n_languages, d))
    reg.add("switcher.w_router", matrix_init(rng, d, cfg.n_sub_modules))
    for t, depth in enumerate(cfg.sub_layers):
        for layer in range(depth):
            p = f"switcher.sub{t}.layer{layer}"
            reg.add(f"{p}.w_up", matrix_init(rng, d, b))
            reg.add(f"{p}.w_down", matrix_init(rng, b, d))
            reg.add(f"{p}.ln.gain", np.ones(d))
            reg.add(f"{p}.ln.bias", np.zeros(d))


def route(lang, reg: ParamRegistry, cfg: ModelConfig) -> Tensor:
    """Routing probabilities, differentiable w.r.t. the router: (1, T) for
    one language id, or (rows, T) for one id per row."""
    langs = np.atleast_1d(np.asarray(lang, dtype=np.intp))
    if langs.min() < 0 or langs.max() >= reg["switcher.lang_emb"].shape[0]:
        raise DataValidationError(f"unknown language id in {sorted(set(langs.tolist()))}")
    if cfg.routing == "identity":
        probs = np.zeros((langs.size, cfg.n_sub_modules))
        probs[np.arange(langs.size), langs % cfg.n_sub_modules] = 1.0
        return Tensor(probs)
    emb = T.gather_rows(reg["switcher.lang_emb"], langs)
    return T.softmax_rows(T.matmul(emb, reg["switcher.w_router"]))


def top_k_weights(probs: np.ndarray, k: int) -> np.ndarray:
    """Each row of (..., T) probabilities with only its k largest kept, ties
    toward the lower index, divided by their sum taken in ascending index
    order; every other weight is exactly zero."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 1 <= k <= probs.shape[-1]:
        raise ConfigError(f"top-k value {k} out of range [1, {probs.shape[-1]}]")
    kept = np.sort(np.argsort(-probs, axis=-1, kind="stable")[..., :k], axis=-1)
    values = np.take_along_axis(probs, kept, -1)
    weights = np.zeros_like(probs)
    np.put_along_axis(weights, kept, values / values.sum(-1, keepdims=True), -1)
    return weights


def apply_submodule(t_idx: int, h: Tensor, reg: ParamRegistry, cfg: ModelConfig) -> Tensor:
    """Run one sub-module's residual bottleneck stack over (m, d) features,
    one ``T.bottleneck`` node per layer."""
    out = h
    for layer in range(cfg.sub_layers[t_idx]):
        p = f"switcher.sub{t_idx}.layer{layer}"
        out = T.bottleneck(out, reg[f"{p}.w_up"], reg[f"{p}.w_down"], reg[f"{p}.ln.gain"], reg[f"{p}.ln.bias"])
    return out


def switch_train(h: Tensor, lang, reg: ParamRegistry, cfg: ModelConfig) -> Tensor:
    """Training mix over all T sub-modules, differentiable through the router.
    ``lang`` is one language id for all rows of ``h``, or one id per row, so
    each sub-module runs once over rows of several languages. Every
    sub-module runs, so each gets a gradient, exactly zero where its
    probability is zero."""
    probs = route(lang, reg, cfg)
    return T.mix([apply_submodule(t, h, reg, cfg) for t in range(cfg.n_sub_modules)], probs)


def switch_eval(h: Tensor, weights: np.ndarray, reg: ParamRegistry, cfg: ModelConfig) -> Tensor:
    """Evaluation mix of every row of ``h`` under one row of T weights, as
    ``eval_weights`` gives it: only the sub-modules of nonzero weight run,
    each once over all the rows, so a one-hot row gives that sub-module's
    output bit for bit."""
    kept = np.flatnonzero(weights)
    return T.mix([apply_submodule(t, h, reg, cfg) for t in kept.tolist()], weights[None, kept])


def router_matrix(reg: ParamRegistry, cfg: ModelConfig) -> np.ndarray:
    """Full (T, n_languages) matrix of routing probabilities, one ``route``
    per language: a one-row product may take other bits than the same row
    of a batched one."""
    return np.stack([route(n, reg, cfg).data[0] for n in range(reg["switcher.lang_emb"].shape[0])], axis=1)


def eval_weights(reg: ParamRegistry, cfg: ModelConfig, k: int | None = None) -> np.ndarray:
    """Each language's evaluation mix, (n_languages, T): the top-k weights of
    its ``router_matrix`` column; k defaults to the configured ``eval_top_k``."""
    return top_k_weights(router_matrix(reg, cfg).T, cfg.eval_top_k if k is None else k)
