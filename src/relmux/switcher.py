"""Language switcher: a bank of adapter sub-modules mixed by a language router.

The router maps a language id to a probability vector over the T sub-modules
(softmax of a language embedding projected by the router matrix). Each
sub-module is a stack of residual bottleneck blocks LN(relu(h W_u) W_d + h).
Training mixes all T sub-module outputs by their routing probabilities, which
keeps the router differentiable; evaluation keeps only the k most probable
sub-modules and renormalizes their weights, so k = T reproduces the training
mix exactly. Routing depends on the language alone, so ``eval_decisions``
decides every language's top-k set once, and ``switch_eval`` applies one
decision to all of a language's rows in a pass.
With identity routing every language owns one dedicated sub-module and the
router parameters are unused.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def routing_probs(lang: int, reg: ParamRegistry, cfg: ModelConfig) -> np.ndarray:
    return route(lang, reg, cfg).data.reshape(-1).copy()


@dataclass(frozen=True)
class SwitchDecision:
    """The retained top-k set with renormalized weights."""

    retained: tuple[int, ...]
    weights: tuple[float, ...]


def top_k_decision(probs: np.ndarray, k: int) -> SwitchDecision:
    """Keep the k most probable sub-modules; ties break toward the lower index."""
    flat = np.asarray(probs, dtype=np.float64).reshape(-1)
    t_total = flat.size
    if not 1 <= k <= t_total:
        raise ConfigError(f"top-k value {k} out of range [1, {t_total}]")
    order = np.lexsort((np.arange(t_total), -flat))
    retained = tuple(sorted(int(i) for i in order[:k]))
    kept = flat[list(retained)]
    weights = kept / kept.sum()
    return SwitchDecision(retained=retained, weights=tuple(weights))


def apply_submodule(t_idx: int, h: Tensor, reg: ParamRegistry, cfg: ModelConfig) -> Tensor:
    """Run one sub-module's residual bottleneck stack over (m, d) features."""
    depth = cfg.sub_layers[t_idx]
    out = h
    for layer in range(depth):
        p = f"switcher.sub{t_idx}.layer{layer}"
        branch = T.matmul(T.relu(T.matmul(out, reg[f"{p}.w_up"])), reg[f"{p}.w_down"])
        out = T.layer_norm(T.add(branch, out), reg[f"{p}.ln.gain"], reg[f"{p}.ln.bias"])
    return out


def mix_with_weights(h: Tensor, weights: list[tuple[int, Tensor | float]], reg: ParamRegistry, cfg: ModelConfig) -> Tensor:
    """Weighted sum of sub-module outputs. Float zero weights are skipped, so a
    one-hot mix is bitwise identical to the single sub-module's output; a
    Tensor weight always runs its sub-module, which then gets a gradient
    (exactly zero where the weight is zero)."""
    terms = []
    for t_idx, w in weights:
        if isinstance(w, float) and w == 0.0:
            continue
        out = apply_submodule(t_idx, h, reg, cfg)
        terms.append(T.mul(out, w))
    if not terms:
        raise ConfigError("switch mix has no nonzero weights")
    return terms[0] if len(terms) == 1 else T.add_n(terms)


def switch_train(h: Tensor, lang, reg: ParamRegistry, cfg: ModelConfig) -> Tensor:
    """Training mix over all T sub-modules, differentiable through the router.
    ``lang`` is one language id for all rows of ``h``, or one id per row, so
    each sub-module runs once over rows of several languages."""
    probs = route(lang, reg, cfg)
    # each (1, 1) or (rows, 1) weight broadcasts over (rows, d)
    return mix_with_weights(h, [(t, T.narrow(probs, 1, t, 1)) for t in range(cfg.n_sub_modules)], reg, cfg)


def switch_eval(h: Tensor, decision: SwitchDecision, reg: ParamRegistry, cfg: ModelConfig) -> Tensor:
    """Evaluation mix over a decision's retained sub-modules with its
    renormalized weights, applied to every row of ``h``; each retained
    sub-module runs once over all of them."""
    pairs: list[tuple[int, Tensor | float]] = [
        (t_idx, float(w)) for t_idx, w in zip(decision.retained, decision.weights)
    ]
    return mix_with_weights(h, pairs, reg, cfg)


def router_matrix(reg: ParamRegistry, cfg: ModelConfig) -> np.ndarray:
    """Full (T, n_languages) matrix of routing probabilities."""
    cols = [routing_probs(n, reg, cfg) for n in range(reg["switcher.lang_emb"].shape[0])]
    return np.stack(cols, axis=1)


def eval_decisions(reg: ParamRegistry, cfg: ModelConfig, k: int | None = None) -> list[SwitchDecision]:
    """Each language's top-k decision, indexed by language id, from the columns
    of ``router_matrix``; k defaults to the configured ``eval_top_k``."""
    k = cfg.eval_top_k if k is None else k
    return [top_k_decision(col, k) for col in router_matrix(reg, cfg).T]
