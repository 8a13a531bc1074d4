"""Router and adapter bank: softmax routing, sub-module algebra against the
oracle, train/eval mixing equalities, top-k behavior, and gradient flow."""

import numpy as np
import pytest

from relmux import tensor as T
from relmux.config import ModelConfig
from relmux.errors import ConfigError
from relmux.params import ParamRegistry
from relmux.switcher import (
    apply_submodule,
    build_switcher_params,
    mix_with_weights,
    route,
    router_matrix,
    routing_probs,
    switch_eval,
    switch_train,
    top_k_decision,
)
from relmux.tensor import Tensor

from gradcheck import tsum
from oracles import compare, oracle_adapter


def toy_cfg(**kw):
    defaults = dict(
        d_model=4, n_blocks=1, n_heads=2, ffn_dim=8, max_len=16,
        n_sub_modules=3, sub_layers=(2, 1, 1), bottleneck=6, eval_top_k=2,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def build_reg(cfg, seed=0, n_languages=3):
    reg = ParamRegistry()
    build_switcher_params(reg, cfg, n_languages, np.random.default_rng(seed))
    return reg


class TestRoute:
    def test_zero_router_matrix_uniform(self):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        reg["switcher.w_router"].data[:] = 0.0
        probs = routing_probs(0, reg, cfg)
        assert np.allclose(probs, 1.0 / cfg.n_sub_modules, atol=1e-15)

    def test_formula_oracle(self):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        # force logits [1, 2, 3] for language 0
        reg["switcher.lang_emb"].data[0] = np.array([1.0, 0.0, 0.0, 0.0])
        reg["switcher.w_router"].data[:] = 0.0
        reg["switcher.w_router"].data[0] = np.array([1.0, 2.0, 3.0])
        probs = routing_probs(0, reg, cfg)
        want = np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum()
        assert np.allclose(probs, want, atol=1e-15)

    def test_probs_sum_to_one_over_many_states(self):
        cfg = toy_cfg()
        for seed in range(1000):
            reg = ParamRegistry()
            build_switcher_params(reg, cfg, 3, np.random.default_rng(seed))
            reg["switcher.lang_emb"].data *= 100.0  # exaggerate the logits
            p = routing_probs(seed % 3, reg, cfg)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_unknown_language_rejected(self):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        from relmux.errors import DataValidationError

        with pytest.raises(DataValidationError):
            route(7, reg, cfg)

    def test_differentiable_wrt_router_params(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=3)
        w = Tensor(rng.normal(size=(1, cfg.n_sub_modules)))
        loss = tsum(T.mul(route(1, reg, cfg), w))
        loss.backward()
        assert np.linalg.norm(reg["switcher.lang_emb"].grad) > 0
        assert np.linalg.norm(reg["switcher.w_router"].grad) > 0


class TestApplySubmodule:
    def test_dead_branch_reduces_to_layer_norm(self, rng):
        cfg = toy_cfg(sub_layers=(1, 1, 1))
        reg = build_reg(cfg)
        reg["switcher.sub0.layer0.w_up"].data[:] = 0.0
        h = Tensor(rng.normal(size=(3, 4)))
        out = apply_submodule(0, h, reg, cfg)
        want = oracle_adapter(h.data, [(np.zeros((4, 6)), reg["switcher.sub0.layer0.w_down"].data,
                                        np.ones(4), np.zeros(4))])
        assert np.allclose(out.data, want, atol=1e-14)

    def test_two_layer_stack_is_composition(self, rng):
        cfg = toy_cfg(sub_layers=(2, 1, 1))
        reg = build_reg(cfg, seed=6)
        h = Tensor(rng.normal(size=(3, 4)))
        full = apply_submodule(0, h, reg, cfg)
        # compose manually: single layers applied in sequence
        one_cfg = toy_cfg(sub_layers=(1, 1, 1))
        step1 = None
        layers = []
        for layer in range(2):
            p = f"switcher.sub0.layer{layer}"
            layers.append((reg[f"{p}.w_up"].data, reg[f"{p}.w_down"].data,
                           reg[f"{p}.ln.gain"].data, reg[f"{p}.ln.bias"].data))
        want = oracle_adapter(h.data, layers)
        assert np.allclose(full.data, want, atol=1e-12)

    def test_matches_straight_line_oracle_seeded(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=9)
        h = Tensor(rng.normal(size=(5, 4)))
        for t_idx in range(cfg.n_sub_modules):
            layers = []
            for layer in range(cfg.sub_layers[t_idx]):
                p = f"switcher.sub{t_idx}.layer{layer}"
                layers.append((reg[f"{p}.w_up"].data, reg[f"{p}.w_down"].data,
                               reg[f"{p}.ln.gain"].data, reg[f"{p}.ln.bias"].data))
            report = compare(f"sub{t_idx}", apply_submodule(t_idx, h, reg, cfg).data,
                             oracle_adapter(h.data, layers), 1e-10)
            assert report.passed, report


class TestTopK:
    def test_retained_are_largest_with_renormalized_weights(self):
        d = top_k_decision(np.array([0.4, 0.3, 0.2, 0.1]), 2)
        assert d.retained == (0, 1)
        assert np.allclose(d.weights, [4 / 7, 3 / 7], atol=1e-15)

    def test_ties_break_toward_lower_index(self):
        d = top_k_decision(np.array([0.25, 0.25, 0.25, 0.25]), 2)
        assert d.retained == (0, 1)

    def test_nested_in_k(self, rng):
        for _ in range(50):
            probs = rng.dirichlet(np.ones(6))
            prev: set[int] = set()
            for k in range(1, 7):
                cur = set(top_k_decision(probs, k).retained)
                assert prev <= cur
                prev = cur

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            top_k_decision(np.array([0.5, 0.5]), 3)


class TestSwitch:
    def test_one_hot_mix_equals_single_submodule_exactly(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=4)
        h = Tensor(rng.normal(size=(3, 4)))
        want = apply_submodule(1, h, reg, cfg)
        got = mix_with_weights(h, [(0, 0.0), (1, 1.0), (2, 0.0)], reg, cfg)
        assert np.array_equal(got.data, want.data)

    def test_eval_full_k_equals_train_mode(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=8)
        h = Tensor(rng.normal(size=(4, 4)))
        train_out = switch_train(h, 2, reg, cfg)
        decision = top_k_decision(routing_probs(2, reg, cfg), cfg.n_sub_modules)
        eval_out = switch_eval(h, decision, reg, cfg)
        assert decision.retained == tuple(range(cfg.n_sub_modules))
        assert np.allclose(train_out.data, eval_out.data, atol=1e-12)

    def test_renormalization_example(self, rng):
        cfg = toy_cfg(n_sub_modules=4, sub_layers=(1, 1, 1, 1))
        reg = build_reg(cfg, seed=2)
        h = Tensor(rng.normal(size=(2, 4)))
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        decision = top_k_decision(probs, 2)
        got = mix_with_weights(h, list(zip(decision.retained, map(float, decision.weights))), reg, cfg)
        want = T.add(
            T.mul(apply_submodule(0, h, reg, cfg), 4 / 7),
            T.mul(apply_submodule(1, h, reg, cfg), 3 / 7),
        )
        assert np.allclose(got.data, want.data, atol=1e-15)

    def _forced_probs_cfg(self, logits):
        cfg = toy_cfg(n_sub_modules=len(logits), sub_layers=(1,) * len(logits))
        reg = build_reg(cfg, seed=13, n_languages=2)
        reg["switcher.lang_emb"].data[0] = 0.0
        reg["switcher.lang_emb"].data[0, 0] = 1.0
        reg["switcher.w_router"].data[:] = 0.0
        reg["switcher.w_router"].data[0] = np.asarray(logits, dtype=np.float64)
        return cfg, reg

    def test_pruning_perturbation_bound(self, rng):
        # || eval(k) - train || <= 2 * leftover_mass * max_t ||E_t(h)||
        for seed in range(20):
            r = np.random.default_rng(seed)
            cfg = toy_cfg(n_sub_modules=5, sub_layers=(1, 1, 1, 1, 1))
            reg = build_reg(cfg, seed=seed, n_languages=2)
            reg["switcher.lang_emb"].data *= 30.0
            h = Tensor(r.normal(size=(3, 4)))
            full = switch_train(h, 0, reg, cfg).data
            probs = routing_probs(0, reg, cfg)
            max_norm = max(
                float(np.linalg.norm(apply_submodule(t, h, reg, cfg).data))
                for t in range(cfg.n_sub_modules)
            )
            for k in range(1, 6):
                decision = top_k_decision(probs, k)
                out = switch_eval(h, decision, reg, cfg)
                leftover = 1.0 - probs[list(decision.retained)].sum()
                gap = float(np.linalg.norm(out.data - full))
                assert gap <= 2.0 * leftover * max_norm + 1e-12

    def test_pruning_gap_shrinks_with_k_when_routing_concentrated(self, rng):
        cfg, reg = self._forced_probs_cfg([3.0, 2.0, 1.0, 0.0, -1.0])
        h = Tensor(rng.normal(size=(3, 4)))
        full = switch_train(h, 0, reg, cfg).data
        gaps = []
        for k in range(1, 6):
            out = switch_eval(h, top_k_decision(routing_probs(0, reg, cfg), k), reg, cfg)
            gaps.append(float(np.linalg.norm(out.data - full)))
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-12
        assert gaps[-1] < 1e-12

    def test_gradients_reach_every_submodule_and_router(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=5)
        h = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = switch_train(h, 0, reg, cfg)
        tsum(T.mul(out, Tensor(rng.normal(size=(3, 4))))).backward()
        probs = routing_probs(0, reg, cfg)
        for t_idx in range(cfg.n_sub_modules):
            if probs[t_idx] > 0:
                g = reg[f"switcher.sub{t_idx}.layer0.w_up"].grad
                assert g is not None and np.linalg.norm(g) > 0
        assert np.linalg.norm(reg["switcher.lang_emb"].grad) > 0
        assert np.linalg.norm(reg["switcher.w_router"].grad) > 0

    def test_identity_routing_is_one_hot_by_language(self):
        cfg = toy_cfg(routing="identity", n_sub_modules=3, sub_layers=(1, 1, 1))
        reg = build_reg(cfg, seed=1)
        for lang in range(3):
            probs = routing_probs(lang, reg, cfg)
            assert probs[lang] == 1.0 and probs.sum() == 1.0

    def test_router_matrix_columns_sum_to_one(self):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=12)
        mat = router_matrix(reg, cfg)
        assert mat.shape == (cfg.n_sub_modules, 3)
        assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-9)
