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
    eval_weights,
    route,
    router_matrix,
    switch_eval,
    switch_train,
    top_k_weights,
)
from relmux.tensor import Tensor

from gradcheck import tsum
from oracles import compare, layer_norm, oracle_adapter, relu


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
        probs = router_matrix(reg, cfg)[:, 0]
        assert np.allclose(probs, 1.0 / cfg.n_sub_modules, atol=1e-15)

    @pytest.mark.parametrize("d, t", [(4, 3), (32, 4), (64, 8)])
    def test_a_fresh_build_routes_every_language_near_uniformly(self, d, t):
        # the language embeddings start near zero, so routing starts from the
        # data rather than from init noise: every probability within 1% of 1/T
        cfg = toy_cfg(d_model=d, n_sub_modules=t, sub_layers=(1,) * t, eval_top_k=1)
        for seed in range(5):
            probs = router_matrix(build_reg(cfg, seed=seed, n_languages=6), cfg)
            assert np.abs(probs * t - 1.0).max() < 0.01, (d, t, seed)

    def test_formula_oracle(self):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        # force logits [1, 2, 3] for language 0
        reg["switcher.lang_emb"].data[0] = np.array([1.0, 0.0, 0.0, 0.0])
        reg["switcher.w_router"].data[:] = 0.0
        reg["switcher.w_router"].data[0] = np.array([1.0, 2.0, 3.0])
        probs = router_matrix(reg, cfg)[:, 0]
        want = np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum()
        assert np.allclose(probs, want, atol=1e-15)

    def test_probs_sum_to_one_over_many_states(self):
        cfg = toy_cfg()
        for seed in range(1000):
            reg = ParamRegistry()
            build_switcher_params(reg, cfg, 3, np.random.default_rng(seed))
            reg["switcher.lang_emb"].data *= 100.0  # exaggerate the logits
            p = router_matrix(reg, cfg)[:, seed % 3]
            assert abs(p.sum() - 1.0) < 1e-12

    def test_unknown_language_rejected(self):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        from relmux.errors import DataValidationError

        with pytest.raises(DataValidationError):
            route(7, reg, cfg)

    @pytest.mark.parametrize("routing", ["learned", "identity"])
    def test_language_at_the_table_size_rejected(self, routing):
        # ids 0 .. n_languages - 1 route; n_languages itself is unknown
        from relmux.errors import DataValidationError

        cfg = toy_cfg(routing=routing)
        reg = build_reg(cfg)
        assert route([0, 2], reg, cfg).shape == (2, cfg.n_sub_modules)
        with pytest.raises(DataValidationError, match="unknown language"):
            route([0, 3], reg, cfg)

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
        w = top_k_weights(np.array([0.4, 0.3, 0.2, 0.1]), 2)
        assert np.flatnonzero(w).tolist() == [0, 1]
        assert np.allclose(w, [4 / 7, 3 / 7, 0.0, 0.0], atol=1e-15)

    def test_ties_break_toward_lower_index(self):
        w = top_k_weights(np.array([0.25, 0.25, 0.25, 0.25]), 2)
        assert np.flatnonzero(w).tolist() == [0, 1]

    def test_nested_in_k(self, rng):
        for _ in range(50):
            probs = rng.dirichlet(np.ones(6))
            prev: set[int] = set()
            for k in range(1, 7):
                cur = set(np.flatnonzero(top_k_weights(probs, k)).tolist())
                assert prev <= cur
                prev = cur

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            top_k_weights(np.array([0.5, 0.5]), 3)


class TestSwitch:
    def test_one_hot_mix_equals_single_submodule_exactly(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=4)
        h = Tensor(rng.normal(size=(3, 4)))
        want = apply_submodule(1, h, reg, cfg)
        # every other sub-module gives NaN, so running one at weight 0 shows
        for t, depth in enumerate(cfg.sub_layers):
            for layer in range(depth):
                if t != 1:
                    reg[f"switcher.sub{t}.layer{layer}.ln.bias"].data[:] = np.nan
        got = switch_eval(h, np.array([0.0, 1.0, 0.0]), reg, cfg)
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("lang", [1, [0, 2, 1, 0, 2]])
    def test_switch_train_is_bitwise_the_composed_ops(self, rng, lang):
        # one node per block and one mix node give the bits of a matmul, relu,
        # matmul, add and layer_norm per block, and of one mul per sub-module
        # by its column of the routing probabilities and their add_n
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=6)
        reg["switcher.lang_emb"].data[...] = rng.normal(size=reg["switcher.lang_emb"].shape)
        h = Tensor(rng.normal(size=(5, 4)))
        g = Tensor(rng.normal(size=(5, 4)))

        def composed():
            probs = route(lang, reg, cfg)
            terms = []
            for t_idx, depth in enumerate(cfg.sub_layers):
                out = h
                for layer in range(depth):
                    p = f"switcher.sub{t_idx}.layer{layer}"
                    branch = T.matmul(relu(T.matmul(out, reg[f"{p}.w_up"])), reg[f"{p}.w_down"])
                    out = layer_norm(T.add(branch, out), reg[f"{p}.ln.gain"], reg[f"{p}.ln.bias"])
                column = T.matmul(probs, Tensor(np.eye(cfg.n_sub_modules)[:, t_idx : t_idx + 1]))
                terms.append(T.mul(out, column))
            return T.add_n(terms)

        def run(f):
            reg.zero_grad()
            out = f()
            tsum(T.mul(out, g)).backward()
            return out.data.tobytes(), {name: t.grad.tobytes() for name, t in reg.items()}

        assert run(lambda: switch_train(h, lang, reg, cfg)) == run(composed)

    def test_eval_full_k_equals_train_mode(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=8)
        h = Tensor(rng.normal(size=(4, 4)))
        train_out = switch_train(h, 2, reg, cfg)
        weights = top_k_weights(router_matrix(reg, cfg)[:, 2], cfg.n_sub_modules)
        eval_out = switch_eval(h, weights, reg, cfg)
        assert np.flatnonzero(weights).tolist() == list(range(cfg.n_sub_modules))
        assert np.allclose(train_out.data, eval_out.data, atol=1e-12)

    def test_renormalization_example(self, rng):
        cfg = toy_cfg(n_sub_modules=4, sub_layers=(1, 1, 1, 1))
        reg = build_reg(cfg, seed=2)
        h = Tensor(rng.normal(size=(2, 4)))
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        got = switch_eval(h, top_k_weights(probs, 2), reg, cfg)
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
            probs = router_matrix(reg, cfg)[:, 0]
            max_norm = max(
                float(np.linalg.norm(apply_submodule(t, h, reg, cfg).data))
                for t in range(cfg.n_sub_modules)
            )
            for k in range(1, 6):
                weights = top_k_weights(probs, k)
                out = switch_eval(h, weights, reg, cfg)
                leftover = 1.0 - probs[np.flatnonzero(weights)].sum()
                gap = float(np.linalg.norm(out.data - full))
                assert gap <= 2.0 * leftover * max_norm + 1e-12

    def test_pruning_gap_shrinks_with_k_when_routing_concentrated(self, rng):
        cfg, reg = self._forced_probs_cfg([3.0, 2.0, 1.0, 0.0, -1.0])
        h = Tensor(rng.normal(size=(3, 4)))
        full = switch_train(h, 0, reg, cfg).data
        gaps = []
        for k in range(1, 6):
            out = switch_eval(h, top_k_weights(router_matrix(reg, cfg)[:, 0], k), reg, cfg)
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
        probs = router_matrix(reg, cfg)[:, 0]
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
            probs = router_matrix(reg, cfg)[:, lang]
            assert probs[lang] == 1.0 and probs.sum() == 1.0

    def test_identity_routing_top_k_runs_only_the_own_submodule(self, rng):
        # k = 2 keeps a zero weight beside the language's own 1.0, which
        # switch_eval skips
        cfg = toy_cfg(routing="identity", n_sub_modules=3, sub_layers=(1, 1, 1), eval_top_k=2)
        reg = build_reg(cfg, seed=1)
        h = Tensor(rng.normal(size=(3, 4)))
        weights = eval_weights(reg, cfg)
        assert weights.shape == (3, cfg.n_sub_modules)
        wants = [apply_submodule(t, h, reg, cfg).data.tobytes() for t in range(3)]
        for lang in range(3):
            assert np.flatnonzero(weights[lang]).tolist() == [lang]
            # every other sub-module gives NaN, so running one at weight 0 shows
            for t in range(3):
                reg[f"switcher.sub{t}.layer0.ln.bias"].data[:] = 0.0 if t == lang else np.nan
            assert switch_eval(h, weights[lang], reg, cfg).data.tobytes() == wants[lang]

    def test_router_matrix_columns_sum_to_one(self):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=12)
        mat = router_matrix(reg, cfg)
        assert mat.shape == (cfg.n_sub_modules, 3)
        assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-9)
