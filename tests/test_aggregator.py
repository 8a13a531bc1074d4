"""Cross-sentence aggregator: analytic attention cases, agreement with the
straight-line oracle, permutation symmetry, and gradient integrity."""

import numpy as np
import pytest

from relmux import tensor as T
from relmux.aggregator import aggregate, build_aggregator_params
from relmux.config import ModelConfig
from relmux.params import ParamRegistry
from relmux.tensor import Tensor

from gradcheck import finite_diff_check, tsum
from oracles import compare, oracle_attention


def toy_cfg(d=4):
    return ModelConfig(
        d_model=d, n_blocks=1, n_heads=2, ffn_dim=8, max_len=16,
        n_sub_modules=3, sub_layers=(1, 1, 1), bottleneck=d + 2, eval_top_k=2,
    )


def build_reg(cfg, seed=0):
    reg = ParamRegistry()
    build_aggregator_params(reg, cfg, np.random.default_rng(seed))
    return reg


def group_of_one(h, mask, reg, cfg):
    """One sentence's (m, d) rows through ``aggregate`` as a group of one."""
    h = h if isinstance(h, Tensor) else Tensor(np.asarray(h, dtype=np.float64))
    m, d = h.shape
    return T.reshape(aggregate(T.reshape(h, (1, m, d)), np.asarray(mask).reshape(1, m), reg, cfg), (m, d))


class TestAggregate:
    def test_zero_query_key_gives_uniform_mean_of_values(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        reg["aggregator.w_q"].data[:] = 0.0
        reg["aggregator.w_k"].data[:] = 0.0
        h = rng.normal(size=(3, 4))
        out = group_of_one(h, np.ones(3, dtype=bool), reg, cfg)
        v = h @ reg["aggregator.w_v"].data
        assert np.allclose(out.data, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)

    def test_single_token_identity(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=5)
        h = rng.normal(size=(1, 4))
        out = group_of_one(h, np.ones(1, dtype=bool), reg, cfg)
        assert np.allclose(out.data, h @ reg["aggregator.w_v"].data, atol=1e-14)

    def test_group_matches_straight_line_oracle(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=7)
        h1, h2 = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        m1, m2 = np.ones(3, dtype=bool), np.ones(2, dtype=bool)
        got = aggregate(Tensor(np.concatenate([h1, h2])[None]), np.concatenate([m1, m2])[None], reg, cfg).data[0]
        want = oracle_attention(
            np.concatenate([h1, h2]),
            reg["aggregator.w_q"].data,
            reg["aggregator.w_k"].data,
            reg["aggregator.w_v"].data,
            np.concatenate([m1, m2]),
        )
        report = compare("aggregate", got, want, tolerance=1e-10)
        assert report.passed, report

    def test_oracle_agreement_over_many_seeds(self):
        cfg = toy_cfg()
        for seed in range(100):
            r = np.random.default_rng(seed)
            reg = build_reg(cfg, seed=seed)
            h = r.normal(size=(4, 4))
            mask = np.array([True, True, True, False])
            out = group_of_one(h, mask, reg, cfg)
            want = oracle_attention(
                h, reg["aggregator.w_q"].data, reg["aggregator.w_k"].data,
                reg["aggregator.w_v"].data, mask,
            )
            assert compare(f"seed{seed}", out.data[:3], want[:3], 1e-10).passed

    def test_pad_extension_invariance(self, rng):
        # appending masked PAD rows (exact zeros, as the encoder emits) leaves
        # real rows unchanged up to reduction reordering
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=6)
        h = rng.normal(size=(3, 4))
        base = group_of_one(h, np.ones(3, dtype=bool), reg, cfg)
        extended = np.concatenate([h, np.zeros((2, 4))])
        mask = np.array([True, True, True, False, False])
        padded = group_of_one(extended, mask, reg, cfg)
        assert np.allclose(base.data, padded.data[:3], atol=1e-12)

    def test_pad_keys_masked(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=2)
        h = rng.normal(size=(4, 4))
        h_pad = h.copy()
        h_pad[3] = 99.0  # garbage in the PAD row
        mask = np.array([True, True, True, False])
        a = group_of_one(h, mask, reg, cfg)
        b = group_of_one(h_pad, mask, reg, cfg)
        assert np.array_equal(a.data[:3], b.data[:3])

    def test_member_boundary_mismatch_rejected(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        with pytest.raises(ValueError, match="boundary"):
            aggregate(Tensor(rng.normal(size=(1, 3, 4))), np.ones((1, 2), dtype=bool), reg, cfg)

    def test_group_order_permutation_symmetric(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=9)
        h1, h2 = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        mask = np.ones((1, 5), dtype=bool)
        fwd = aggregate(Tensor(np.concatenate([h1, h2])[None]), mask, reg, cfg).data[0]
        rev = aggregate(Tensor(np.concatenate([h2, h1])[None]), mask, reg, cfg).data[0]
        assert np.allclose(fwd[:3], rev[2:], atol=1e-12)
        assert np.allclose(fwd[3:], rev[:2], atol=1e-12)

    def test_attention_rows_are_stochastic(self, rng):
        # re-derive the attention matrix and verify row sums over unmasked keys
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=4)
        h = rng.normal(size=(5, 4))
        mask = np.array([True, True, True, True, False])
        q = h @ reg["aggregator.w_q"].data
        k = h @ reg["aggregator.w_k"].data
        scores = q @ k.T / np.sqrt(cfg.d_model) + np.where(mask, 0.0, -1e9)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(attn[:, ~mask], 0.0, atol=0)

    def test_cross_sentence_attention_is_live(self, rng):
        # a 2-sentence group must differ from two independent single passes
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=11)
        h1, h2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        grouped = aggregate(Tensor(np.concatenate([h1, h2])[None]), np.ones((1, 6), dtype=bool), reg, cfg)
        solo1 = group_of_one(h1, np.ones(3, dtype=bool), reg, cfg)
        assert not np.allclose(grouped.data[0, :3], solo1.data)

    def test_stacked_groups_do_not_attend_to_each_other(self, rng):
        # n groups in one call equal n separate calls; PAD keys stay masked
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=12)
        h1, h2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        m1, m2 = np.array([True, True, True, False]), np.ones(4, dtype=bool)
        stacked = aggregate(Tensor(np.stack([h1, h2])), np.stack([m1, m2]), reg, cfg)
        for group, h, mask in ((0, h1, m1), (1, h2, m2)):
            alone = group_of_one(h, mask, reg, cfg)
            assert np.allclose(stacked.data[group][mask], alone.data[mask], atol=1e-12)

    def test_gradient_vs_finite_differences(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=1)
        h = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))
        params = {"h": h, **dict(reg.items())}

        def f():
            out = group_of_one(h, np.ones(3, dtype=bool), reg, cfg)
            return tsum(T.mul(out, w))

        report = finite_diff_check(f, params, max_coords=6, rng=np.random.default_rng(0))
        assert report.max_rel_error < 1e-4
