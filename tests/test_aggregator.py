"""Cross-sentence aggregator: analytic attention cases, agreement with the
straight-line oracle, permutation symmetry, group independence, and gradient
integrity."""

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


def group_of_one(h, reg, cfg):
    """One sentence's (m, d) rows through ``aggregate`` as a group of one."""
    h = h if isinstance(h, Tensor) else Tensor(np.asarray(h, dtype=np.float64))
    return aggregate(h, [h.shape[0]], reg, cfg)


class TestAggregate:
    def test_zero_query_key_gives_uniform_mean_of_values(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        reg["aggregator.w_q"].data[:] = 0.0
        reg["aggregator.w_k"].data[:] = 0.0
        h = rng.normal(size=(3, 4))
        out = group_of_one(h, reg, cfg)
        v = h @ reg["aggregator.w_v"].data
        assert np.allclose(out.data, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)

    def test_single_token_identity(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=5)
        h = rng.normal(size=(1, 4))
        out = group_of_one(h, reg, cfg)
        assert np.allclose(out.data, h @ reg["aggregator.w_v"].data, atol=1e-14)

    def test_group_matches_straight_line_oracle(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=7)
        h1, h2 = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        got = aggregate(Tensor(np.concatenate([h1, h2])), [5], reg, cfg).data
        want = oracle_attention(
            np.concatenate([h1, h2]),
            reg["aggregator.w_q"].data,
            reg["aggregator.w_k"].data,
            reg["aggregator.w_v"].data,
            np.ones(5, dtype=bool),
        )
        report = compare("aggregate", got, want, tolerance=1e-10)
        assert report.passed, report

    def test_oracle_agreement_over_many_seeds(self):
        # a group of three rows next to a group of one
        cfg = toy_cfg()
        for seed in range(100):
            r = np.random.default_rng(seed)
            reg = build_reg(cfg, seed=seed)
            h = r.normal(size=(4, 4))
            out = aggregate(Tensor(h), [3, 1], reg, cfg)
            want = oracle_attention(
                h, reg["aggregator.w_q"].data, reg["aggregator.w_k"].data,
                reg["aggregator.w_v"].data, np.array([True, True, True, False]),
            )
            assert compare(f"seed{seed}", out.data[:3], want[:3], 1e-10).passed

    def test_pad_extension_invariance(self, rng):
        # appending rows of exact zeros (what PAD rows used to be) as a group
        # of their own leaves the real rows unchanged up to reduction reordering
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=6)
        h = rng.normal(size=(3, 4))
        base = group_of_one(h, reg, cfg)
        extended = np.concatenate([h, np.zeros((2, 4))])
        padded = aggregate(Tensor(extended), [3, 2], reg, cfg)
        assert np.allclose(base.data, padded.data[:3], atol=1e-12)

    def test_pad_keys_masked(self, rng):
        # garbage in a row past the group's length reaches none of its rows
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=2)
        h = rng.normal(size=(4, 4))
        h_pad = h.copy()
        h_pad[3] = 99.0
        a = aggregate(Tensor(h), [3, 1], reg, cfg)
        b = aggregate(Tensor(h_pad), [3, 1], reg, cfg)
        assert np.array_equal(a.data[:3], b.data[:3])

    def test_member_boundary_mismatch_rejected(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg)
        with pytest.raises(ValueError, match="boundary"):
            aggregate(Tensor(rng.normal(size=(3, 4))), [2], reg, cfg)

    def test_group_order_permutation_symmetric(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=9)
        h1, h2 = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        fwd = aggregate(Tensor(np.concatenate([h1, h2])), [5], reg, cfg).data
        rev = aggregate(Tensor(np.concatenate([h2, h1])), [5], reg, cfg).data
        assert np.allclose(fwd[:3], rev[2:], atol=1e-12)
        assert np.allclose(fwd[3:], rev[:2], atol=1e-12)

    def test_attention_rows_are_stochastic(self, rng):
        # with w_v the identity each output row is the attention-weighted mean
        # of its group's rows: re-derive the weights over the group of four,
        # check they sum to 1, and that the row of the group of one is itself
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=4)
        reg["aggregator.w_v"].data[:] = np.eye(4)
        h = rng.normal(size=(5, 4))
        out = aggregate(Tensor(h), [4, 1], reg, cfg).data
        q = h[:4] @ reg["aggregator.w_q"].data
        k = h[:4] @ reg["aggregator.w_k"].data
        scores = q @ k.T / np.sqrt(cfg.d_model)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(out[:4], attn @ h[:4], atol=1e-12)
        assert np.array_equal(out[4], h[4])

    def test_cross_sentence_attention_is_live(self, rng):
        # a 2-sentence group must differ from two independent single passes
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=11)
        h1, h2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        grouped = aggregate(Tensor(np.concatenate([h1, h2])), [6], reg, cfg)
        solo1 = group_of_one(h1, reg, cfg)
        assert not np.allclose(grouped.data[:3], solo1.data)

    def test_stacked_groups_do_not_attend_to_each_other(self, rng):
        # n groups in one call give the bits of n separate calls, and no
        # value in one group's rows, garbage included, reaches another's
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=12)
        h1, h2 = rng.normal(size=(3, 4)), rng.normal(size=(4, 4))
        stacked = aggregate(Tensor(np.concatenate([h1, h2])), [3, 4], reg, cfg).data
        assert np.array_equal(stacked[:3], group_of_one(h1, reg, cfg).data)
        assert np.array_equal(stacked[3:], group_of_one(h2, reg, cfg).data)
        h2[1] = 99.0
        again = aggregate(Tensor(np.concatenate([h1, h2])), [3, 4], reg, cfg).data
        assert np.array_equal(again[:3], stacked[:3]) and not np.array_equal(again[3:], stacked[3:])

    def test_gradient_vs_finite_differences(self, rng):
        cfg = toy_cfg()
        reg = build_reg(cfg, seed=1)
        h = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))
        params = {"h": h, **dict(reg.items())}

        def f():
            out = group_of_one(h, reg, cfg)
            return tsum(T.mul(out, w))

        report = finite_diff_check(f, params, max_coords=6, rng=np.random.default_rng(0))
        assert report.max_rel_error < 1e-4
