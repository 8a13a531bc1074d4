"""Tensor engine: forward values against hand arithmetic and oracles, gradients
against central finite differences, and the optimizer contracts."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relmux import tensor as T
from relmux.errors import CheckpointError, NumericsError
from relmux.optim import AdamW
from relmux.params import ParamRegistry
from relmux.tensor import ShapeError, Tensor

from gradcheck import finite_diff_check, tsum
from oracles import oracle_adamw_step, oracle_cross_entropy


class TestMatmul:
    def test_identity(self, rng):
        a = Tensor(rng.normal(size=(2, 2)))
        out = T.matmul(Tensor(np.eye(2)), a)
        assert np.array_equal(out.data, a.data)

    def test_hand_arithmetic(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        assert np.array_equal(out.data, [[2.0], [4.0]])

    def test_gradient_vs_finite_differences(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        report = finite_diff_check(lambda: tsum(T.matmul(a, b)), {"a": a, "b": b}, max_coords=12)
        assert report.max_rel_error < 1e-6

    def test_shape_mismatch_names_both_shapes(self, rng):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))

    def test_batched_gradient_vs_finite_differences(self, rng):
        a = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 5)))
        report = finite_diff_check(lambda: tsum(T.mul(T.matmul(a, b), w)), {"a": a, "b": b}, max_coords=24)
        assert report.max_rel_error < 1e-6

    def test_broadcast_weight_gradient_vs_finite_differences(self, rng):
        # a 2-D weight shared by every matrix of the batch sums its gradient
        a = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 5)))
        report = finite_diff_check(lambda: tsum(T.mul(T.matmul(a, b), w)), {"a": a, "b": b}, max_coords=24)
        assert report.max_rel_error < 1e-6
        assert b.grad.shape == (4, 5)

    def test_batched_equals_per_matrix_products(self, rng):
        a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
        out = T.matmul(Tensor(a), Tensor(b)).data
        for i in range(3):
            assert np.allclose(out[i], a[i] @ b[i], atol=1e-14)

    def test_batch_shape_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError, match=r"\(3, 2, 4\).*\(2, 4, 5\)"):
            T.matmul(Tensor(np.zeros((3, 2, 4))), Tensor(np.zeros((2, 4, 5))))


class TestSoftmaxRows:
    def test_symmetry(self):
        out = T.softmax_rows(Tensor([2.0, 2.0, 2.0]))
        assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_analytic_ln2(self):
        out = T.softmax_rows(Tensor([0.0, math.log(2.0)]))
        assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)

    def test_stabilized_no_overflow(self):
        out = T.softmax_rows(Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-300)

    def test_nan_input_rejected(self):
        with pytest.raises(NumericsError, match="NaN"):
            T.softmax_rows(Tensor([np.nan, 0.0]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one(self, values):
        out = T.softmax_rows(Tensor(values))
        assert abs(out.data.sum() - 1.0) < 1e-12

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6), st.randoms())
    def test_permutation_equivariance(self, values, pyrandom):
        perm = list(range(len(values)))
        pyrandom.shuffle(perm)
        direct = T.softmax_rows(Tensor([values[i] for i in perm])).data
        unshuffled = T.softmax_rows(Tensor(values)).data[perm]
        assert np.allclose(direct, unshuffled, atol=1e-12)

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)))
        report = finite_diff_check(lambda: tsum(T.mul(T.softmax_rows(x), w)), {"x": x})
        assert report.max_rel_error < 1e-6


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        x = Tensor([[3.0, 3.0, 3.0, 3.0]])
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_row(self):
        out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-4)

    def test_single_feature_rejected(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor([[1.0]]), Tensor(np.ones(1)), Tensor(np.zeros(1)))

    def test_gradient_vs_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        gain = Tensor(rng.normal(size=8), requires_grad=True)
        bias = Tensor(rng.normal(size=8), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 8)))
        report = finite_diff_check(
            lambda: tsum(T.mul(T.layer_norm(x, gain, bias), w)),
            {"x": x, "gain": gain, "bias": bias},
            max_coords=16,
        )
        assert report.max_rel_error < 1e-6


class TestActivations:
    def test_relu_values(self):
        assert np.array_equal(T.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        tsum(T.relu(x)).backward()
        assert x.grad[0] == 0.0

    def test_tanh_zero(self):
        assert T.tanh(Tensor([0.0])).data[0] == 0.0

    def test_tanh_gradient_high_precision(self):
        x = Tensor([0.5], requires_grad=True)
        report = finite_diff_check(lambda: tsum(T.tanh(x)), {"x": x}, step=1e-6)
        assert report.max_rel_error < 1e-8


class TestCrossEntropy:
    def test_dominant_logit_loss_near_zero(self):
        logits = Tensor([50.0, 0.0, 0.0])
        assert T.cross_entropy(logits, 0).item() < 1e-12

    def test_uniform_36_classes(self):
        loss = T.cross_entropy(Tensor(np.zeros(36)), 7)
        assert loss.item() == pytest.approx(math.log(36.0), abs=1e-12)
        assert loss.item() == pytest.approx(3.5835, abs=5e-4)

    def test_against_direct_formula_oracle(self):
        logits = np.array([1.0, 2.0, 3.0])
        loss = T.cross_entropy(Tensor(logits), 0)
        assert loss.item() == pytest.approx(oracle_cross_entropy(logits, 0), abs=1e-14)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.cross_entropy(logits, 0).backward()
        p = np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum()
        expected = p - np.array([1.0, 0.0, 0.0])
        assert np.allclose(logits.grad, expected, atol=1e-14)

    def test_gold_out_of_range(self):
        with pytest.raises(IndexError):
            T.cross_entropy(Tensor([1.0, 2.0]), 5)

    def test_rowwise_is_sum_of_single_rows(self, rng):
        logits = rng.normal(size=(3, 4))
        gold = np.array([2, 0, 3])
        got = T.cross_entropy(Tensor(logits), gold).item()
        want = sum(T.cross_entropy(Tensor(logits[i]), int(gold[i])).item() for i in range(3))
        assert got == pytest.approx(want, abs=1e-14)

    def test_rowwise_gradient_vs_finite_differences(self, rng):
        # logits shaped (rows*classes, 1), as per-position scores arrive
        logits = Tensor(rng.normal(size=(12, 1)), requires_grad=True)
        gold = np.array([2, 0, 3])
        report = finite_diff_check(lambda: T.cross_entropy(logits, gold), {"logits": logits})
        assert report.max_rel_error < 1e-6

    def test_rows_must_divide_logits(self):
        with pytest.raises(ShapeError):
            T.cross_entropy(Tensor(np.zeros(5)), [0, 1])

    def test_nan_logits_raise_numerics_error(self):
        with pytest.raises(NumericsError, match="NaN"):
            T.cross_entropy(Tensor([np.nan, 0.0]), 1)


class TestHeads:
    def test_split_heads_layout(self, rng):
        # 2 sequences of 3 positions, 2 heads of 2 columns
        x = rng.normal(size=(6, 4))
        split = T.split_heads(Tensor(x), 2, 2).data
        assert split.shape == (4, 3, 2)
        for seq in range(2):
            for head in range(2):
                assert np.array_equal(split[seq * 2 + head], x[seq * 3:(seq + 1) * 3, head * 2:(head + 1) * 2])

    def test_merge_inverts_split(self, rng):
        x = rng.normal(size=(6, 4))
        assert np.array_equal(T.merge_heads(T.split_heads(Tensor(x), 2, 2), 2).data, x)

    def test_split_merge_gradients(self, rng):
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        blocks = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 6)))

        def f():
            # split, mix each (sequence, head) block, merge back
            mixed = T.matmul(T.matmul(T.split_heads(x, 2, 2), T.transpose(T.split_heads(x, 2, 2))), blocks)
            return tsum(T.mul(T.merge_heads(mixed, 2), w))

        report = finite_diff_check(f, {"x": x, "blocks": blocks}, max_coords=24)
        assert report.max_rel_error < 1e-6

    def test_indivisible_split_rejected(self):
        with pytest.raises(ShapeError):
            T.split_heads(Tensor(np.zeros((5, 4))), 2, 2)
        with pytest.raises(ShapeError):
            T.merge_heads(Tensor(np.zeros((3, 2, 2))), 2)


class TestPlumbingOps:
    def test_composite_gradients(self, rng):
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)

        def f():
            rows = T.gather_rows(table, [0, 2, 2, 4])
            h = T.relu(T.tanh(rows))
            c = T.concat([h, h], axis=1)
            n = T.narrow(c, 1, 1, 3)
            r = T.repeat_rows(T.narrow(n, 0, 0, 1), 3)
            return tsum(T.mul(r, r))

        report = finite_diff_check(f, {"table": table}, max_coords=15)
        assert report.max_rel_error < 1e-6

    def test_repeat_rows_of_several_rows(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 3)))
        out = T.repeat_rows(a, 4)
        assert np.array_equal(out.data[:4], np.tile(a.data[:1], (4, 1)))
        assert np.array_equal(out.data[4:], np.tile(a.data[1:], (4, 1)))
        report = finite_diff_check(lambda: tsum(T.mul(T.repeat_rows(a, 4), w)), {"a": a})
        assert report.max_rel_error < 1e-6

    def test_backward_requires_scalar(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            T.matmul(x, x).backward()

    def test_gradient_accumulation_is_deterministic(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

        def loss():
            y = T.matmul(x, x)
            return tsum(T.add_n([y, T.mul(y, -1.0), T.mul(y, 2.0)]))

        loss().backward()
        g1 = x.grad.copy()
        x.grad = None
        loss().backward()
        assert np.array_equal(g1, x.grad)


class TestTapeLinks:
    def test_non_grad_result_records_no_parents(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(3, 2)))
        w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        frozen = T.tanh(T.matmul(a, b))
        assert frozen._parents == () and frozen._backward is None
        # a result that needs a gradient still links every input, frozen or not
        mixed = T.matmul(frozen, w)
        assert mixed._parents == (frozen, w)

    def test_toposort_stops_at_frozen_prefix(self, rng):
        frozen_w = Tensor(rng.normal(size=(4, 4)))
        w = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)))
        prefix = T.relu(T.matmul(T.tanh(T.matmul(x, frozen_w)), frozen_w))
        loss = tsum(T.matmul(prefix, w))
        order = T._toposort(loss)
        assert not [node for node in order if not node.requires_grad and node._parents]
        # the frozen prefix is one leaf; x and frozen_w are never reached
        assert [node.op for node in order if not node.requires_grad] == ["relu"]
        loss.backward()
        assert np.array_equal(w.grad, prefix.data.sum(axis=0, keepdims=True).T)

    def test_shared_upstream_gradient_is_not_aliased(self):
        # add hands its one upstream array to both parents; a's later second
        # contribution must not reach b's gradient through that shared array
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        loss = tsum(T.add(T.add(a, b), T.mul(a, 2.0)))
        loss.backward()
        assert np.array_equal(a.grad, np.full(3, 3.0))
        assert np.array_equal(b.grad, np.ones(3))


class TestNoGrad:
    def test_results_of_trainable_inputs_record_no_tape(self, rng):
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        gain = Tensor(np.ones(3), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        with T.no_grad():
            h = T.matmul(x, w)
            outs = [h, T.add(h, x), T.relu(h), T.reshape(h, (3, 2)), T.layer_norm(h, gain, bias),
                    T.softmax_rows(h), T.gather_rows(w, [2, 0]), T.cross_entropy(h, [0, 1])]
        for out in outs:
            assert not out.requires_grad and out._parents == () and out._backward is None, out.op
        # the same op outside the scope links its inputs again
        assert T.matmul(x, w)._parents == (x, w)

    def test_flag_restored_after_nesting_and_after_raise(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not T.relu(x).requires_grad
        assert T.relu(x).requires_grad
        with pytest.raises(NumericsError):
            with T.no_grad():
                with T.no_grad():
                    T.softmax_rows(Tensor([[np.nan, 0.0]]))
        assert T.relu(x).requires_grad

    def test_registry_leaf_made_inside_stays_trainable(self):
        reg = ParamRegistry()
        with T.no_grad():
            w = reg.add("w", np.ones((2, 2)))
        assert w.requires_grad
        loss = tsum(T.matmul(Tensor(np.ones((1, 2))), w))
        loss.backward()
        assert np.array_equal(w.grad, np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(1, 2), (5, 7), (12, 64), (3, 129)])
    def test_layer_norm_row_sums_match_mean_bitwise(self, rng, shape):
        x = Tensor(rng.normal(size=shape) * 3.0 + 1.5, requires_grad=True)
        gain = Tensor(rng.normal(size=shape[1]))
        bias = Tensor(rng.normal(size=shape[1]))
        g = rng.normal(size=shape)
        out = T.layer_norm(x, gain, bias)
        tsum(T.mul(out, Tensor(g))).backward()
        # the ndarray.mean formulation
        xc = x.data - x.data.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + T.LN_EPS)
        y = xc * inv
        gy = g * gain.data
        dx = (gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True)) * inv
        assert out.data.tobytes() == (gain.data * y + bias.data).tobytes()
        assert x.grad.tobytes() == dx.tobytes()

    def test_stage2_step_after_predict_is_unchanged(self):
        from relmux.model import Model
        from relmux.training import TrainLog, _train_step
        from test_training import tiny_corpus, tiny_run_cfg

        corpus = tiny_corpus()
        cfg = tiny_run_cfg()

        def step(predict_first: bool):
            model = Model.build(replace(cfg.model), corpus.registry, init_seed=2)
            model.registry.freeze(model.stage2_freeze_plan().frozen)
            model.stage = 2
            batch = model.frozen_prefix([model.tokenize(ex) for ex in corpus.train[:8]], cfg.train.batch_size)
            if predict_first:
                for ex in corpus.dev[:4]:
                    model.predict(ex)
            opt = AdamW(model.registry, lr=cfg.train.lr)
            _train_step(opt, model.stage2_batch_loss, batch, cfg.train, TrainLog(), 2, 0, 0)
            return {n: (t.grad.tobytes(), t.data.tobytes()) for n, t in model.registry.items() if t.grad is not None}

        plain, after_predict = step(False), step(True)
        assert "switcher.sub0.layer0.w_up" in plain
        assert after_predict == plain


class TestAdamW:
    def _registry(self, value: float) -> ParamRegistry:
        reg = ParamRegistry()
        reg.add("p", np.array([value]))
        return reg

    def test_decay_only_step(self):
        reg = self._registry(2.0)
        opt = AdamW(reg, lr=0.1, weight_decay=0.5)
        reg["p"].grad = np.zeros(1)
        opt.step()
        assert reg["p"].data[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5), abs=1e-15)

    def test_frozen_param_bitwise_unchanged(self):
        reg = ParamRegistry()
        reg.add("w", np.array([1.0, -2.0]))
        reg.add("frozen", np.array([0.5, 0.25]))
        reg.freeze(["frozen"])
        before = reg["frozen"].data.copy()
        opt = AdamW(reg, lr=0.1, weight_decay=0.5)
        reg["w"].grad = np.array([1.0, 1.0])
        reg["frozen"].grad = np.array([10.0, 10.0])  # even with a gradient present
        opt.step()
        assert np.array_equal(reg["frozen"].data, before)
        assert not np.array_equal(reg["w"].data, [1.0, -2.0])

    def test_moment_buffers_only_for_unfrozen(self):
        reg = ParamRegistry()
        reg.add("a", np.zeros(2))
        reg.add("b", np.zeros(2))
        reg.freeze(["b"])
        opt = AdamW(reg)
        assert set(opt.m) == {"a"}
        assert set(opt.v) == {"a"}

    def test_single_step_matches_hand_rolled_oracle(self):
        reg = self._registry(1.0)
        lr, wd, b1, b2, eps = 1e-2, 0.1, 0.9, 0.999, 1e-8
        opt = AdamW(reg, lr=lr, weight_decay=wd)
        reg["p"].grad = np.array([0.5])
        opt.step()
        want = oracle_adamw_step(1.0, 0.5, lr, wd, b1, b2, eps)
        assert reg["p"].data[0] == pytest.approx(want, abs=1e-15)

    def test_missing_grad_raises(self):
        reg = self._registry(1.0)
        opt = AdamW(reg)
        with pytest.raises(ValueError, match="missing gradient"):
            opt.step()

    def test_flat_step_is_bitwise_the_per_parameter_rule(self, rng):
        shapes = {"w": (3, 4), "b": (4,), "frozen": (2, 2), "emb": (5, 3), "gain": (1,)}
        lr, wd = 3e-3, 0.1
        reg = ParamRegistry()
        for name, shape in shapes.items():
            reg.add(name, rng.normal(size=shape))
        reg.freeze(["frozen"])
        want = {n: reg[n].data.copy() for n in shapes if n != "frozen"}
        moments = {n: (np.zeros(shapes[n]), np.zeros(shapes[n])) for n in want}
        opt = AdamW(reg, lr=lr, weight_decay=wd)
        for t in range(1, 6):
            for name in shapes:
                reg[name].grad = rng.normal(size=shapes[name]) * 10.0 ** rng.integers(-3, 3)
            opt.step()
            for name, p in want.items():
                # the rule one parameter at a time, as the optimizer once applied it
                g, (m, v) = reg[name].grad, moments[name]
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * (g * g)
                update = (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
                p -= lr * (update + wd * p)
            for name, p in want.items():
                assert reg[name].data.tobytes() == p.tobytes(), (t, name)
                assert opt.m[name].tobytes() == moments[name][0].tobytes()
                assert opt.v[name].tobytes() == moments[name][1].tobytes()

    def test_loaded_state_continues_bitwise(self, rng):
        def registry():
            reg = ParamRegistry()
            reg.add("w", np.arange(6.0).reshape(2, 3))
            reg.add("b", np.ones(3))
            return reg

        grads = [{"w": rng.normal(size=(2, 3)), "b": rng.normal(size=3)} for _ in range(4)]

        def steps(opt, reg, todo):
            for g in todo:
                for name, value in g.items():
                    reg[name].grad = value
                opt.step()

        straight_reg = registry()
        straight = AdamW(straight_reg)
        steps(straight, straight_reg, grads)
        part_reg = registry()
        part = AdamW(part_reg)
        steps(part, part_reg, grads[:2])
        saved = {name: a.copy() for name, a in part.state_arrays().items()}
        resumed = AdamW(part_reg)
        resumed.load_state_arrays(saved, part.step_count)
        steps(resumed, part_reg, grads[2:])
        for name in ("w", "b"):
            assert part_reg[name].data.tobytes() == straight_reg[name].data.tobytes()
        with pytest.raises(CheckpointError):
            AdamW(registry()).load_state_arrays(dict(saved, **{"m.w": np.zeros(6)}), 2)
        with pytest.raises(CheckpointError):
            AdamW(registry()).load_state_arrays({k: a for k, a in saved.items() if k != "v.b"}, 2)

    def test_two_identical_runs_bitwise_equal(self, rng):
        def run():
            r = np.random.default_rng(7)
            reg = ParamRegistry()
            reg.add("w", r.normal(size=(4, 4)))
            opt = AdamW(reg, lr=3e-3)
            data = r.normal(size=(4, 4))
            for _ in range(20):
                opt.zero_grad()
                loss = tsum(T.mul(T.matmul(reg["w"], Tensor(data)), T.matmul(reg["w"], Tensor(data))))
                loss.backward()
                opt.step()
            return reg["w"].data.copy()

        assert np.array_equal(run(), run())


class TestFiniteDiffCheck:
    def test_square_function(self):
        x = Tensor([3.0], requires_grad=True)
        report = finite_diff_check(lambda: tsum(T.mul(x, x)), {"x": x})
        assert x.grad[0] == pytest.approx(6.0, abs=1e-9)
        assert report.max_rel_error < 1e-7
