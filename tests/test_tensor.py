"""Tensor engine: forward values against hand arithmetic and oracles, gradients
against central finite differences, and the optimizer contracts."""

import inspect
import math
from dataclasses import replace
from functools import partial

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
from oracles import oracle_adamw_rule, oracle_adamw_step, oracle_cross_entropy, oracle_packed_cross_entropy


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

    @pytest.mark.parametrize("d", [32, 64])
    def test_a_row_gets_the_same_bits_at_any_row_count_from_two(self, d):
        # TestBatchInvariance rests on this BLAS property of the 2-D products
        # over packed rows (the encoder's projections and feed-forward, the
        # switcher's blocks, the entity heads' w_down); numpy does not
        # promise it. One row takes another gemm path and may differ, so the
        # counts start at 2. Every config has ffn_dim = bottleneck = 2d.
        rng, b = np.random.default_rng(d), 2 * d
        for p, q in [(d, d), (2 * d, d), (d, b), (b, d)]:
            w = Tensor(rng.normal(size=(p, q)))
            x = rng.normal(size=(202, p))
            full = T.matmul(Tensor(x), w).data
            for start in (0, 1):
                for n in range(2, 201):
                    part = T.matmul(Tensor(x[start : start + n]), w).data
                    assert part.tobytes() == full[start : start + n].tobytes(), (p, q, start, n)


class TestRowMatmul:
    # 32 rows of mixed magnitudes by a 64-column matrix: a 2-D product of
    # this shape need not give a row the bits it gets alone
    def operands(self, rng, k):
        x = rng.normal(size=(32, 64)) * 10.0 ** rng.integers(-3, 4, size=(32, 1))
        return x, rng.normal(size=(64, k))

    @pytest.mark.parametrize("k", [1, 5])
    def test_each_row_is_bitwise_the_row_alone(self, rng, k):
        x, w = self.operands(rng, k)
        out = T.row_matmul(Tensor(x), Tensor(w)).data
        assert out.shape == (32, k) and out.flags.c_contiguous
        for i in range(32):
            assert out[i].tobytes() == T.row_matmul(Tensor(x[i : i + 1]), Tensor(w)).data.tobytes(), i
        # any other batch of the same rows, too
        perm = rng.permutation(32)
        assert T.row_matmul(Tensor(x[perm]), Tensor(w)).data.tobytes() == out[perm].tobytes()

    @pytest.mark.parametrize("k", [1, 5])
    def test_gradients_are_bitwise_matmuls(self, rng, k):
        x, w = (Tensor(a, requires_grad=True) for a in self.operands(rng, k))
        g = rng.normal(size=(32, k))
        _, grads = _run(lambda: T.row_matmul(x, w), [x, w], g)
        assert grads == _run(lambda: T.matmul(x, w), [x, w], g)[1]

    @pytest.mark.parametrize("k", [1, 5])
    def test_gradient_vs_finite_differences(self, rng, k):
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, k)), requires_grad=True)
        g = Tensor(rng.normal(size=(6, k)))
        report = finite_diff_check(lambda: tsum(T.mul(T.row_matmul(x, w), g)), {"x": x, "w": w}, max_coords=16)
        assert report.max_rel_error < 1e-6

    def test_shapes_rejected(self):
        for a, b in (((3, 4), (3, 2)), ((2, 3, 4), (4, 2)), ((3, 4), (4,)), ((4,), (4, 2))):
            with pytest.raises(ShapeError, match="row_matmul"):
                T.row_matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


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

    def test_gold_at_the_class_count_is_refused_by_name(self):
        # the last class is a gold; one past it is the op's own IndexError,
        # not numpy's from the gather
        T.cross_entropy(Tensor(np.zeros((2, 3))), [0, 2])
        with pytest.raises(IndexError, match="out of range for 3 classes"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

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

    # packed rows of unequal length, the longest not first, one of length 1
    LENGTHS = np.array([3, 6, 1, 6, 4])
    GOLD = np.array([2, 5, 0, 1, 3])

    @pytest.mark.parametrize("upstream", [1.0, 0.37])
    def test_packed_rows_are_bitwise_the_padded_layout(self, rng, upstream):
        scores = Tensor(rng.normal(size=(self.LENGTHS.sum(), 1)) * 5.0, requires_grad=True)
        loss = T.cross_entropy(scores, self.GOLD, self.LENGTHS)
        T.mul(loss, upstream).backward()
        want_loss, want_grad = oracle_packed_cross_entropy(scores.data, self.GOLD, self.LENGTHS, upstream)
        assert loss.item() == want_loss
        assert scores.grad.shape == scores.shape and scores.grad.tobytes() == want_grad.tobytes()

    def test_packed_rows_are_the_sum_of_single_rows(self, rng):
        scores = rng.normal(size=(self.LENGTHS.sum(), 1))
        got = T.cross_entropy(Tensor(scores), self.GOLD, self.LENGTHS).item()
        starts = np.cumsum(self.LENGTHS) - self.LENGTHS
        want = sum(oracle_cross_entropy(scores[a : a + m], int(g)) for a, m, g in zip(starts, self.LENGTHS, self.GOLD))
        assert got == pytest.approx(want, abs=1e-12)

    def test_packed_gradient_vs_finite_differences(self, rng):
        scores = Tensor(rng.normal(size=(self.LENGTHS.sum(), 1)), requires_grad=True)
        report = finite_diff_check(lambda: T.cross_entropy(scores, self.GOLD, self.LENGTHS), {"scores": scores})
        assert report.max_rel_error < 1e-6

    def test_packed_rows_rejected(self):
        scores = Tensor(np.zeros((self.LENGTHS.sum(), 1)))
        # lengths that do not sum to the rows, one length too few, a zero length
        for lengths in ([3, 6, 1, 6, 3], [3, 6, 1, 6, 5], [3, 6, 7, 4], [3, 6, 0, 7, 4]):
            with pytest.raises(ShapeError, match="lengths"):
                T.cross_entropy(scores, self.GOLD, lengths)
        with pytest.raises(ShapeError, match="lengths"):
            T.cross_entropy(Tensor(np.zeros(self.LENGTHS.sum())), self.GOLD, self.LENGTHS)
        # a gold index past its own row, though inside the longest
        with pytest.raises(ShapeError, match="lengths"):
            T.cross_entropy(scores, [2, 5, 1, 1, 3], self.LENGTHS)
        with pytest.raises(IndexError):
            T.cross_entropy(scores, [2, 5, -1, 1, 3], self.LENGTHS)


def composed_attention(q, k, v, n_heads, g):
    """One sequence's attention and its q, k, v gradients under the upstream
    gradient ``g``, all (m, d), by the sequence of separate numpy steps that
    attention's composed tape ops ran (head split, key transpose, scale,
    softmax, two matmuls, head merge), each array built as those ops built
    it."""
    m, d = q.shape
    hd = d // n_heads

    def split(x):
        return x.reshape(1, m, n_heads, hd).transpose(0, 2, 1, 3).reshape(n_heads, m, hd)

    def merge(x):
        return x.reshape(1, n_heads, m, hd).transpose(0, 2, 1, 3).reshape(m, d)

    qh, kh, vh = split(q), split(k), split(v)
    kT = np.swapaxes(kh, -1, -2).copy()
    scale = np.asarray(1.0 / np.sqrt(hd))
    scores = (qh @ kT) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = merge(p @ vh)
    go = split(g)
    dp = go @ vh.swapaxes(-1, -2)
    dv = merge(p.swapaxes(-1, -2) @ go)
    ds = ((dp - (dp * p).sum(axis=-1, keepdims=True)) * p) * scale
    dq = merge(ds @ kT.swapaxes(-1, -2))
    dk = merge(np.swapaxes(qh.swapaxes(-1, -2) @ ds, -1, -2))
    return out, dq, dk, dv


class TestAttention:
    # 4 sequences packed back to back, two of them of one length, out of
    # length order; 2 heads of 3 columns
    LENGTHS = [3, 5, 3, 2]
    ROWS = sum(LENGTHS)

    def qkv(self, rng):
        return [Tensor(rng.normal(size=(self.ROWS, 6)), requires_grad=True) for _ in range(3)]

    def spans(self):
        starts = np.cumsum(self.LENGTHS) - self.LENGTHS
        return [slice(a, a + m) for a, m in zip(starts.tolist(), self.LENGTHS)]

    def test_bitwise_equal_to_the_composed_ops(self, rng):
        q, k, v = self.qkv(rng)
        g = rng.normal(size=(self.ROWS, 6))
        out = T.attention(q, k, v, self.LENGTHS, 2)
        tsum(T.mul(out, Tensor(g))).backward()
        for rows in self.spans():
            want = composed_attention(q.data[rows], k.data[rows], v.data[rows], 2, g[rows])
            for got, w in zip((out.data, q.grad, k.grad, v.grad), want):
                assert np.array_equal(got[rows], w)

    def test_gradient_vs_finite_differences(self, rng):
        q, k, v = self.qkv(rng)
        w = Tensor(rng.normal(size=(self.ROWS, 6)))
        report = finite_diff_check(lambda: tsum(T.mul(T.attention(q, k, v, self.LENGTHS, 2), w)),
                                   {"q": q, "k": k, "v": v}, max_coords=24)
        assert report.max_rel_error < 1e-6

    def test_no_value_or_gradient_crosses_sequences(self, rng):
        q, k, v = self.qkv(rng)
        base = T.attention(q, k, v, self.LENGTHS, 2).data
        spans = self.spans()
        for j, rows in enumerate(spans):
            # moving sequence j's inputs moves its outputs alone
            moved = [Tensor(t.data.copy()) for t in (q, k, v)]
            for t in moved:
                t.data[rows] += rng.normal(size=t.data[rows].shape)
            out = T.attention(*moved, self.LENGTHS, 2).data
            for i, other in enumerate(spans):
                assert np.array_equal(out[other], base[other]) == (i != j)
            # a loss on sequence j's outputs alone sends gradient to its rows alone
            weights = np.zeros((self.ROWS, 6))
            weights[rows] = rng.normal(size=weights[rows].shape)
            for t in (q, k, v):
                t.grad = None
            tsum(T.mul(T.attention(q, k, v, self.LENGTHS, 2), Tensor(weights))).backward()
            outside = np.ones(self.ROWS, dtype=bool)
            outside[rows] = False
            for t in (q, k, v):
                assert np.all(t.grad[rows] != 0.0) and not t.grad[outside].any()

    def test_head_column_layout(self, rng):
        q, k, v = self.qkv(rng)
        out = T.attention(q, k, v, self.LENGTHS, 2).data
        # head h is one-head attention over columns [3h, 3h+3) of each sequence alone
        for rows, m in zip(self.spans(), self.LENGTHS):
            for head in range(2):
                cols = slice(head * 3, head * 3 + 3)
                alone = T.attention(*(Tensor(t.data[rows, cols]) for t in (q, k, v)), [m], 1)
                assert np.array_equal(out[rows, cols], alone.data)

    def test_shapes_rejected(self):
        x = Tensor(np.zeros((self.ROWS, 6)))
        with pytest.raises(ShapeError):
            T.attention(x, x, Tensor(np.zeros((self.ROWS, 4))), self.LENGTHS, 2)
        # lengths that do not sum to the rows, a zero length, no sequence, 3-D input
        for lengths in ([3, 5, 3], [3, 5, 3, 3], [3, 5, 0, 3, 2], [], [[3, 5], [3, 2]]):
            with pytest.raises(ShapeError, match="boundary"):
                T.attention(x, x, x, lengths, 2)
        with pytest.raises(ShapeError, match="boundary"):
            T.attention(*(Tensor(np.zeros((1, self.ROWS, 6))),) * 3, self.LENGTHS, 2)
        with pytest.raises(ShapeError):
            T.attention(x, x, x, self.LENGTHS, 4)
        # a ShapeError is a ValueError
        with pytest.raises(ValueError):
            T.attention(x, x, x, self.LENGTHS, 0)

    def test_nan_score_raises_numerics_error(self, rng):
        q, k, v = self.qkv(rng)
        q.data[2, 1] = np.nan
        with pytest.raises(NumericsError, match="NaN"):
            T.attention(q, k, v, self.LENGTHS, 2)


class TestPlumbingOps:
    def test_gather_rows_refuses_an_index_at_the_table_size(self, rng):
        table = Tensor(rng.normal(size=(5, 3)))
        assert np.array_equal(T.gather_rows(table, [4]).data, table.data[[4]])
        with pytest.raises(ShapeError, match="out of range"):
            T.gather_rows(table, [0, 5])

    def test_gather_rows_result_does_not_alias_the_table(self, rng):
        table = Tensor(rng.normal(size=(5, 3)))
        before = table.data.copy()
        out = T.gather_rows(table, [4, 1, 1])
        assert not np.shares_memory(out.data, table.data)
        out.data[...] = 0.0
        assert np.array_equal(table.data, before)
        assert np.array_equal(T.gather_rows(table, [4, 1, 1]).data, before[[4, 1, 1]])

    @pytest.mark.parametrize("shape", [(9, 4), (6,), (5, 2, 3), (700, 32)])
    def test_gather_rows_gradient_is_bitwise_add_at(self, rng, shape):
        # repeated indices sum terms of magnitudes 1e-8 to 1e8, some of them
        # signed zeros and some cancelling, so any other order of addition or
        # start value shows in the bytes
        table = Tensor(rng.normal(size=shape), requires_grad=True)
        idx = np.concatenate([rng.integers(0, shape[0] - 1, size=3 * shape[0]), [0, 0, 0]])
        w = rng.normal(size=(idx.size,) + shape[1:]) * 10.0 ** rng.integers(-8, 9, size=(idx.size,) + shape[1:])
        w[::7] = -0.0
        w[-2] = -w[-3]
        tsum(T.mul(T.gather_rows(table, idx), w)).backward()
        want = np.zeros(shape)
        np.add.at(want, idx, w)
        assert table.grad.tobytes() == want.tobytes()

    def test_composite_gradients(self, rng):
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 2)), requires_grad=True)

        def f():
            rows = T.gather_rows(table, [0, 2, 2, 4])
            h = T.relu(T.tanh(rows))
            c = T.concat([h, h], axis=1)
            n = T.row_matmul(c, w)
            r = T.gather_rows(T.gather_rows(n, [1, 3]), [0] * 3)
            return tsum(T.mul(r, r))

        report = finite_diff_check(f, {"table": table, "w": w}, max_coords=15)
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


# One call per public op, by name: the arrays of its tensor inputs, in the
# order the op takes them, and the call that applies it to those tensors.
_ARRAYS = np.random.default_rng(0)
TAPE_RULE_CASES = {
    "add": ([_ARRAYS.normal(size=(2, 3)), _ARRAYS.normal(size=3)], T.add),
    "mul": ([_ARRAYS.normal(size=(2, 3)), _ARRAYS.normal(size=(2, 3))], T.mul),
    "matmul": ([_ARRAYS.normal(size=(2, 3)), _ARRAYS.normal(size=(3, 4))], T.matmul),
    "row_matmul": ([_ARRAYS.normal(size=(2, 3)), _ARRAYS.normal(size=(3, 4))], T.row_matmul),
    "concat": ([_ARRAYS.normal(size=(1, 3)), _ARRAYS.normal(size=(2, 3))], lambda a, b: T.concat([a, b], axis=0)),
    "gather_rows": ([_ARRAYS.normal(size=(4, 3))], lambda a: T.gather_rows(a, [2, 0, 2])),
    "add_n": ([_ARRAYS.normal(size=(2, 3)) for _ in range(3)], lambda *ts: T.add_n(list(ts))),
    "relu": ([_ARRAYS.normal(size=(2, 3))], T.relu),
    "tanh": ([_ARRAYS.normal(size=(2, 3))], T.tanh),
    "softmax_rows": ([_ARRAYS.normal(size=(2, 3))], T.softmax_rows),
    "attention": ([_ARRAYS.normal(size=(4, 4)) for _ in range(3)],
                  lambda q, k, v: T.attention(q, k, v, [3, 1], 2)),
    "layer_norm": ([_ARRAYS.normal(size=(2, 3)), np.ones(3), np.zeros(3)], T.layer_norm),
    "bottleneck": ([_ARRAYS.normal(size=(2, 3)), _ARRAYS.normal(size=(3, 4)), _ARRAYS.normal(size=(4, 3)),
                    np.ones(3), np.zeros(3)], T.bottleneck),
    "mix": ([_ARRAYS.normal(size=(2, 3)), _ARRAYS.normal(size=(2, 3)), _ARRAYS.dirichlet(np.ones(2), size=2)],
            lambda a, b, p: T.mix([a, b], p)),
    "cross_entropy": ([_ARRAYS.normal(size=(2, 3))], lambda z: T.cross_entropy(z, [0, 2])),
}


class TestTapeRule:
    """Every op's result joins the tape exactly when grad mode is on and some
    input requires a gradient; otherwise it is a leaf that keeps its op name."""

    def test_cases_cover_every_public_op(self):
        public = {
            name for name, f in vars(T).items()
            if not name.startswith("_") and inspect.isfunction(f) and f.__module__ == T.__name__
            and inspect.signature(f, eval_str=True).return_annotation is Tensor
        }
        assert set(TAPE_RULE_CASES) == public

    @pytest.mark.parametrize("name", sorted(TAPE_RULE_CASES))
    def test_one_trainable_input_joins_the_tape(self, name):
        arrays, op = TAPE_RULE_CASES[name]
        for trainable in range(len(arrays)):
            inputs = [Tensor(a, requires_grad=i == trainable) for i, a in enumerate(arrays)]
            out = op(*inputs)
            assert out.requires_grad and out._backward is not None and out.op == name
            assert out._parents == tuple(inputs)

    @pytest.mark.parametrize("name", sorted(TAPE_RULE_CASES))
    def test_frozen_inputs_give_a_named_leaf(self, name):
        arrays, op = TAPE_RULE_CASES[name]
        out = op(*(Tensor(a) for a in arrays))
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert out.op == name

    @pytest.mark.parametrize("name", sorted(TAPE_RULE_CASES))
    def test_trainable_input_under_no_grad_gives_a_named_leaf(self, name):
        arrays, op = TAPE_RULE_CASES[name]
        with T.no_grad():
            out = op(*(Tensor(a, requires_grad=True) for a in arrays))
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert out.op == name


def _column(probs: Tensor, t: int) -> Tensor:
    """Column t of ``probs`` as a product with a one-hot column: every other
    term is an exact zero, so the forward and the gradient are exact."""
    return T.matmul(probs, Tensor(np.eye(probs.shape[1])[:, t : t + 1]))


def _run(f, inputs: list[Tensor], g: np.ndarray) -> tuple[bytes, list[bytes | None]]:
    """The bytes of ``f()`` and of every input's gradient of sum(f() * g)."""
    for t in inputs:
        t.grad = None
    out = f()
    tsum(T.mul(out, Tensor(g))).backward()
    return out.data.tobytes(), [None if t.grad is None else t.grad.tobytes() for t in inputs]


class TestFusedOps:
    """``bottleneck`` and ``mix`` give the bits of the composed ops they
    replace, in the forward and in every input's gradient."""

    BOTTLENECK_INPUTS = ("x", "w_up", "w_down", "gain", "bias")

    def _bottleneck_inputs(self, rng, trainable) -> list[Tensor]:
        arrays = [rng.normal(size=(7, 5)), rng.normal(size=(5, 9)), rng.normal(size=(9, 5)),
                  rng.normal(size=5), rng.normal(size=5)]
        return [Tensor(a, requires_grad=name in trainable) for name, a in zip(self.BOTTLENECK_INPUTS, arrays)]

    @pytest.mark.parametrize("trainable", [
        BOTTLENECK_INPUTS, ("w_up", "w_down", "gain", "bias"), ("x",), ("w_down",), ("w_up",), ("gain", "bias"),
    ])
    def test_bottleneck_is_bitwise_the_composed_block(self, rng, trainable):
        inputs = self._bottleneck_inputs(rng, trainable)
        x, w_up, w_down, gain, bias = inputs
        g = rng.normal(size=(7, 5))
        fused = _run(lambda: T.bottleneck(*inputs), inputs, g)
        composed = _run(lambda: T.layer_norm(T.add(T.matmul(T.relu(T.matmul(x, w_up)), w_down), x), gain, bias),
                        inputs, g)
        assert fused == composed
        assert [grad is not None for grad in fused[1]] == [name in trainable for name in self.BOTTLENECK_INPUTS]

    def test_bottleneck_gradient_vs_finite_differences(self, rng):
        inputs = self._bottleneck_inputs(rng, self.BOTTLENECK_INPUTS)
        g = Tensor(rng.normal(size=(7, 5)))
        report = finite_diff_check(lambda: tsum(T.mul(T.bottleneck(*inputs), g)),
                                   dict(zip(self.BOTTLENECK_INPUTS, inputs)), max_coords=12)
        assert report.max_rel_error < 1e-6

    def test_bottleneck_takes_two_features_and_refuses_one(self, rng):
        x, w_up, w_down, gain, bias = (Tensor(rng.normal(size=s)) for s in ((3, 2), (2, 4), (4, 2), 2, 2))
        composed = T.layer_norm(T.add(T.matmul(T.relu(T.matmul(x, w_up)), w_down), x), gain, bias)
        assert T.bottleneck(x, w_up, w_down, gain, bias).data.tobytes() == composed.data.tobytes()
        x, w_up, w_down, gain, bias = (Tensor(rng.normal(size=s)) for s in ((3, 1), (1, 4), (4, 1), 1, 1))
        with pytest.raises(ShapeError, match="bottleneck shapes"):
            T.bottleneck(x, w_up, w_down, gain, bias)

    def test_bottleneck_rejects_mismatched_shapes(self, rng):
        x, w_up, w_down, gain, bias = self._bottleneck_inputs(rng, ())
        with pytest.raises(ShapeError):
            T.bottleneck(x, w_up, w_up, gain, bias)
        with pytest.raises(ShapeError):
            T.bottleneck(x, w_up, w_down, Tensor(np.ones(4)), bias)

    @pytest.mark.parametrize("prob_rows", [1, 6])
    def test_mix_is_bitwise_the_composed_sum(self, rng, prob_rows):
        terms = [Tensor(rng.normal(size=(6, 4)), requires_grad=True) for _ in range(3)]
        probs = Tensor(rng.dirichlet(np.ones(3), size=prob_rows), requires_grad=True)
        inputs = [*terms, probs]
        g = rng.normal(size=(6, 4))
        fused = _run(lambda: T.mix(terms, probs), inputs, g)
        composed = _run(lambda: T.add_n([T.mul(term, _column(probs, t)) for t, term in enumerate(terms)]), inputs, g)
        assert fused == composed
        assert all(grad is not None for grad in fused[1])

    def test_mix_through_a_softmax_is_bitwise_the_composed_sum(self, rng):
        # the router's probabilities are an interior node, as in switch_train
        terms = [Tensor(rng.normal(size=(6, 4)), requires_grad=True) for _ in range(4)]
        logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        inputs = [*terms, logits]
        g = rng.normal(size=(6, 4))
        fused = _run(lambda: T.mix(terms, T.softmax_rows(logits)), inputs, g)

        def composed():
            probs = T.softmax_rows(logits)
            return T.add_n([T.mul(term, _column(probs, t)) for t, term in enumerate(terms)])

        assert fused == _run(composed, inputs, g)

    def test_mix_with_float_weights_is_bitwise_the_composed_sum(self, rng):
        terms = [Tensor(rng.normal(size=(5, 4)), requires_grad=True) for _ in range(3)]
        weights = [0.25, 0.125, 0.625]
        g = rng.normal(size=(5, 4))
        fused = _run(lambda: T.mix(terms, [weights]), terms, g)
        composed = _run(lambda: T.add_n([T.mul(term, w) for term, w in zip(terms, weights)]), terms, g)
        assert fused == composed

    def test_one_hot_mix_is_its_term(self, rng):
        term = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        g = rng.normal(size=(5, 4))
        out, (grad,) = _run(lambda: T.mix([term], [[1.0]]), [term], g)
        assert out == term.data.tobytes() and grad == g.tobytes()

    def test_mix_gradient_vs_finite_differences(self, rng):
        terms = [Tensor(rng.normal(size=(6, 4)), requires_grad=True) for _ in range(3)]
        logits = {rows: Tensor(rng.normal(size=(rows, 3)), requires_grad=True) for rows in (1, 6)}
        g = Tensor(rng.normal(size=(6, 4)))
        for rows, z in logits.items():
            params = {f"term{t}": term for t, term in enumerate(terms)} | {"logits": z}
            report = finite_diff_check(lambda: tsum(T.mul(T.mix(terms, T.softmax_rows(z)), g)), params, max_coords=12)
            assert report.max_rel_error < 1e-6, rows

    def test_mix_rejects_mismatched_shapes(self, rng):
        terms = [Tensor(rng.normal(size=(6, 4))) for _ in range(2)]
        for probs in (np.ones((1, 3)), np.ones((2, 2)), np.ones(2)):
            with pytest.raises(ShapeError):
                T.mix(terms, probs)
        with pytest.raises(ShapeError):
            T.mix([terms[0], Tensor(np.ones((5, 4)))], np.ones((1, 2)))
        with pytest.raises(ShapeError):
            T.mix([], np.ones((1, 0)))


class TestGradientLifetime:
    """Only leaves hold gradients after backward(), no two leaves share
    gradient memory, a leaf adds each later contribution into the gradient
    it owns, and no interior gradient is ever written in place."""

    def test_second_backward_over_one_tape_counts_once_more(self):
        x = Tensor(1.5, requires_grad=True)
        y = T.mul(T.mul(x, 2.0), 3.0)
        y.backward()
        assert x.grad == 6.0
        y.backward()
        assert x.grad == 12.0

    def test_two_passes_give_twice_one_pass_bitwise(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        loss = tsum(T.layer_norm(T.tanh(T.matmul(x, w)), Tensor(np.ones(2)), Tensor(np.zeros(2))))
        loss.backward()
        once = {"x": x.grad.copy(), "w": w.grad.copy()}
        loss.backward()
        assert x.grad.tobytes() == (2.0 * once["x"]).tobytes()
        assert w.grad.tobytes() == (2.0 * once["w"]).tobytes()

    def test_only_leaves_keep_gradients(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        h = T.tanh(T.matmul(a, b))
        loss = tsum(T.add(T.concat([h, T.mul(h, 2.0)], axis=0), T.gather_rows(h, [0] * 4)))
        order = T._toposort(loss)
        loss.backward()
        interior = [node for node in order if node._backward is not None]
        assert len(interior) >= 7 and all(node.grad is None for node in interior)
        assert a.grad is not None and b.grad is not None

    def test_leaves_never_share_gradient_memory(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        tsum(T.add(a, b)).backward()
        assert not np.shares_memory(a.grad, b.grad)
        # concat hands each leaf a contiguous view of one upstream array
        parts = [Tensor(rng.normal(size=(n, 3)), requires_grad=True) for n in (1, 2, 3)]
        tsum(T.concat(parts, axis=0)).backward()
        for i, p in enumerate(parts):
            for q in parts[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad)

    def test_leaf_used_twice_gets_the_exact_sum(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w1, w2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        tsum(T.add(T.mul(x, w1), T.mul(x, w2))).backward()
        assert x.grad.tobytes() == (w1 + w2).tobytes()

    def test_leaf_adds_a_later_contribution_in_place(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        g1, g2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        g2_before = g2.copy()
        x._accumulate(g1)
        # the first contribution is copied, so the leaf owns its gradient
        owned = x.grad
        assert not np.shares_memory(owned, g1) and owned.tobytes() == g1.tobytes()
        x._accumulate(g2)
        assert x.grad is owned and owned.tobytes() == (g1 + g2).tobytes()
        assert g2.tobytes() == g2_before.tobytes() and not np.shares_memory(owned, g2)

    def test_shared_gradient_survives_a_later_accumulation(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        p, q = T.tanh(a), T.relu(a)
        g = np.ones(3)
        T.add(p, q)._backward(g)
        # both interior parents adopt the one upstream array, uncopied
        assert np.shares_memory(p.grad, g) and np.shares_memory(q.grad, g)
        p._accumulate(np.full(3, 2.0))
        assert np.array_equal(p.grad, np.full(3, 3.0))
        assert np.array_equal(q.grad, np.ones(3)) and np.array_equal(g, np.ones(3))


class TestNoGrad:
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
            model.enter_stage(2)
            table = model.frozen_prefix(model.tokenize(corpus.train[:8]))
            if predict_first:
                model.predict_all(corpus.dev[:4])
            opt = AdamW(model.registry, lr=cfg.train.lr)
            _train_step(opt, partial(model.stage2_batch_loss, table), np.arange(8), cfg.train, TrainLog(), 2, 0, 0)
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
        opt.step()
        assert reg["p"].data[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5), abs=1e-15)

    def test_frozen_param_bitwise_unchanged(self):
        reg = ParamRegistry()
        reg.add("w", np.array([1.0, -2.0]))
        reg.add("frozen", np.array([0.5, 0.25]))
        reg.freeze(["frozen"])
        before = reg["frozen"].data.copy()
        opt = AdamW(reg, lr=0.1, weight_decay=0.5)
        reg["w"].grad[...] = [1.0, 1.0]
        reg["frozen"].grad = np.array([10.0, 10.0])  # even with a gradient present
        opt.step()
        assert np.array_equal(reg["frozen"].data, before)
        want = [oracle_adamw_step(p, 1.0, 0.1, 0.5, 0.9, 0.999, 1e-8) for p in (1.0, -2.0)]
        assert reg["w"].data == pytest.approx(want, abs=1e-15)

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
        reg["p"].grad[...] = 0.5
        opt.step()
        want = oracle_adamw_step(1.0, 0.5, lr, wd, b1, b2, eps)
        assert reg["p"].data[0] == pytest.approx(want, abs=1e-15)

    def test_missing_grad_steps_as_a_zero_grad(self, rng):
        # a parameter no loss term reached keeps the zeros zero_grad left:
        # it still decays, bit for bit the rule on a zero gradient, and no
        # gradient of an earlier step lingers
        init = {"w": rng.normal(size=(3, 2)), "unused": rng.normal(size=(4,))}
        lr, wd = 1e-2, 0.1
        reg = ParamRegistry()
        for name, value in init.items():
            reg.add(name, value.copy())
        want = {n: value.copy() for n, value in init.items()}
        moments = {n: (np.zeros(value.shape), np.zeros(value.shape)) for n, value in init.items()}
        opt = AdamW(reg, lr=lr, weight_decay=wd)
        for step in range(3):
            opt.zero_grad()
            grads = {"w": np.full((3, 2), 0.5 * (step + 1)), "unused": np.full(4, 1.0 if step == 0 else 0.0)}
            reg["w"].grad[...] = grads["w"]
            if step == 0:
                reg["unused"].grad[...] = grads["unused"]
            opt.step()
            for name, p in want.items():
                oracle_adamw_rule(p, *moments[name], grads[name], step + 1, lr, wd)
                assert reg[name].data.tobytes() == p.tobytes(), (step, name)

    def test_flat_step_is_bitwise_the_per_parameter_rule(self, rng):
        shapes = {"w": (3, 4), "b": (4,), "frozen": (2, 2), "emb": (5, 3), "unused": (2, 3), "gain": (1,)}
        lr, wd = 3e-3, 0.1
        reg = ParamRegistry()
        for name, shape in shapes.items():
            reg.add(name, rng.normal(size=shape))
        reg.freeze(["frozen"])
        frozen = reg["frozen"].data.copy()
        want = {n: reg[n].data.copy() for n in shapes if n != "frozen"}
        moments = {n: (np.zeros(shapes[n]), np.zeros(shapes[n])) for n in want}
        opt = AdamW(reg, lr=lr, weight_decay=wd)
        for t in range(1, 6):
            opt.zero_grad()
            for name in shapes:
                # "unused" gets a gradient on odd steps only
                if name != "unused" or t % 2:
                    g = rng.normal(size=shapes[name]) * 10.0 ** rng.integers(-3, 3)
                    if name == "frozen":
                        reg[name].grad = g
                    else:
                        reg[name].grad[...] = g
            opt.step()
            for name, p in want.items():
                oracle_adamw_rule(p, *moments[name], reg[name].grad, t, lr, wd)
                assert reg[name].data.tobytes() == p.tobytes(), (t, name)
                assert opt.m[name].tobytes() == moments[name][0].tobytes()
                assert opt.v[name].tobytes() == moments[name][1].tobytes()
        assert reg["frozen"].data.tobytes() == frozen.tobytes()

    def test_parameters_are_views_of_the_flat_buffer(self, rng):
        reg = ParamRegistry()
        for name, shape in {"w": (3, 4), "frozen": (2,), "b": (4,)}.items():
            reg.add(name, rng.normal(size=shape))
        reg.freeze(["frozen"])
        before = {n: t.data.copy() for n, t in reg.items()}
        opt = AdamW(reg, lr=0.1)
        assert opt.values.size == 16
        for name, t in reg.items():
            assert np.shares_memory(t.data, opt.values) == t.requires_grad, name
            assert t.data.tobytes() == before[name].tobytes() and t.data.flags.c_contiguous
        reg["w"].grad[...] = 1.0
        opt.step()
        for name, g in (("w", np.ones((3, 4))), ("b", np.zeros(4))):
            want = before[name].copy()
            oracle_adamw_rule(want, np.zeros(want.shape), np.zeros(want.shape), g, 1, 0.1, 0.1)
            assert reg[name].data.tobytes() == want.tobytes(), name
        assert np.shares_memory(reg["w"].data, opt.values) and np.shares_memory(reg["b"].data, opt.values)

    def test_gradients_are_views_of_the_flat_gradient_buffer(self, rng):
        reg = ParamRegistry()
        for name, shape in {"w": (3, 4), "frozen": (2,), "b": (4,)}.items():
            reg.add(name, rng.normal(size=shape))
            reg[name].grad = np.ones(shape)
        reg.freeze(["frozen"])
        opt = AdamW(reg, lr=0.1)
        opt._g[:] = np.arange(opt._g.size)
        opt.zero_grad()
        assert reg["frozen"].grad is None
        trainable = [reg["w"], reg["b"]]
        for t in trainable:
            assert t.grad.shape == t.shape and t.grad.flags.c_contiguous and not t.grad.any()
        # each view is its parameter's own slice, in registration order
        opt._g[:] = np.arange(opt._g.size)
        assert np.concatenate([t.grad.ravel() for t in trainable]).tobytes() == opt._g.tobytes()

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
                    reg[name].grad[...] = value
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
        want = {name: t.data.copy() for name, t in registry().items()}
        moments = {name: (np.zeros(p.shape), np.zeros(p.shape)) for name, p in want.items()}
        for t, g in enumerate(grads, 1):
            for name, p in want.items():
                oracle_adamw_rule(p, *moments[name], g[name], t, 1e-3, 0.1)
        for name in ("w", "b"):
            assert straight_reg[name].data.tobytes() == want[name].tobytes()
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
