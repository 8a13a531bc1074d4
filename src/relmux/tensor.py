"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every value in the model (parameters and activations) is a Tensor wrapping a
row-major numpy float64 array. ``Tensor()`` makes only leaves. Every op
returns through ``_result``, which holds the one rule for what joins the
tape: a result links its inputs and its backward closure only when grad mode
is on and some input requires a gradient; otherwise it is a leaf that still
carries its op's name. Calling ``backward()`` on a scalar walks the tape in
reverse topological order and accumulates gradients into every reachable
tensor with ``requires_grad``. Inside a ``no_grad()`` scope no op records
anything: prediction computes the same values without building a tape that
nothing would walk.

Gradients are owned like this. A leaf (a tensor made directly, such as a
parameter) owns its ``.grad``: it copies its first gradient and adds each
later one into it in place, so an optimizer may bind it to a buffer view.
An interior node (an op result with a backward closure) adopts the array it
is handed. A closure may hand one array, or views of it, to several parents,
so no interior gradient is written in place: a later one makes a new sum.
``backward()`` drops each interior gradient once its closure has run.

The engine is deliberately small: 2-D rows times a matrix, as one product
or one product per row, elementwise arithmetic with broadcasting, row
softmax, multi-head attention over packed sequences as one node, cross
entropy over equal or packed rows, the row gather and concatenation plumbing
the model needs, and fused nodes: a token plus position embedding and a
pre-norm transformer block for the encoder, a tanh-squashed score per entity
key, and for the switcher a residual bottleneck block and a weighted mix of
same-shape terms. A fused node runs the ufuncs of the ops it replaces in
their order, so its bits are theirs. No higher-order derivatives.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import NumericsError

# Additive mask value standing in for -infinity. exp(NEG_INF + s) underflows
# to exactly 0.0 for any score s of sane magnitude, so masked positions get
# exactly zero softmax weight and zero gradient without inf/nan arithmetic.
NEG_INF = -1.0e9

LN_EPS = 1e-5


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        """A leaf of the tape; an op's result is made by ``_result``."""
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.op = "leaf"
        self._parents = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g``, which may be shared, to the gradient. A leaf owns its
        gradient: it copies the first and adds each later one into it in
        place. An interior node adopts its first, as it is when it is already
        a C-contiguous float64 ndarray, else made one (``np.require`` keeps a
        0-d array 0-d), and makes a new sum for each later one."""
        if self.grad is not None:
            if self._backward is None:
                self.grad += g
            else:
                self.grad = self.grad + g
        elif self._backward is None:
            self.grad = np.array(g, dtype=np.float64, order="C")
        elif type(g) is np.ndarray and g.dtype == np.float64 and g.flags.c_contiguous:
            self.grad = g
        else:
            self.grad = np.require(g, np.float64, "C")

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar through the recorded tape.
        Each interior gradient is dropped once its closure has run, so only
        leaves keep one, and a second sweep adds exactly one more pass."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative DFS; per-step graphs can be thousands of nodes deep in chains,
    # which would overflow Python's recursion limit.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


# False inside a no_grad() scope: every op result is then a tape-free leaf.
_grad_enabled = True


@contextmanager
def no_grad():
    """Ops inside the scope record no tape: their results get
    ``requires_grad=False`` and no parents, whatever their inputs. Tensors
    made directly, such as parameters, keep the flag they are given. The
    previous setting comes back on exit, also when the body raises. The flag
    is one per process, not per thread: relmux runs single-threaded."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _result(data, parents: tuple, op: str, backward) -> Tensor:
    """The result of ``op`` over ``parents``, linked to them and to the
    ``backward`` closure only when grad mode is on and some parent requires a
    gradient. Otherwise it is a leaf: nothing upstream of it can receive a
    gradient through it, so backward() never walks that far."""
    out = Tensor(data)
    out.op = op
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _result(a.data + b.data, (a, b), "add", _bw)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise (broadcasting) product; also covers scaling by a float."""
    a, b = _as_tensor(a), _as_tensor(b)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _result(a.data * b.data, (a, b), "mul", _bw)


def _product_backward(op: str, x: Tensor, w: Tensor):
    """The backward of (m, d) rows ``x`` times a (d, k) matrix ``w``, once
    those shapes are checked: ``x`` gets g @ w.T and ``w`` gets x.T @ g."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"{op} shapes incompatible: {x.shape} x {w.shape}")

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)

    return _bw


def _affine(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    out = x @ w.data
    out += b.data
    return out


def matmul(x: Tensor, w: Tensor) -> Tensor:
    """(m, d) rows times a (d, k) matrix."""
    bw = _product_backward("matmul", x, w)
    return _result(x.data @ w.data, (x, w), "matmul", bw)


def row_matmul(x: Tensor, w: Tensor) -> Tensor:
    """(m, d) rows times a (d, k) matrix, one product per row, so that a row
    gets the same bits alone as in any batch. The backward is ``matmul``'s."""
    bw = _product_backward("row_matmul", x, w)
    return _result((x.data[:, None, :] @ w.data)[:, 0], (x, w), "row_matmul", bw)


def tanh_score(x: Tensor, w_down: Tensor, w_index: Tensor) -> Tensor:
    """``row_matmul(tanh(matmul(x, w_down)), w_index)`` as one tape node:
    (m, d) rows projected by a (d, e) matrix, squashed by tanh, then scored
    by an (e, k) matrix one product per row. Both passes run the ufuncs of
    the three ops in their order, so the bits are theirs."""
    down = _product_backward("tanh_score", x, w_down)
    if w_index.data.ndim != 2 or w_index.shape[0] != w_down.shape[1]:
        raise ShapeError(f"tanh_score shapes incompatible: {w_down.shape} then {w_index.shape}")
    t = x.data @ w_down.data
    np.tanh(t, out=t)

    def _bw(g):
        if w_index.requires_grad:
            w_index._accumulate(t.T @ g)
        if x.requires_grad or w_down.requires_grad:
            dt = g @ w_index.data.T
            dt *= 1.0 - t * t
            down(dt)

    return _result((t[:, None, :] @ w_index.data)[:, 0], (x, w_down, w_index), "tanh_score", _bw)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat of empty list")
    datas = [t.data for t in tensors]

    def _bw(g):
        offset = 0
        for t in tensors:
            length = t.shape[axis]
            sl = (slice(offset, offset + length), slice(None)) if axis == 0 else (slice(None), slice(offset, offset + length))
            if t.requires_grad:
                t._accumulate(g[sl])
            offset += length

    return _result(np.concatenate(datas, axis=axis), tuple(tensors), "concat", _bw)


def _row_index(table: Tensor, indices, op: str) -> np.ndarray:
    """``indices`` as a flat intp array of rows of ``table``."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"{op} expects a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"{op} index out of range for table {table.shape}")
    return idx


def _scatter_rows(g: np.ndarray, idx: np.ndarray, table: Tensor) -> None:
    """Add the rows of ``g`` into the gradient of ``table`` at the rows
    ``idx``: one ``np.bincount`` over flat element indices, which adds each
    element's terms in index order from 0.0, as ``np.add.at`` would, bit for
    bit."""
    width = int(np.prod(table.shape[1:]))
    flat = (idx[:, None] * width + np.arange(width)).ravel()
    table._accumulate(np.bincount(flat, weights=g.ravel(), minlength=table.data.size).reshape(table.shape))


def gather_rows(table: Tensor, indices) -> Tensor:
    """Row lookup table[i] for each index, a new array (a fancy index never
    aliases its source); the gradient scatter-adds into the table."""
    idx = _row_index(table, indices, "gather_rows")
    return _result(table.data[idx], (table,), "gather_rows", lambda g: _scatter_rows(g, idx, table))


def embed(tok: Tensor, pos: Tensor, ids, positions) -> Tensor:
    """tok[ids] + pos[positions] as one tape node: the bits of two
    ``gather_rows`` and their ``add``, and each table's gradient is
    ``gather_rows``' scatter."""
    ids, positions = _row_index(tok, ids, "embed"), _row_index(pos, positions, "embed")
    if ids.shape != positions.shape or tok.shape[1:] != pos.shape[1:]:
        raise ShapeError(f"embed of {ids.size} token and {positions.size} position rows, tables {tok.shape}, {pos.shape}")
    out = tok.data[ids]
    out += pos.data[positions]

    def _bw(g):
        for table, idx in ((tok, ids), (pos, positions)):
            if table.requires_grad:
                _scatter_rows(g, idx, table)

    return _result(out, (tok, pos), "embed", _bw)


def add_n(tensors: list[Tensor]) -> Tensor:
    """n-ary sum of same-shape tensors; keeps the tape shallow for batch losses."""
    if not tensors:
        raise ShapeError("add_n of empty list")
    acc = tensors[0].data.copy()
    for t in tensors[1:]:
        if t.shape != tensors[0].shape:
            raise ShapeError(f"add_n shape mismatch: {t.shape} vs {tensors[0].shape}")
        acc += t.data

    def _bw(g):
        for t in tensors:
            if t.requires_grad:
                t._accumulate(g)

    return _result(acc, tuple(tensors), "add_n", _bw)


def _softmax_(s: np.ndarray, op: str) -> np.ndarray:
    """Row softmax over the trailing axis, written into ``s``; a NaN or an
    infinity raises."""
    if not np.isfinite(s).all():
        raise NumericsError(f"{op}: NaN or infinity in input")
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    return (g - (g * p).sum(axis=-1, keepdims=True)) * p


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the trailing dimension, stabilized by max subtraction: rows
    are nonnegative and sum to 1 within rounding. A NaN or an infinity in the
    input raises."""
    if a.data.ndim < 1 or a.shape[-1] < 1:
        raise ShapeError(f"softmax_rows needs a trailing dimension, got {a.shape}")
    p = _softmax_(a.data.copy(), "softmax_rows")
    return _result(p, (a,), "softmax_rows", lambda g: a._accumulate(_softmax_grad(g, p)))


def length_plan(lengths) -> tuple[int, list[tuple[int, slice | np.ndarray]]]:
    """The attention plan of sequences packed back to back, ``lengths[i]``
    rows for sequence i: their row count R, and for each distinct length m,
    in increasing order, m with the rows of every length-m sequence (a slice
    of all R rows when every sequence has length m). ``attention`` and
    ``encoder_block`` run the sequences of each length as one batched problem,
    so an ``encode`` call makes its plan once for all of its blocks."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or not lengths.size or lengths.min() < 1:
        raise ShapeError(f"sequence boundary mismatch: lengths {lengths}")
    ms, counts = np.unique(lengths, return_counts=True)
    if ms.size == 1:
        return int(lengths.sum()), [(int(ms[0]), slice(None))]
    # every row, stably sorted by its sequence's length
    order = np.argsort(np.repeat(lengths, lengths), kind="stable")
    ends = np.cumsum(ms * counts).tolist()
    return ends[-1], [(m, order[end - m * n : end]) for m, n, end in zip(ms.tolist(), counts.tolist(), ends)]


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, plan, n_heads: int):
    """Multi-head attention of (R, d) ``q``, ``k`` and ``v`` within each
    sequence of ``plan``: the (R, d) output, and the backward, which maps the
    output's gradient to those of q, k and v. Head h owns columns
    [h*d/n_heads, (h+1)*d/n_heads) and is scaled by 1/sqrt(d/n_heads). The
    backward is FlashAttention's closed form untiled (arXiv:2205.14135); both
    passes run the ufuncs of separate matmul, scale and softmax ops in their
    order, so the bits are those ops'."""
    d = q.shape[1]
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"cannot split {d} columns into {n_heads} heads")
    hd = d // n_heads
    scale = np.asarray(1.0 / np.sqrt(hd))

    def split(x, m):  # rows of length-m sequences to one (m, hd) block per sequence and head
        return x.reshape(-1, m, n_heads, hd).transpose(0, 2, 1, 3).reshape(-1, m, hd)

    def merge(x, m):  # the inverse of split
        return x.reshape(-1, n_heads, m, hd).transpose(0, 2, 1, 3).reshape(-1, d)

    out, saved = np.empty_like(q), []
    for m, rows in plan[1]:
        qh, vh = split(q[rows], m), split(v[rows], m)
        kT = split(k[rows], m).swapaxes(-1, -2).copy()
        p = qh @ kT
        p *= scale
        _softmax_(p, "attention")
        out[rows] = merge(p @ vh, m)
        saved.append((rows, m, qh, kT, vh, p))

    def backward(g):
        dq, dk, dv = np.empty_like(g), np.empty_like(g), np.empty_like(g)
        for rows, m, qh, kT, vh, p in saved:
            go = split(g[rows], m)
            dp = go @ vh.swapaxes(-1, -2)
            dv[rows] = merge(p.swapaxes(-1, -2) @ go, m)
            ds = _softmax_grad(dp, p) * scale
            dq[rows] = merge(ds @ kT.swapaxes(-1, -2), m)
            dk[rows] = merge((qh.swapaxes(-1, -2) @ ds).swapaxes(-1, -2), m)
        return dq, dk, dv

    return out, backward


def attention(q: Tensor, k: Tensor, v: Tensor, lengths, n_heads: int) -> Tensor:
    """Scaled dot-product attention within each of n sequences, as one tape
    node. ``q``, ``k`` and ``v`` are (R, d): the sequences' rows packed back
    to back, ``lengths[i]`` of them for sequence i. Head h owns columns
    [h*d/n_heads, (h+1)*d/n_heads) and attends within its own sequence.
    Returns (R, d). The sequences of each length run as one batched problem,
    unpadded, so a sequence gets the same bits whatever shares the call."""
    plan = length_plan(lengths)
    if not q.shape == k.shape == v.shape or q.data.ndim != 2 or plan[0] != q.shape[0]:
        raise ShapeError(f"sequence boundary mismatch: q, k, v {q.shape}, {k.shape}, {v.shape}, lengths {lengths}")
    out, attend_bw = _attend(q.data, k.data, v.data, plan, n_heads)

    def _bw(g):
        dq, dk, dv = attend_bw(g)
        for t, grad in ((v, dv), (q, dq), (k, dk)):
            if t.requires_grad:
                t._accumulate(grad)

    return _result(out, (q, k, v), "attention", _bw)


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``x`` standardized, with the rows' 1/sqrt(var + LN_EPS).
    Each row mean is a sum over the row divided by d: the same add.reduce and
    true_divide that ndarray.mean runs, bit for bit, without its Python-level
    overhead."""
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xc *= inv
    return xc, inv


def _standardize_grad(gy: np.ndarray, y: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The gradient through ``_standardize`` of the gradient ``gy`` of ``y``."""
    d = y.shape[-1]
    m1 = gy.sum(axis=-1, keepdims=True) / d
    m2 = (gy * y).sum(axis=-1, keepdims=True) / d
    out = gy - m1
    out -= y * m2
    out *= inv
    return out


def encoder_block(x: Tensor, weights, plan, n_heads: int) -> Tensor:
    """One pre-norm transformer block over (R, d) rows ``x`` as one tape
    node: a = LN1(x); x2 = x + o(attention(q(a), k(a), v(a))); out = x2 +
    ffn2(relu(ffn1(LN2(x2)))), each projection with its bias. ``weights``
    are, in that order, LN1's gain and bias, the matrix and bias of q, k, v
    and o, LN2's gain and bias, and the matrix and bias of ffn1 and ffn2.
    ``plan`` is the ``length_plan`` of x's sequences. Both passes run the
    ufuncs of separate layer norm, ``matmul``, ``attention``, ``add`` and
    relu ops in their order, so the bits are those ops'; a's three
    gradient terms are added as (q + k) + v, and a term of two is summed in
    place on a fresh array."""
    g1, b1, wq, bq, wk, bk, wv, bv, wo, bo, g2, b2, w1, c1, w2, c2 = weights
    d, f = x.shape[-1], w1.shape[-1]
    want = [(d,), (d,), (d, d), (d,), (d, d), (d,), (d, d), (d,), (d, d), (d,), (d,), (d,), (d, f), (f,), (f, d), (d,)]
    if x.data.ndim != 2 or d < 2 or x.shape[0] != plan[0] or [w.shape for w in weights] != want:
        raise ShapeError(f"encoder_block shapes incompatible: x {x.shape} of {plan[0]} rows, "
                         f"weights {[w.shape for w in weights]}")
    y1, inv1 = _standardize(x.data)
    a = g1.data * y1
    a += b1.data
    q, k, v = (_affine(a, w, b) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    att, attend_bw = _attend(q, k, v, plan, n_heads)
    x2 = _affine(att, wo, bo)
    x2 += x.data
    y2, inv2 = _standardize(x2)
    h = g2.data * y2
    h += b2.data
    act = _affine(h, w1, c1)
    np.maximum(act, 0.0, out=act)  # act > 0 exactly where the pre-activation is
    out = _affine(act, w2, c2)
    out += x2

    def _bw(g):
        dact = g @ w2.data.T
        dact *= act > 0.0
        dh = dact @ w1.data.T
        dx2 = _standardize_grad(dh * g2.data, y2, inv2)
        dx2 += g
        dq, dk, dv = attend_bw(dx2 @ wo.data.T)
        da = dq @ wq.data.T
        da += dk @ wk.data.T
        da += dv @ wv.data.T
        dx = _standardize_grad(da * g1.data, y1, inv1)
        dx += dx2
        for t, grad in ((c2, g), (c1, dact), (b2, dh), (bo, dx2), (bq, dq), (bk, dk), (bv, dv), (b1, da)):
            if t.requires_grad:
                t._accumulate(grad.sum(axis=0))
        for t, rows, grad in ((w2, act, g), (w1, h, dact), (wo, att, dx2), (wq, a, dq), (wk, a, dk), (wv, a, dv)):
            if t.requires_grad:
                t._accumulate(rows.T @ grad)
        for t, rows, grad in ((g2, y2, dh), (g1, y1, da)):
            if t.requires_grad:
                t._accumulate((grad * rows).sum(axis=0))
        if x.requires_grad:
            x._accumulate(dx)

    return _result(out, (x, *weights), "encoder_block", _bw)


def bottleneck(x: Tensor, w_up: Tensor, w_down: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """One residual bottleneck block, LN(relu(x w_up) w_down + x) over (rows,
    d) ``x``, as one tape node. Both passes run the ufuncs of separate matmul,
    relu, matmul, add and ``layer_norm`` ops in their order, so the bits are
    those ops'; x's two gradient terms are added once, inside the node."""
    d = x.shape[-1]
    if (x.data.ndim != 2 or d < 2 or w_up.data.ndim != 2 or w_up.shape[0] != d
            or w_down.shape != w_up.shape[::-1] or gain.shape != (d,) or bias.shape != (d,)):
        raise ShapeError(f"bottleneck shapes incompatible: x {x.shape}, w_up {w_up.shape}, "
                         f"w_down {w_down.shape}, gain {gain.shape}, bias {bias.shape}")
    act = x.data @ w_up.data
    np.maximum(act, 0.0, out=act)  # act > 0 exactly where the pre-activation is
    s = act @ w_down.data
    s += x.data
    y, inv = _standardize(s)
    out = gain.data * y
    out += bias.data

    def _bw(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * y, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        ds = _standardize_grad(g * gain.data, y, inv)
        if w_down.requires_grad:
            w_down._accumulate(act.swapaxes(-1, -2) @ ds)
        if x.requires_grad or w_up.requires_grad:
            dpre = ds @ w_down.data.swapaxes(-1, -2)
            dpre *= act > 0.0
            if w_up.requires_grad:
                w_up._accumulate(x.data.swapaxes(-1, -2) @ dpre)
            if x.requires_grad:
                dx = dpre @ w_up.data.swapaxes(-1, -2)
                dx += ds
                x._accumulate(dx)

    return _result(out, (x, w_up, w_down, gain, bias), "bottleneck", _bw)


def mix(terms: list[Tensor], probs) -> Tensor:
    """The sum over t of ``terms[t] * probs[:, t:t+1]``, as one tape node:
    same-shape (rows, d) terms weighted by the columns of (1, T) or (rows, T)
    ``probs``, added in t order as ``add_n`` does. The bits are those of one
    ``mul`` per term by its column of ``probs`` and their ``add_n``."""
    probs = _as_tensor(probs)
    w = probs.data
    if (not terms or terms[0].data.ndim != 2 or any(t.shape != terms[0].shape for t in terms)
            or w.ndim != 2 or w.shape[1] != len(terms) or w.shape[0] not in (1, terms[0].shape[0])):
        raise ShapeError(f"mix of {[t.shape for t in terms]} by probs {probs.shape}")
    out, term_t = terms[0].data * w[:, :1], np.empty_like(terms[0].data)
    for t in range(1, len(terms)):
        out += np.multiply(terms[t].data, w[:, t : t + 1], out=term_t)

    def _bw(g):
        if probs.requires_grad:
            gw = np.empty_like(w)
            for t, term in enumerate(terms):
                gw[:, t : t + 1] = _unbroadcast(g * term.data, (w.shape[0], 1))
            probs._accumulate(gw)
        for t, term in enumerate(terms):
            if term.requires_grad:
                term._accumulate(g * w[:, t : t + 1])

    return _result(out, (*terms, probs), "mix", _bw)


def pad_packed(values: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m,) ``values`` packed back to back, ``lengths[i]`` of them for row i,
    laid out as (len(lengths), longest) with NEG_INF past each row's length,
    and the mask of the positions that hold a value."""
    inside = np.arange(lengths.max()) < lengths[:, None]
    z = np.where(inside, 0.0, NEG_INF)
    z[inside] = values
    return z, inside


def cross_entropy(logits: Tensor, gold, lengths=None) -> Tensor:
    """Negative log softmax probability of the gold class, summed over rows.

    ``gold`` is one class index, or a vector of one index per row. ``logits``
    may be any shape that ravels to ``(len(gold), n_classes)``. With
    ``lengths``, row i has ``lengths[i]`` classes, packed back to back in
    (sum of lengths, 1) ``logits`` and laid out by ``pad_packed``; the
    NEG_INF past each row's length gets exactly zero probability.
    """
    gold = np.asarray(gold, dtype=np.intp).reshape(-1)
    rows = np.arange(gold.size)
    if lengths is None:
        if gold.size == 0 or logits.size % gold.size:
            raise ShapeError(f"logits {logits.shape} do not split into {gold.size} rows")
        z = logits.data.reshape(gold.size, -1)
    else:
        lengths = np.asarray(lengths, dtype=np.intp)
        if (not gold.size or lengths.shape != gold.shape or logits.shape != (lengths.sum(), 1)
                or (gold >= lengths).any()):
            raise ShapeError(f"logits {logits.shape}, gold {gold.tolist()}: not rows of lengths {lengths.tolist()}")
        z, inside = pad_packed(logits.data[:, 0], lengths)
    n = z.shape[1]
    if gold.min() < 0 or gold.max() >= n:
        raise IndexError(f"gold index {gold.tolist()} out of range for {n} classes")
    if not np.isfinite(z).all():
        raise NumericsError("cross_entropy: NaN or infinity in logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1)
    p = e / total[:, None]
    loss = -(shifted[rows, gold] - np.log(total)).sum()

    def _bw(g):
        d = p.copy()
        d[rows, gold] -= 1.0
        logits._accumulate((float(g) * (d if lengths is None else d[inside])).reshape(logits.shape))

    return _result(loss, (logits,), "cross_entropy", _bw)
