"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every value in the model (parameters and activations) is a Tensor wrapping a
row-major numpy float64 array. Operations record a backward closure; calling
``backward()`` on a scalar walks the tape in reverse topological order and
accumulates gradients into every reachable tensor with ``requires_grad``.
Inside a ``no_grad()`` scope no op records anything: prediction computes the
same values without building a tape that nothing would walk.

The engine is deliberately small: matmul over batched matrices, elementwise
arithmetic with broadcasting, row softmax, layer norm, relu/tanh, row-wise
cross entropy, the split/merge of attention heads, and the
slicing/concatenation plumbing the model needs. No higher-order derivatives.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import NumericsError

# Additive mask value standing in for -infinity. exp(NEG_INF + s) underflows
# to exactly 0.0 for any score s of sane magnitude, so masked positions get
# exactly zero attention weight and zero gradient without inf/nan arithmetic.
NEG_INF = -1.0e9

LN_EPS = 1e-5


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.op = op
        # A result that needs no gradient is a leaf of the tape: nothing
        # upstream of it can receive a gradient through it, so backward()
        # never has to walk that far.
        self._parents = _parents if requires_grad else ()
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
        if self.grad is None:
            # a copy: backward closures hand the same array, or a view of
            # it, to several parents, and a later += must not reach them all
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar through the recorded tape."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


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


def _needs_grad(*tensors: Tensor) -> bool:
    if not _grad_enabled:
        return False
    for t in tensors:
        if t.requires_grad:
            return True
    return False


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
    out = Tensor(a.data + b.data, _needs_grad(a, b), (a, b), "add")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    out._backward = _bw if out.requires_grad else None
    return out


def mul(a: Tensor, b) -> Tensor:
    """Elementwise (broadcasting) product; also covers scaling by a float."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data, _needs_grad(a, b), (a, b), "mul")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    out._backward = _bw if out.requires_grad else None
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading (batch) axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}") from None
    out = Tensor(data, _needs_grad(a, b), (a, b), "matmul")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    out._backward = _bw if out.requires_grad else None
    return out


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose expects at least 2 axes, got {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2).copy(), _needs_grad(a), (a,), "transpose")
    if out.requires_grad:
        out._backward = lambda g: a._accumulate(np.swapaxes(g, -1, -2))
    return out


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis (gradient scattered back, rest zero)."""
    if a.data.ndim != 2 or axis not in (0, 1):
        raise ShapeError(f"narrow expects a 2-D tensor, got {a.shape}")
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}) out of range for {a.shape} axis {axis}")
    sl = (slice(start, start + length), slice(None)) if axis == 0 else (slice(None), slice(start, start + length))
    out = Tensor(a.data[sl].copy(), _needs_grad(a), (a,), "narrow")

    def _bw(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        a._accumulate(full)

    out._backward = _bw if out.requires_grad else None
    return out


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat of empty list")
    datas = [t.data for t in tensors]
    out = Tensor(np.concatenate(datas, axis=axis), _needs_grad(*tensors), tuple(tensors), "concat")

    def _bw(g):
        offset = 0
        for t in tensors:
            length = t.shape[axis]
            sl = (slice(offset, offset + length), slice(None)) if axis == 0 else (slice(None), slice(offset, offset + length))
            if t.requires_grad:
                t._accumulate(g[sl])
            offset += length

    out._backward = _bw if out.requires_grad else None
    return out


def gather_rows(table: Tensor, indices) -> Tensor:
    """Row lookup table[i] for each index; gradient scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows expects a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"gather_rows index out of range for table {table.shape}")
    out = Tensor(table.data[idx].copy(), _needs_grad(table), (table,), "gather_rows")

    def _bw(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        table._accumulate(full)

    out._backward = _bw if out.requires_grad else None
    return out


def scatter_rows(a: Tensor, indices, rows: int, fill: float) -> Tensor:
    """The inverse of gather_rows: a (rows, ...) result holding row j of
    ``a`` at row ``indices[j]`` and ``fill`` everywhere else. The indices
    must be distinct; the gradient gathers back from them."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size != a.shape[0]:
        raise ShapeError(f"scatter_rows needs one index per row of {a.shape}, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeError(f"scatter_rows index out of range for {rows} rows")
    data = np.full((rows,) + a.shape[1:], fill)
    data[idx] = a.data
    out = Tensor(data, _needs_grad(a), (a,), "scatter_rows")
    if out.requires_grad:
        out._backward = lambda g: a._accumulate(g[idx])
    return out


def repeat_rows(a: Tensor, n: int) -> Tensor:
    """Repeat each row of a (k, d) tensor n times, into (k*n, d); the
    gradient sums back over the copies."""
    if a.data.ndim != 2:
        raise ShapeError(f"repeat_rows expects shape (k, d), got {a.shape}")
    out = Tensor(np.repeat(a.data, n, axis=0), _needs_grad(a), (a,), "repeat_rows")
    if out.requires_grad:
        out._backward = lambda g: a._accumulate(g.reshape(a.shape[0], n, a.shape[1]).sum(axis=1))
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape).copy(), _needs_grad(a), (a,), "reshape")
    if out.requires_grad:
        out._backward = lambda g: a._accumulate(g.reshape(a.shape))
    return out


def split_heads(a: Tensor, n_seq: int, n_heads: int) -> Tensor:
    """Rows of ``n_seq`` stacked sequences, (n_seq*m, n_heads*k), to one
    (m, k) block per sequence and head: (n_seq*n_heads, m, k). Head h owns
    columns [h*k, (h+1)*k), the layout merge_heads restores."""
    if a.data.ndim != 2 or a.shape[0] % n_seq or a.shape[1] % n_heads:
        raise ShapeError(f"cannot split {a.shape} into {n_seq} sequences of {n_heads} heads")
    rows, d = a.shape
    m, k = rows // n_seq, d // n_heads
    split = a.data.reshape(n_seq, m, n_heads, k).transpose(0, 2, 1, 3).reshape(n_seq * n_heads, m, k)
    out = Tensor(split, _needs_grad(a), (a,), "split_heads")
    if out.requires_grad:
        out._backward = lambda g: a._accumulate(
            g.reshape(n_seq, n_heads, m, k).transpose(0, 2, 1, 3).reshape(rows, d))
    return out


def merge_heads(a: Tensor, n_heads: int) -> Tensor:
    """Inverse of split_heads: (n_seq*n_heads, m, k) to (n_seq*m, n_heads*k)."""
    if a.data.ndim != 3 or a.shape[0] % n_heads:
        raise ShapeError(f"cannot merge {a.shape} over {n_heads} heads")
    blocks, m, k = a.shape
    n_seq = blocks // n_heads
    merged = a.data.reshape(n_seq, n_heads, m, k).transpose(0, 2, 1, 3).reshape(n_seq * m, n_heads * k)
    out = Tensor(merged, _needs_grad(a), (a,), "merge_heads")
    if out.requires_grad:
        out._backward = lambda g: a._accumulate(
            g.reshape(n_seq, m, n_heads, k).transpose(0, 2, 1, 3).reshape(a.shape))
    return out


def add_n(tensors: list[Tensor]) -> Tensor:
    """n-ary sum of same-shape tensors; keeps the tape shallow for batch losses."""
    if not tensors:
        raise ShapeError("add_n of empty list")
    acc = tensors[0].data.copy()
    for t in tensors[1:]:
        if t.shape != tensors[0].shape:
            raise ShapeError(f"add_n shape mismatch: {t.shape} vs {tensors[0].shape}")
        acc += t.data
    out = Tensor(acc, _needs_grad(*tensors), tuple(tensors), "add_n")

    def _bw(g):
        for t in tensors:
            if t.requires_grad:
                t._accumulate(g)

    out._backward = _bw if out.requires_grad else None
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), _needs_grad(a), (a,), "relu")
    if out.requires_grad:
        # subgradient 0 at exactly 0
        out._backward = lambda g: a._accumulate(g * (a.data > 0.0))
    return out


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = Tensor(t, _needs_grad(a), (a,), "tanh")
    if out.requires_grad:
        out._backward = lambda g: a._accumulate(g * (1.0 - t * t))
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the trailing dimension, stabilized by max subtraction.

    Rows are nonnegative and sum to 1 within accumulated rounding. NaN input
    raises NumericsError rather than propagating.
    """
    if a.data.ndim < 1 or a.shape[-1] < 1:
        raise ShapeError(f"softmax_rows needs a trailing dimension, got {a.shape}")
    if np.isnan(a.data).any():
        raise NumericsError("softmax_rows: NaN in input")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p, _needs_grad(a), (a,), "softmax_rows")

    def _bw(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        a._accumulate((g - dot) * p)

    out._backward = _bw if out.requires_grad else None
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LN_EPS) -> Tensor:
    """Per-row standardization followed by an elementwise affine map."""
    d = x.shape[-1]
    if d < 2:
        raise ShapeError("layer_norm over a single feature is degenerate")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    # Each row mean is a sum over the row divided by d: the same add.reduce
    # and true_divide that ndarray.mean runs, bit for bit, without its
    # Python-level overhead.
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = Tensor(gain.data * y + bias.data, _needs_grad(x, gain, bias), (x, gain, bias), "layer_norm")

    def _bw(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * y, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            gy = g * gain.data
            m1 = gy.sum(axis=-1, keepdims=True) / d
            m2 = (gy * y).sum(axis=-1, keepdims=True) / d
            x._accumulate((gy - m1 - y * m2) * inv)

    out._backward = _bw if out.requires_grad else None
    return out


def cross_entropy(logits: Tensor, gold) -> Tensor:
    """Negative log softmax probability of the gold class, summed over rows.

    ``gold`` is one class index, or a vector of one index per row. ``logits``
    may be any shape that ravels to ``(len(gold), n_classes)``.
    """
    gold = np.asarray(gold, dtype=np.intp).reshape(-1)
    rows = np.arange(gold.size)
    if gold.size == 0 or logits.size % gold.size:
        raise ShapeError(f"logits {logits.shape} do not split into {gold.size} rows")
    z = logits.data.reshape(gold.size, -1)
    n = z.shape[1]
    if gold.min() < 0 or gold.max() >= n:
        raise IndexError(f"gold index {gold.tolist()} out of range for {n} classes")
    if np.isnan(z).any():
        raise NumericsError("cross_entropy: NaN in logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1)
    p = e / total[:, None]
    loss = -(shifted[rows, gold] - np.log(total)).sum()
    out = Tensor(loss, _needs_grad(logits), (logits,), "cross_entropy")

    def _bw(g):
        d = p.copy()
        d[rows, gold] -= 1.0
        logits._accumulate((float(g) * d).reshape(logits.shape))

    out._backward = _bw if out.requires_grad else None
    return out
