"""AdamW with decoupled weight decay and per-parameter freezing.

Update rule per unfrozen parameter p with gradient g:

    m <- beta1*m + (1-beta1)*g
    v <- beta2*v + (1-beta2)*g^2
    p <- p - lr * ( m_hat / (sqrt(v_hat) + eps) + weight_decay * p )

where m_hat, v_hat are bias-corrected, beta1 = 0.9, beta2 = 0.999 and
eps = 1e-8. Frozen parameters are never touched and hold no gradient or
moments. An unfrozen parameter that got no gradient (a batch with no
relation-bearing sentence never reaches the entity scorers) keeps the zeros
``zero_grad`` left: its moments decay and weight decay still applies.

The values, gradients and moments of all unfrozen parameters live in flat
buffers. Each parameter's ``.data`` and ``.grad`` become views into
``values`` and ``_g``, as ``m[name]`` and ``v[name]`` are views into the
moments, so whatever sets them after the optimizer exists must write into
the array, not rebind it. The tape adds each gradient into its view, so a
step gathers nothing: it applies the rule to every value in one pass through
preallocated buffers and allocates nothing. The formula is elementwise and
runs the same ufuncs in the same order, so the result is bit for bit that of
one pass per parameter.
"""

from __future__ import annotations

import numpy as np

from .errors import CheckpointError
from .params import ParamRegistry


class AdamW:
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, registry: ParamRegistry, lr: float = 1e-3, weight_decay: float = 0.1) -> None:
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        registry.zero_grad()
        trainable = [(name, t) for name, t in registry.items() if t.requires_grad]
        total = sum(t.size for _, t in trainable)
        self.values = np.zeros(total)
        self._m, self._v, self._g, self._u, self._w = (np.zeros(total) for _ in range(5))
        # moment buffers exist for exactly the unfrozen set
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        offset = 0
        for name, t in trainable:
            sl = slice(offset, offset + t.size)
            view = self.values[sl].reshape(t.shape)
            view[...] = t.data
            t.data = view
            self.m[name] = self._m[sl].reshape(t.shape)
            self.v[name] = self._v[sl].reshape(t.shape)
            t.grad = self._g[sl].reshape(t.shape)
            offset += t.size

    def zero_grad(self) -> None:
        self._g.fill(0.0)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        m, v, g, u, w = self._m, self._v, self._g, self._u, self._w
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=u)
        v *= self.beta2
        v += np.multiply(np.multiply(g, g, out=u), 1.0 - self.beta2, out=u)
        np.sqrt(np.divide(v, bc2, out=w), out=w)
        w += self.eps
        np.divide(m, bc1, out=u)
        u /= w
        u += np.multiply(self.values, self.weight_decay, out=w)
        u *= self.lr
        self.values -= u

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name in self.m:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        """Copy saved moments into the buffers, once ``check_moments`` has
        passed them for the unfrozen parameters."""
        check_moments({name: view.shape for name, view in self.m.items()}, arrays)
        for moments, prefix in ((self.m, "m"), (self.v, "v")):
            for name, view in moments.items():
                view[...] = arrays[f"{prefix}.{name}"]
        self.step_count = step_count


def check_moments(shapes: dict[str, tuple[int, ...]], arrays: dict[str, np.ndarray]) -> None:
    """Raise CheckpointError unless ``arrays`` holds both moments of every
    parameter named in ``shapes``, each of that parameter's shape."""
    for prefix in ("m", "v"):
        for name, shape in shapes.items():
            saved = arrays.get(f"{prefix}.{name}")
            if saved is None or saved.shape != shape:
                raise CheckpointError(f"optimizer state {prefix}.{name} is missing or misshapen")
