"""AdamW with decoupled weight decay and per-parameter freezing.

Update rule per unfrozen parameter p with gradient g:

    m <- beta1*m + (1-beta1)*g
    v <- beta2*v + (1-beta2)*g^2
    p <- p - lr * ( m_hat / (sqrt(v_hat) + eps) + weight_decay * p )

where m_hat, v_hat are bias-corrected, beta1 = 0.9, beta2 = 0.999 and
eps = 1e-8. Frozen parameters are never touched and carry no moment buffers.

The moments of all unfrozen parameters live in two flat buffers, and
``m[name]``/``v[name]`` are views into them. A step concatenates the
gradients once and applies the rule to every value in one pass; the formula
is elementwise, so the result is bit for bit that of one pass per parameter.
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
        self.registry = registry
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        # moment buffers exist for exactly the unfrozen set
        trainable = [(name, t.shape, t.size) for name, t in registry.items() if t.requires_grad]
        total = sum(size for _, _, size in trainable)
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._slices: dict[str, slice] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape, size in trainable:
            sl = self._slices[name] = slice(offset, offset + size)
            self.m[name] = self._m[sl].reshape(shape)
            self.v[name] = self._v[sl].reshape(shape)
            offset += size

    def zero_grad(self) -> None:
        self.registry.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        params = [self.registry[name] for name in self._slices]
        for name, p in zip(self._slices, params):
            if p.grad is None:
                raise ValueError(f"missing gradient for unfrozen parameter {name}")
        g = np.concatenate([p.grad.reshape(-1) for p in params])
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        update += self.weight_decay * np.concatenate([p.data.reshape(-1) for p in params])
        update *= self.lr
        for sl, p in zip(self._slices.values(), params):
            p.data -= update[sl].reshape(p.shape)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name in self.m:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        """Copy saved moments into the buffers; every unfrozen parameter needs
        both of its moments, each of the parameter's shape."""
        for moments, prefix in ((self.m, "m"), (self.v, "v")):
            for name, view in moments.items():
                saved = arrays.get(f"{prefix}.{name}")
                if saved is None or saved.shape != view.shape:
                    raise CheckpointError(f"optimizer state {prefix}.{name} is missing or misshapen")
                view[...] = saved
        self.step_count = step_count
