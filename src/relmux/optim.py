"""AdamW with decoupled weight decay and per-parameter freezing.

Update rule per unfrozen parameter p with gradient g:

    m <- beta1*m + (1-beta1)*g
    v <- beta2*v + (1-beta2)*g^2
    p <- p - lr * ( m_hat / (sqrt(v_hat) + eps) + weight_decay * p )

where m_hat, v_hat are bias-corrected, beta1 = 0.9, beta2 = 0.999 and
eps = 1e-8. Frozen parameters are never touched and carry no moment buffers.
"""

from __future__ import annotations

import numpy as np

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
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        for name, t in registry.items():
            if t.requires_grad:
                self.m[name] = np.zeros_like(t.data)
                self.v[name] = np.zeros_like(t.data)

    def zero_grad(self) -> None:
        self.registry.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name in self.m:
            p = self.registry[name]
            if p.grad is None:
                raise ValueError(f"missing gradient for unfrozen parameter {name}")
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= self.lr * (update + self.weight_decay * p.data)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name in self.m:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        for name in self.m:
            self.m[name] = np.array(arrays[f"m.{name}"], dtype=np.float64)
            self.v[name] = np.array(arrays[f"v.{name}"], dtype=np.float64)
        self.step_count = step_count
