"""Central finite-difference verification of analytic gradients.

``finite_diff_check`` perturbs sampled coordinates of each parameter by a small
step, re-evaluates the loss, and compares the central-difference estimate with
the gradient produced by the tape. Relative error uses a guarded denominator:
coordinates where both estimates are below ``floor`` count as agreeing (pure
rounding noise on a true-zero gradient would otherwise dominate the ratio).
``tsum`` reduces a tensor to the scalar loss such checks differentiate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from relmux import tensor as T
from relmux.tensor import Tensor


def tsum(a: Tensor) -> Tensor:
    """The sum of every entry of ``a``, as a scalar on the tape."""
    return T._result(a.data.sum(), (a,), "sum", lambda g: a._accumulate(np.full_like(a.data, float(g))))


@dataclass
class GradCheckReport:
    max_abs_error: float = 0.0
    max_rel_error: float = 0.0
    per_param: dict[str, float] = field(default_factory=dict)
    coords_checked: int = 0

    def passed(self, tolerance: float) -> bool:
        return self.max_rel_error < tolerance


def finite_diff_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    step: float = 1e-5,
    max_coords: int = 8,
    rng: np.random.Generator | None = None,
    floor: float = 1e-6,
) -> GradCheckReport:
    """Compare tape gradients of the scalar ``f()`` against central differences.

    ``f`` must be deterministic: it is re-evaluated ~2*max_coords times per
    parameter with individual coordinates of ``params`` perturbed in place.
    Large tensors are spot-checked on ``max_coords`` sampled coordinates.
    """
    rng = rng or np.random.default_rng(0)
    # in place, so a gradient that is a view of an optimizer's buffer stays one
    for p in params.values():
        if p.grad is not None:
            p.grad.fill(0.0)
    loss = f()
    loss.backward()
    analytic = {}
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"no gradient reached parameter {name}")
        analytic[name] = p.grad.copy()

    report = GradCheckReport()
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_coords:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords, replace=False)
        worst = 0.0
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + step
            f_plus = f().item()
            flat[idx] = orig - step
            f_minus = f().item()
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            an = float(analytic[name].reshape(-1)[idx])
            abs_err = abs(an - fd)
            denom = max(abs(an), abs(fd))
            rel = abs_err / denom if denom > floor else 0.0
            worst = max(worst, rel)
            report.max_abs_error = max(report.max_abs_error, abs_err)
            report.coords_checked += 1
        report.per_param[name] = worst
        report.max_rel_error = max(report.max_rel_error, worst)
    # leave gradients as the analytic values for caller inspection
    for name, p in params.items():
        p.grad[...] = analytic[name]
    return report
