"""Host-speed probe and the clock that scales relmux timings by it.

The benchmark host is a shared VM whose speed drifts: for stretches of
seconds to minutes relmux runs up to 2.5x slower, with process CPU time
still equal to wall time. Nothing inside one run can wait that out, so the
clock measures the drift instead. Between units of relmux work it runs a
fixed probe, a tiny tape-based autodiff over small numpy arrays written here
and never changed with relmux. Its work has relmux's profile (Python objects,
closures and small numpy calls), so a slow stretch slows both alike. Each unit
of relmux work is scaled by NOMINAL_PROBE_MS / (the probe time around it): a
scaled time reads what the unit would have taken with the host at its
nominal speed. The probe's own time is never part of a unit.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# One probe runs the reference step this many times.
PROBE_STEPS = 30
# The probe's time with the baseline host in its fast state (Intel Xeon
# 2-vCPU VM, Python 3.11, numpy 2.4). Scaled times are in these host-seconds.
NOMINAL_PROBE_MS = 5.0


class _Node:
    __slots__ = ("data", "grad", "parents", "backward")

    def __init__(self, data, parents=()):
        self.data = data
        self.grad = None
        self.parents = parents
        self.backward = None

    def accumulate(self, g) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g


def _matmul(a: _Node, b: _Node) -> _Node:
    out = _Node(a.data @ b.data, (a, b))

    def backward(g):
        a.accumulate(g @ b.data.T)
        b.accumulate(a.data.T @ g)

    out.backward = backward
    return out


def _add_row(a: _Node, b: _Node) -> _Node:
    out = _Node(a.data + b.data, (a, b))

    def backward(g):
        a.accumulate(g)
        b.accumulate(g.sum(axis=0, keepdims=True))

    out.backward = backward
    return out


def _tanh(a: _Node) -> _Node:
    y = np.tanh(a.data)
    out = _Node(y, (a,))
    out.backward = lambda g: a.accumulate(g * (1.0 - y * y))
    return out


def _cross_entropy(a: _Node, target: np.ndarray) -> _Node:
    z = a.data - a.data.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    rows = np.arange(len(target))
    out = _Node(np.array([[-np.log(p[rows, target]).mean()]]), (a,))

    def backward(g):
        d = p.copy()
        d[rows, target] -= 1.0
        a.accumulate(g * d / len(target))

    out.backward = backward
    return out


def _toposort(root: _Node) -> list[_Node]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents if id(p) not in seen)
    return order


class Probe:
    """A fixed 3-layer tanh network's forward and backward on a 12 x 32
    input, built on a throw-away tape, run PROBE_STEPS times."""

    def __init__(self, d: int = 32, rows: int = 12, layers: int = 3) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((rows, d))
        self.target = rng.integers(0, d, rows)
        self.weights = [rng.standard_normal((d, d)) * 0.2 for _ in range(layers)]
        self.biases = [rng.standard_normal((1, d)) * 0.1 for _ in range(layers)]

    def step(self) -> float:
        h = _Node(self.x)
        for w, b in zip(self.weights, self.biases):
            h = _tanh(_add_row(_matmul(h, _Node(w)), _Node(b)))
        loss = _cross_entropy(h, self.target)
        loss.grad = np.ones_like(loss.data)
        for node in reversed(_toposort(loss)):
            if node.backward is not None and node.grad is not None:
                node.backward(node.grad)
        return float(loss.data[0, 0])

    def time_ms(self) -> float:
        t0 = time.perf_counter()
        for _ in range(PROBE_STEPS):
            self.step()
        return (time.perf_counter() - t0) * 1000.0


class HostClock:
    """Times consecutive units of work, each scaled by the host's speed.

    ``start()`` opens the first unit and each ``mark()`` closes one and opens
    the next. After a mark, once ``every_s`` seconds of work have passed since
    the last probe, the probe runs; the units since the last probe form a
    block. ``stop()`` closes the last unit and block, and scales each block by
    ``NOMINAL_PROBE_MS`` over the median of three probes: the one after it
    and its two neighbours (the nearest three at either end), so that one
    disturbed probe moves no block. Without a probe, scaled equals raw.
    """

    def __init__(self, probe: Probe | None, every_s: float = 0.1) -> None:
        self.probe = probe
        self.every_s = every_s
        self.raw: list[float] = []       # seconds per unit, as measured
        self.scaled: list[float] = []    # seconds per unit at nominal host speed
        self.probes_ms: list[float] = []
        self._blocks: list[list[float]] = []
        self._last = self._block_start = 0.0

    def start(self) -> None:
        self._blocks = [[]]
        self._last = self._block_start = time.perf_counter()

    def mark(self) -> None:
        now = time.perf_counter()
        self._blocks[-1].append(now - self._last)
        self._last = now
        if self.probe is not None and now - self._block_start >= self.every_s:
            self._probe()
            self._blocks.append([])
            self._last = self._block_start = time.perf_counter()

    def stop(self) -> None:
        self._blocks[-1].append(time.perf_counter() - self._last)
        if self.probe is not None:
            self._probe()
        probes = self.probes_ms
        for i, block in enumerate(self._blocks):
            factor = 1.0
            if self.probe is not None:
                lo = min(max(0, i - 1), max(0, len(probes) - 3))
                factor = NOMINAL_PROBE_MS / statistics.median(probes[lo:lo + 3])
            self.raw.extend(block)
            self.scaled.extend(x * factor for x in block)

    def _probe(self) -> None:
        self.probes_ms.append(self.probe.time_ms())
