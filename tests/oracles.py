"""Independent reference implementations used only by the test suite.

Everything here is re-derived straight-line numpy (explicit loops where that
keeps the code obviously correct) with no imports from the production modules,
so agreement between an oracle and the real implementation is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LN_EPS = 1e-5
MASK_NEG = -1.0e9


@dataclass
class OracleReport:
    case: str
    max_abs_error: float
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def compare(case: str, got: np.ndarray, want: np.ndarray, tolerance: float) -> OracleReport:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    abs_err = float(np.max(np.abs(got - want))) if got.size else 0.0
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-12)
    rel_err = float(np.max(np.abs(got - want) / denom)) if got.size else 0.0
    return OracleReport(case=case, max_abs_error=abs_err, max_rel_error=rel_err, tolerance=tolerance)


def _softmax_row(row: np.ndarray) -> np.ndarray:
    shifted = row - row.max()
    e = np.exp(shifted)
    return e / e.sum()


def oracle_attention(
    h_cat: np.ndarray,
    w_q: np.ndarray,
    w_k: np.ndarray,
    w_v: np.ndarray,
    key_mask: np.ndarray,
) -> np.ndarray:
    """Single-head scaled dot-product attention, one score at a time."""
    h_cat = np.asarray(h_cat, dtype=np.float64)
    total, d = h_cat.shape
    q = h_cat @ w_q
    k = h_cat @ w_k
    v = h_cat @ w_v
    scale = 1.0 / np.sqrt(d)
    out = np.zeros_like(h_cat)
    for i in range(total):
        scores = np.empty(total)
        for j in range(total):
            s = 0.0
            for c in range(d):
                s += q[i, c] * k[j, c]
            scores[j] = s * scale + (0.0 if key_mask[j] else MASK_NEG)
        weights = _softmax_row(scores)
        for j in range(total):
            out[i] += weights[j] * v[j]
    return out


def oracle_layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = gain * (row - mu) / np.sqrt(var + LN_EPS) + bias
    return out


def oracle_adapter(h: np.ndarray, layers: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Residual bottleneck stack: LN(relu(h W_up) W_down + h), layer by layer."""
    out = np.asarray(h, dtype=np.float64)
    for w_up, w_down, gain, bias in layers:
        branch = np.maximum(out @ w_up, 0.0) @ w_down
        out = oracle_layer_norm(branch + out, gain, bias)
    return out


def oracle_encoder_forward(
    ids: np.ndarray,
    key_mask: np.ndarray,
    params: dict[str, np.ndarray],
    n_blocks: int,
    n_heads: int,
) -> np.ndarray:
    """Pre-norm transformer encoder forward pass, written flat."""
    ids = np.asarray(ids)
    m = ids.shape[0]
    x = params["encoder.tok_emb"][ids] + params["encoder.pos_emb"][:m]
    d = x.shape[1]
    head_dim = d // n_heads
    for b in range(n_blocks):
        p = f"encoder.block{b}"
        a = oracle_layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        q = a @ params[f"{p}.w_q"] + params[f"{p}.b_q"]
        k = a @ params[f"{p}.w_k"] + params[f"{p}.b_k"]
        v = a @ params[f"{p}.w_v"] + params[f"{p}.b_v"]
        merged = np.zeros((m, d))
        for h in range(n_heads):
            sl = slice(h * head_dim, (h + 1) * head_dim)
            qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
            for i in range(m):
                scores = np.empty(m)
                for j in range(m):
                    scores[j] = qh[i] @ kh[j] / np.sqrt(head_dim) + (0.0 if key_mask[j] else MASK_NEG)
                weights = _softmax_row(scores)
                merged[i, sl] = weights @ vh
        x = x + merged @ params[f"{p}.w_o"] + params[f"{p}.b_o"]
        f = oracle_layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        x = x + np.maximum(f @ params[f"{p}.w_ffn1"] + params[f"{p}.b_ffn1"], 0.0) @ params[f"{p}.w_ffn2"] + params[f"{p}.b_ffn2"]
    return x


def oracle_relation_logits(pooled: np.ndarray, w_cls: np.ndarray) -> np.ndarray:
    pooled = np.asarray(pooled, dtype=np.float64).reshape(-1)
    u = w_cls.shape[1]
    out = np.zeros(u)
    for j in range(u):
        for c in range(pooled.size):
            out[j] += pooled[c] * w_cls[c, j]
    return out


def oracle_entity_scores(
    features: np.ndarray,
    rel_emb: np.ndarray,
    w_down: np.ndarray,
    w_index: np.ndarray,
    position_mask: np.ndarray,
) -> np.ndarray:
    """One entity head: concat -> down-projection -> tanh -> scalar score."""
    features = np.asarray(features, dtype=np.float64)
    rel_emb = np.asarray(rel_emb, dtype=np.float64).reshape(-1)
    m = features.shape[0]
    out = np.zeros(m)
    for i in range(m):
        paired = np.concatenate([features[i], rel_emb])
        out[i] = np.tanh(paired @ w_down) @ w_index.reshape(-1) + position_mask[i]
    return out


def oracle_pair_argmax(start_scores: np.ndarray, end_scores: np.ndarray) -> tuple[int, int]:
    """Exhaustive search for the valid (start <= end) pair with the best summed
    score; ties break toward the lower (start, end)."""
    start_scores = np.asarray(start_scores, dtype=np.float64).reshape(-1)
    end_scores = np.asarray(end_scores, dtype=np.float64).reshape(-1)
    if start_scores.shape != end_scores.shape:
        raise ValueError("score vectors must have equal length")
    best = None
    best_score = -np.inf
    m = start_scores.size
    for s in range(m):
        for e in range(s, m):
            score = start_scores[s] + end_scores[e]
            if score > best_score:
                best_score = score
                best = (s, e)
    if best is None:
        raise ValueError("empty score vectors")
    return best


def oracle_adamw_step(
    p: float,
    grad: float,
    lr: float,
    weight_decay: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> float:
    """One AdamW update on a scalar parameter from zero-initialized moments."""
    m = (1.0 - beta1) * grad
    v = (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1)
    v_hat = v / (1.0 - beta2)
    return p - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p)


def oracle_adamw_rule(
    p: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    grad: np.ndarray | None,
    t: int,
    lr: float,
    weight_decay: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Step ``t`` (from 1) of AdamW on one parameter array ``p`` and its
    moments ``m`` and ``v``, all updated in place, one parameter at a time;
    a parameter that got no gradient (``grad`` None) steps on zeros."""
    g = np.zeros_like(p) if grad is None else grad
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    update = (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    p -= lr * (update + weight_decay * p)


def oracle_cross_entropy(logits: np.ndarray, gold: int) -> float:
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    return float(-np.log(_softmax_row(logits)[gold]))


def oracle_packed_cross_entropy(
    scores: np.ndarray, gold: np.ndarray, lengths: np.ndarray, upstream: float
) -> tuple[float, np.ndarray]:
    """The summed cross entropy of rows of unequal length packed back to back
    in (sum of lengths, 1) ``scores``, and its gradient under the scalar
    ``upstream``, as the rectangular cross entropy computes them once the rows
    are scattered into (n, longest) filled with MASK_NEG."""
    n, longest = len(lengths), int(max(lengths))
    slots = np.concatenate([i * longest + np.arange(m) for i, m in enumerate(lengths)])
    padded = np.full((n * longest, 1), MASK_NEG)
    padded[slots] = scores
    z = padded.reshape(n, longest)
    rows = np.arange(n)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1)
    p = e / total[:, None]
    loss = -(shifted[rows, gold] - np.log(total)).sum()
    d = p.copy()
    d[rows, gold] -= 1.0
    return float(loss), (float(upstream) * d).reshape(n * longest, 1)[slots]


def oracle_report(rows: list[tuple], languages: list[str], relations: list[str]) -> dict:
    """Per-language, overall, macro-average and per-relation metrics of one
    prediction per sentence.

    Each row is (language, gold relation, gold head, gold tail, predicted
    relation, predicted head, predicted tail), with languages and relations
    given by name and spans as (start, end) pairs. With one prediction per
    sentence a wrong one is both a false positive and a false negative, so
    every pooled F1 is the share of sentences that are right.
    """

    def accuracy(right: int, n: int) -> float:
        return right / n if n else 0.0

    def metrics(subset: list[tuple]) -> dict:
        relation = pair = triple = head = tail = bearing = 0
        for _, gold_rel, gold_head, gold_tail, pred_rel, pred_head, pred_tail in subset:
            head_ok = gold_head == pred_head
            tail_ok = gold_tail == pred_tail
            relation += gold_rel == pred_rel
            pair += head_ok and tail_ok
            triple += head_ok and tail_ok and gold_rel == pred_rel
            head += head_ok
            tail += tail_ok
            bearing += gold_rel != relations[0]
        n = len(subset)
        return {
            "relation_f1": accuracy(relation, n),
            "entity_pair_f1": accuracy(pair, n),
            "triple_f1": accuracy(triple, n),
            "head_f1": accuracy(head, n),
            "tail_f1": accuracy(tail, n),
            "n_sentences": n,
            "n_entity_bearing": bearing,
        }

    per_language = {}
    grid = {}
    for code in languages:
        subset = [row for row in rows if row[0] == code]
        if not subset:
            continue
        per_language[code] = metrics(subset)
        grid[code] = {}
        for name in relations:
            support = sum(1 for row in subset if row[1] == name)
            tp = sum(1 for row in subset if row[1] == name and row[4] == name)
            fp = sum(1 for row in subset if row[1] != name and row[4] == name)
            fn = support - tp
            if support:
                grid[code][name] = {"f1": 2.0 * tp / (2 * tp + fp + fn), "support": support}
    macro = {}
    for key in ("relation_f1", "entity_pair_f1", "triple_f1", "head_f1", "tail_f1"):
        values = [m[key] for m in per_language.values()]
        macro[key] = sum(values) / len(values) if values else 0.0
    return {"per_language": per_language, "overall": metrics(rows), "macro_avg": macro, "relation_grid": grid}


def numeric_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar function of a plain numpy array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = f(x)
        flat[i] = orig - step
        f_minus = f(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return g


def chi_square_stat(observed: np.ndarray, expected: np.ndarray) -> float:
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return float(((observed - expected) ** 2 / expected).sum())


# chi-square critical values at significance 0.001, indexed by degrees of freedom
CHI2_CRIT_999 = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 5: 20.52, 6: 22.46, 9: 27.88, 10: 29.59, 14: 36.12, 15: 37.70}


class OracleAlphabetExhausted(Exception):
    """``oracle_word`` found no unused word within its 10,000 tries."""


def oracle_word(syllables: tuple[str, ...], rng: np.random.Generator, used: set[str], n_syl: int) -> str:
    """A new surface word drawn one syllable at a time: 40 tries per syllable
    count, then one syllable longer, for 10,000 tries in all. This is the
    stream the corpus generator's surface bank must reproduce draw for draw."""
    for attempt in range(10000):
        length = n_syl + attempt // 40
        w = "".join(syllables[int(rng.integers(len(syllables)))] for _ in range(length))
        if w not in used:
            used.add(w)
            return w
    raise OracleAlphabetExhausted("surface alphabet exhausted")
