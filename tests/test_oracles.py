"""Self-checks for the straight-line reference implementations."""

import numpy as np

from oracles import (
    CHI2_CRIT_999,
    chi_square_stat,
    compare,
    numeric_gradient,
    oracle_attention,
    oracle_cross_entropy,
    oracle_pair_argmax,
)


class TestOracleAttention:
    def test_uniform_attention_analytic_case(self, rng):
        h = rng.normal(size=(3, 4))
        w_v = rng.normal(size=(4, 4))
        out = oracle_attention(h, np.zeros((4, 4)), np.zeros((4, 4)), w_v, np.ones(3, dtype=bool))
        v = h @ w_v
        assert np.allclose(out, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)

    def test_single_token_identity(self, rng):
        h = rng.normal(size=(1, 4))
        w_q, w_k, w_v = (rng.normal(size=(4, 4)) for _ in range(3))
        out = oracle_attention(h, w_q, w_k, w_v, np.ones(1, dtype=bool))
        assert np.allclose(out, h @ w_v, atol=1e-14)


class TestOraclePairArgmax:
    def test_single_position(self):
        assert oracle_pair_argmax(np.array([0.5]), np.array([0.5])) == (0, 0)

    def test_enumeration_on_monotone_scores(self):
        start = np.arange(5.0)
        end = np.arange(5.0)
        best = oracle_pair_argmax(start, end)
        # exhaustive check against an independent enumeration
        want, want_score = None, -np.inf
        for s in range(5):
            for e in range(s, 5):
                if start[s] + end[e] > want_score:
                    want, want_score = (s, e), start[s] + end[e]
        assert best == want == (4, 4)


class TestNumericGradient:
    def test_quadratic(self):
        x = np.array([3.0, -1.0])
        g = numeric_gradient(lambda v: float((v**2).sum()), x)
        assert np.allclose(g, [6.0, -2.0], atol=1e-6)


class TestChiSquare:
    def test_exact_fit_is_zero(self):
        assert chi_square_stat(np.array([10.0, 10.0]), np.array([10.0, 10.0])) == 0.0

    def test_critical_values_available(self):
        assert CHI2_CRIT_999[5] > CHI2_CRIT_999[4] > 0


class TestCompare:
    def test_report_fields(self):
        rep = compare("case", np.array([1.0, 2.0]), np.array([1.0, 2.0 + 1e-12]), 1e-6)
        assert rep.passed and rep.max_abs_error < 1e-11

    def test_cross_entropy_oracle(self):
        val = oracle_cross_entropy(np.zeros(4), 0)
        assert abs(val - np.log(4.0)) < 1e-14
