import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from planted_bipartite import rng
from planted_bipartite import (
    BudgetError,
    ParameterError,
    ProblemShape,
    risk_lower_bound,
    second_moment_bruteforce,
    second_moment_exact,
    second_moment_exp_bounds,
    second_moment_summary,
    tv_exact,
)


class TestSecondMomentExact:
    def test_delta_zero(self):
        assert second_moment_exact(ProblemShape(5, 5, 2, 2), 0.25, 0.0) == 1.0

    def test_tiny_closed_form(self):
        # n1=n2=2, k1=k2=1, mu^2 = 1/3: (12 + 4*(4/3))/16
        v = second_moment_exact(ProblemShape(2, 2, 1, 1), 0.25, 0.25)
        assert v == pytest.approx(13 / 12, rel=1e-12)

    def test_matches_bruteforce(self):
        for p0, delta in [(0.25, 0.1), (0.25, 0.25), (0.1, 0.3)]:
            shape = ProblemShape(6, 6, 2, 2)
            a = second_moment_exact(shape, p0, delta)
            b = second_moment_bruteforce(shape, p0, delta)
            assert a == pytest.approx(b, abs=1e-10)

    def test_monotone_in_delta(self):
        shape = ProblemShape(6, 5, 2, 2)
        vals = [second_moment_exact(shape, 0.25, d) for d in (0.0, 0.1, 0.2, 0.3, 0.5)]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


class TestBruteforce:
    def test_delta_zero(self):
        assert second_moment_bruteforce(ProblemShape(3, 3, 1, 1), 0.25, 0.0) == 1.0

    def test_tiny(self):
        v = second_moment_bruteforce(ProblemShape(2, 2, 1, 1), 0.25, 0.25)
        assert v == pytest.approx(13 / 12, rel=1e-12)

    def test_budget(self):
        with pytest.raises(BudgetError):
            second_moment_bruteforce(ProblemShape(40, 40, 10, 10), 0.25, 0.1)


class TestExpBounds:
    def test_delta_zero(self):
        h, b = second_moment_exp_bounds(ProblemShape(4, 4, 2, 2), 0.25, 0.0)
        assert h == pytest.approx(1.0, rel=1e-12)
        assert b == pytest.approx(1.0, rel=1e-12)

    def test_tiny_values(self):
        h, b = second_moment_exp_bounds(ProblemShape(2, 2, 1, 1), 0.25, 0.25)
        assert h == pytest.approx((3 + math.exp(1 / 3)) / 4, rel=1e-12)
        assert b == pytest.approx(math.exp(1 / 3), rel=1e-12)

    def test_chain_ordering(self):
        shape = ProblemShape(2, 2, 1, 1)
        exact = second_moment_exact(shape, 0.25, 0.25)
        h, b = second_moment_exp_bounds(shape, 0.25, 0.25)
        assert 1.0 <= exact <= h <= b

    def test_binomial_undefined_is_inf(self):
        _, b = second_moment_exp_bounds(ProblemShape(2, 4, 2, 1), 0.25, 0.1)
        assert math.isinf(b)


class TestRiskLowerBound:
    def test_one(self):
        assert risk_lower_bound(1.0) == 1.0

    def test_two(self):
        assert risk_lower_bound(2.0) == 0.5

    def test_reference(self):
        assert risk_lower_bound(13 / 12) == pytest.approx(0.855662, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ParameterError):
            risk_lower_bound(0.9)
        assert risk_lower_bound(1.0 - 1e-13) == 1.0

    def test_clamped(self):
        assert risk_lower_bound(10.0) == 0.0


class TestSummary:
    def test_fields(self):
        res = second_moment_summary(ProblemShape(2, 2, 1, 1), 0.25, 0.25)
        assert res.mu2 == pytest.approx(1 / 3, rel=1e-12)
        assert res.exact == pytest.approx(13 / 12, rel=1e-12)
        assert res.risk_lb == pytest.approx(0.855662, abs=1e-6)
        assert 1.0 <= res.exact <= res.exp_hypergeom <= res.exp_binomial


def _reference_tv(shape, p0, delta):
    """The whole-matrix enumeration tv_exact replaced: one (2^cells, cells)
    bit matrix and four matrix-vector products per support."""
    cells = shape.n1 * shape.n2
    p1 = p0 + delta
    codes = np.arange(1 << cells, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(cells)) & 1).astype(np.float64)
    with np.errstate(divide="ignore"):
        lp0, lq0 = np.log(p0), np.log(1.0 - p0)
        lp1, lq1 = np.log(p1), np.log(1.0 - p1)

    def matrix_probs(on_mask):
        a = np.where(on_mask, lp1, lp0)
        b = np.where(on_mask, lq1, lq0)
        with np.errstate(invalid="ignore"):
            logp = bits @ np.where(np.isneginf(a), 0.0, a) + (1.0 - bits) @ np.where(
                np.isneginf(b), 0.0, b
            )
        impossible = (bits @ np.isneginf(a).astype(float)) + (
            (1.0 - bits) @ np.isneginf(b).astype(float)
        )
        out = np.exp(logp)
        out[impossible > 0] = 0.0
        return out

    prob0 = matrix_probs(np.zeros(cells, dtype=bool))
    prob_mix = np.zeros_like(prob0)
    n_sup = 0
    for K1 in combinations(range(shape.n1), shape.k1):
        row_mask = np.zeros(shape.n1, dtype=bool)
        row_mask[list(K1)] = True
        for K2 in combinations(range(shape.n2), shape.k2):
            col_mask = np.zeros(shape.n2, dtype=bool)
            col_mask[list(K2)] = True
            prob_mix += matrix_probs(np.outer(row_mask, col_mask).reshape(-1))
            n_sup += 1
    prob_mix /= n_sup
    return 0.5 * float(np.abs(prob0 - prob_mix).sum())


class TestTvExact:
    def test_delta_zero(self):
        assert tv_exact(ProblemShape(2, 2, 1, 1), 0.25, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_single_edge(self):
        for p0, d in [(0.25, 0.3), (0.1, 0.5)]:
            assert tv_exact(ProblemShape(1, 1, 1, 1), p0, d) == pytest.approx(d, rel=1e-12)

    def test_delta_at_range_edge(self):
        # delta may exceed 1 - p0 by a rounding slack; p1 is then 1, not NaN.
        tv = tv_exact(ProblemShape(1, 1, 1, 1), 0.25, 0.75 + 5e-13)
        assert tv == pytest.approx(0.75, rel=1e-12)

    def test_budget(self):
        with pytest.raises(BudgetError):
            tv_exact(ProblemShape(5, 5, 2, 2), 0.25, 0.1)
        # The budget is checked before anything is allocated: 2^64 matrices
        # could not be.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                tv_exact(ProblemShape(8, 8, 2, 2), 0.25, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 2, 1, 1), (2, 5, 1, 2), (3, 3, 3, 3),
                                      (3, 4, 2, 2), (4, 4, 1, 3)],
                             ids=lambda d: "x".join(map(str, d)))
    def test_blocks_match_reference(self, monkeypatch, dims):
        # Bit for bit, for one-row, odd and default budgets; p1 = 1 makes
        # cell values impossible, delta = 0 makes the mixture the null.
        shape = ProblemShape(*dims)
        row_bytes = 8 * shape.n1 * shape.n2
        for p0, delta in [(0.25, 0.064663), (0.2, 0.8), (0.1, 0.0)]:
            want = np.float64(_reference_tv(shape, p0, delta)).view(np.uint64)
            for budget in (row_bytes, 1001 * row_bytes, rng.BATCH_BYTES):
                with monkeypatch.context() as m:
                    m.setattr(rng, "BATCH_BYTES", budget)
                    got = np.float64(tv_exact(shape, p0, delta)).view(np.uint64)
                assert got == want, (p0, delta, budget)

    def test_memory_is_bounded(self):
        # 4x4 walks 2^16 matrices; the whole bit matrix and its complement
        # alone would be 16 MiB.
        tracemalloc.start()
        try:
            tv_exact(ProblemShape(4, 4, 2, 2), 0.25, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_bound_consistency(self):
        # 1 - TV is the exact Bayes risk; it must dominate the second-moment
        # lower bound.
        for shape in [ProblemShape(2, 2, 1, 1), ProblemShape(3, 3, 1, 1), ProblemShape(4, 3, 2, 1)]:
            for p0, d in [(0.25, 0.25), (0.1, 0.3)]:
                bayes = 1.0 - tv_exact(shape, p0, d)
                lb = risk_lower_bound(second_moment_exact(shape, p0, d))
                assert bayes >= lb - 1e-10
