import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import logsumexp

from planted_bipartite import rng
from planted_bipartite import (
    BudgetError,
    ParameterError,
    ProblemShape,
    risk_lower_bound,
    second_moment_exact,
    second_moment_exp_bounds,
    second_moment_summary,
    tv_exact,
)
from planted_bipartite.rates import log_binom
from oracles import second_moment_bruteforce


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

    @pytest.mark.parametrize("seed", range(4))
    def test_binomial_matches_reference(self, seed):
        rnd = np.random.default_rng(seed)
        for _ in range(50):
            n1, n2 = (int(n) for n in rnd.choice([2, 3, 6, 10, 40, 1000], size=2))
            k1 = int(rnd.integers(1, min(n1, 40) // 2 + 1))
            k2 = int(rnd.integers(1, min(n2, 40) // 2 + 1))
            p0 = float(rnd.choice([0.05, 0.25, 0.5]))
            delta = float(rnd.uniform(0.0, 1.0 - p0))
            shape = ProblemShape(n1, n2, k1, k2)
            got = second_moment_exp_bounds(shape, p0, delta)[1]
            assert got == _reference_exp_binomial(shape, p0, delta), (shape, p0, delta)

    def test_binomial_finite_below_float_overflow(self):
        # The log-space sum is 700.39: exp overflows to inf only above 709.78.
        shape, p0, delta = ProblemShape(1000, 1000, 17, 17), 0.25, 0.7375
        got = second_moment_exp_bounds(shape, p0, delta)[1]
        assert got == _reference_exp_binomial(shape, p0, delta)
        assert got == pytest.approx(1.497068e304, rel=1e-6)


def _reference_exp_binomial(shape, p0, delta):
    """E[exp(mu^2 X Y)] for X ~ Bin(k1, k1/(n1-k1)), Y ~ Bin(k2, k2/(n2-k2)):
    the log-pmfs from log_binom and one log-space double sum, exponentiated
    to inf only where math.exp overflows.  Requires 2 k <= n on each axis."""
    mu2 = delta * delta / (p0 * (1.0 - p0))

    def log_pmf(n, p):
        if p == 1.0:
            return np.where(np.arange(n + 1) == n, 0.0, -np.inf)
        return np.array([log_binom(n, k) + k * math.log(p) + (n - k) * math.log1p(-p)
                         for k in range(n + 1)])

    k1, k2 = shape.k1, shape.k2
    terms = (log_pmf(k1, k1 / (shape.n1 - k1))[:, None]
             + log_pmf(k2, k2 / (shape.n2 - k2))[None, :]
             + mu2 * np.outer(np.arange(k1 + 1), np.arange(k2 + 1)))
    val = logsumexp(terms)
    return math.exp(val) if val < math.log(np.finfo(float).max) else math.inf


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
        assert risk_lower_bound(math.inf) == 0.0

    def test_nan_refused(self):
        # max(0.0, nan) is 0.0, so NaN used to read as "no test beats chance".
        with pytest.raises(ParameterError):
            risk_lower_bound(math.nan)


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


def _assert_tv_matches_reference(monkeypatch, shape, p0, delta):
    """tv_exact's double is _reference_tv's at one-row, 127-row, odd and
    default budgets.  The first two give blocks of the 128-row floor, one
    whole leaf of numpy's pairwise sum."""
    row_bytes = 8 * shape.n1 * shape.n2
    want = np.float64(_reference_tv(shape, p0, delta)).view(np.uint64)
    for budget in (row_bytes, 127 * row_bytes, 1001 * row_bytes, rng.BATCH_BYTES):
        with monkeypatch.context() as m:
            m.setattr(rng, "BATCH_BYTES", budget)
            got = np.float64(tv_exact(shape, p0, delta)).view(np.uint64)
        assert got == want, (shape, p0, delta, budget)


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
        # Bit for bit, for one-row, 127-row, odd and default budgets; p1 = 1
        # makes cell values impossible (tv_exact's floor for log 0 against
        # the reference's mask), delta = 0 makes the mixture the null.
        shape = ProblemShape(*dims)
        for p0, delta in [(0.25, 0.064663), (0.2, 0.8), (1e-3, 1 - 1e-3), (0.5, 0.5),
                          (0.1, 0.0)]:
            _assert_tv_matches_reference(monkeypatch, shape, p0, delta)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_small_shapes(self, data):
        """Bit for bit on every shape with n1 n2 <= 12, at p1 = 1 and at a
        random p1."""
        n1 = data.draw(st.integers(1, 12), label="n1")
        n2 = data.draw(st.integers(1, 12 // n1), label="n2")
        shape = ProblemShape(n1, n2, data.draw(st.integers(1, n1), label="k1"),
                             data.draw(st.integers(1, n2), label="k2"))
        p0 = data.draw(st.floats(1e-3, 0.99), label="p0")
        if data.draw(st.booleans(), label="p1 = 1"):
            delta = 1.0 - p0
            assume(p0 + delta == 1.0)
        else:
            delta = data.draw(st.floats(0.0, 1.0 - p0), label="delta")
            assume(p0 + delta < 1.0)
        with pytest.MonkeyPatch.context() as mp:
            _assert_tv_matches_reference(mp, shape, p0, delta)

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

    def test_memory_is_within_budget(self):
        """3x6 walks 2^18 matrices: a whole probability vector alone would be
        4 BATCH_BYTES, while the bit block and its complement, the largest
        arrays tv_exact holds, are 1.125 (1.36 traced in all)."""
        tracemalloc.start()
        try:
            tv_exact(ProblemShape(3, 6, 2, 2), 0.25, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * rng.BATCH_BYTES

    @pytest.mark.parametrize("k", range(7, 19))
    def test_numpy_sum_is_a_tree_of_aligned_leaves(self, k):
        """tv_exact rebuilds np.sum of its 2^cells |P0 - P_mix| terms from
        sums of aligned runs of 128 * 2^j terms, merged left + right like a
        binary counter.  That gives np.sum's double only while numpy sums a
        contiguous float64 vector pairwise, halving it down to leaves of 128
        entries; a numpy that sums another way fails here first."""
        x = np.random.default_rng(k).random(1 << k)
        want = np.float64(x.sum()).view(np.uint64)
        for width in (128 << j for j in range(k - 6)):
            sums = []
            for run in range(len(x) // width):
                run_sum, carry = x[run * width : (run + 1) * width].sum(), run
                while carry & 1:
                    run_sum = sums.pop() + run_sum
                    carry >>= 1
                sums.append(run_sum)
            (got,) = sums
            assert np.float64(got).view(np.uint64) == want, (
                f"np.sum of 2^{k} float64 is not the merge of its {width}-entry leaf "
                "sums, so tv_exact's streamed sum no longer reproduces it")

    def test_bound_consistency(self):
        # 1 - TV is the exact Bayes risk; it must dominate the second-moment
        # lower bound.
        for shape in [ProblemShape(2, 2, 1, 1), ProblemShape(3, 3, 1, 1), ProblemShape(4, 3, 2, 1)]:
            for p0, d in [(0.25, 0.25), (0.1, 0.3)]:
                bayes = 1.0 - tv_exact(shape, p0, d)
                lb = risk_lower_bound(second_moment_exact(shape, p0, d))
                assert bayes >= lb - 1e-10
