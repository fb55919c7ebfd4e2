import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammaln
from scipy.special import logsumexp as scipy_logsumexp

from planted_bipartite import binomial_kernel
from planted_bipartite import (
    BennettKernel,
    EmptyConditionError,
    ParameterError,
    binomial_tail,
    gamma,
    log_binom,
    nu,
    w_stat,
    z_threshold_to_count,
)
from oracles import bennett_h, conditional_moment_reference


class TestBennettH:
    def test_zero(self):
        assert bennett_h(0.0) == 0.0

    def test_minus_one(self):
        assert bennett_h(-1.0) == 1.0

    def test_one(self):
        assert bennett_h(1.0) == pytest.approx(2 * math.log(2) - 1, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            bennett_h(-1.0001)

    @given(st.floats(min_value=-1.0, max_value=50.0, allow_nan=False))
    def test_nonnegative(self, x):
        assert bennett_h(x) >= 0.0

    def test_continuous_at_minus_one(self):
        assert bennett_h(-1 + 1e-9) == pytest.approx(1.0, abs=1e-6)


class TestWStat:
    def test_zero_at_mean(self):
        k = BennettKernel(4, 0.25)
        assert w_stat(1, k) == 0.0

    def test_at_n(self):
        k = BennettKernel(4, 0.25)
        assert w_stat(4, k) == pytest.approx(4 * math.log(4), rel=1e-12)

    def test_two_term_value(self):
        k = BennettKernel(4, 0.25)
        assert w_stat(2, k) == pytest.approx(4 * math.log(2) - 2 * math.log(3), rel=1e-12)

    def test_at_zero(self):
        k = BennettKernel(10, 0.3)
        assert w_stat(0, k) == pytest.approx(10 * math.log(1 / 0.7), rel=1e-12)

    def test_bennett_form_equivalence(self):
        # w(y) = n(1-p) h_B(-(y-np)/(n(1-p))) + np h_B((y-np)/(np))
        for n, p in [(7, 0.3), (20, 0.1), (4, 0.25)]:
            k = BennettKernel(n, p)
            for y in range(n + 1):
                d = y - n * p
                ref = n * (1 - p) * bennett_h(-d / (n * (1 - p))) + n * p * bennett_h(d / (n * p))
                assert w_stat(y, k) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_increasing_above_mean(self):
        k = BennettKernel(30, 0.2)
        ys = np.arange(math.ceil(k.mean), 31)
        vals = w_stat(ys, k)
        assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        k = BennettKernel(4, 0.25)
        with pytest.raises(ParameterError):
            w_stat(5, k)
        with pytest.raises(ParameterError):
            w_stat(-1, k)


class TestThresholdCount:
    def test_basic(self):
        assert z_threshold_to_count(0.0, BennettKernel(10, 0.25)) == 3

    def test_one_sigma(self):
        assert z_threshold_to_count(1.0, BennettKernel(10, 0.25)) == 4

    def test_integer_lattice(self):
        k = BennettKernel(4, 0.25)
        a = 1.0 / k.sigma  # n p0 + a sigma = 2 exactly
        assert z_threshold_to_count(a, k) == 2

    def test_negative_a(self):
        with pytest.raises(ParameterError):
            z_threshold_to_count(-0.5, BennettKernel(10, 0.25))


class TestNuGamma:
    def test_single_atom(self):
        k = BennettKernel(5, 0.2)
        a = (5 - k.mean) / k.sigma
        assert nu(a, k) == pytest.approx(5 * math.log(1 / 0.2), rel=1e-12)
        assert gamma(a, k) == pytest.approx((5 * math.log(1 / 0.2)) ** 2, rel=1e-12)

    def test_nu_enumeration(self):
        # exact: (P(1) w(1) + P(2) w(2)) / P(Y >= 1) for Bin(2, 0.25)
        w1, w2 = math.log(4 / 3), 2 * math.log(4)
        exact = (0.375 * w1 + 0.0625 * w2) / 0.4375
        assert nu(0.0, BennettKernel(2, 0.25)) == pytest.approx(exact, rel=1e-12)
        assert nu(0.0, BennettKernel(2, 0.25)) == pytest.approx(0.642670, abs=5e-6)

    def test_nu_bin4(self):
        assert nu(1.0, BennettKernel(4, 0.25)) == pytest.approx(0.940023, abs=1e-6)

    def test_jensen(self):
        for n, p, a in [(10, 0.25, 0.5), (50, 0.2, 1.5), (200, 0.1, 2.0)]:
            k = BennettKernel(n, p)
            assert gamma(a, k) >= nu(a, k) ** 2 - 1e-12

    def test_empty_condition(self):
        k = BennettKernel(5, 0.2)
        with pytest.raises(EmptyConditionError):
            nu(100.0, k)

    @settings(max_examples=300)
    @given(st.integers(1, 600), st.floats(1e-3, 1 - 1e-3), st.floats(0.0, 4.0))
    def test_tables_match_per_call_sums(self, n, p0, a):
        """nu and gamma, summed over slices of the kernel's cached tables and
        the one grown table of log y!, give the per-call sums' doubles; the
        hypothesis draws grow that table in random order."""
        for power, func in ((1, nu), (2, gamma)):
            want = conditional_moment_reference(a, BennettKernel(n, p0), power)
            if want is None:
                with pytest.raises(EmptyConditionError):
                    func(a, BennettKernel(n, p0))
                continue
            for _ in range(2):
                got = func(a, BennettKernel(n, p0))
                assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_monte_carlo_oracle(self):
        k = BennettKernel(50, 0.2)
        rng = np.random.default_rng(12345)
        ys = rng.binomial(50, 0.2, size=1_000_000)
        kmin = z_threshold_to_count(1.5, k)
        sel = ys[ys >= kmin]
        ws = w_stat(sel, k)
        for moment, func in [(ws, nu), (ws**2, gamma)]:
            mc = moment.mean()
            se = moment.std(ddof=1) / math.sqrt(len(moment))
            assert abs(func(1.5, k) - mc) <= 4 * se


class TestBinomialTail:
    def test_simple(self):
        assert binomial_tail(1, 2, 0.5) == pytest.approx(0.75, rel=1e-12)

    def test_sum_oracle(self):
        assert binomial_tail(4, 10, 0.25) == pytest.approx(0.2241249, abs=1e-7)

    def test_bounds(self):
        assert binomial_tail(0, 7, 0.3) == 1.0
        assert binomial_tail(8, 7, 0.3) == 0.0

    def test_domain(self):
        with pytest.raises(ParameterError):
            binomial_tail(9, 7, 0.3)
        with pytest.raises(ParameterError):
            binomial_tail(-1, 7, 0.3)

    @pytest.mark.parametrize("k,n,p", [
        (0, 10, 5.0), (0, 10, -0.5), (0, 10, math.nan), (11, 10, math.nan),
        (5, 10, math.nan), (0, -1, 0.3), (1, -2, 0.3),
    ])
    def test_arguments_checked_before_edges(self, k, n, p):
        # k = 0 and k = n + 1 have fixed answers, but only for a valid n and p.
        with pytest.raises(ParameterError):
            binomial_tail(k, n, p)

    def test_exact_vs_integer_arithmetic(self):
        # exact rational oracle at p = 1/4
        from fractions import Fraction

        n, p = 12, Fraction(1, 4)
        for k in range(n + 2):
            exact = sum(
                math.comb(n, y) * p**y * (1 - p) ** (n - y) for y in range(k, n + 1)
            )
            assert binomial_tail(k, n, 0.25) == pytest.approx(float(exact), rel=1e-12)


class TestKernelInvariants:
    GRID = [(n, p) for n in (10, 100, 1000) for p in (0.05, 0.1, 0.25)]

    def test_quadratic_upper(self):
        for n, p in self.GRID:
            k = BennettKernel(n, p)
            ys = np.arange(n + 1)
            assert np.all(w_stat(ys, k) <= (ys - k.mean) ** 2 / k.sigma**2 + 1e-9)

    def test_quadratic_lower_near_mean(self):
        for n, p in self.GRID:
            k = BennettKernel(n, p)
            ys = np.arange(n + 1)
            mask = (ys >= k.mean) & (ys <= k.mean + 0.05 * k.sigma**2)
            if mask.any():
                lhs = w_stat(ys[mask], k)
                rhs = (ys[mask] - k.mean) ** 2 / (8 * k.sigma**2)
                assert np.all(lhs >= rhs - 1e-12)

    def test_growth_bracket(self):
        for n, p in self.GRID:
            k = BennettKernel(n, p)
            ys = np.arange(n + 1)
            mask = ys >= k.mean + k.sigma**2
            if mask.any():
                z = (ys[mask] - k.mean) / k.sigma
                ratio = w_stat(ys[mask], k) / (k.sigma * z * np.log1p(z / k.sigma))
                assert np.all((ratio >= 1 / 20) & (ratio <= 20))

    def test_bernstein(self):
        for n, p in self.GRID:
            k = BennettKernel(n, p)
            for y in range(int(math.ceil(k.mean)) + 1, n + 1):
                t = (y - k.mean) / k.sigma
                bound = math.exp(-(t * t / 2) / (1 + t / (3 * k.sigma)))
                assert binomial_tail(y, n, p) <= bound * (1 + 1e-12)

    def test_scale_bounds_recorded(self):
        # nu_a <= C_bar sigma a log(1+a/sigma) and the gamma analogue on
        # a in [1, sigma]; C_bar recorded here must stay finite and modest.
        c_bar = 0.0
        for n in (10, 50, 200):
            for p in (0.1, 0.25):
                k = BennettKernel(n, p)
                for a in np.linspace(1.0, k.sigma, 8):
                    base = k.sigma * a * math.log1p(a / k.sigma)
                    c_bar = max(c_bar, nu(a, k) / base, gamma(a, k) / (base * a * math.log1p(a / k.sigma)))
        assert c_bar < 40.0


# scipy 1.17 computes logsumexp by the steps that binomial_kernel.logsumexp
# ports, so there the two agree bit for bit.  An older scipy (CI's Python
# 3.10 job installs one) may take log(sum(exp(a - max))) + max in one pass;
# against it the port is held to a few rounding errors, 1e-13 relative and
# absolute.
_SCIPY_BITWISE = tuple(int(p) for p in scipy.__version__.split(".")[:2]) >= (1, 17)


@st.composite
def _log_terms(draw):
    """1-D and 2-D arrays of magnitudes up to 1e3, with ties at the maximum,
    some -inf entries, all -inf, or some +inf."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=12))
    a = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))).copy()
    flat = a.reshape(-1)
    cells = st.lists(st.integers(0, flat.size - 1), max_size=4)
    flat[draw(cells)] = flat.max()
    special = draw(st.sampled_from(["none", "-inf", "all -inf", "+inf"]))
    if special == "all -inf":
        flat[:] = -math.inf
    elif special != "none":
        flat[draw(cells)] = float(special)
    return a


class TestLogsumexp:
    @settings(max_examples=400)
    @given(_log_terms())
    def test_matches_scipy(self, a):
        got, want = binomial_kernel.logsumexp(a), float(scipy_logsumexp(a))
        if _SCIPY_BITWISE:
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), (got, want)
        else:
            assert math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-13), (got, want)

    def test_edges(self):
        lse = binomial_kernel.logsumexp
        assert lse(np.array([0.0, 0.0])) == math.log(2.0)
        assert lse(np.full((2, 3), -math.inf)) == -math.inf
        assert lse(np.array([1.0, math.inf, -math.inf])) == math.inf


# scipy.special.gammaln runs Cephes lgam, which binomial_kernel.log_gamma
# ports; scipy 1.17 (through xsf) is the build it was checked against bit
# for bit.  Against an older scipy, whose compiler may round a step
# differently, log_gamma is held to 4 units in the last place.
def _assert_log_gamma_matches(xs):
    xs = np.asarray(xs, dtype=np.float64)
    got = np.array([binomial_kernel.log_gamma(x) for x in xs.tolist()])
    want = gammaln(xs)
    if _SCIPY_BITWISE:
        bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    else:
        bad = np.flatnonzero(~((got == want) | (np.abs(got - want) <= 4 * np.spacing(np.abs(want)))))
    assert len(bad) == 0, [(xs[i], got[i], want[i]) for i in bad[:5]]


class TestLogGamma:
    def test_integers(self):
        _assert_log_gamma_matches(np.arange(1, 50_001))

    def test_branch_edges(self):
        above_max = np.nextafter(2.556348e305, math.inf)
        _assert_log_gamma_matches([12.999999999, 13.0, 999.0, 1000.0, 1e8, 1e8 + 1,
                                   2.556348e305, above_max])
        _assert_log_gamma_matches(2.0 ** np.arange(1, 1024))
        assert binomial_kernel.log_gamma(above_max) == math.inf

    @settings(max_examples=1000)
    @given(st.floats(min_value=0.0, max_value=1e12, exclude_min=True))
    def test_matches_scipy(self, x):
        _assert_log_gamma_matches([x])

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.inf, -math.inf, math.nan])
    def test_refuses_outside_domain(self, x):
        with pytest.raises(ParameterError):
            binomial_kernel.log_gamma(x)

    @settings(max_examples=300)
    @given(st.integers(0, 10**7).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_log_binom_is_the_gammaln_formula(self, nk):
        n, k = nk
        want = float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))
        got = log_binom(n, k)
        if _SCIPY_BITWISE:
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), (n, k)
        else:
            assert math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-13 * (1 + gammaln(n + 1)))

    @settings(max_examples=200)
    @given(st.integers(1, 3000), st.floats(1e-6, 1 - 1e-6))
    def test_log_pmf_is_the_gammaln_formula(self, n, p0):
        y = np.arange(n + 1, dtype=np.float64)
        want = (gammaln(n + 1.0) - gammaln(y + 1.0) - gammaln(n - y + 1.0)
                + y * math.log(p0) + (n - y) * math.log1p(-p0))
        got = BennettKernel(n, p0).log_pmf(np.arange(n + 1))
        if _SCIPY_BITWISE:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        else:
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * (1 + gammaln(n + 1.0)))

    @pytest.mark.parametrize("y", [[-1], [11], [0, 2.5], [math.nan]],
                             ids=["negative", "above n", "not integer", "nan"])
    def test_log_pmf_refuses_counts_off_the_support(self, y):
        with pytest.raises(ParameterError):
            BennettKernel(10, 0.25).log_pmf(np.array(y))


def test_src_imports_nothing_from_scipy():
    """scipy is a test-only oracle: no package module imports it."""
    names = set()
    for path in sorted(Path(binomial_kernel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            names |= {(path.name, m) for m in modules if m.split(".")[0] == "scipy"}
    assert not names, sorted(names)
