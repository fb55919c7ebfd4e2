import math

import pytest

from planted_bipartite import (
    Branch,
    ParameterError,
    ProblemShape,
    RateConstants,
    beta,
    delta_star_bounds,
    density_assumption,
    log_binom,
    phi,
    psi,
    rate_bundle,
)
from oracles import psi_appendix_variant


class TestLogBinom:
    def test_zero(self):
        assert log_binom(7, 0) == 0.0

    def test_small(self):
        assert log_binom(4, 2) == pytest.approx(math.log(6), rel=1e-12)

    def test_large_integer_oracle(self):
        assert log_binom(100, 10) == pytest.approx(math.log(math.comb(100, 10)), rel=1e-10)

    def test_domain(self):
        with pytest.raises(ParameterError):
            log_binom(4, 5)


class TestPsi:
    def test_reference_value(self):
        # (1/10) log(1 + log(e C(100,10))); note the commonly quoted
        # 0.348117 is a rounding of this exact value.
        exact = math.log1p(1.0 + log_binom(100, 10)) / 10
        assert psi(10, 10, 100, 100) == pytest.approx(exact, rel=1e-12)
        assert psi(10, 10, 100, 100) == pytest.approx(0.348117, abs=1e-4)

    def test_full_shape(self):
        n = 8
        assert psi(n, n, n, n) == pytest.approx(math.log1p((1 / n) * 1.0) / n, rel=1e-12)

    def test_monotone_bound_large_k2(self):
        val = psi(5, 10**4, 50, 10**2)  # k2^2 = 1e8 >= 1e6 * n2
        cap = math.log1p(1e-6 * (1.0 + log_binom(50, 5))) / 5
        assert val <= cap + 1e-15

    def test_nonincreasing_in_k2(self):
        vals = [psi(10, k2, 100, 100) for k2 in range(1, 101)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestBeta:
    def test_indicator_on(self):
        assert beta(10, 10, 100, 100) == pytest.approx(math.log(10) / 10, rel=1e-12)

    def test_indicator_off(self):
        assert beta(10, 1, 10, 2) == 0.0

    def test_k2_equals_n2(self):
        assert beta(3, 7, 9, 7) == 0.0


class TestPhi:
    def test_finite(self):
        c = RateConstants(C_phi=10)
        assert phi(10, 10, 100, 100, c) == pytest.approx(math.log(2), rel=1e-12)

    def test_infinite(self):
        c = RateConstants(C_phi=10)
        assert math.isinf(phi(1, 10, 100, 100, c))

    def test_k1_equals_n1(self):
        c = RateConstants()
        n1 = 50
        v = phi(n1, 4, n1, 20, c)
        assert v == pytest.approx((1 / n1) * math.log1p(20 / 16), rel=1e-12)


class TestRateBundle:
    def test_reference_shape(self):
        # R = min(2 psi, ln 2, ln 2) = ln 2; the R_tilde argmin is
        # psi12 + beta21 = 0.578..., so the branch is MAX_TRUNC_1.
        rb = rate_bundle(ProblemShape(100, 100, 10, 10), RateConstants(C_phi=10))
        assert rb.R == pytest.approx(math.log(2), rel=1e-12)
        assert rb.R_tilde == pytest.approx(rb.psi12 + rb.beta21, rel=1e-12)
        assert rb.branch is Branch.MAX_TRUNC_1

    def test_min_contract(self):
        for shape in [
            ProblemShape(100, 100, 10, 10),
            ProblemShape(64, 32, 8, 4),
            ProblemShape(200, 50, 14, 7),
        ]:
            rb = rate_bundle(shape)
            assert rb.R <= rb.psi12 + rb.psi21 + 1e-15
            assert rb.R <= rb.phi12 and rb.R <= rb.phi21
            for arm in (rb.psi12 + rb.beta21, rb.psi21 + rb.beta12, rb.phi12, rb.phi21):
                assert rb.R_tilde <= arm + 1e-15

    def test_swap_symmetry(self):
        for shape in [ProblemShape(64, 32, 8, 4), ProblemShape(100, 100, 10, 10)]:
            rb = rate_bundle(shape)
            rs = rate_bundle(shape.swapped())
            assert rb.R == rs.R
            assert rb.psi12 == rs.psi21 and rb.beta12 == rs.beta21
            assert rb.phi12 == rs.phi21

    def test_full_shape_phi(self):
        shape = ProblemShape(16, 16, 16, 16)
        rb = rate_bundle(shape)
        assert rb.phi12 == pytest.approx((1 / 16) * math.log1p(16 / 256), rel=1e-12)
        assert rb.R <= rb.phi12

    def test_symmetric_tie_precedence(self):
        rb = rate_bundle(ProblemShape(64, 64, 8, 8))
        # symmetric shape: psi12+beta21 == psi21+beta12; precedence picks 1
        if rb.branch in (Branch.MAX_TRUNC_1, Branch.MAX_TRUNC_2):
            assert rb.branch is Branch.MAX_TRUNC_1

    def test_monotone_in_community_size(self):
        base = ProblemShape(256, 256, 8, 8)
        r_prev = rate_bundle(base).R
        for k in (12, 16, 24, 32, 48, 64):
            r = rate_bundle(ProblemShape(256, 256, k, 8)).R
            assert r <= r_prev + 1e-12
            r_prev = r
        r_prev = rate_bundle(base).R
        for k in (12, 16, 24, 32, 48, 64):
            r = rate_bundle(ProblemShape(256, 256, 8, k)).R
            assert r <= r_prev + 1e-12
            r_prev = r


class TestDeltaStarBounds:
    def test_reference(self):
        lower, upper = delta_star_bounds(
            ProblemShape(100, 100, 10, 10), 0.25, RateConstants(C_phi=10)
        )
        assert lower == pytest.approx(0.036053, abs=1e-5)
        assert upper == 0.75

    def test_order(self):
        for shape in [ProblemShape(64, 64, 16, 16), ProblemShape(100, 100, 10, 10)]:
            for p0 in (0.1, 0.25):
                lower, upper = delta_star_bounds(shape, p0)
                assert 0.0 <= lower <= upper <= 1.0 - p0

    def test_infinite_rate_clamp(self):
        # k1 = 1 with large n1 makes phi12 infinite but R can stay finite
        # through psi; force R = inf with both phis infinite and huge psi? Not
        # reachable: psi is always finite. Instead verify the clamp to 1 - p0.
        shape = ProblemShape(4, 4, 1, 1)
        lower, upper = delta_star_bounds(shape, 0.25, RateConstants(C_delta=10**6))
        assert upper == 0.75 and lower <= upper


class TestDensityAssumption:
    def test_hard_cap(self):
        rep = density_assumption(ProblemShape(64, 64, 8, 8), 0.3)
        assert not rep.cap_ok and not rep.satisfied

    def test_psi_branch_requirement(self):
        rep = density_assumption(ProblemShape(64, 64, 8, 8), 0.25)
        assert rep.branch in (Branch.MAX_TRUNC_1, Branch.MAX_TRUNC_2)
        assert rep.required_lower == pytest.approx(0.7097, abs=2e-4)
        assert not rep.satisfied

    def test_otherwise_branch_satisfied(self):
        rep = density_assumption(ProblemShape(10**4, 10**4, 10**2, 10**2), 0.25)
        assert rep.satisfied
        assert rep.required_lower <= 0.25


class TestPsiAppendixVariant:
    def test_reference(self):
        assert psi_appendix_variant(10, 10, 100, 100) == pytest.approx(
            math.log1p(10 * math.log(10)) / 10, rel=1e-12
        )
        assert psi_appendix_variant(10, 10, 100, 100) == pytest.approx(0.317913, abs=1e-6)

    def test_k1_equals_n1(self):
        assert psi_appendix_variant(10, 4, 10, 100) == 0.0

    def test_ratio_bracket(self):
        for n in (64, 256, 1024, 4096):
            k_lo = int(math.isqrt(n))
            ks = sorted({k_lo, 2 * k_lo, n // 8, n // 4})
            for k in ks:
                if k < 2 or k > n // 4:
                    continue
                a = psi(k, k, n, n)
                b = psi_appendix_variant(k, k, n, n)
                assert 0.25 <= a / b <= 4.0
