"""Rate functions for the planted-block detection problem.

The separation rate is delta*^2 = p0 (1 - p0) R up to constants, where

    psi(k1,k2,n1,n2) = (1/k1) log(1 + (n2/k2^2) log(e C(n1,k1)))
    beta(k1,k2,n1,n2) = (1/k1) log(n2/k2) 1{(n1 k2 / k1^2) log(n2/k2) > 1}
    phi(k1,k2,n1,n2)  = (n1/k1^2) log(1 + n2/k2^2) if n1/k1^2 <= C_phi else inf

and

    R       = (psi12 + psi21) ^ phi12 ^ phi21
    R_tilde = (psi12 + beta21) ^ (psi21 + beta12) ^ phi12 ^ phi21

with the subscript convention f12 = f(k1,k2,n1,n2) and f21 = f(k2,k1,n2,n1).
The argmin of R_tilde selects which test the composite detector runs.
Infinity is represented by math.inf.  log C(n, k) is summed from
binomial_kernel.log_gamma, a port of Cephes `lgam` (the routine that
scipy 1.17's gammaln runs through xsf), so it is the same double that
scipy.special.gammaln gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache

from .binomial_kernel import log_gamma
from .errors import ParameterError
from .graph_model import ProblemShape


@dataclass(frozen=True)
class RateConstants:
    """Tunable constants of the rate and threshold formulas.

    The theory fixes none of these; defaults are desk-scale choices.
    """

    C_phi: float = 8.0
    c1: float = 1.0
    c_delta: float = 0.01
    C_delta: float = 16.0
    C_eta: float = 1.0
    C_star: float = 1.0
    c_prime: float = 1.0
    C_tau: float = 1.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0 < value < math.inf:
                raise ParameterError(f"{field.name} must be finite and positive, got {value}")
        if self.c_delta > self.C_delta:
            raise ParameterError(
                f"c_delta={self.c_delta} must not exceed C_delta={self.C_delta}"
            )


class Branch(Enum):
    """Which sub-test the composite detector dispatches to."""

    MAX_TRUNC_1 = "MAX_TRUNC_1"
    MAX_TRUNC_2 = "MAX_TRUNC_2"
    BRANCH_A = "BRANCH_A"
    BRANCH_B = "BRANCH_B"


@dataclass(frozen=True)
class RateBundle:
    psi12: float
    psi21: float
    beta12: float
    beta21: float
    phi12: float
    phi21: float
    R: float
    R_tilde: float
    branch: Branch


@lru_cache(maxsize=4096)
def log_binom(n: int, k: int) -> float:
    """log C(n, k) via log-gamma, cached."""
    if not 0 <= k <= n:
        raise ParameterError(f"k={k} outside [0, {n}]")
    return log_gamma(n + 1) - log_gamma(k + 1) - log_gamma(n - k + 1)


def psi(k1: int, k2: int, n1: int, n2: int) -> float:
    return math.log1p((n2 / k2**2) * (1.0 + log_binom(n1, k1))) / k1


def beta(k1: int, k2: int, n1: int, n2: int) -> float:
    if k2 == n2:
        return 0.0
    log_ratio = math.log(n2 / k2)
    if (n1 * k2 / k1**2) * log_ratio > 1.0:
        return log_ratio / k1
    return 0.0


def phi(k1: int, k2: int, n1: int, n2: int, consts: RateConstants) -> float:
    if n1 / k1**2 > consts.C_phi:
        return math.inf
    return (n1 / k1**2) * math.log1p(n2 / k2**2)


def rate_bundle(shape: ProblemShape, consts: RateConstants = RateConstants()) -> RateBundle:
    """All six rate components, R, R_tilde, and the argmin branch of R_tilde.

    Exact ties are broken by the fixed precedence
    MAX_TRUNC_1 > MAX_TRUNC_2 > BRANCH_A > BRANCH_B.
    """
    n1, n2, k1, k2 = shape.n1, shape.n2, shape.k1, shape.k2
    p12 = psi(k1, k2, n1, n2)
    p21 = psi(k2, k1, n2, n1)
    b12 = beta(k1, k2, n1, n2)
    b21 = beta(k2, k1, n2, n1)
    f12 = phi(k1, k2, n1, n2, consts)
    f21 = phi(k2, k1, n2, n1, consts)
    R = min(p12 + p21, f12, f21)
    candidates = [
        (p12 + b21, Branch.MAX_TRUNC_1),
        (p21 + b12, Branch.MAX_TRUNC_2),
        (f12, Branch.BRANCH_A),
        (f21, Branch.BRANCH_B),
    ]
    R_tilde = min(v for v, _ in candidates)
    branch = next(br for v, br in candidates if v == R_tilde)
    return RateBundle(p12, p21, b12, b21, f12, f21, R, R_tilde, branch)


def delta_star_bounds(
    shape: ProblemShape, p0: float, consts: RateConstants = RateConstants()
) -> tuple[float, float]:
    """Theoretical sandwich on the separation rate:
    lower = sqrt(c_delta p0 (1-p0) R), upper = min(sqrt(C_delta ...), 1-p0).
    Both clamp to 1 - p0 when R is infinite."""
    if not 0.0 < p0 < 1.0:
        raise ParameterError(f"p0 must lie in (0, 1), got {p0}")
    R = rate_bundle(shape, consts).R
    var = p0 * (1.0 - p0)
    if math.isinf(R):
        return 1.0 - p0, 1.0 - p0
    lower = min(math.sqrt(consts.c_delta * var * R), 1.0 - p0)
    upper = min(math.sqrt(consts.C_delta * var * R), 1.0 - p0)
    return lower, upper


@dataclass(frozen=True)
class DensityReport:
    """Outcome of the density prerequisite for the analyzed tests."""

    branch: Branch
    required_lower: float
    cap_ok: bool
    lower_ok: bool
    satisfied: bool


def density_assumption(
    shape: ProblemShape, p0: float, consts: RateConstants = RateConstants()
) -> DensityReport:
    """Check the branch-dependent lower bound on p0 plus the hard cap
    p0 <= 1/4 under which the tests are analyzed."""
    if not 0.0 < p0 < 1.0:
        raise ParameterError(f"p0 must lie in (0, 1), got {p0}")
    n1, n2, k1, k2 = shape.n1, shape.n2, shape.k1, shape.k2
    branch = rate_bundle(shape, consts).branch
    if branch in (Branch.MAX_TRUNC_1, Branch.MAX_TRUNC_2):
        required = (consts.C_eta / (k1 * k2)) * (
            1.0 + log_binom(n1, k1) + log_binom(n2, k2)
        )
    elif branch is Branch.BRANCH_A and n2 > k2**2:
        required = (consts.C_eta / n1) * math.log1p(n2 / k2**2)
    elif branch is Branch.BRANCH_B and n1 > k1**2:
        required = (consts.C_eta / n2) * math.log1p(n1 / k1**2)
    else:
        required = consts.C_eta / (n1 * n2)
    cap_ok = p0 <= 0.25
    lower_ok = p0 >= required
    return DensityReport(branch, required, cap_ok, lower_ok, cap_ok and lower_ok)
