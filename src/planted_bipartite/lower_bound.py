"""Exact Bayes-risk lower bounds at desk scale.

For the uniform prior over planted supports, the likelihood-ratio second
moment has the closed form

    E_0[L^2] = E[(1 + mu^2)^(U V)],   mu^2 = delta^2 / (p0 (1 - p0)),

where U and V are the hypergeometric overlaps of two independent uniform
supports on each axis.  The minimax risk is then at least
1 - (1/2) sqrt(E_0[L^2] - 1).  The module also computes the looser
moment-generating-function bounds E[exp(mu^2 U V)] (hypergeometric, and with
binomial domination) so the slack in the chain is visible, a brute-force
cross-check over all support pairs, and the exact total variation distance
by enumerating every binary matrix on tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import logsumexp

from .errors import BudgetError, ParameterError
from .graph_model import ProblemShape
from .rates import log_binom

BRUTEFORCE_BUDGET = 10**8
TV_BUDGET_BITS = 20


@dataclass(frozen=True)
class SecondMomentResult:
    mu2: float
    exact: float
    exp_hypergeom: float
    exp_binomial: float
    risk_lb: float


def _check_signal(p0: float, delta: float) -> float:
    if not 0.0 < p0 < 1.0:
        raise ParameterError(f"p0 must lie in (0, 1), got {p0}")
    if not 0.0 <= delta <= 1.0 - p0 + 1e-12:
        raise ParameterError(f"delta must lie in [0, 1 - p0], got {delta}")
    return delta * delta / (p0 * (1.0 - p0))


def _overlap_log_pmf(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and log-pmf of U = |K cap K'| for two independent uniform
    k-subsets of [n]: P(U = u) = C(k,u) C(n-k, k-u) / C(n,k)."""
    lo = max(0, 2 * k - n)
    us = np.arange(lo, k + 1)
    logp = np.array(
        [log_binom(k, u) + log_binom(n - k, k - u) - log_binom(n, k) for u in us]
    )
    return us, logp


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where math.exp would overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def second_moment_exact(shape: ProblemShape, p0: float, delta: float) -> float:
    """E[(1 + mu^2)^(U V)] by the exact double sum over overlaps."""
    mu2 = _check_signal(p0, delta)
    if mu2 == 0.0:
        return 1.0
    us, logpu = _overlap_log_pmf(shape.n1, shape.k1)
    vs, logpv = _overlap_log_pmf(shape.n2, shape.k2)
    log_base = math.log1p(mu2)
    terms = logpu[:, None] + logpv[None, :] + np.outer(us, vs) * log_base
    return _exp_or_inf(logsumexp(terms))


def second_moment_bruteforce(shape: ProblemShape, p0: float, delta: float) -> float:
    """Average of (1 + mu^2)^(|K1 cap K1'| |K2 cap K2'|) over all ordered
    pairs of supports, enumerated explicitly."""
    mu2 = _check_signal(p0, delta)
    c1 = math.comb(shape.n1, shape.k1)
    c2 = math.comb(shape.n2, shape.k2)
    if c1 * c1 * c2 * c2 > BRUTEFORCE_BUDGET:
        raise BudgetError(
            f"{c1}^2 * {c2}^2 support pairs exceed budget {BRUTEFORCE_BUDGET}"
        )
    subsets1 = [frozenset(s) for s in combinations(range(shape.n1), shape.k1)]
    subsets2 = [frozenset(s) for s in combinations(range(shape.n2), shape.k2)]
    base = 1.0 + mu2
    # Overlap histograms on each axis; the double sum factorizes through them.
    hist1 = np.zeros(shape.k1 + 1)
    for a in subsets1:
        for b in subsets1:
            hist1[len(a & b)] += 1.0
    hist2 = np.zeros(shape.k2 + 1)
    for a in subsets2:
        for b in subsets2:
            hist2[len(a & b)] += 1.0
    total = 0.0
    for u in range(shape.k1 + 1):
        for v in range(shape.k2 + 1):
            if hist1[u] and hist2[v]:
                total += hist1[u] * hist2[v] * base ** (u * v)
    return total / (c1 * c1 * c2 * c2)


def second_moment_exp_bounds(
    shape: ProblemShape, p0: float, delta: float
) -> tuple[float, float]:
    """(E[exp(mu^2 U V)] with hypergeometric overlaps,
    the same with binomial domination X ~ Bin(k1, k1/(n1-k1)),
    Y ~ Bin(k2, k2/(n2-k2))).  The binomial version is inf when undefined
    (k = n) or when the dominating success probability exceeds 1."""
    mu2 = _check_signal(p0, delta)
    us, logpu = _overlap_log_pmf(shape.n1, shape.k1)
    vs, logpv = _overlap_log_pmf(shape.n2, shape.k2)
    terms = logpu[:, None] + logpv[None, :] + mu2 * np.outer(us, vs)
    exp_hyper = _exp_or_inf(logsumexp(terms))

    exp_binom = math.inf
    n1, n2, k1, k2 = shape.n1, shape.n2, shape.k1, shape.k2
    if k1 < n1 and k2 < n2:
        q1 = k1 / (n1 - k1)
        q2 = k2 / (n2 - k2)
        if q1 <= 1.0 and q2 <= 1.0:
            exp_binom = _exp_binom_product(k1, q1, k2, q2, mu2)
    return exp_hyper, exp_binom


def _binom_log_pmf(n: int, p: float) -> np.ndarray:
    ks = np.arange(n + 1)
    if p == 0.0:
        out = np.full(n + 1, -np.inf)
        out[0] = 0.0
        return out
    if p == 1.0:
        out = np.full(n + 1, -np.inf)
        out[n] = 0.0
        return out
    return np.array(
        [log_binom(n, int(k)) + k * math.log(p) + (n - k) * math.log1p(-p) for k in ks]
    )


def _exp_binom_product(k1: int, q1: float, k2: int, q2: float, mu2: float) -> float:
    logx = _binom_log_pmf(k1, q1)
    logy = _binom_log_pmf(k2, q2)
    xs = np.arange(k1 + 1)
    ys = np.arange(k2 + 1)
    terms = logx[:, None] + logy[None, :] + mu2 * np.outer(xs, ys)
    val = logsumexp(terms)
    return float(math.exp(val)) if val < 700 else math.inf


def risk_lower_bound(second_moment_value: float) -> float:
    """1 - (1/2) sqrt(E_0[L^2] - 1), clamped to [0, 1]."""
    if second_moment_value < 1.0 - 1e-12:
        raise ParameterError(f"second moment must be >= 1, got {second_moment_value}")
    excess = max(0.0, second_moment_value - 1.0)
    return min(1.0, max(0.0, 1.0 - 0.5 * math.sqrt(excess)))


def second_moment_summary(shape: ProblemShape, p0: float, delta: float) -> SecondMomentResult:
    mu2 = _check_signal(p0, delta)
    exact = second_moment_exact(shape, p0, delta)
    exp_h, exp_b = second_moment_exp_bounds(shape, p0, delta)
    return SecondMomentResult(
        mu2=mu2,
        exact=exact,
        exp_hypergeom=exp_h,
        exp_binomial=exp_b,
        risk_lb=risk_lower_bound(exact),
    )


def tv_exact(shape: ProblemShape, p0: float, delta: float) -> float:
    """Total variation between the null and the uniform-support planted
    mixture, by exhaustive enumeration of all 2^(n1 n2) matrices."""
    _check_signal(p0, delta)
    cells = shape.n1 * shape.n2
    if cells > TV_BUDGET_BITS:
        raise BudgetError(f"2^{cells} matrices exceed the 2^{TV_BUDGET_BITS} budget")
    p1 = p0 + delta
    codes = np.arange(1 << cells, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(cells)) & 1).astype(np.float64)
    # Degenerate edge probabilities need explicit masses, not log products.
    with np.errstate(divide="ignore"):
        lp0, lq0 = np.log(p0), np.log(1.0 - p0)
        lp1, lq1 = np.log(p1), np.log(1.0 - p1)

    def matrix_probs(on_mask: np.ndarray) -> np.ndarray:
        a = np.where(on_mask, lp1, lp0)
        b = np.where(on_mask, lq1, lq0)
        with np.errstate(invalid="ignore"):
            logp = bits @ np.where(np.isneginf(a), 0.0, a) + (1.0 - bits) @ np.where(
                np.isneginf(b), 0.0, b
            )
        # Re-impose zero mass where an impossible cell value occurs.
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
            on = np.outer(row_mask, col_mask).reshape(-1)
            prob_mix += matrix_probs(on)
            n_sup += 1
    prob_mix /= n_sup
    return 0.5 * float(np.abs(prob0 - prob_mix).sum())
