"""Exact binomial machinery for the truncated tests.

Everything here is about a single Bin(n, p0) count Y and its standardization
Z = (Y - n p0) / sigma.  The statistic kernel is

    w(y) = (n - y) log((n - y) / (n (1 - p0))) + y log(y / (n p0)),

with 0 log 0 = 0, equivalently n(1-p0) h_B(-(y-np0)/(n(1-p0))) +
n p0 h_B((y-np0)/(n p0)) for the Bennett function h_B.  Truncation events
{Z >= a} are realized on the integer lattice as {Y >= k_min} with
k_min = ceil(n p0 + a sigma), and the conditional moments nu_a = E[w(Y) |
Y >= k_min] and gamma_a = E[w(Y)^2 | Y >= k_min] are computed by exact
log-space summation of the binomial pmf, over slices of tables built once
per kernel (log-pmf and log-pmf + log w^power over 0..n), with the
denominator shared by nu and gamma.  Every such sum goes through
logsumexp, a numpy port of scipy.special.logsumexp (scipy 1.17) that gives
the same double for real input without its per-call overhead.  The pmf's
log-gamma terms come from log_gamma, a port of Cephes `lgam`, the routine
that scipy.special.gammaln runs (scipy 1.17, through its xsf library), so
the package needs no scipy at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import EmptyConditionError, ParameterError


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every entry of a nonempty real array, bit for
    bit as scipy.special.logsumexp (scipy 1.17) computes it: the entries
    equal to the maximum are counted (m) rather than summed, the rest are
    summed shifted by the maximum (s), and the result is
    log1p(s / m) + log(m) + max.  Where that is not finite (all entries
    -inf, or some +inf) it is the direct log(sum(exp(a))).  The reductions
    keep scipy's axes and keepdims, so the pairwise sums are the same."""
    a = np.asarray(a, dtype=np.float64)
    axis = tuple(range(a.ndim))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        at_max = a == a_max
        m = np.sum(at_max, axis=axis, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max).item()
        if not math.isfinite(out):
            out = np.log(np.sum(np.exp(a), axis=axis, keepdims=True)).item()
    return out


# Cephes lgam's coefficients, leading first: _STIRLING expands log Gamma in
# 1/x^2 for 13 <= x < 1000, and _NUM / _DEN give its rational form on [2, 3).
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)
_NUM = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
        -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_DEN = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
        -2.20528590553854454839e5, -1.13933444367982507207e6, -2.53252307177582951285e6,
        -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178
_MAX_LGAMMA = 2.556348e305


def _horner(x: float, coef) -> float:
    """Cephes polevl: the first step 0 x + coef[0] is exactly coef[0]."""
    out = 0.0
    for c in coef:
        out = out * x + c
    return out


def log_gamma(x: float) -> float:
    """log Gamma(x) for finite x > 0, the same double as
    scipy.special.gammaln: a port of Cephes `lgam` (scipy 1.17 runs it
    through xsf), step for step, with libm's log as the C code takes it."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ParameterError(f"log_gamma needs a finite x > 0, got {x!r}")
    if x < 13.0:
        # Shift x into [2, 3) by the recurrence, keeping the product in z.
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x = x + (p - 2.0)
        return math.log(z) + x * _horner(x, _NUM) / _horner(x, _DEN)
    if x > _MAX_LGAMMA:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _horner(p, _STIRLING) / x


_LOG_FACTORIALS = np.empty(0)


def _log_factorials(n: int) -> np.ndarray:
    """log y! at index y = 0..n, read-only: the head of one table of
    log_gamma(y + 1), grown to the largest n asked for, so each log y! is
    computed once."""
    global _LOG_FACTORIALS
    have = len(_LOG_FACTORIALS)
    if have <= n:
        grown = np.concatenate([_LOG_FACTORIALS, [log_gamma(i + 1) for i in range(have, n + 1)]])
        grown.setflags(write=False)
        _LOG_FACTORIALS = grown
    return _LOG_FACTORIALS[: n + 1]


@dataclass(frozen=True)
class BennettKernel:
    """Immutable Bin(n, p0) context: mean, sigma, log-pmf table."""

    n: int
    p0: float
    sigma: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not 0.0 < self.p0 < 1.0:
            raise ParameterError(f"p0 must lie in (0, 1), got {self.p0}")
        object.__setattr__(self, "sigma", math.sqrt(self.n * self.p0 * (1.0 - self.p0)))

    @property
    def mean(self) -> float:
        return self.n * self.p0

    def log_pmf(self, y: np.ndarray) -> np.ndarray:
        """log P(Y = y) elementwise for integers y in [0, n], exact via
        log-gamma: log n! - log y! - log (n-y)! looked up in one table."""
        y = np.asarray(y, dtype=np.float64)
        n = float(self.n)
        if not np.all((y >= 0.0) & (y <= n) & (y == np.floor(y))):
            raise ParameterError(f"log_pmf needs integers in [0, {self.n}]")
        log_fact = _log_factorials(int(self.n))
        yi = y.astype(np.intp)
        return (
            log_fact[self.n]
            - log_fact[yi]
            - log_fact[self.n - yi]
            + y * math.log(self.p0)
            + (n - y) * math.log1p(-self.p0)
        )


def w_stat(y, kernel: BennettKernel):
    """Statistic kernel w(y) >= 0; vanishes at y = n p0, increasing above
    the mean.  Accepts a scalar or an integer array."""
    arr = np.asarray(y, dtype=np.float64)
    if np.any((arr < 0) | (arr > kernel.n)):
        raise ParameterError(f"count outside [0, {kernel.n}]")
    n, p0 = float(kernel.n), kernel.p0
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(arr < n, (n - arr) * np.log((n - arr) / (n * (1.0 - p0))), 0.0)
        t2 = np.where(arr > 0, arr * np.log(arr / (n * p0)), 0.0)
    out = np.maximum(t1 + t2, 0.0)
    return float(out) if np.isscalar(y) or np.ndim(y) == 0 else out


def z_threshold_to_count(a: float, kernel: BennettKernel) -> int:
    """k_min = ceil(n p0 + a sigma): smallest count with (y - n p0)/sigma >= a."""
    if a < 0.0:
        raise ParameterError(f"threshold a must be nonnegative, got {a}")
    x = kernel.mean + a * kernel.sigma
    nearest = round(x)
    # Honor the >= convention when n p0 + a sigma is an integer up to
    # floating-point noise.
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


@lru_cache(maxsize=64)
def _moment_terms(kernel: BennettKernel, power: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log P(Y = y), w(y)^power > 0, log P(Y = y) + log w(y)^power) at
    y = 0..n, read-only.  Every entry is computed elementwise, so a slice
    holds the doubles that the same formulas give on that slice alone."""
    ys = np.arange(kernel.n + 1)
    logp = kernel.log_pmf(ys)
    w = w_stat(ys, kernel) ** power
    with np.errstate(divide="ignore"):
        terms = logp + np.log(w)
    tables = (logp, w > 0.0, terms)
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=256)
def _log_tail(kernel: BennettKernel, k_min: int) -> float:
    """log P(Y >= k_min), the denominator that nu and gamma share."""
    return logsumexp(_moment_terms(kernel, 1)[0][k_min:])


def _conditional_moment(a: float, kernel: BennettKernel, power: int) -> float:
    k_min = z_threshold_to_count(a, kernel)
    if k_min > kernel.n:
        raise EmptyConditionError(
            f"k_min={k_min} exceeds n={kernel.n}: conditioning event is empty"
        )
    _, pos, terms = _moment_terms(kernel, power)
    pos = pos[k_min:]
    if not pos.any():
        return 0.0
    log_num = logsumexp(terms[k_min:][pos])
    return math.exp(log_num - _log_tail(kernel, k_min))


def nu(a: float, kernel: BennettKernel) -> float:
    """nu_a = E[w(Y) | Y >= k_min(a)], exact."""
    return _conditional_moment(a, kernel, 1)


def gamma(a: float, kernel: BennettKernel) -> float:
    """gamma_a = E[w(Y)^2 | Y >= k_min(a)], exact."""
    return _conditional_moment(a, kernel, 2)


def binomial_tail(k: int, n: int, p: float) -> float:
    """Exact P(Bin(n, p) >= k) for 0 <= k <= n+1, stable in log space."""
    if n < 0:
        raise ParameterError(f"n must be nonnegative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p}")
    if not 0 <= k <= n + 1:
        raise ParameterError(f"k={k} outside [0, {n + 1}]")
    if k == 0:
        return 1.0
    if k == n + 1 or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    kern = BennettKernel(n, p)
    # Sum the side that is the smaller probability mass: direct summation
    # above the mean keeps deep tails exact in log space, the complement
    # below the mean avoids an O(n) sum of near-1 mass.
    if k > n * p:
        return math.exp(logsumexp(kern.log_pmf(np.arange(k, n + 1))))
    head = math.exp(logsumexp(kern.log_pmf(np.arange(0, k))))
    return max(0.0, 1.0 - head)
