"""Reference implementations that only tests call.

Each is the direct form of a quantity the package computes another way:
the Bennett function that the kernel w is built from, the appendix variant
of psi used to bracket the rate, the second moment of the likelihood ratio
by enumerating every pair of supports, the support sampler as a scalar
partial Fisher-Yates shuffle, and the exact Type I and Type II errors of
the total degree test by convolving binomial pmfs.  The tests compare the
package against them.  The empty-subgraph diagnostic checks Monte Carlo
frequencies of an all-zero block, found by the detectors' subset scan,
against the union bound behind the lower bound.
"""

import math
from itertools import combinations

import numpy as np

from planted_bipartite.binomial_kernel import BennettKernel
from planted_bipartite.detectors import DEFAULT_SUBSET_BUDGET, _scan_max, _subset_indices
from planted_bipartite.errors import BudgetError, ParameterError
from planted_bipartite.graph_model import ProblemShape
from planted_bipartite.lower_bound import _check_signal
from planted_bipartite.rates import log_binom
from planted_bipartite.rng import TAG_NULL, below, derive_seed, trial_uniforms

BRUTEFORCE_BUDGET = 10**8


def bennett_h(x: float) -> float:
    """Bennett function h_B(x) = (1+x)log(1+x) - x, with h_B(-1) = 1."""
    if x < -1.0:
        # Absorb float dust from standardized ratios landing on -1.
        if x >= -1.0 - 1e-9:
            return 1.0
        raise ParameterError(f"bennett_h requires x >= -1, got {x}")
    if x == -1.0:
        return 1.0
    # log1p keeps precision near 0; x*log1p(x) - x would cancel badly.
    return (1.0 + x) * math.log1p(x) - x


def psi_appendix_variant(k1: int, k2: int, n1: int, n2: int) -> float:
    """Alternative psi used in the rate-simplification analysis; exposed for
    cross-validation only.  Returns 0 when k1 = n1."""
    if k1 == n1:
        return 0.0
    return math.log1p((n2 * k1 / k2**2) * math.log(n1 / k1)) / k1


def sample_subset_reference(seed: int, tag: int, n: int, k: int) -> tuple[int, ...]:
    """Sorted first k entries of a partial Fisher-Yates shuffle of
    0, ..., n-1, one swap at a time in Python integers: step i swaps
    positions i and i + ((r * (n - i)) >> 64) with r = derive_seed(seed,
    tag, i).  A position that no step has touched holds its own index, so a
    dict of the touched ones stands for the list, and n may reach 2^32."""
    idx: dict[int, int] = {}
    for i in range(k):
        j = i + ((derive_seed(seed, tag, i) * (n - i)) >> 64)
        idx[i], idx[j] = idx.get(j, j), idx.get(i, i)
    return tuple(sorted(idx[i] for i in range(k)))


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


def empty_subgraph_diagnostic(
    shape: ProblemShape, p0: float, trials: int, seed: int, row_variant: bool = False
) -> dict:
    """Probability that a null graph contains an all-zero k1 x k2 block
    (or, with row_variant, k1 fully isolated left vertices): the log-space
    union bound against a Monte Carlo frequency from exhaustive scans.  The
    scan enumerates the C(n1, k1) row subsets, at most
    DEFAULT_SUBSET_BUDGET."""
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    if not 0.0 <= p0 <= 1.0:
        raise ParameterError(f"p0 must lie in [0, 1], got {p0}")
    n1, n2, k1, k2 = shape.n1, shape.n2, shape.k1, shape.k2
    log_q = math.log1p(-p0) if p0 < 1.0 else -math.inf
    if row_variant:
        log_ub = log_binom(n1, k1) + k1 * n2 * log_q
    else:
        log_ub = log_binom(n1, k1) + log_binom(n2, k2) + k1 * k2 * log_q
    union_bound = min(1.0, math.exp(log_ub)) if log_ub < 0 else 1.0

    # One point per edge-free column: some k1 rows score >= k2 exactly when
    # an empty block exists, and n2 exactly when k1 rows are isolated.
    empty = np.where(np.arange(k1 + 1) == 0, 1.0, 0.0)
    need = n2 if row_variant else k2
    subsets = _subset_indices(n1, k1, DEFAULT_SUBSET_BUDGET)
    hits = 0
    cut = below(p0)
    for _, x in trial_uniforms(seed, TAG_NULL, n1, n2, trials):
        hits += int((_scan_max(x < cut, empty, subsets) >= need).sum())
    mc = hits / trials
    return {
        "union_bound": union_bound,
        "mc_estimate": mc,
        "mc_se": math.sqrt(mc * (1 - mc) / trials),
        "trials": trials,
    }


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """P(Bin(n, p) = s) for s = 0..n from BennettKernel.log_pmf; n = 0 and
    p >= 1 are point masses."""
    pmf = np.zeros(n + 1)
    if n == 0 or p >= 1.0:
        pmf[-1] = 1.0
        return pmf
    return np.exp(BennettKernel(n, p).log_pmf(np.arange(n + 1)))


def total_degree_errors(shape: ProblemShape, p0: float, delta: float, h: float):
    """Exact (Type I, Type II) of the total degree test that rejects when its
    statistic exceeds h.  The edge total S is Bin(N, p0) under the null and
    Bin(N - K, p0) + Bin(K, p0 + delta) under a plant with any support,
    N = n1 n2 and K = k1 k2; a delta of 1 - p0 makes the block's part the
    point mass at K.  The rejection cut comes from the doubles that
    detectors._batch_total computes, (s - N p0) / sigma > h over s = 0..N."""
    n, k = shape.n1 * shape.n2, shape.k1 * shape.k2
    s = np.arange(n + 1)
    z = np.subtract(s, n * p0, dtype=np.float64) / math.sqrt(n * p0 * (1.0 - p0))
    reject = z > h
    p1 = 1.0 if delta >= 1.0 - p0 else p0 + delta
    planted = np.convolve(_binomial_pmf(n - k, p0), _binomial_pmf(k, p1))
    return float(_binomial_pmf(n, p0)[reject].sum()), float(planted[~reject].sum())
