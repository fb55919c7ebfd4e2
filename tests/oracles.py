"""Reference implementations that only tests call.

Each is the direct form of a quantity the package computes another way:
the Bennett function that the kernel w is built from, the appendix variant
of psi used to bracket the rate, the second moment of the likelihood ratio
by enumerating every pair of supports, and the support sampler as a scalar
partial Fisher-Yates shuffle.  The tests compare the package against them.
"""

import math
from itertools import combinations

import numpy as np

from planted_bipartite.errors import BudgetError, ParameterError
from planted_bipartite.graph_model import ProblemShape
from planted_bipartite.lower_bound import _check_signal
from planted_bipartite.rng import derive_seed

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
