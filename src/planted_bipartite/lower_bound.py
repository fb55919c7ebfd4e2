"""Exact Bayes-risk lower bounds at desk scale.

For the uniform prior over planted supports, the likelihood-ratio second
moment has the closed form

    E_0[L^2] = E[(1 + mu^2)^(U V)],   mu^2 = delta^2 / (p0 (1 - p0)),

where U and V are the hypergeometric overlaps of two independent uniform
supports on each axis.  The minimax risk is then at least
1 - (1/2) sqrt(E_0[L^2] - 1).  The module also computes the looser
moment-generating-function bounds E[exp(mu^2 U V)] (hypergeometric, and with
binomial domination) so the slack in the chain is visible, and the exact
total variation distance by enumerating every binary matrix on tiny
instances, block by block within rng.BATCH_BYTES, on one path for every p1
up to 1.  The brute-force second moment over all support pairs, which
checks the overlap sums, lives with the tests (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import rng
from .binomial_kernel import BennettKernel, logsumexp
from .errors import BudgetError, ParameterError
from .graph_model import ProblemShape
from .rates import log_binom

# tv_exact's memory is bounded by rng.BATCH_BYTES at any cell count, so this
# limit bounds its time, which doubles with each cell: (4, 5, 2, 2) takes
# 0.67-0.78 s in one process on a 2-vCPU x86-64 host, and 0.37-0.44 s split
# across its two CPUs.
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


def _exp_moment(x, y, rate: float) -> float:
    """E[exp(rate X Y)] for independent X and Y, each given as (support,
    log-pmf): one log-space double sum, inf where exp overflows."""
    (xs, log_px), (ys, log_py) = x, y
    try:
        return math.exp(logsumexp(log_px[:, None] + log_py[None, :] + rate * np.outer(xs, ys)))
    except OverflowError:
        return math.inf


def second_moment_exact(shape: ProblemShape, p0: float, delta: float) -> float:
    """E[(1 + mu^2)^(U V)] by the exact double sum over overlaps."""
    mu2 = _check_signal(p0, delta)
    if mu2 == 0.0:
        return 1.0
    u, v = _overlap_log_pmf(shape.n1, shape.k1), _overlap_log_pmf(shape.n2, shape.k2)
    return _exp_moment(u, v, math.log1p(mu2))


def second_moment_exp_bounds(
    shape: ProblemShape, p0: float, delta: float
) -> tuple[float, float]:
    """(E[exp(mu^2 U V)] with hypergeometric overlaps,
    the same with binomial domination X ~ Bin(k1, k1/(n1-k1)),
    Y ~ Bin(k2, k2/(n2-k2))).  The binomial version is inf when undefined
    (k = n) or when the dominating success probability exceeds 1."""
    mu2 = _check_signal(p0, delta)
    n1, n2, k1, k2 = shape.n1, shape.n2, shape.k1, shape.k2
    exp_hyper = _exp_moment(_overlap_log_pmf(n1, k1), _overlap_log_pmf(n2, k2), mu2)
    # k/(n - k) <= 1 exactly when 2 k <= n, which also excludes k = n.
    if 2 * k1 > n1 or 2 * k2 > n2:
        return exp_hyper, math.inf
    x, y = _binom_log_pmf(k1, k1 / (n1 - k1)), _binom_log_pmf(k2, k2 / (n2 - k2))
    return exp_hyper, _exp_moment(x, y, mu2)


def _binom_log_pmf(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Support and log-pmf of Bin(n, p) for 0 < p <= 1."""
    xs = np.arange(n + 1)
    if p == 1.0:
        return xs, np.where(xs == n, 0.0, -np.inf)
    return xs, BennettKernel(n, p).log_pmf(xs)


def risk_lower_bound(second_moment_value: float) -> float:
    """1 - (1/2) sqrt(E_0[L^2] - 1), clamped to [0, 1]; NaN is refused."""
    if not second_moment_value >= 1.0 - 1e-12:
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
    mixture, by exhaustive enumeration of all 2^(n1 n2) matrices.

    The matrices are walked in blocks of rows of their bit matrix: the
    largest power of two rows (at least 128) whose float64 bits fit
    rng.BATCH_BYTES.  The block at lo unpacks its bits, row i those of
    matrix lo + i, and their complement into two buffers that every block
    of a worker's range reuses, and every support is evaluated on them.
    Each block's null and mixture probabilities give its |P0 - P_mix|
    terms, and no vector of all 2^(n1 n2) matrices is held: the two buffers
    bound each worker's memory.  The
    result does not depend on the block size: each matrix's log-probability
    is one matrix-vector product row, the supports are added in one fixed
    order, and the terms are summed in numpy's pairwise order over the whole
    enumeration, rebuilt from the blocks' sums.  rng.split_pass cuts the
    blocks into contiguous ranges for forked workers; each range returns
    its blocks' sums, merged here in block order, so neither does the
    result depend on the number of workers.  Each support is one pair of
    log-probability vectors, p1 = 1 included, where a finite floor stands
    for log(1 - p1) = log 0 and a matrix missing a planted edge has
    probability 0.0.
    """
    _check_signal(p0, delta)
    cells = shape.n1 * shape.n2
    if cells > TV_BUDGET_BITS:
        raise BudgetError(f"2^{cells} matrices exceed the 2^{TV_BUDGET_BITS} budget")
    # delta may exceed 1 - p0 by the rounding slack _check_signal allows.
    p1 = min(p0 + delta, 1.0)
    lp0, lq0, lp1 = np.log(p0), np.log(1.0 - p0), np.log(p1)
    # The floor is exact: a matrix missing a planted edge sums to about
    # -1e300, whose exp is 0.0, and a zero bit times the floor adds -0.0,
    # which changes at most the sign of a zero sum; exp maps both to 1.0.
    # Any floor below about -745 would do; -inf would make 0 * -inf NaN.
    lq1 = np.log(1.0 - p1) if p1 < 1.0 else -1e300

    def log_vectors(planted: np.ndarray):
        """(a, b) for a support: a matrix's log-probability is
        bits @ a + (1 - bits) @ b."""
        return np.where(planted, lp1, lp0), np.where(planted, lq1, lq0)

    a0, b0 = log_vectors(np.zeros(cells, dtype=bool))
    supports = []
    for K1 in combinations(range(shape.n1), shape.k1):
        row_mask = np.zeros(shape.n1, dtype=bool)
        row_mask[list(K1)] = True
        for K2 in combinations(range(shape.n2), shape.k2):
            col_mask = np.zeros(shape.n2, dtype=bool)
            col_mask[list(K2)] = True
            supports.append(log_vectors(np.outer(row_mask, col_mask).reshape(-1)))

    total = 1 << cells
    # Blocks of a power of two rows, at least 128 (one leaf of numpy's
    # pairwise sum, below), tile the enumeration with no short tail.  BLAS
    # matrix-vector kernels take rows in groups (of 4 with x86-64 OpenBLAS)
    # and round a row of a short group differently, and numpy computes a
    # one-row product with a dot kernel, so shorter blocks could change the
    # last bits.
    rows = min(total, 1 << max(7, (rng.BATCH_BYTES // (8 * cells)).bit_length() - 1))
    # numpy sums a contiguous float64 vector pairwise: it halves it at
    # multiples of 8 down to leaves of at most 128 entries (PW_BLOCKSIZE in
    # its loops_utils.h.src).  A whole vector of 2^cells terms is therefore a
    # binary tree over aligned runs of `rows` terms, each block a whole
    # subtree.  So |prob0 - prob_mix| is summed one block at a time and the
    # block sums are merged left + right like a binary counter: the same
    # double as np.abs(prob0 - prob_mix).sum() over whole vectors.
    def block_sums(lo: int, hi: int):
        on, off = np.empty((rows, cells)), np.empty((rows, cells))
        for block in range(lo, hi):
            # Row i holds bit j of matrix block * rows + i in column j: the
            # index's four little-endian bytes, unpacked (cells <=
            # TV_BUDGET_BITS < 32).
            start = block * rows
            index = np.arange(start, start + rows, dtype="<u4").view(np.uint8).reshape(rows, 4)
            on[...] = np.unpackbits(index, axis=1, count=cells, bitorder="little")
            np.subtract(1.0, on, out=off)
            prob0 = np.exp(on @ a0 + off @ b0)
            prob_mix = np.zeros(rows)
            for a, b in supports:
                prob_mix += np.exp(on @ a + off @ b)
            prob_mix /= len(supports)
            yield np.abs(np.subtract(prob0, prob_mix, out=prob0), out=prob0).sum()

    # rng.split_pass cuts the blocks into contiguous ranges, one a worker,
    # and the blocks' sums are merged here in block order.
    blocks, sums = total // rows, []
    parts = rng.split_pass(blocks, total * (1 + len(supports)) * cells, block_sums)
    for block, block_sum in enumerate(s for part in parts for s in part):
        while block & 1:
            block_sum = sums.pop() + block_sum
            block >>= 1
        sums.append(block_sum)
    (tv_sum,) = sums
    return 0.5 * float(tv_sum)
