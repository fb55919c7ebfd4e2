"""Reference implementations that only tests call.

Each is the direct form of a quantity the package computes another way:
the Bennett function that the kernel w is built from, the appendix variant
of psi used to bracket the rate, the second moment of the likelihood ratio
by enumerating every pair of supports, the support sampler as a scalar
partial Fisher-Yates shuffle, the matrix file writer one cell at a time
and its reader one row at a time, the conditional moments nu and gamma
summed per call, the exact Type I and Type II errors of the total degree
test by convolving binomial pmfs, and
the exact null and planted moments of the truncated degree statistic from
the binomial pmf, and the likelihood ratio of the uniform-support prior,
whose test "L > 1" is Bayes-optimal.  The tests compare the package against
them.  The
empty-subgraph diagnostic checks Monte Carlo frequencies of an
all-zero block, found by the detectors' max scan `_scan_max`, against the
union bound behind the lower bound.  Its table scores only the count 0, so
the scan runs no candidate pass: every row subset is offered, and the
kernel's bound, from one level mask per count 1 to k1, is the subset's
number of all-zero columns, its exact score, so only subsets that reach the
best so far are summed.
"""

import math
from itertools import combinations

import numpy as np

from planted_bipartite.binomial_kernel import (
    BennettKernel, log_gamma, logsumexp, w_stat, z_threshold_to_count,
)
from planted_bipartite.detectors import DEFAULT_SUBSET_BUDGET, _contribution_table, _scan_max
from planted_bipartite.errors import BudgetError, FormatError, ParameterError
from planted_bipartite.graph_model import AdjacencyMatrix, ProblemShape
from planted_bipartite.lower_bound import _check_signal
from planted_bipartite.rates import log_binom
from planted_bipartite.rng import TAG_NULL, below, derive_seed, edges, trial_blocks

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


def write_matrix_reference(A, path) -> None:
    """The matrix text format written one cell at a time: the header
    "n1 n2", then each row's '0'/'1' characters and a newline, to a
    text-mode ASCII file."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{A.n1} {A.n2}\n")
        for row in A.bits:
            fh.write("".join("1" if b else "0" for b in row) + "\n")


def read_matrix_reference(path) -> AdjacencyMatrix:
    """graph_model.read_matrix one row at a time: each line's length, then
    the set of its characters, then its bits.  Malformed input raises
    FormatError naming the offending line (1-based)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # The placeholder stands for the offending byte, so the count of
        # lines up to it is its line number.
        line = len((data[: exc.start].decode("ascii") + "?").splitlines())
        raise FormatError(f"line {line}: non-ASCII byte {data[exc.start]:#04x}") from None
    if not lines:
        raise FormatError("line 1: empty file, expected dimension header")
    header = lines[0].split()
    if len(header) != 2 or not all(tok.isdigit() for tok in header):
        raise FormatError(f"line 1: expected 'n1 n2' header, got {lines[0]!r}")
    n1, n2 = int(header[0]), int(header[1])
    if n1 < 1 or n2 < 1:
        raise FormatError(f"line 1: dimensions must be positive, got {lines[0]!r}")
    if len(lines) - 1 != n1:
        raise FormatError(f"line {len(lines)}: expected {n1} rows, found {len(lines) - 1}")
    rows = np.empty((n1, n2), dtype=np.uint8)
    for i, line in enumerate(lines[1:], start=2):
        if len(line) != n2:
            raise FormatError(f"line {i}: row has length {len(line)}, expected {n2}")
        bad = set(line) - {"0", "1"}
        if bad:
            raise FormatError(f"line {i}: invalid characters {sorted(bad)}")
        rows[i - 2] = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0")
    return AdjacencyMatrix(rows)


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
    hits = 0
    cut = below(p0)
    for _, block in trial_blocks(seed, TAG_NULL, n1, n2, trials):
        for _, states in block:
            bits = edges(states, cut)
            hits += int((_scan_max(bits, empty, DEFAULT_SUBSET_BUDGET) >= need).sum())
    mc = hits / trials
    return {
        "union_bound": union_bound,
        "mc_estimate": mc,
        "mc_se": math.sqrt(mc * (1 - mc) / trials),
        "trials": trials,
    }


def conditional_moment_reference(a: float, kernel: BennettKernel, power: int) -> float:
    """E[w(Y)^power | Y >= k_min(a)] summed per call, as binomial_kernel's
    nu (power 1) and gamma (power 2) were before their tables: log y! for
    y = 0..n from log_gamma, then the log-pmf, w^power and both logsumexps
    over k_min..n alone.  None when the conditioning event is empty."""
    n = kernel.n
    k_min = z_threshold_to_count(a, kernel)
    if k_min > n:
        return None
    log_fact = np.array([log_gamma(i + 1) for i in range(n + 1)])
    ys = np.arange(k_min, n + 1)
    y = ys.astype(np.float64)
    logp = (log_fact[n] - log_fact[ys] - log_fact[n - ys]
            + y * math.log(kernel.p0) + (n - y) * math.log1p(-kernel.p0))
    w = w_stat(ys, kernel) ** power
    log_denom = logsumexp(logp)
    pos = w > 0.0
    if not pos.any():
        return 0.0
    return math.exp(logsumexp(logp[pos] + np.log(w[pos])) - log_denom)


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


def truncated_degree_moments(
    n1: int, n2: int, p0: float, tau: float, k1: int = 0, k2: int = 0, p1: float = 0.0
):
    """Exact (mean, variance, fourth central moment) of the axis-1 truncated
    degree statistic sum_j f[C_j] on an n1 x n2 matrix whose column counts
    C_j are independent: Bin(n1, p0) under the null, and under a k1 x k2
    block planted at p1, given its support, Bin(n1 - k1, p0) + Bin(k1, p1)
    in the k2 block columns.  f is the statistic's contribution table and
    the pmfs come from BennettKernel.log_pmf.  The null mean is 0 up to
    rounding, by the centring of f at nu_tau.  Each column group g of m_g
    columns adds m_g times its mean, variance and fourth central moment, and
    the sum's fourth central moment gains 3 (V^2 - sum_g m_g var_g^2) from
    the pairs of distinct columns, V being the total variance."""
    f = _contribution_table(n1, p0, tau)
    groups = [(n2 - k2, _binomial_pmf(n1, p0))]
    if k2:
        groups.append((k2, np.convolve(_binomial_pmf(n1 - k1, p0), _binomial_pmf(k1, p1))))
    mean = var = m4 = pairs = 0.0
    for m, pmf in groups:
        mu = float(pmf @ f)
        v = float(pmf @ (f - mu) ** 2)
        mean += m * mu
        var += m * v
        m4 += m * float(pmf @ (f - mu) ** 4)
        pairs -= m * v**2
    return mean, var, m4 + 3 * (var**2 + pairs)


def likelihood_ratio(bits: np.ndarray, shape: ProblemShape, p0: float, delta: float) -> np.ndarray:
    """(T,) likelihood ratios P_mix(A) / P0(A) of (T, n1, n2) bits under the
    uniform prior over k1 x k2 supports, the block at p1 = p0 + delta.  Over
    a row support K1 with column counts c_j, a column's factor is g_j =
    r^c_j s^(k1 - c_j), r = p1 / p0 and s = (1 - p1) / (1 - p0), and the
    mean over column supports is e_k2(g_1, ..., g_n2) / C(n2, k2), e_k2 the
    elementary symmetric polynomial.  L is the mean of that over K1.  The
    DP runs in log space on a table of log g per count, so s = 0 (p1 = 1)
    gives log g = -inf wherever a block cell is missing, and no 0 * -inf."""
    n1, n2, k1, k2 = shape.n1, shape.n2, shape.k1, shape.k2
    p1 = min(p0 + delta, 1.0)
    log_r = math.log(p1 / p0)
    log_s = math.log((1.0 - p1) / (1.0 - p0)) if p1 < 1.0 else -math.inf
    log_g = np.array([c * log_r + ((k1 - c) * log_s if c < k1 else 0.0) for c in range(k1 + 1)])
    supports = np.array(list(combinations(range(n1), k1)))
    counts = bits[:, supports, :].sum(axis=2)  # (T, C(n1, k1), n2)
    e = np.full((k2 + 1,) + counts.shape[:2], -np.inf)
    e[0] = 0.0
    for j in range(n2):
        e[1:] = np.logaddexp(e[1:], e[:-1] + log_g[counts[..., j]])
    log_l = np.logaddexp.reduce(e[k2], axis=1) - log_binom(n1, k1) - log_binom(n2, k2)
    return np.exp(log_l)
