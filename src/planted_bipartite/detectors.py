"""Test statistics, thresholds, and the composite detector.

Three statistics are implemented:

- total degree: the standardized sum of all entries;
- truncated degree: per-column counts are passed through the Bennett kernel
  w, recentred by the conditional mean nu_tau, and summed over columns whose
  standardized count exceeds tau (kernel Bin(n1, p0) for axis 1);
- max truncated degree: the same column statistic computed from row subsets
  of size k_scan (kernel Bin(k_scan, p0)), maximized exactly over all
  subsets.  One function, _scan_max, runs the scan, and one kernel,
  _score_subsets, scores subsets in blocks within rng.BATCH_BYTES: a
  subset's column counts add up its gathered rows, and a table lookup
  scores them.  For any table f, a subset scores at most the sum of
  max(f, 0) over its column counts, which the kernel counts from the rows
  packed once into uint64 words: for each count c from the least with
  f > 0 up to k_scan, a level mask of the columns with at least c ones,
  built from the subset's words by AND and OR, whose set bits
  np.bitwise_count counts.  When k_scan is the only count with a positive
  score, the one level is the AND of the subset's words, and the bound is
  f[k_scan] times its all-ones columns; so _scan_max first offers the
  kernel only each column's ones, then every row of just the trials whose
  best such subset scores <= 0.  The kernel bounds every subset before it
  sums any float, and forms counts and sums floats, at most once a
  subset, only for subsets whose bound, plus a margin for rounding,
  reaches the best score so far, a group's highest-bound subset before the
  others.  The maximum is the same double as when every subset is scored.
  Contribution tables are built once and cached read-only; each k_scan has
  one read-only table of subsets, in colex order, so that every subset
  table the scan asks for is a prefix of it, and a larger n appends rows.

A truncation level whose count threshold k_min reaches the kernel's n is
refused with EmptyConditionError: only the count n would pass, nu_tau would
be w(n), and the statistic would be constant.

Each axis-2 test is its axis-1 test on the transpose: the statistic on the
transposed bits, the analytic threshold and truncation level on
shape.swapped().  Thresholds come either from closed-form expressions with
configurable constants (ANALYTIC) or from the empirical (1 - alpha)-quantile
of the statistic under null simulation (CALIBRATED, the default).  The
composite detector dispatches among the tests according to the argmin
branch of the rate R_tilde.  Every detector, the composite included,
decides one way: resolve_threshold gives the concrete kind and threshold h,
and the test rejects when statistic(A, p0, kind) > h.  A DetectorKind
carries what its statistic reads: tau for the truncated tests, and k_scan
and the subset budget for the max scans; DELTA_STAR may carry a budget,
which goes to the sub-test it resolves to.  A value that the statistic does
not read is refused when the kind is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import binomial_kernel as bk, rng
from .errors import BudgetError, EmptyConditionError, ParameterError
from .graph_model import AdjacencyMatrix, ProblemShape
from .rates import Branch, RateConstants, log_binom, rate_bundle

DEFAULT_SUBSET_BUDGET = 10**6


class DetectorTag(Enum):
    TOTAL_DEGREE = "TOTAL_DEGREE"
    TRUNC_DEGREE_AXIS1 = "TRUNC_DEGREE_AXIS1"
    TRUNC_DEGREE_AXIS2 = "TRUNC_DEGREE_AXIS2"
    MAX_TRUNC_AXIS1 = "MAX_TRUNC_AXIS1"
    MAX_TRUNC_AXIS2 = "MAX_TRUNC_AXIS2"
    DELTA_STAR = "DELTA_STAR"


_TRUNC_TAGS = {
    DetectorTag.TRUNC_DEGREE_AXIS1,
    DetectorTag.TRUNC_DEGREE_AXIS2,
    DetectorTag.MAX_TRUNC_AXIS1,
    DetectorTag.MAX_TRUNC_AXIS2,
}
_MAX_TAGS = {DetectorTag.MAX_TRUNC_AXIS1, DetectorTag.MAX_TRUNC_AXIS2}
_AXIS2_TAGS = {DetectorTag.TRUNC_DEGREE_AXIS2, DetectorTag.MAX_TRUNC_AXIS2}


@dataclass(frozen=True)
class DetectorKind:
    """A statistic selector: which test, at what truncation, scanning what
    subset size within what subset budget.  A max test built without a
    budget scans within DEFAULT_SUBSET_BUDGET subsets.  DELTA_STAR carries
    at most a budget; its sub-test and tau are resolved from the shape and
    constants at run time, and its budget is handed to that sub-test."""

    tag: DetectorTag
    tau: float | None = None
    k_scan: int | None = None
    budget: int | None = None

    def __post_init__(self):
        if (self.tau is not None) != (self.tag in _TRUNC_TAGS):
            raise ParameterError(f"tau must be given exactly for truncated tests, tag={self.tag.value}")
        if (self.k_scan is not None) != (self.tag in _MAX_TAGS):
            raise ParameterError(f"k_scan must be given exactly for max tests, tag={self.tag.value}")
        if self.budget is not None and self.tag not in _MAX_TAGS | {DetectorTag.DELTA_STAR}:
            raise ParameterError(f"a subset budget is read only by max tests, tag={self.tag.value}")
        if self.budget is not None and self.budget < 1:
            raise ParameterError(f"subset budget must be at least 1, got {self.budget}")
        if self.tau is not None and not 0.0 <= self.tau < math.inf:
            raise ParameterError(f"tau must be finite and nonnegative, got {self.tau}")
        if self.k_scan is not None and self.k_scan < 1:
            raise ParameterError(f"k_scan must be a positive integer, got {self.k_scan}")


class ThresholdMode(Enum):
    ANALYTIC = "ANALYTIC"
    CALIBRATED = "CALIBRATED"


@dataclass(frozen=True)
class ThresholdSpec:
    mode: ThresholdMode
    alpha: float
    trials: int = 10_000
    seed: int = 0
    value: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.mode is ThresholdMode.CALIBRATED and self.trials < 100:
            raise ParameterError(f"calibration needs trials >= 100, got {self.trials}")
        if self.value is not None and math.isnan(self.value):
            raise ParameterError("threshold value must not be NaN")


def _axis_tag(family: str, axis: int) -> DetectorTag:
    if axis not in (1, 2):
        raise ParameterError(f"axis must be 1 or 2, got {axis}")
    return DetectorTag[f"{family}_AXIS{axis}"]


def _check_p0(p0: float) -> None:
    if not 0.0 < p0 < 1.0:
        raise ParameterError(f"p0 must lie in (0, 1), got {p0}")


def _batch_total(bits: np.ndarray, p0: float) -> np.ndarray:
    """(T,) standardized edge totals.  Each is summed in the narrowest
    unsigned type that holds n1 * n2, as _column_counts does (a 16-trial
    64x64 chunk took 13 us against 39-54 us in int64), and centred in
    float64, to which the Python float promotes them."""
    _check_p0(p0)
    n1, n2 = bits.shape[1], bits.shape[2]
    sums = bits.reshape(len(bits), n1 * n2).sum(axis=1, dtype=np.min_scalar_type(n1 * n2))
    return (sums - n1 * n2 * p0) / math.sqrt(n1 * n2 * p0 * (1.0 - p0))


@functools.lru_cache(maxsize=32)
def _contribution_table(n: int, p0: float, tau: float) -> np.ndarray:
    """f[c] = w(c) - nu_tau for counts c >= k_min and 0 below, c = 0..n:
    the column contribution of a count under kernel Bin(n, p0).  Cached, so
    the array is read-only; BennettKernel checks p0, DetectorKind tau."""
    kern = bk.BennettKernel(n, p0)
    k_min = bk.z_threshold_to_count(tau, kern)
    if k_min >= n:
        # Only the count n passes, and nu_tau = w(n): f would be 0 up to a
        # rounding residue, so the statistic would be constant.
        raise EmptyConditionError(
            f"tau={tau} leaves only counts >= {k_min} of n={n} at p0={p0}: "
            "the truncated statistic would be constant"
        )
    nu_tau = bk.nu(tau, kern)
    w_table = bk.w_stat(np.arange(n + 1), kern)
    f = np.where(np.arange(n + 1) >= k_min, w_table - nu_tau, 0.0)
    f.setflags(write=False)
    return f


def _column_counts(bits: np.ndarray) -> np.ndarray:
    """(T, n2) ones per column of (T, n1, n2) bits, in the narrowest
    unsigned type that holds n1: over the middle axis, a uint8 sum of a
    256x256 trial took 12-16 us against 48-69 us in np.intp."""
    return bits.sum(axis=1, dtype=np.min_scalar_type(bits.shape[1]))


_SUBSETS: dict[int, np.ndarray] = {}


def _subset_indices(n: int, k: int, budget: int) -> np.ndarray:
    """(C(n, k), k) read-only row indices of the k-subsets of [n] in colex
    order (by largest element, then the next), in which they head the
    k-subsets of any larger n: the head of one table per k, grown to the
    largest n asked for by appending rows.  More than `budget` subsets is a
    BudgetError."""
    count = math.comb(n, k)
    if count > budget:
        raise BudgetError(f"{count} subsets of size {k} from {n} exceed budget {budget}")
    table = _SUBSETS.get(k, np.empty((0, k), np.intp))
    if len(table) < count:
        old, table = table, np.empty((count, k), np.intp)
        table[: len(old)] = old
        # Rows C(top, k) to C(top + 1, k) are the (k - 1)-subsets of [top],
        # each followed by top; k = 0 has the one empty row.  The old table
        # already holds the rows of its tops.
        for top in range(k - 1, n) if k else ():
            rows = slice(math.comb(top, k), math.comb(top + 1, k))
            if rows.stop > len(old):
                table[rows, :-1] = _subset_indices(n - 1, k - 1, budget)[: math.comb(top, k - 1)]
                table[rows, -1] = top
        table.setflags(write=False)
        _SUBSETS[k] = table
    return table[:count]


def _only_full_scores(f: np.ndarray) -> bool:
    """Whether k = len(f) - 1 is the only count with f > 0: then a subset
    with no all-ones column scores <= 0, which gates _scan_max's candidate
    pass."""
    k = len(f) - 1
    return bool(f[k] > 0) and not (f[:k] > 0).any()


def _pack_rows(flat: np.ndarray) -> np.ndarray:
    """(R, W) uint64 words of the 0/1 rows flat (R, n2), W = ceil(n2 / 64):
    np.packbits along the columns, padded with zero bits to whole words.  A
    padding bit is zero in every row, so it lies in no level mask of
    _score_subsets: a column with at most j zeros among j + 1 or more
    rows has a one in some row."""
    words = -(-flat.shape[1] // 64)
    packed = np.zeros((len(flat), 8 * words), dtype=np.uint8)
    packed[:, : -(-flat.shape[1] // 8)] = np.packbits(flat, axis=1)
    return packed.view(np.uint64)


def _pair_bytes(n2: int, levels: int) -> int:
    """Bytes _score_subsets holds per (group, subset) pair of a block with
    `levels` level masks of W = ceil(n2 / 64) words: the masks and the
    takes' row scratch, 8 bytes a word each.  Once the scratch is freed, a
    mask's np.bitwise_count (W bytes) and at most three arrays of at most
    8 bytes at a time (its summed bits, their product with the weight, the
    bound before and after adding it) fit in the scratch's 8 W and 33 bytes
    more, and so do the bound, its bool and a survivor's two indices (25
    bytes) once the masks are freed.  At one level this is 16 W + 33."""
    return 8 * -(-n2 // 64) * (levels + 1) + 33


def _add_rows(flat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(..., n2) column counts of the rows idx (..., k) of flat: the k
    gathered rows added up on flat's narrow count dtype."""
    counts = np.take(flat, idx[..., 0], axis=0)
    for i in range(1, idx.shape[-1]):
        counts += np.take(flat, idx[..., i], axis=0)
    return counts


def _score_subsets(
    flat: np.ndarray, owner: np.ndarray, rows: np.ndarray, subsets: np.ndarray,
    f: np.ndarray, best: np.ndarray, packed: np.ndarray,
) -> None:
    """The one kernel that scores subsets.  Group g of rows (G, m) offers m
    rows of flat (R, n2); each of the subsets (S, k) of them scores
    sum_j f[count_j], where count_j adds up column j of its k rows, and
    best[owner[g]] is raised to the group's best score.  packed is
    _pack_rows(flat).

    A block of (group, subset) pairs holds at most rng.BATCH_BYTES, at
    _pair_bytes a pair and 8 W m bytes a group for its m rows' W words.
    Each score is the same contiguous n2-term sum of f[counts], looked up
    on the narrow count dtype.

    Every subset is bounded before any float is summed.  With h = max(f,
    0) and c_lo = max(low, 1), where low is the least count below k with
    f > 0, or k, the subset's level c, for each c from c_lo to k, masks its
    columns with at least c ones: level j of the k - c_lo + 1 = L levels
    holds the columns with at most j zeros among the rows so far, so adding
    row r makes it (level j & r) | the old level j - 1, and level 0 is the
    AND of the rows' words.  Then sum_j h[count_j] = h[0] n2 + sum_c (h[c]
    - h[c - 1]) p_c, p_c the set bits of level c by np.bitwise_count: the
    exact bound B, at least the exact score.  When k is the only count
    with f > 0 this is f[k] times the all-ones columns.

    In any summation order, a computed score exceeds the exact one by at
    most gamma(n2 - 1) n2 M, M = max|f| over the whole table (so also when
    f[k] < max f[:k]), gamma(m) = m u / (1 - m u), u = eps / 2.  Rounding
    each weight h[c] - h[c - 1], each product with p_c, h[0] n2 + margin
    and the L additions moves the computed bound by at most gamma(L + 2)
    n2 (L + 1) M + gamma(L + 1) margin from B + margin, since each weight,
    of either sign, has |h[c] - h[c - 1]| <= M, and p_c <= n2.  The margin
    4 eps n2 max(n2, L^2) M = 8 u n2 max(n2, L^2) M covers both while n2 u
    and L u are small, for every table and every n2 >= 1, n2 = 1 included:
    n2 - 1 + (L + 2)(L + 1) <= 6 max(n2, L^2) when n2, L >= 1.  At L = 1 it
    is 4 eps n2^2 M, the bound of the AND alone.

    A group's top subset, its first with the highest bound, is scored into
    best[owner] only when its bound reaches best[owner]; then each other
    subset is scored only when its bound reaches the raised best[owner].
    So a pair is summed at most once, and only when it could raise best,
    in float sums of at most rng.BATCH_BYTES // (8 max(n2, k)) pairs.
    Every pruned subset's computed score lies below best[owner] and could
    not have raised it, and a scored top cannot raise best again, so best
    ends as the same double as when every subset is scored.
    """
    k, n2, words = subsets.shape[1], flat.shape[1], packed.shape[1]
    values = f.tolist()
    h = [v if v > 0 else 0.0 for v in values]
    low = max(1, next((c for c in range(k) if h[c]), k))
    # Level j masks the count k - j, so its weight is h[k - j] - h[k - j - 1].
    weights = [h[c] - h[c - 1] for c in range(k, low - 1, -1)]
    levels = len(weights)
    pair = _pair_bytes(n2, levels)
    pairs = max(1, rng.BATCH_BYTES // pair)
    margin = 4.0 * n2 * max(n2, levels**2) * np.finfo(np.float64).eps * max(map(abs, values))
    start = h[0] * n2 + margin
    narrow = np.min_scalar_type(n2)  # holds a mask's bit count, at most n2
    for s in range(0, len(subsets), pairs):
        block = subsets[s : s + pairs]
        per = max(1, rng.BATCH_BYTES // (len(block) * pair + 8 * words * rows.shape[1]))
        for g in range(0, len(rows), per):
            group_rows, who = rows[g : g + per], owner[g : g + per]
            gathered = packed[group_rows]
            level = [np.take(gathered, block[:, 0], axis=1)]
            level += [np.full_like(level[0], ~np.uint64(0)) for _ in range(1, levels)]
            row = np.empty_like(level[0])
            for i in range(1, k):
                # The indices are valid; take buffers `out` in its default
                # "raise" mode.
                np.take(gathered, block[:, i], axis=1, out=row, mode="clip")
                for j in range(min(i, levels - 1), 0, -1):
                    level[j] &= row
                    level[j] |= level[j - 1]
                level[0] &= row
            del row  # the scratch serves only the takes
            bound = start
            for mask, weight in zip(level, weights):
                bound += weight * np.bitwise_count(mask).sum(axis=-1, dtype=narrow)
            del level
            each, top = np.arange(len(who)), bound.argmax(axis=1)
            lead = np.flatnonzero(bound[each, top] >= best[who])
            _score_pairs(flat, group_rows, block, who, f, best, lead, top[lead])
            survive = bound >= best[who][:, None]
            survive[each, top] = False
            group, sub = np.nonzero(survive)
            _score_pairs(flat, group_rows, block, who, f, best, group, sub)


def _score_pairs(
    flat: np.ndarray, rows: np.ndarray, block: np.ndarray, owner: np.ndarray,
    f: np.ndarray, best: np.ndarray, group: np.ndarray, sub: np.ndarray,
) -> None:
    """Raise best[owner[g]] to the score of subset block[s] of rows[g] for
    each pair (g, s) of group and sub, in float sums of at most
    rng.BATCH_BYTES // (8 max(n2, k)) pairs: the (pairs, n2) float64
    scores, or the (pairs, k) row indices, whichever is larger."""
    sums = max(1, rng.BATCH_BYTES // (8 * max(flat.shape[1], block.shape[1])))
    for c in range(0, len(group), sums):
        g = group[c : c + sums]
        counts = _add_rows(flat, rows[g[:, None], block[sub[c : c + sums]]])
        np.maximum.at(best, owner[g], f[counts].sum(axis=-1))


def _scan_max(bits: np.ndarray, f: np.ndarray, budget: int) -> np.ndarray:
    """bits (T, n, n2), column scores f (k + 1,); returns (T,): per trial,
    the maximum over the k-row subsets of sum_j f[count_j], where count_j is
    the number of ones in column j over the subset's rows.  Every table of
    subsets comes from _subset_indices, at most `budget` subsets each.  The
    chunk's rows are packed once into words for the kernel's bound.

    When k is the only count with f > 0, a subset with no all-ones column
    sums terms <= 0.  So a candidate pass first offers _score_subsets only
    the subsets inside the ones of some column: the columns with o ones
    together, each its ones' rows, with the C(o, k) table, largest o first
    so that every later table is a prefix of the first.  It runs exactly
    when these candidates, sum_j C(o_j, k) over the column sums o_j, are
    fewer than the T C(n, k) subsets.  A trial whose best candidate scores
    above 0 has found its maximum; every other trial then offers all its
    rows, raising the same `best`, so the table grows to C(n, k) rows only
    for a full enumeration.  Any other table offers every trial's rows at
    once.  A candidate's score is a real subset score and the kernel prunes
    only subsets that cannot raise `best`, so each maximum is the same
    double as when every subset is scored.
    """
    T, n, n2 = bits.shape
    k = len(f) - 1
    flat = np.ascontiguousarray(bits, dtype=np.min_scalar_type(n)).reshape(T * n, n2)
    best = np.full(T, -np.inf)
    packed = _pack_rows(flat)
    if _only_full_scores(f):
        counts = _column_counts(bits)
        # The column sums' histogram from a bincount: np.unique would import
        # numpy.ma, 13 ms that no command otherwise pays.
        columns = np.bincount(counts.ravel(), minlength=k + 1)
        candidates = sum(int(g) * math.comb(o, k) for o, g in enumerate(columns) if o >= k)
        if candidates < T * math.comb(n, k):
            for o in (np.flatnonzero(columns[k:]) + k)[::-1].tolist():
                trial, col = np.nonzero(counts == o)
                ones = np.nonzero(bits[trial, :, col])[1].reshape(len(trial), o)
                ones += (trial * n)[:, None]
                _score_subsets(flat, trial, ones, _subset_indices(o, k, budget), f, best, packed)
    rescan = np.flatnonzero(~(best > 0))
    if len(rescan):
        rows = rescan[:, None] * n + np.arange(n)
        _score_subsets(flat, rescan, rows, _subset_indices(n, k, budget), f, best, packed)
    return best


def statistic(A: AdjacencyMatrix, p0: float, kind: DetectorKind) -> float:
    """Evaluate the selected statistic on one matrix."""
    return float(_batch_statistic(A.bits[None, :, :], p0, kind)[0])


def _batch_statistic(bits: np.ndarray, p0: float, kind: DetectorKind) -> np.ndarray:
    """(T,) statistics of (T, n1, n2) bits; an axis-2 kind scores the
    transpose, so its scan draws subsets of columns."""
    tag = kind.tag
    if tag in _AXIS2_TAGS:
        bits = bits.transpose(0, 2, 1)
    if tag is DetectorTag.TOTAL_DEGREE:
        return _batch_total(bits, p0)
    n = bits.shape[1]
    if tag in _MAX_TAGS:
        if kind.k_scan > n:
            axis = "column" if tag in _AXIS2_TAGS else "row"
            raise ParameterError(f"k_scan={kind.k_scan} exceeds {axis} count {n}")
        budget = DEFAULT_SUBSET_BUDGET if kind.budget is None else kind.budget
        return _scan_max(bits, _contribution_table(kind.k_scan, p0, kind.tau), budget)
    if tag in _TRUNC_TAGS:
        return np.take(_contribution_table(n, p0, kind.tau), _column_counts(bits)).sum(axis=1)
    raise ParameterError(f"statistic undefined for tag {tag.value}; resolve DELTA_STAR first")


def truncation_levels(
    shape: ProblemShape, consts: RateConstants = RateConstants()
) -> tuple[float, float]:
    """(tau, tau_max): the truncation levels of the axis-1 truncated degree
    test and of the axis-1 max truncated scan.  On shape.swapped() these are
    the axis-2 levels."""
    arg = shape.n2 / shape.k2**2
    return (
        math.sqrt(consts.C_tau * math.log1p(arg)),
        math.sqrt(consts.C_tau * math.log1p(arg * log_binom(shape.n1, shape.k1))),
    )


def _analytic_threshold(
    tag: DetectorTag, shape: ProblemShape, alpha: float, consts: RateConstants
) -> float:
    """Closed-form threshold of a concrete test with the configured
    constants C_star and c_prime; an axis-2 test takes the axis-1 formula on
    shape.swapped().  The constants are existence-only in the theory; these
    values are for formula-shape diagnostics, not exact Type I control."""
    la = math.log(2.0 / alpha)
    if tag is DetectorTag.TOTAL_DEGREE:
        return math.sqrt(4.0 * la)
    if tag in _AXIS2_TAGS:
        shape = shape.swapped()
    arg, log_term = shape.n2 / shape.k2**2, la
    if tag in _MAX_TAGS:
        lb = log_binom(shape.n1, shape.k1)
        arg, log_term = arg * lb, la + lb
    inner = shape.n2 * math.exp(-consts.c_prime * math.log1p(arg)) * log_term
    return consts.C_star * (math.sqrt(inner) + log_term)


def delta_star_subtest(
    shape: ProblemShape, p0: float, consts: RateConstants = RateConstants()
) -> DetectorKind:
    """Resolve which sub-test the composite detector runs for this shape,
    with its truncation level and scan size.  MAX_TRUNC_2 and BRANCH_B run
    the axis-1 choice of shape.swapped() on axis 2.  The choice depends on
    the shape and constants alone; p0 is only checked."""
    branch = rate_bundle(shape, consts).branch
    _check_p0(p0)
    axis = 2 if branch in (Branch.MAX_TRUNC_2, Branch.BRANCH_B) else 1
    oriented = shape.swapped() if axis == 2 else shape
    tau, tau_max = truncation_levels(oriented, consts)
    if branch in (Branch.MAX_TRUNC_1, Branch.MAX_TRUNC_2):
        return DetectorKind(_axis_tag("MAX_TRUNC", axis), tau=tau_max, k_scan=oriented.k1)
    if oriented.n2 / oriented.k2**2 >= consts.c1:
        return DetectorKind(_axis_tag("TRUNC_DEGREE", axis), tau=tau)
    return DetectorKind(DetectorTag.TOTAL_DEGREE)


def resolve_kind(
    kind: DetectorKind, shape: ProblemShape, p0: float, consts: RateConstants
) -> DetectorKind:
    """Replace DELTA_STAR by its concrete sub-test, which takes its budget
    and is checked here by running its statistic on zero trials; other kinds
    pass through.  Zero trials build the contribution table but no table of
    subsets, so the sub-test refuses here just what a run would refuse
    before its first scan.  Where it refuses the budget or its truncation,
    the error keeps its type and says what the composite resolved to."""
    if kind.tag is not DetectorTag.DELTA_STAR:
        return kind
    sub = delta_star_subtest(shape, p0, consts)
    try:
        sub = replace(sub, budget=kind.budget)
        _batch_statistic(np.zeros((0, shape.n1, shape.n2), np.uint8), p0, sub)
        return sub
    except (ParameterError, EmptyConditionError) as exc:
        branch = rate_bundle(shape, consts).branch.value
        raise type(exc)(
            f"DELTA_STAR resolved to {sub.tag.value} (branch {branch}) on this shape: {exc}"
        ) from exc


def null_statistics(
    kind: DetectorKind,
    shape: ProblemShape,
    p0: float,
    trials: int,
    seed: int,
    tag: int = rng.TAG_CAL,
) -> np.ndarray:
    """Statistic values over `trials` independent null draws of the
    (seed, tag) stream, computed in byte-bounded batches with per-trial
    derived seeds; order-deterministic.  rng.split_pass cuts the trials into
    contiguous ranges, one a worker, and their statistics are joined in
    trial order, so the values do not depend on the number of workers."""
    cut, n1, n2 = rng.below(p0), shape.n1, shape.n2

    def chunk_statistics(lo: int, hi: int):
        for _, block in rng.trial_blocks(seed, tag, n1, n2, range(lo, hi)):
            for _, s in block:
                yield _batch_statistic(rng.edges(s, cut).view(np.uint8), p0, kind)

    parts = rng.split_pass(trials, trials * n1 * n2, chunk_statistics)
    chunks = [c for part in parts for c in part]
    return np.concatenate(chunks) if chunks else np.empty(0)


def empirical_quantile(values: np.ndarray, alpha: float) -> float:
    """Lowest order statistic with rank >= ceil((1 - alpha) * len)."""
    rank = math.ceil((1.0 - alpha) * len(values))
    rank = min(max(rank, 1), len(values))
    return float(np.sort(values)[rank - 1])


def calibrate_threshold(
    kind: DetectorKind,
    shape: ProblemShape,
    p0: float,
    alpha: float,
    trials: int,
    seed: int,
    consts: RateConstants = RateConstants(),
) -> float:
    """Empirical (1 - alpha)-quantile of the statistic under the null."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if trials < 1:
        raise ParameterError(f"trials must be positive, got {trials}")
    kind = resolve_kind(kind, shape, p0, consts)
    values = null_statistics(kind, shape, p0, trials, seed)
    return empirical_quantile(values, alpha)


def resolve_threshold(
    kind: DetectorKind,
    shape: ProblemShape,
    p0: float,
    spec: ThresholdSpec,
    consts: RateConstants = RateConstants(),
) -> tuple[DetectorKind, float]:
    """Resolve (concrete kind, threshold value) for a detector selection."""
    kind = resolve_kind(kind, shape, p0, consts)
    if spec.value is not None:
        return kind, spec.value
    if spec.mode is ThresholdMode.CALIBRATED:
        h = calibrate_threshold(kind, shape, p0, spec.alpha, spec.trials, spec.seed, consts)
        return kind, h
    _check_p0(p0)
    return kind, _analytic_threshold(kind.tag, shape, spec.alpha, consts)
