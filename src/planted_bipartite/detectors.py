"""Test statistics, thresholds, and the composite detector.

Three statistics are implemented:

- total degree: the standardized sum of all entries;
- truncated degree: per-column counts are passed through the Bennett kernel
  w, recentred by the conditional mean nu_tau, and summed over columns whose
  standardized count exceeds tau (kernel Bin(n1, p0) for axis 1);
- max truncated degree: the same column statistic computed from row subsets
  of size k_scan (kernel Bin(k_scan, p0)), maximized exactly over all
  subsets.  One kernel, _score_subsets, forms every subset's column counts
  by adding gathered rows, in blocks within rng.BATCH_BYTES, and scores
  them by a table lookup.  _scan_max offers it every row of every trial.
  When k_scan is the only count with a positive score, a subset scores at
  most f[k_scan] times its all-ones columns.  So _candidate_max first
  offers only each column's ones and enumerates in full just the trials
  whose best such subset scores <= 0, and the kernel sums floats only for
  subsets whose bound, plus a margin for rounding, reaches the best score
  so far; the maximum is the same double either way.  Tables and subset
  enumerations are built once, when first needed, cached read-only.

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
from itertools import chain, combinations

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
    float64, which numpy 1.x would not pick for a narrow integer array."""
    _check_p0(p0)
    n1, n2 = bits.shape[1], bits.shape[2]
    sums = bits.reshape(bits.shape[0], -1).sum(axis=1, dtype=np.min_scalar_type(n1 * n2))
    centred = np.subtract(sums, n1 * n2 * p0, dtype=np.float64)
    return centred / math.sqrt(n1 * n2 * p0 * (1.0 - p0))


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


def _batch_truncated(bits: np.ndarray, p0: float, tau: float) -> np.ndarray:
    """bits: (T, n1, n2) with axis already oriented; returns (T,)."""
    f = _contribution_table(bits.shape[1], p0, tau)
    return np.take(f, _column_counts(bits)).sum(axis=1)


@functools.lru_cache(maxsize=32)
def _subset_indices(n: int, k: int, budget: int) -> np.ndarray:
    """(S, k) read-only row indices of all k-subsets of [n], lexicographic;
    more than `budget` of them is a BudgetError."""
    count = math.comb(n, k)
    if count > budget:
        raise BudgetError(f"{count} subsets of size {k} from {n} exceed budget {budget}")
    idx = np.fromiter(chain.from_iterable(combinations(range(n), k)), np.intp, count=count * k)
    idx = idx.reshape(count, k)
    idx.setflags(write=False)
    return idx


def _only_full_scores(f: np.ndarray) -> bool:
    """Whether k = len(f) - 1 is the only count with f > 0: then a subset
    scores at most f[k] times its number of all-ones columns."""
    k = len(f) - 1
    return bool(f[k] > 0) and not (f[:k] > 0).any()


def _score_subsets(
    flat: np.ndarray, owner: np.ndarray, rows: np.ndarray, subsets: np.ndarray,
    f: np.ndarray, best: np.ndarray,
) -> None:
    """The one kernel that forms subset counts.  Group g of rows (G, m)
    offers m rows of flat (R, n2); each of the subsets (S, k) of them scores
    sum_j f[count_j], where count_j adds up column j of its k rows, and
    best[owner[g]] is raised to the group's best score.

    A block of (group, subset) pairs holds at most rng.BATCH_BYTES of row
    indices (k each) or of float64 scores (n2 each).  Each score is the same
    contiguous n2-term sum of f[counts], looked up on the narrow count dtype.

    When k is the only count with f > 0, a subset with b all-ones columns
    (one counts == k compare, summed in integers) sums exactly to at most
    f[k] b.  In any summation order, its computed sum exceeds the exact one
    by at most (n2 - 1) u / (1 - (n2 - 1) u) times sum_j |f[count_j]| <=
    n2 max|f|, u = eps / 2; rounding f[k] b and adding the margin costs at
    most 2 u n2 max|f| + u margin more.  The margin 4 n2^2 eps max|f| =
    8 u n2^2 max|f| covers both while n2 u is small.  So in each block a
    group first scores its subset with the most all-ones columns into
    best[owner], then scores only the subsets whose f[k] b + margin reaches
    best[owner].  Every pruned subset's computed score lies below
    best[owner] and could not have raised it, so best ends as the same
    double as when every subset is scored.  Any other table scores every
    subset.
    """
    k = subsets.shape[1]
    n2 = flat.shape[1]
    cells = max(1, rng.BATCH_BYTES // (8 * max(n2, k)))
    bounded = _only_full_scores(f)
    margin = 4.0 * n2 * n2 * np.finfo(np.float64).eps * float(np.abs(f).max())
    for s in range(0, len(subsets), cells):
        block = subsets[s : s + cells]
        per = max(1, cells // len(block))
        for g in range(0, len(rows), per):
            idx = rows[g : g + per][:, block]
            counts = np.take(flat, idx[..., 0], axis=0)
            for i in range(1, k):
                counts += np.take(flat, idx[..., i], axis=0)
            who = owner[g : g + per]
            if not bounded:
                np.maximum.at(best, who, f[counts].sum(axis=-1).max(axis=1))
                continue
            full = (counts == k).sum(axis=-1, dtype=np.min_scalar_type(n2))
            top = counts[np.arange(len(who)), full.argmax(axis=1)]
            np.maximum.at(best, who, f[top].sum(axis=-1))
            group, sub = np.nonzero(f[k] * full + margin >= best[who][:, None])
            np.maximum.at(best, who[group], f[counts[group, sub]].sum(axis=-1))


def _scan_max(bits: np.ndarray, f: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """bits (T, n, n2), column scores f (k + 1,), subsets (S, k); returns
    (T,): per trial, the maximum over the row subsets of sum_j f[count_j],
    where count_j is the number of ones in column j over the subset's rows.
    Each trial offers all its rows to _score_subsets."""
    T, n, n2 = bits.shape
    flat = np.ascontiguousarray(bits, dtype=np.min_scalar_type(n)).reshape(T * n, n2)
    best = np.full(T, -np.inf)
    _score_subsets(flat, np.arange(T), np.arange(T * n).reshape(T, n), subsets, f, best)
    return best


def _candidate_max(bits: np.ndarray, f: np.ndarray, budget: int) -> np.ndarray:
    """_scan_max of bits (T, n, n2) over all C(n, k) subsets, k = len(f) - 1,
    bit for bit, scoring first only the candidate subsets: those inside the
    ones of some column.

    When k is the only count with f > 0, a subset with no all-ones column
    sums terms <= 0, so a trial whose best candidate scores above 0 has
    found its maximum; every other trial is enumerated in full.  Both passes
    score with one kernel, so a chunk takes the candidate pass exactly when
    its candidates, sum_j C(o_j, k) over its column sums o_j, are fewer than
    its T C(n, k) subsets.  The C(n, k) table, and so the check against
    `budget`, is built only for a full enumeration.
    """
    T, n, _ = bits.shape
    k = len(f) - 1
    out = np.full(T, -np.inf)
    if _only_full_scores(f):
        counts = _column_counts(bits)
        columns = np.bincount(counts.ravel(), minlength=k + 1)
        candidates = sum(int(g) * math.comb(o, k) for o, g in enumerate(columns) if o >= k)
        if candidates < T * math.comb(n, k):
            out = _best_candidates(bits, counts, f, budget)
    rescan = np.flatnonzero(~(out > 0))
    if len(rescan):
        out[rescan] = _scan_max(bits[rescan], f, _subset_indices(n, k, budget))
    return out


def _best_candidates(
    bits: np.ndarray, counts: np.ndarray, f: np.ndarray, budget: int
) -> np.ndarray:
    """Per trial of bits (T, n, n2) with column counts (T, n2), the maximum
    of sum_j f[count_j] over the k-row subsets, k = len(f) - 1, that lie
    inside the ones of some column; -inf for a trial with no such subset.
    Columns with o ones are offered together to _score_subsets: each its
    ones' rows, with the C(o, k) table of _subset_indices, at most `budget`
    subsets."""
    T, n, n2 = bits.shape
    k = len(f) - 1
    flat = np.ascontiguousarray(bits, dtype=counts.dtype).reshape(T * n, n2)
    best = np.full(T, -np.inf)
    for o in np.unique(counts[counts >= k]).tolist():
        trial, col = np.nonzero(counts == o)
        ones = np.nonzero(bits[trial, :, col])[1].reshape(len(trial), o) + (trial * n)[:, None]
        _score_subsets(flat, trial, ones, _subset_indices(o, k, budget), f, best)
    return best


def _batch_max_truncated(
    bits: np.ndarray, p0: float, tau: float, k_scan: int, budget: int
) -> np.ndarray:
    """bits: (T, n1, n2) with axis already oriented; returns (T,)."""
    n1 = bits.shape[1]
    if k_scan > n1:
        raise ParameterError(f"k_scan={k_scan} exceeds row count {n1}")
    return _candidate_max(bits, _contribution_table(k_scan, p0, tau), budget)


def statistic(A: AdjacencyMatrix, p0: float, kind: DetectorKind) -> float:
    """Evaluate the selected statistic on one matrix."""
    return float(_batch_statistic(A.bits[None, :, :], p0, kind)[0])


def _batch_statistic(bits: np.ndarray, p0: float, kind: DetectorKind) -> np.ndarray:
    tag = kind.tag
    if tag in _AXIS2_TAGS:
        bits = bits.transpose(0, 2, 1)
    if tag is DetectorTag.TOTAL_DEGREE:
        return _batch_total(bits, p0)
    if tag in _MAX_TAGS:
        budget = DEFAULT_SUBSET_BUDGET if kind.budget is None else kind.budget
        return _batch_max_truncated(bits, p0, kind.tau, kind.k_scan, budget)
    if tag in _TRUNC_TAGS:
        return _batch_truncated(bits, p0, kind.tau)
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
    and has its contribution table built here; other kinds pass through.
    Where the sub-test refuses the budget or its truncation, the error
    keeps its type and says what the composite resolved to."""
    if kind.tag is not DetectorTag.DELTA_STAR:
        return kind
    sub = delta_star_subtest(shape, p0, consts)
    try:
        if sub.tag in _MAX_TAGS:
            _contribution_table(sub.k_scan, p0, sub.tau)
        elif sub.tag in _TRUNC_TAGS:
            _contribution_table(shape.n2 if sub.tag in _AXIS2_TAGS else shape.n1, p0, sub.tau)
        return replace(sub, budget=kind.budget)
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
    derived seeds; order-deterministic."""
    cut = rng.below(p0)
    chunks = [
        _batch_statistic((x < cut).view(np.uint8), p0, kind)
        for _, x in rng.trial_uniforms(seed, tag, shape.n1, shape.n2, trials)
    ]
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
