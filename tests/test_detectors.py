import dataclasses
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from planted_bipartite import (
    AdjacencyMatrix,
    BennettKernel,
    BudgetError,
    DetectorKind,
    DetectorTag,
    EmptyConditionError,
    ParameterError,
    PlantedSupport,
    ProblemShape,
    RateConstants,
    SignalConfig,
    ThresholdMode,
    ThresholdSpec,
    calibrate_threshold,
    nu,
    rate_bundle,
    sample_null,
    sample_planted,
    statistic,
    w_stat,
    z_threshold_to_count,
)
from planted_bipartite import detectors, rng
from planted_bipartite.detectors import (
    _batch_statistic,
    delta_star_subtest,
    empirical_quantile,
    null_statistics,
    resolve_threshold,
    truncation_levels,
)
from planted_bipartite.rates import Branch

TOTAL = DetectorKind(DetectorTag.TOTAL_DEGREE)
TRUNC1, TRUNC2 = DetectorTag.TRUNC_DEGREE_AXIS1, DetectorTag.TRUNC_DEGREE_AXIS2
MAX1, MAX2 = DetectorTag.MAX_TRUNC_AXIS1, DetectorTag.MAX_TRUNC_AXIS2


def _mat(rows):
    return AdjacencyMatrix(np.array(rows, dtype=np.uint8))


def _analytic(kind, shape, alpha, consts=RateConstants()):
    """The ANALYTIC threshold resolve_threshold gives a concrete kind."""
    spec = ThresholdSpec(ThresholdMode.ANALYTIC, alpha)
    resolved, h = resolve_threshold(kind, shape, 0.25, spec, consts)
    assert resolved == kind
    return h


class TestTotalDegree:
    def test_centered(self):
        assert statistic(_mat([[1, 1], [0, 0]]), 0.5, TOTAL) == pytest.approx(0.0, abs=1e-12)

    def test_all_zeros(self):
        v = statistic(_mat([[0, 0], [0, 0]]), 0.25, TOTAL)
        assert v == pytest.approx(-1 / math.sqrt(0.75), rel=1e-12)

    def test_all_ones(self):
        v = statistic(_mat([[1, 1], [1, 1]]), 0.25, TOTAL)
        assert v == pytest.approx(3 / math.sqrt(0.75), rel=1e-12)

    def test_p0_domain(self):
        with pytest.raises(ParameterError):
            statistic(_mat([[0]]), 0.0, TOTAL)

    def test_matches_closed_form(self):
        for seed, (n1, n2) in enumerate([(1, 1), (3, 7), (16, 16), (40, 9)]):
            for p0 in (0.1, 0.25, 0.5):
                A = sample_null(ProblemShape(n1, n2, 1, 1), p0, seed)
                want = (int(A.bits.sum()) - n1 * n2 * p0) / math.sqrt(n1 * n2 * p0 * (1 - p0))
                assert statistic(A, p0, TOTAL) == want

    @pytest.mark.parametrize("n1,n2", [(255, 257), (256, 256), (300, 300)])
    def test_narrow_sum_at_dtype_boundary(self, n1, n2):
        """Totals are summed in the narrowest unsigned type that holds
        n1 * n2: 65,535 cells fit uint16, 65,536 and 90,000 need uint32.
        All ones is the largest total; both match the int64 sum bit for
        bit."""
        bits = np.ones((2, n1, n2), dtype=np.uint8)
        bits[1, 0, 0] = 0
        sums = bits.reshape(2, -1).sum(axis=1, dtype=np.int64)
        want = (sums - n1 * n2 * 0.25) / math.sqrt(n1 * n2 * 0.25 * 0.75)
        assert _bit_equal(detectors._batch_total(bits, 0.25), want)


class TestAxis:
    @pytest.mark.parametrize("axis", [0, 3, -1])
    def test_axis_domain(self, axis):
        # Only axes 1 and 2 name a tag.
        A = sample_null(ProblemShape(4, 4, 2, 2), 0.25, 1)
        with pytest.raises(ParameterError):
            statistic(A, 0.25, DetectorKind(detectors._axis_tag("TRUNC_DEGREE", axis), tau=1.0))
        with pytest.raises(ParameterError):
            kind = DetectorKind(detectors._axis_tag("MAX_TRUNC", axis), tau=1.0, k_scan=2)
            statistic(A, 0.25, kind)

    def test_axis2_scans_the_transpose(self):
        A = sample_null(ProblemShape(5, 8, 2, 2), 0.3, 4)
        assert statistic(A, 0.3, DetectorKind(MAX2, tau=0.5, k_scan=3)) == statistic(
            AdjacencyMatrix(A.bits.T), 0.3, DetectorKind(MAX1, tau=0.5, k_scan=3)
        )


class TestTruncatedDegree:
    def test_all_zeros(self):
        A = AdjacencyMatrix(np.zeros((4, 6), dtype=np.uint8))
        assert statistic(A, 0.25, DetectorKind(TRUNC1, tau=1.0)) == 0.0

    def test_single_full_column(self):
        bits = np.zeros((4, 3), dtype=np.uint8)
        bits[:, 0] = 1
        k = BennettKernel(4, 0.25)
        expect = w_stat(4, k) - nu(1.0, k)
        got = statistic(AdjacencyMatrix(bits), 0.25, DetectorKind(TRUNC1, tau=1.0))
        assert got == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(4.605154, abs=1e-6)

    def test_null_centering(self):
        shape = ProblemShape(16, 16, 2, 2)
        kind = DetectorKind(DetectorTag.TRUNC_DEGREE_AXIS1, tau=1.0)
        vals = null_statistics(kind, shape, 0.25, 20_000, 77)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 4 * se

    def test_transpose_duality(self):
        A = sample_null(ProblemShape(7, 11, 2, 2), 0.3, 5)
        assert statistic(A, 0.3, DetectorKind(TRUNC2, tau=0.8)) == statistic(
            AdjacencyMatrix(A.bits.T), 0.3, DetectorKind(TRUNC1, tau=0.8)
        )


class TestMaxTruncatedDegree:
    def test_k_scan_full_equals_truncated(self):
        A = sample_null(ProblemShape(6, 9, 2, 2), 0.25, 3)
        assert statistic(A, 0.25, DetectorKind(MAX1, tau=1.0, k_scan=6)) == pytest.approx(
            statistic(A, 0.25, DetectorKind(TRUNC1, tau=1.0)), rel=1e-12
        )

    def test_all_zeros(self):
        A = AdjacencyMatrix(np.zeros((5, 4), dtype=np.uint8))
        assert statistic(A, 0.25, DetectorKind(MAX1, tau=0.5, k_scan=2)) == 0.0

    def _brute_force(self, A, p0, tau, k_scan):
        kern = BennettKernel(k_scan, p0)
        kmin = z_threshold_to_count(tau, kern)
        nv = nu(tau, kern)
        best = -math.inf
        for J in combinations(range(A.n1), k_scan):
            counts = A.bits[list(J)].sum(axis=0)
            val = sum(w_stat(int(c), kern) - nv for c in counts if c >= kmin)
            best = max(best, val)
        return best

    def test_brute_force_agreement(self):
        for seed in range(30):
            A = sample_null(ProblemShape(6, 5, 2, 2), 0.35, seed)
            got = statistic(A, 0.35, DetectorKind(MAX1, tau=0.3, k_scan=2))
            assert got == pytest.approx(self._brute_force(A, 0.35, 0.3, 2), rel=1e-12, abs=1e-12)

    def test_planted_block_example(self):
        bits = np.zeros((4, 3), dtype=np.uint8)
        bits[0:2, 0] = 1
        A = AdjacencyMatrix(bits)
        got = statistic(A, 0.25, DetectorKind(MAX1, tau=0.5, k_scan=2))
        assert got == pytest.approx(self._brute_force(A, 0.25, 0.5, 2), rel=1e-12)

    def test_max_dominance_at_planted_support(self):
        shape = ProblemShape(8, 8, 3, 3)
        sup = PlantedSupport((1, 4, 6), (0, 2, 7))
        A = sample_planted(shape, SignalConfig(0.2, 0.6), sup, 13)
        kern = BennettKernel(3, 0.2)
        kmin = z_threshold_to_count(1.0, kern)
        nv = nu(1.0, kern)
        counts = A.bits[list(sup.K1)].sum(axis=0)
        inner = sum(w_stat(int(c), kern) - nv for c in counts if c >= kmin)
        assert statistic(A, 0.2, DetectorKind(MAX1, tau=1.0, k_scan=3)) >= inner - 1e-12

    def test_budget_error(self):
        A = sample_null(ProblemShape(30, 4, 2, 2), 0.25, 1)
        with pytest.raises(BudgetError, match="exceed budget 1000$"):
            statistic(A, 0.25, DetectorKind(MAX1, tau=1.0, k_scan=15, budget=1000))


def _reference_truncated(bits, p0, tau, k_scan=None):
    """Reference scan: float64 einsum counts over every k_scan-row subset
    (all rows when k_scan is None), np.where contributions, sum over
    columns, max over subsets, all in one unblocked pass."""
    n1 = bits.shape[1]
    k = n1 if k_scan is None else k_scan
    kern = BennettKernel(k, p0)
    k_min = z_threshold_to_count(tau, kern)
    nu_tau = nu(tau, kern)
    w_table = w_stat(np.arange(k + 1), kern)
    M = np.zeros((math.comb(n1, k), n1))
    for s, J in enumerate(combinations(range(n1), k)):
        M[s, list(J)] = 1.0
    counts = np.einsum("sn,tnj->tsj", M, bits.astype(np.float64)).round().astype(np.int64)
    contrib = np.where(counts >= k_min, w_table[counts] - nu_tau, 0.0)
    return contrib.sum(axis=2).max(axis=1)


def _reference_scan(bits, f):
    """Unpruned reference scan with table f: every k-row subset of each
    trial, k = len(f) - 1, scores sum_j f[count_j], all in one pass."""
    k = len(f) - 1
    subsets = np.array(list(combinations(range(bits.shape[1]), k)), dtype=np.intp)
    counts = bits[:, subsets].sum(axis=2)
    return f[counts].sum(axis=-1).max(axis=1)


def _bit_equal(a, b):
    return np.array_equal(np.asarray(a, np.float64).view(np.uint64), b.view(np.uint64))


class TestScanExactness:
    """The blocked subset scan and the table-lookup truncated statistic give
    the same doubles as the reference formula, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 40),
        trials=st.integers(1, 4),
        k_frac=st.floats(0.0, 1.0),
        p0=st.sampled_from([0.1, 0.25, 0.5]),
        tau=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        axis=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, rows, cols, trials, k_frac, p0, tau, axis, seed):
        k_scan = 1 + round(k_frac * (rows - 1))
        # The table needs a count below n at or above tau (EmptyConditionError
        # otherwise).
        for k in (k_scan, rows):
            assume(z_threshold_to_count(tau, BennettKernel(k, p0)) < k)
        oriented = (np.random.default_rng(seed).random((trials, rows, cols)) < p0).astype(np.uint8)
        # axis 2 scans the second matrix axis: store the transpose.
        bits = oriented if axis == 1 else np.ascontiguousarray(oriented.transpose(0, 2, 1))
        trunc, scan = (
            (DetectorTag.TRUNC_DEGREE_AXIS1, DetectorTag.MAX_TRUNC_AXIS1) if axis == 1
            else (DetectorTag.TRUNC_DEGREE_AXIS2, DetectorTag.MAX_TRUNC_AXIS2)
        )
        got = _batch_statistic(bits, p0, DetectorKind(scan, tau=tau, k_scan=k_scan))
        assert _bit_equal(_reference_truncated(oriented, p0, tau, k_scan), got)
        got = _batch_statistic(bits, p0, DetectorKind(trunc, tau=tau))
        assert _bit_equal(_reference_truncated(oriented, p0, tau), got)

    def test_multi_block_matches_reference(self):
        # 15,504 subsets of 64 columns span several byte-bounded blocks; the
        # last trial's best subset, rows 15-19, is the last one enumerated.
        assert math.comb(20, 5) > rng.BATCH_BYTES // (8 * 64)
        shape = ProblemShape(20, 64, 5, 4)
        bits = np.stack([sample_null(shape, 0.25, s).bits for s in range(4)])
        bits[3, 15:, ::2] = 1
        got = detectors._batch_max_truncated(bits, 0.25, 1.3, 5, 10**6)
        assert _bit_equal(_reference_truncated(bits, 0.25, 1.3, 5), got)

    def test_composite_null_trials_where_candidates_do_not_prune(self):
        # The first two calibration trials of `calibrate --n1 16 --n2 256
        # --k1 4 --k2 8 --p0 0.25 --seed 1`, whose composite scans 4 rows.
        shape = ProblemShape(16, 256, 4, 8)
        composite = DetectorKind(DetectorTag.DELTA_STAR)
        kind = detectors.resolve_kind(composite, shape, 0.25, RateConstants())
        assert (kind.tag, kind.k_scan) == (MAX1, 4)
        cut = rng.below(0.25)
        bits = np.concatenate(
            [(x < cut).view(np.uint8) for _, x in rng.trial_uniforms(1, rng.TAG_CAL, 16, 256, 2)]
        )
        got = null_statistics(kind, shape, 0.25, 2, 1)
        assert _bit_equal(_reference_truncated(bits, 0.25, kind.tau, 4), got)

    @pytest.mark.parametrize("n1,k_scan,trials", [(20, 5, 3), (12, 3, 9)])
    def test_batch_equals_single_trials(self, n1, k_scan, trials):
        # (12, 3) puts four trials in one block; (20, 5) splits subsets.
        shape = ProblemShape(n1, 64, k_scan, 4)
        mats = [sample_null(shape, 0.25, 100 + s) for s in range(trials)]
        batch = detectors._batch_max_truncated(
            np.stack([A.bits for A in mats]), 0.25, 1.0, k_scan, 10**6
        )
        single = [statistic(A, 0.25, DetectorKind(MAX1, tau=1.0, k_scan=k_scan)) for A in mats]
        assert _bit_equal(single, batch)

    def test_scan_memory_is_bounded(self):
        A = sample_null(ProblemShape(20, 64, 5, 4), 0.25, 2)
        tracemalloc.start()
        try:
            statistic(A, 0.25, DetectorKind(MAX1, tau=1.0, k_scan=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_subset_rows_memory_is_bounded(self):
        # 79,800 row pairs: the scan holds the cached (S, 2) index table,
        # 1.3 MB, and blocks of gathered rows and scores within
        # rng.BATCH_BYTES, never an array that grows with S times n2.
        A = sample_null(ProblemShape(400, 4, 2, 2), 0.25, 3)
        tracemalloc.start()
        try:
            statistic(A, 0.25, DetectorKind(MAX1, tau=0.5, k_scan=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_index_blocks_count_k(self):
        # Two columns of 20 and 19 ones share 15 rows: 201,552 candidates of
        # 8 rows each.  Blocks sized from n2 = 2 alone would take 32,768
        # candidates, whose (32,768, 8) row indices are four BATCH_BYTES.
        bits = np.zeros((24, 2), dtype=np.uint8)
        bits[:20, 0] = 1
        bits[5:, 1] = 1
        kind = DetectorKind(MAX1, tau=4.0, k_scan=8)
        statistic(AdjacencyMatrix(bits), 0.25, kind)  # fill the table caches
        tracemalloc.start()
        try:
            got = statistic(AdjacencyMatrix(bits), 0.25, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == 7.896525271141634 == 2 * detectors._contribution_table(8, 0.25, 4.0)[8]
        assert peak < 3 * rng.BATCH_BYTES


class TestContributionTable:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 40), p0=st.floats(0.01, 0.99), tau=st.floats(0.0, 6.0))
    def test_single_count_refused(self, n, p0, tau):
        """A truncation that passes only the count n is refused: there f would
        be 0 up to a rounding residue and the statistic constant.  Any other
        table scores the all-ones count above 0."""
        k_min = z_threshold_to_count(tau, BennettKernel(n, p0))
        try:
            f = detectors._contribution_table(n, p0, tau)
        except EmptyConditionError:
            assert k_min >= n
            return
        assert k_min < n and f[n] > 0


class TestCandidatePass:
    """The candidate pass and the full enumeration give the unpruned
    reference's doubles bit for bit, for any block size, and every candidate
    score above 0 is its trial's maximum when k_scan is the only count with
    f > 0.  Such tables also bound each subset's score by its all-ones
    columns, so both passes sum floats only for subsets that can reach the
    incumbent."""

    @staticmethod
    def _check(bits, f, expect):
        """_candidate_max and _scan_max give `expect`; so does every best
        candidate above 0 when only f[k] is positive."""
        k = len(f) - 1
        assert _bit_equal(expect, detectors._candidate_max(bits, f, 10**6))
        subsets = detectors._subset_indices(bits.shape[1], k, 10**6)
        assert _bit_equal(expect, detectors._scan_max(bits, f, subsets))
        if f[k] > 0 and not (f[:k] > 0).any():
            counts = detectors._column_counts(bits)
            best = detectors._best_candidates(bits, counts, f, 10**6)
            assert _bit_equal(expect[best > 0], best[best > 0])

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(2, 9),
        cols=st.integers(1, 30),
        trials=st.integers(1, 6),
        k_frac=st.floats(0.0, 1.0),
        p0=st.sampled_from([0.1, 0.25, 0.5]),
        tau=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        axis=st.sampled_from([1, 2]),
        planted=st.integers(0, 6),
        tied=st.booleans(),
        block=st.sampled_from([1, 3, 64, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_scan(
        self, rows, cols, trials, k_frac, p0, tau, axis, planted, tied, block, seed
    ):
        k_scan = 1 + round(k_frac * (rows - 1))
        assume(z_threshold_to_count(tau, BennettKernel(k_scan, p0)) < k_scan)
        oriented = (np.random.default_rng(seed).random((trials, rows, cols)) < p0).astype(np.uint8)
        # Dense planted blocks in the first trials; a repeated row ties the
        # maxima of the subsets that swap it for its copy.
        oriented[:planted, : k_scan + 1, : cols // 2 + 1] = 1
        if tied:
            oriented[:, -1] = oriented[:, 0]
        bits = oriented if axis == 1 else np.ascontiguousarray(oriented.transpose(0, 2, 1))
        kind = DetectorKind(MAX1 if axis == 1 else MAX2, tau=tau, k_scan=k_scan)
        expect = _reference_truncated(oriented, p0, tau, k_scan)
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:  # `block` candidates or subsets per block
                mp.setattr(rng, "BATCH_BYTES", 8 * cols * block)
            assert _bit_equal(expect, _batch_statistic(bits, p0, kind))
            self._check(oriented, detectors._contribution_table(k_scan, p0, tau), expect)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 7),
        cols=st.integers(1, 12),
        trials=st.integers(1, 5),
        k_frac=st.floats(0.0, 1.0),
        f_values=st.lists(st.sampled_from([-1.0, -0.25, 0.0, 0.5, 3.0]), min_size=8, max_size=8),
        density=st.sampled_from([0.3, 0.7, 0.95]),
        block=st.sampled_from([1, 5, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_table(self, rows, cols, trials, k_frac, f_values, density, block, seed):
        """Tables of any sign pattern: f = 0, f > 0 below k, and tables whose
        best candidate scores <= 0, so its trial is rescanned; the unblocked
        scan is the reference."""
        k = 1 + round(k_frac * (rows - 1))
        f = np.array(f_values[: k + 1])
        bits = (np.random.default_rng(seed).random((trials, rows, cols)) < density).astype(np.uint8)
        expect = _reference_scan(bits, f)
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(rng, "BATCH_BYTES", 8 * cols * block)
            self._check(bits, f, expect)

    @settings(max_examples=120, deadline=None)
    @given(
        rows=st.integers(2, 8),
        cols=st.integers(8, 40),
        trials=st.integers(1, 3),
        k_frac=st.floats(0.0, 1.0),
        ones=st.floats(0.2, 1.0),
        top=st.sampled_from([1.0, 0.5, 3.0, 0.1, 2.7, 4.1, 3.3760390267047]),
        below=st.sampled_from([0.0, -2.0**-52, -2.0**-44, -1e-3, -0.5]),
        block=st.sampled_from([2, 3, 7, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_ties_and_near_ties(
        self, rows, cols, trials, k_frac, ones, top, below, block, seed
    ):
        """Only f[k] > 0, and every row holds the same number of ones, so
        many subsets have as many all-ones columns as the incumbent: their
        bounds tie its bound, or its score where f[k] sums exactly.  Their
        pairwise sums of the same copies of f[k] differ in the last bits,
        and f[k - 1] < 0 within the margin moves a score below its bound
        by less than the margin."""
        k = 1 + round(k_frac * (rows - 1))
        gen = np.random.default_rng(seed)
        m = max(1, round(ones * cols))
        bits = np.zeros((trials, rows, cols), dtype=np.uint8)
        for t in range(trials):
            for r in range(rows):
                bits[t, r, gen.permutation(cols)[:m]] = 1
        f = np.zeros(k + 1)
        f[k] = top
        f[k - 1] = below * top
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(rng, "BATCH_BYTES", 8 * cols * block)
            self._check(bits, f, _reference_scan(bits, f))

    def test_near_tie_above_the_rounded_bound(self):
        # Two rows of seven ones each, scored with f[1] = 4.1: the bound
        # 7 x 4.1 rounds to 28.699999999999996, row 0 (the first with the
        # most all-ones columns, so the incumbent) sums to 28.7 and row 1 to
        # 28.700000000000003.  Only the margin keeps row 1 from the pruning.
        bits = np.zeros((1, 2, 24), dtype=np.uint8)
        bits[0, 0, [3, 5, 6, 13, 19, 21, 23]] = 1
        bits[0, 1, [6, 7, 9, 14, 15, 21, 23]] = 1
        f = np.array([0.0, 4.1])
        assert 7 * 4.1 < 28.7 < 28.700000000000003
        expect = _reference_scan(bits, f)
        assert expect.tolist() == [28.700000000000003]
        self._check(bits, f, expect)

    @settings(max_examples=60, deadline=None)
    @given(
        o=st.integers(3, 9),
        extra=st.integers(0, 3),
        cols=st.integers(1, 20),
        trials=st.integers(1, 3),
        k_frac=st.floats(0.0, 1.0),
        below=st.lists(st.sampled_from([-1.0, -0.25, 0.0]), min_size=8, max_size=8),
        top=st.sampled_from([0.5, 3.0, 4.1]),
        block_frac=st.floats(0.0, 1.0),
        density=st.sampled_from([0.3, 0.7, 0.95]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_column_table_split_across_blocks(
        self, o, extra, cols, trials, k_frac, below, top, block_frac, density, seed
    ):
        """Column 0 of trial 0 holds exactly o ones, and its C(o, k) candidate
        table spans several blocks, so the incumbent of its first block
        prunes the later ones."""
        k = 1 + round(k_frac * (o - 2))
        block = 1 + round(block_frac * (math.comb(o, k) - 2))
        assert block < math.comb(o, k)
        bits = (
            np.random.default_rng(seed).random((trials, o + extra, cols)) < density
        ).astype(np.uint8)
        bits[0, :, 0] = np.arange(o + extra) < o
        f = np.array(below[:k] + [top])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "BATCH_BYTES", 8 * max(cols, k) * block)
            self._check(bits, f, _reference_scan(bits, f))

    def test_positive_below_k_scans_in_full(self):
        # Rows {0, 2} hold no all-ones column yet score 4 x 3.0; the one
        # candidate, rows {0, 1}, scores 0.5 + 3.0.
        bits = np.array([[[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]]], dtype=np.uint8)
        got = detectors._candidate_max(bits, np.array([0.0, 3.0, 0.5]), 10**6)
        assert got.tolist() == [12.0]

    def test_rescans_trials_without_a_positive_candidate(self, monkeypatch):
        # Three candidates against 2 x C(4, 2) = 12 subsets, so the pass
        # runs.  Trial 0's one candidate, rows {0, 1}, scores 0.5 - 1
        # (column 1 has one of its two rows), and its full scan finds 0 at
        # rows {2, 3}; trial 1's two candidates score 1.0.
        bits = np.array([[[1, 1], [1, 0], [0, 0], [0, 0]],
                         [[1, 1], [1, 1], [0, 0], [0, 0]]], dtype=np.uint8)
        f = np.array([0.0, -1.0, 0.5])
        rescanned, ran = [], []
        scan, best = detectors._scan_max, detectors._best_candidates

        def best_candidates(*args):
            out = best(*args)
            ran.append(out.tolist())
            return out

        monkeypatch.setattr(
            detectors, "_scan_max", lambda b, *a: rescanned.append(b.copy()) or scan(b, *a)
        )
        monkeypatch.setattr(detectors, "_best_candidates", best_candidates)
        got = detectors._candidate_max(bits, f, 10**6)
        assert ran == [[-0.5, 1.0]]
        assert got.tolist() == [0.0, 1.0]
        assert len(rescanned) == 1 and np.array_equal(rescanned[0], bits[:1])

    def test_chunk_memory_is_bounded(self, monkeypatch):
        # One null chunk of the (20, 64, 5, 4) calibration: 51 trials and
        # about 49,000 candidates, 25 MB as one (candidates, n2) score array.
        shape = ProblemShape(20, 64, 5, 4)
        assert rng.BATCH_BYTES // (8 * 20 * 64) == 51
        bits = np.stack([sample_null(shape, 0.25, s).bits for s in range(51)])
        tau = truncation_levels(shape)[1]
        detectors._batch_max_truncated(bits, 0.25, tau, 5, 10**6)  # fill the table caches
        ran = []
        best = detectors._best_candidates
        monkeypatch.setattr(
            detectors, "_best_candidates", lambda b, *a: ran.append(len(b)) or best(b, *a)
        )
        tracemalloc.start()
        try:
            detectors._batch_max_truncated(bits, 0.25, tau, 5, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ran == [51]
        assert peak < 3 * rng.BATCH_BYTES


class TestAnalyticThresholds:
    def test_h2(self):
        h = _analytic(TOTAL, ProblemShape(64, 64, 8, 8), 0.2)
        assert h == pytest.approx(math.sqrt(4 * math.log(10)), rel=1e-12)

    def test_tau1(self):
        consts = RateConstants(C_tau=3.0)
        tau, _ = truncation_levels(ProblemShape(50, 100, 5, 10), consts)
        assert tau == pytest.approx(math.sqrt(3 * math.log(2)), rel=1e-12)

    def test_h3_monotone_in_logbinom(self):
        kind = DetectorKind(MAX1, tau=1.0, k_scan=5)
        a = _analytic(kind, ProblemShape(20, 64, 5, 8), 0.1)
        b = _analytic(kind, ProblemShape(10, 64, 5, 8), 0.1)
        assert a > b

    def test_alpha_domain(self):
        with pytest.raises(ParameterError):
            _analytic(TOTAL, ProblemShape(8, 8, 2, 2), 1.5)


class TestAxisDuality:
    """Each axis-2 ANALYTIC threshold is bitwise the axis-1 one of the
    swapped shape."""

    @settings(max_examples=300, deadline=None)
    @given(
        n1=st.integers(1, 10**6), n2=st.integers(1, 10**6),
        f1=st.floats(0.0, 1.0), f2=st.floats(0.0, 1.0),
        alpha=st.floats(1e-9, 0.999),
        c=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),
    )
    def test_axis2_is_axis1_on_swapped(self, n1, n2, f1, f2, alpha, c):
        shape = ProblemShape(n1, n2, max(1, round(f1 * n1)), max(1, round(f2 * n2)))
        consts = RateConstants(C_star=c[0], c_prime=c[1], C_tau=c[2])
        for axis2, axis1 in [
            (DetectorKind(TRUNC2, tau=1.0), DetectorKind(TRUNC1, tau=1.0)),
            (DetectorKind(MAX2, tau=1.0, k_scan=1), DetectorKind(MAX1, tau=1.0, k_scan=1)),
        ]:
            h2 = _analytic(axis2, shape, alpha, consts)
            h1 = _analytic(axis1, shape.swapped(), alpha, consts)
            assert h2.hex() == h1.hex()


class TestCalibration:
    def test_single_trial(self):
        shape = ProblemShape(8, 8, 2, 2)
        kind = DetectorKind(DetectorTag.TOTAL_DEGREE)
        h = calibrate_threshold(kind, shape, 0.25, 0.1, trials=1, seed=5)
        assert h == null_statistics(kind, shape, 0.25, 1, 5)[0]

    def test_quantile_convention(self):
        vals = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        assert empirical_quantile(vals, 0.5) == 3.0  # rank ceil(0.5*5)=3
        assert empirical_quantile(vals, 0.2) == 4.0  # rank 4

    def test_median_near_zero(self):
        shape = ProblemShape(64, 64, 8, 8)
        h = calibrate_threshold(
            DetectorKind(DetectorTag.TOTAL_DEGREE), shape, 0.25, 0.5, 20_000, 42
        )
        assert abs(h) <= 0.05

    def test_normal_quantile_limit(self):
        shape = ProblemShape(64, 64, 8, 8)
        h = calibrate_threshold(
            DetectorKind(DetectorTag.TOTAL_DEGREE), shape, 0.25, 0.1, 20_000, 42
        )
        assert h == pytest.approx(1.2816, abs=0.06)

    def test_determinism(self):
        shape = ProblemShape(32, 32, 4, 4)
        kind = DetectorKind(DetectorTag.TRUNC_DEGREE_AXIS1, tau=1.0)
        a = calibrate_threshold(kind, shape, 0.25, 0.1, 2000, 9)
        b = calibrate_threshold(kind, shape, 0.25, 0.1, 2000, 9)
        assert a == b

    def test_chunking_leaves_trials_unchanged(self):
        # 8x8 float64 uniforms take 512 bytes per trial, so 3,000 trials span
        # three chunks of 1,024; the first 1,500 match a two-chunk run.
        shape = ProblemShape(8, 8, 2, 2)
        chunks = [len(s) for s, _ in rng.trial_uniforms(13, rng.TAG_CAL, 8, 8, 3000)]
        assert chunks == [1024, 1024, 952]
        kind = DetectorKind(DetectorTag.TOTAL_DEGREE)
        long = null_statistics(kind, shape, 0.25, 3000, 13)
        assert np.array_equal(long[:1500], null_statistics(kind, shape, 0.25, 1500, 13))

    def test_null_statistics_memory_is_bounded(self):
        # 256x256 takes 512 KiB of uniforms per trial, one trial per chunk;
        # 64 trials in one chunk would hold 32 MiB of uniforms alone.
        kind = DetectorKind(DetectorTag.TRUNC_DEGREE_AXIS1, tau=1.5)
        tracemalloc.start()
        try:
            null_statistics(kind, ProblemShape(256, 256, 16, 16), 0.25, 64, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestDeltaStar:
    def test_dispatch_total_degree(self):
        # BRANCH_A with n2/k2^2 < c1 must reduce to the total degree test.
        shape = ProblemShape(64, 64, 16, 16)
        consts = RateConstants()
        rb = rate_bundle(shape, consts)
        assert rb.branch is Branch.BRANCH_A
        assert shape.n2 / shape.k2**2 < consts.c1
        kind = delta_star_subtest(shape, 0.25, consts)
        assert kind.tag is DetectorTag.TOTAL_DEGREE
        A = sample_null(shape, 0.25, 21)
        spec = ThresholdSpec(ThresholdMode.ANALYTIC, alpha=0.1, value=1.0)
        composite = DetectorKind(DetectorTag.DELTA_STAR)
        assert resolve_threshold(composite, shape, 0.25, spec, consts) == (kind, 1.0)
        assert statistic(A, 0.25, kind) == statistic(A, 0.25, TOTAL)

    def test_symmetric_transpose_statistic(self):
        """On shape.swapped() the composite picks the axis-2 mirror of its
        choice on shape, and the mirror's statistic on A.T is the choice's
        on A.  A square shape is its own swap: each mirrored pair of rates
        ties, the argmin takes axis 1, and both resolve to the same test."""
        for dims, tag in [((12, 12, 3, 3), DetectorTag.TRUNC_DEGREE_AXIS1),
                          ((20, 64, 5, 4), DetectorTag.MAX_TRUNC_AXIS1)]:
            shape = ProblemShape(*dims)
            kind = delta_star_subtest(shape, 0.25)
            assert kind.tag is tag
            mirror = dataclasses.replace(kind, tag=DetectorTag[tag.value.replace("1", "2")])
            swapped = delta_star_subtest(shape.swapped(), 0.25)
            assert swapped == (kind if shape == shape.swapped() else mirror)
            A = sample_null(shape, 0.25, 8)
            assert statistic(A, 0.25, kind) == statistic(AdjacencyMatrix(A.bits.T), 0.25, mirror)

    def test_monotone_rejection(self):
        """On one calibration seed, a smaller alpha calibrates a threshold
        that is no lower and rejects no more of the same null matrices."""
        shape = ProblemShape(16, 16, 4, 4)
        nulls = [sample_null(shape, 0.25, seed) for seed in range(200)]
        thresholds, rejections = [], []
        for alpha in (0.5, 0.2, 0.05):
            spec = ThresholdSpec(ThresholdMode.CALIBRATED, alpha, trials=400, seed=3)
            kind, h = resolve_threshold(DetectorKind(DetectorTag.DELTA_STAR), shape, 0.25, spec)
            thresholds.append(h)
            rejections.append(sum(statistic(A, 0.25, kind) > h for A in nulls))
        assert thresholds == sorted(thresholds) and thresholds[0] < thresholds[-1]
        assert rejections == sorted(rejections, reverse=True)
        assert rejections[0] > rejections[-1]

    def test_resolve_threshold_analytic(self):
        shape = ProblemShape(16, 64, 4, 8)
        spec = ThresholdSpec(ThresholdMode.ANALYTIC, alpha=0.1)
        kind, h = resolve_threshold(
            DetectorKind(DetectorTag.TOTAL_DEGREE), shape, 0.25, spec
        )
        assert h == pytest.approx(math.sqrt(4 * math.log(20)), rel=1e-12)


class TestKindValidation:
    def test_budget_default(self):
        """A max test built without a budget scans within
        DEFAULT_SUBSET_BUDGET subsets."""
        A = sample_null(ProblemShape(30, 4, 2, 2), 0.25, 1)
        with pytest.raises(BudgetError, match=f"exceed budget {detectors.DEFAULT_SUBSET_BUDGET}$"):
            statistic(A, 0.25, DetectorKind(MAX1, tau=1.0, k_scan=15))

    @pytest.mark.parametrize("tag,tau,k_scan,budget", [
        (DetectorTag.TOTAL_DEGREE, None, None, 100),
        (TRUNC1, 1.0, None, 100),
        (TRUNC2, 1.0, None, 10**6),
        (MAX1, 1.0, 3, 0),
        (MAX2, 1.0, 3, -3),
        (DetectorTag.DELTA_STAR, None, None, 0),
    ])
    def test_budget_refused(self, tag, tau, k_scan, budget):
        """A budget is refused on a test that does not scan, and below 1."""
        with pytest.raises(ParameterError, match="budget"):
            DetectorKind(tag, tau=tau, k_scan=k_scan, budget=budget)

    def test_budget_handed_to_composite_subtest(self):
        """DELTA_STAR hands its budget to the sub-test it resolves to, and a
        degree sub-test refuses it."""
        consts = RateConstants()
        scan_shape = ProblemShape(20, 64, 5, 4)  # MAX_TRUNC_AXIS1
        sub = delta_star_subtest(scan_shape, 0.25, consts)
        composite = DetectorKind(DetectorTag.DELTA_STAR, budget=5)
        got = detectors.resolve_kind(composite, scan_shape, 0.25, consts)
        assert got == dataclasses.replace(sub, budget=5) and got.tag is MAX1
        plain = detectors.resolve_kind(DetectorKind(DetectorTag.DELTA_STAR), scan_shape, 0.25, consts)
        assert plain == sub and plain.budget is None
        degree_shape = ProblemShape(64, 64, 16, 16)  # TOTAL_DEGREE
        with pytest.raises(ParameterError, match="budget"):
            detectors.resolve_kind(composite, degree_shape, 0.25, consts)
        spec = ThresholdSpec(ThresholdMode.ANALYTIC, alpha=0.1)
        with pytest.raises(ParameterError, match="budget"):
            resolve_threshold(composite, degree_shape, 0.25, spec, consts)

    def test_tau_required(self):
        with pytest.raises(ParameterError):
            DetectorKind(DetectorTag.TRUNC_DEGREE_AXIS1)
        with pytest.raises(ParameterError):
            DetectorKind(DetectorTag.TOTAL_DEGREE, tau=1.0)

    def test_k_scan_required(self):
        with pytest.raises(ParameterError):
            DetectorKind(DetectorTag.MAX_TRUNC_AXIS1, tau=1.0)
        with pytest.raises(ParameterError):
            DetectorKind(DetectorTag.TRUNC_DEGREE_AXIS1, tau=1.0, k_scan=3)
