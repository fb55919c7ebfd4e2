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

    @pytest.mark.parametrize("tag, k_scan, message", [
        (MAX1, 5, "k_scan=5 exceeds row count 4"),
        (MAX2, 7, "k_scan=7 exceeds column count 6"),
    ])
    def test_scan_larger_than_its_axis(self, tag, k_scan, message):
        # An axis-2 scan draws subsets of the 6 columns of a 4 x 6 matrix.
        A = sample_null(ProblemShape(4, 6, 2, 2), 0.25, 1)
        with pytest.raises(ParameterError, match=f"^{message}$"):
            statistic(A, 0.25, DetectorKind(tag, tau=1.0, k_scan=k_scan))


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


def _full_scan(bits, f):
    """The full enumeration alone: every row of every trial offered to
    _score_subsets with the C(n, k) table, k = len(f) - 1."""
    T, n, n2 = bits.shape
    flat = np.ascontiguousarray(bits, dtype=np.min_scalar_type(n)).reshape(T * n, n2)
    best = np.full(T, -np.inf)
    subsets = detectors._subset_indices(n, len(f) - 1, 10**6)
    rows = np.arange(T * n).reshape(T, n)
    detectors._score_subsets(flat, np.arange(T), rows, subsets, f, best, detectors._pack_rows(flat))
    return best


def _levels(f):
    """The number of _score_subsets' level masks for table f: one for each
    count from max(low, 1) to k = len(f) - 1, where low is the least count
    below k with f > 0, or k."""
    k = len(f) - 1
    low = next((c for c in range(k) if f[c] > 0), k)
    return k + 1 - max(low, 1)


def _block_budget(cols, f, block):
    """A BATCH_BYTES under which _score_subsets takes `block` (group,
    subset) pairs a block on n2 = cols columns with table f."""
    return detectors._pair_bytes(cols, _levels(f)) * block


def _record_scan(monkeypatch):
    """The calls of _score_subsets, each as (owner, number of subsets, a copy
    of best on entry)."""
    calls, score = [], detectors._score_subsets

    def record(flat, owner, rows, subsets, f, best, packed):
        calls.append((owner.copy(), len(subsets), best.copy()))
        score(flat, owner, rows, subsets, f, best, packed)

    monkeypatch.setattr(detectors, "_score_subsets", record)
    return calls


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
        # 15,504 subsets of 64 columns span several byte-bounded blocks of
        # the table's two levels, the counts 4 and 5; the last trial's best
        # subset, rows 15-19, is the last one enumerated.
        assert _levels(detectors._contribution_table(5, 0.25, 1.3)) == 2
        assert math.comb(20, 5) > rng.BATCH_BYTES // detectors._pair_bytes(64, 2)
        shape = ProblemShape(20, 64, 5, 4)
        bits = np.stack([sample_null(shape, 0.25, s).bits for s in range(4)])
        bits[3, 15:, ::2] = 1
        got = _batch_statistic(bits, 0.25, DetectorKind(MAX1, tau=1.3, k_scan=5))
        assert _bit_equal(_reference_truncated(bits, 0.25, 1.3, 5), got)

    def test_composite_null_trials_where_candidates_do_not_prune(self):
        # The first two calibration trials of `calibrate --n1 16 --n2 256
        # --k1 4 --k2 8 --p0 0.25 --seed 1`, whose composite scans 4 rows.
        shape = ProblemShape(16, 256, 4, 8)
        composite = DetectorKind(DetectorTag.DELTA_STAR)
        kind = detectors.resolve_kind(composite, shape, 0.25, RateConstants())
        assert (kind.tag, kind.k_scan) == (MAX1, 4)
        cut = rng.below(0.25)
        bits = np.concatenate([
            rng.edges(states, cut).view(np.uint8)
            for _, block in rng.trial_blocks(1, rng.TAG_CAL, 16, 256, 2) for _, states in block
        ])
        got = null_statistics(kind, shape, 0.25, 2, 1)
        assert _bit_equal(_reference_truncated(bits, 0.25, kind.tau, 4), got)

    @pytest.mark.parametrize("n1,k_scan,trials", [(20, 5, 3), (12, 3, 9)])
    def test_batch_equals_single_trials(self, n1, k_scan, trials):
        # (12, 3) puts four trials in one block; (20, 5) splits subsets.
        shape = ProblemShape(n1, 64, k_scan, 4)
        mats = [sample_null(shape, 0.25, 100 + s) for s in range(trials)]
        batch = _batch_statistic(
            np.stack([A.bits for A in mats]), 0.25, DetectorKind(MAX1, tau=1.0, k_scan=k_scan)
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


class TestSubsetTable:
    """One read-only table of subsets per size k, in colex order, so that the
    k-subsets of [n] are the first C(n, k) rows of the table for any larger
    n; it grows only when a larger n is asked for."""

    @pytest.fixture
    def tables(self, monkeypatch):
        """A fresh table store, so each test starts with no table."""
        monkeypatch.setattr(detectors, "_SUBSETS", {})
        return detectors._SUBSETS

    def test_rows_are_colex(self, tables):
        for n in range(11):
            for k in range(1, n + 1):
                got = detectors._subset_indices(n, k, 10**6)
                assert not got.flags.writeable
                want = sorted(combinations(range(n), k), key=lambda c: c[::-1])
                assert got.shape == (math.comb(n, k), k)
                assert [tuple(row) for row in got.tolist()] == want, (n, k)

    def test_last_subset(self):
        # test_multi_block_matches_reference's best subset, rows 15-19, is the
        # last one enumerated.
        assert detectors._subset_indices(20, 5, 10**6)[-1].tolist() == [15, 16, 17, 18, 19]

    def test_smaller_table_is_a_prefix(self, tables):
        small = detectors._subset_indices(12, 4, 10**6)
        large = detectors._subset_indices(30, 4, 10**6)
        again = detectors._subset_indices(12, 4, 10**6)
        assert np.array_equal(again, small) and np.array_equal(large[: len(small)], small)
        assert np.shares_memory(again, large)
        assert len(tables[4]) == len(large) == math.comb(30, 4)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ascending_build_equals_one_build(self, tables, k):
        # Requests that grow the table by one top at a time, then in jumps;
        # each appends the rows of its new tops to a copy of the old table.
        for n in [*range(k, k + 6), k + 9, 25, 26, 40]:
            grown = detectors._subset_indices(n, k, 10**6)
        tables.clear()
        direct = detectors._subset_indices(40, k, 10**6)
        assert not grown.flags.writeable
        assert grown.shape == (math.comb(40, k), k)
        assert np.array_equal(grown, direct)

    def test_ascending_requests_keep_one_table(self, tables):
        for o in range(3, 61):
            detectors._subset_indices(o, 3, 10**6)
        table = tables[3]
        assert table.shape == (math.comb(60, 3), 3)
        # The recursion keeps one smaller table per size below 3.
        assert sorted(tables) == [0, 1, 2, 3]
        assert [len(tables[k]) for k in range(3)] == [1, 58, math.comb(59, 2)]
        for o in range(3, 61):
            assert np.shares_memory(detectors._subset_indices(o, 3, 10**6), table)
        assert tables[3] is table

    @pytest.mark.parametrize("n,k", [(1, 1), (7, 1), (7, 3), (12, 6), (20, 5), (30, 2)])
    def test_budget_is_the_callers_table(self, tables, n, k):
        count = math.comb(n, k)
        with pytest.raises(BudgetError, match=f"^{count} subsets of size {k} from {n} "
                                              f"exceed budget {count - 1}$"):
            detectors._subset_indices(n, k, count - 1)
        assert not tables
        # At exactly the budget the smaller tables it is built from pass too.
        assert len(detectors._subset_indices(n, k, count)) == count

    def test_scan_builds_the_table_once(self, monkeypatch):
        # One trial whose columns hold 3 to 8 ones, in rows from 0: its 126
        # candidates are fewer than the C(12, 3) = 220 subsets, and each
        # scores above 0, so no trial is rescanned.  The largest count is
        # offered first, so the 3-subset table is built once, at C(8, 3)
        # rows, and every later request is a prefix of it.
        builds = {}

        class CountedStore(dict):
            def __setitem__(self, k, table):
                builds[k] = builds.get(k, 0) + 1
                super().__setitem__(k, table)

        monkeypatch.setattr(detectors, "_SUBSETS", CountedStore())
        bits = np.zeros((1, 12, 6), dtype=np.uint8)
        for col, o in enumerate(range(3, 9)):
            bits[0, :o, col] = 1
        calls = _record_scan(monkeypatch)
        got = detectors._scan_max(bits, np.array([0.0, 0.0, 0.0, 1.0]), 10**6)
        assert got.tolist() == [6.0]
        assert [subsets for _, subsets, _ in calls] == [56, 35, 20, 10, 4, 1]
        assert builds == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_scan_over_many_column_counts_is_bounded(self):
        # One trial whose 58 columns hold 3 to 60 ones, in rows from 0: the
        # C(61, 4) = 521,855 candidates of 3 rows are fewer than the
        # C(200, 3) subsets, so the scan asks for 58 tables of C(o, 3) rows.
        # Each is a prefix of the one C(60, 3)-row table; 32 of them held at
        # once would take 12 MB.
        bits = np.zeros((1, 200, 58), dtype=np.uint8)
        for col, o in enumerate(range(3, 61)):
            bits[0, :o, col] = 1
        f = np.array([0.0, 0.0, 0.0, 1.0])
        detectors._scan_max(bits, f, 10**6)  # grow the table
        tracemalloc.start()
        try:
            got = detectors._scan_max(bits, f, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tolist() == [58.0]
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
    f > 0.  Every table bounds each subset's score by its level masks (with
    such a table, f[k] times its all-ones columns), so both passes sum
    floats only for subsets that can reach the incumbent."""

    @staticmethod
    def _check(bits, f, expect):
        """_scan_max and the full enumeration alone give `expect`.  When only
        f[k] is positive, the candidate pass runs on bits with zero rows
        added until the candidates are fewer than the subsets: zero rows add
        subsets but no candidates, and no subset with one scores above 0.
        It offers each distinct column count >= k in turn; its best
        candidate is above 0 on just the trials whose maximum is, and is
        that maximum there; one last call offers all rows of just the other
        trials, and the result is the full enumeration's."""
        (T, n, _), k = bits.shape, len(f) - 1
        assert _bit_equal(expect, detectors._scan_max(bits, f, 10**6))
        assert _bit_equal(expect, _full_scan(bits, f))
        if not detectors._only_full_scores(f):
            return
        counts = detectors._column_counts(bits).ravel().tolist()
        candidates, zeros = sum(math.comb(o, k) for o in counts), 0
        while candidates >= T * math.comb(n + zeros, k):
            zeros += 1
        padded = np.pad(bits, ((0, 0), (0, zeros), (0, 0)))
        with pytest.MonkeyPatch.context() as mp:
            calls = _record_scan(mp)
            got = detectors._scan_max(padded, f, 10**6)
        m = len({o for o in counts if o >= k})
        best, top = calls[m][2] if len(calls) > m else got, expect > 0
        assert np.array_equal(best > 0, top)
        assert _bit_equal(expect[top], best[top])
        rest = np.flatnonzero(~top).tolist()
        assert [owner.tolist() for owner, _, _ in calls[m:]] == ([rest] if rest else [])
        assert _bit_equal(got, _full_scan(padded, f))

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
        f = detectors._contribution_table(k_scan, p0, tau)
        expect = _reference_truncated(oriented, p0, tau, k_scan)
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:  # `block` candidates or subsets per block
                mp.setattr(rng, "BATCH_BYTES", _block_budget(cols, f, block))
            assert _bit_equal(expect, _batch_statistic(bits, p0, kind))
            self._check(oriented, f, expect)

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
                mp.setattr(rng, "BATCH_BYTES", _block_budget(cols, f, block))
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
                mp.setattr(rng, "BATCH_BYTES", _block_budget(cols, f, block))
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
        # _check adds thirteen zero rows, 14 candidates against 15 subsets,
        # so the candidate pass meets the near tie too.
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
            mp.setattr(rng, "BATCH_BYTES", _block_budget(cols, f, block))
            self._check(bits, f, _reference_scan(bits, f))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(2, 7),
        cols=st.sampled_from([7, 8, 63, 64, 65, 128, 129, 200]),
        trials=st.integers(1, 3),
        k_frac=st.floats(0.0, 1.0),
        density=st.sampled_from([0.5, 0.8, 0.95]),
        top=st.sampled_from([0.5, 3.0, 4.1]),
        below=st.sampled_from([0.0, -2.0**-52, -1e-3, -0.5]),
        tied=st.booleans(),
        block=st.sampled_from([1, 3, 64, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_rows_across_words(
        self, rows, cols, trials, k_frac, density, top, below, tied, block, seed
    ):
        """Only f[k] > 0 on rows of one to four packed words, at widths on
        either side of a byte and of a word, so the bound counts all-ones
        columns across words and in zero-padded ones."""
        k = 1 + round(k_frac * (rows - 1))
        bits = (np.random.default_rng(seed).random((trials, rows, cols)) < density).astype(np.uint8)
        if tied:
            bits[:, -1] = bits[:, 0]
        f = np.full(k + 1, below * top)
        f[k] = top
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(rng, "BATCH_BYTES", _block_budget(cols, f, block))
            self._check(bits, f, _reference_scan(bits, f))

    def test_survivor_sums_memory_is_bounded(self):
        # Every row is all ones at n2 = 256, so each of the C(20, 5) = 15,504
        # subsets scores 256 f[5] and every pair survives the bound: their
        # float sums at once would take 31.7 MB, and a block's alone 11 MB.
        # The 256 C(20, 5) candidates outnumber the subsets, so the full
        # enumeration runs.
        bits = np.ones((1, 20, 256), dtype=np.uint8)
        f = np.array([0.0, 0.0, 0.0, -1.0, -0.5, 2.0])
        assert detectors._only_full_scores(f)
        detectors._scan_max(bits, f, 10**6)  # fill the table caches
        tracemalloc.start()
        try:
            got = detectors._scan_max(bits, f, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tolist() == [512.0]
        assert peak < 3 * rng.BATCH_BYTES

    def test_positive_below_k_scans_in_full(self):
        # Rows {0, 2} hold no all-ones column yet score 4 x 3.0; the one
        # candidate, rows {0, 1}, scores 0.5 + 3.0.
        bits = np.array([[[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]]], dtype=np.uint8)
        got = detectors._scan_max(bits, np.array([0.0, 3.0, 0.5]), 10**6)
        assert got.tolist() == [12.0]

    def test_rescans_trials_without_a_positive_candidate(self, monkeypatch):
        # Three candidates against 2 x C(4, 2) = 12 subsets, so the pass
        # runs.  Trial 0's one candidate, rows {0, 1}, scores 0.5 - 1
        # (column 1 has one of its two rows), and its full scan finds 0 at
        # rows {2, 3}; trial 1's two candidates score 1.0.
        bits = np.array([[[1, 1], [1, 0], [0, 0], [0, 0]],
                         [[1, 1], [1, 1], [0, 0], [0, 0]]], dtype=np.uint8)
        f = np.array([0.0, -1.0, 0.5])
        calls = _record_scan(monkeypatch)
        got = detectors._scan_max(bits, f, 10**6)
        assert got.tolist() == [0.0, 1.0]
        # One candidate call for the count 2, then trial 0's C(4, 2) subsets.
        assert [(owner.tolist(), subsets) for owner, subsets, _ in calls] == [
            ([0, 1, 1], 1), ([0], 6)]
        assert calls[-1][2].tolist() == [-0.5, 1.0]

    @staticmethod
    def _null_chunk():
        """One null chunk of the (20, 64, 5, 4) calibration, 51 trials, and
        the axis-1 scan kind of its composite."""
        shape = ProblemShape(20, 64, 5, 4)
        assert rng.BATCH_BYTES // (8 * 20 * 64) == 51
        bits = np.stack([sample_null(shape, 0.25, s).bits for s in range(51)])
        return bits, DetectorKind(MAX1, tau=truncation_levels(shape)[1], k_scan=5)

    def test_chunk_memory_is_bounded(self, monkeypatch):
        # About 49,000 candidates, 25 MB as one (candidates, n2) score array.
        bits, kind = self._null_chunk()
        _batch_statistic(bits, 0.25, kind)  # fill the table caches
        calls = _record_scan(monkeypatch)
        tracemalloc.start()
        try:
            _batch_statistic(bits, 0.25, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Only candidate tables, C(o, 5) for o < 20, and every trial is offered.
        assert calls and all(subsets < math.comb(20, 5) for _, subsets, _ in calls)
        assert set(np.concatenate([owner for owner, _, _ in calls]).tolist()) == set(range(51))
        assert peak < 3 * rng.BATCH_BYTES

    def test_pairs_are_summed_once_and_only_when_they_can_raise_best(self, monkeypatch):
        # Each block's two float-sum calls, its groups' top subsets and then
        # the other survivors, share the block's rows and subsets.  Every
        # pair summed has a bound, its level masks' weighted bit counts plus
        # the margin, that reaches its owner's best on entry to the call,
        # and no pair of a block is summed twice.  The composite's table
        # scores only the count 5 above 0, one level; at tau = 0 the counts
        # 3 to 5 score above 0, three levels, and every subset of every
        # trial is offered.
        bits, kind = self._null_chunk()
        calls, score = [], detectors._score_pairs

        def record(flat, rows, block, owner, f, best, group, sub):
            calls.append((flat, rows, block, owner, best.copy(), group.copy(), sub.copy()))
            score(flat, rows, block, owner, f, best, group, sub)

        monkeypatch.setattr(detectors, "_score_pairs", record)
        for tau, levels in [(kind.tau, 1), (0.0, 3)]:
            f = detectors._contribution_table(5, 0.25, tau)
            assert (_levels(f), detectors._only_full_scores(f)) == (levels, levels == 1)
            h = np.maximum(f, 0.0)
            eps = np.finfo(np.float64).eps
            margin = 4.0 * 64 * max(64, levels**2) * eps * float(np.abs(f).max())
            calls.clear()
            _batch_statistic(bits, 0.25, dataclasses.replace(kind, tau=tau))
            blocks = {}
            for flat, rows, block, owner, best, group, sub in calls:
                counts = flat[rows[group[:, None], block[sub]]].sum(axis=1)
                bound = margin
                for c in range(5, 5 - levels, -1):
                    bound = bound + (h[c] - h[c - 1]) * (counts >= c).sum(axis=-1)
                assert (bound >= best[owner[group]]).all()
                pairs = blocks.setdefault((id(rows), id(block)), [])
                pairs.extend(zip(group.tolist(), sub.tolist()))
            assert len(calls) == 2 * len(blocks)
            assert sum(map(len, blocks.values())) > len(blocks)
            assert all(len(pairs) == len(set(pairs)) for pairs in blocks.values())

    def test_many_level_scan_memory_is_bounded(self):
        # k_scan = 8 at tau = 0 and p0 = 0.1 scores the counts 2 to 8 above
        # 0: seven level masks and the row scratch of four words a row, 289
        # bytes a pair with the rest, so the C(16, 8) = 12,870 subsets take
        # blocks of 1,814 pairs, and the peak is about 1.5 BATCH_BYTES.
        # Blocks sized for one mask, 97 bytes a pair, would hold 5,405
        # pairs and peak at about 3.3 BATCH_BYTES.
        f = detectors._contribution_table(8, 0.1, 0.0)
        assert _levels(f) == 7
        bits = (np.random.default_rng(5).random((1, 16, 256)) < 0.1).astype(np.uint8)
        detectors._scan_max(bits, f, 10**6)  # fill the table caches
        tracemalloc.start()
        try:
            got = detectors._scan_max(bits, f, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _bit_equal(_full_scan(bits, f), got)
        assert peak < 3 * rng.BATCH_BYTES


class TestPackedWords:
    """The bounded kernel's all-ones counts: rows packed into uint64 words,
    ANDed, and counted by np.bitwise_count."""

    @pytest.mark.parametrize("cols", [1, 7, 8, 63, 64, 65, 128, 129, 200])
    def test_packed_and_counts_all_ones_columns(self, cols):
        gen = np.random.default_rng(cols)
        flat = (gen.random((6, cols)) < 0.8).astype(np.uint8)
        packed = detectors._pack_rows(flat)
        assert packed.shape == (6, -(-cols // 64)) and packed.dtype == np.uint64
        for k in range(1, 7):
            for subset in combinations(range(6), k):
                words = np.bitwise_and.reduce(packed[list(subset)], axis=0)
                full = np.bitwise_count(words).sum()
                assert full == (flat[list(subset)].sum(axis=0) == k).sum()


class TestLevelBound:
    """_score_subsets' bound, sum_c (h[c] - h[c - 1]) times the bits of
    level c, h = max(f, 0), plus its rounding margin, reaches every subset's
    computed score, for any table."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 8),
        cols=st.sampled_from([1, 2, 7, 8, 63, 64, 65, 128, 129, 200, 256]),
        k_frac=st.floats(0.0, 1.0),
        table=st.sampled_from(["random", "nonnegative", "tied", "contribution", "empty"]),
        values=st.lists(st.floats(-4.0, 12.0), min_size=9, max_size=9),
        ties=st.lists(st.sampled_from([-0.3, 0.0, 0.1, 0.7, 3.3]), min_size=9, max_size=9),
        p0=st.sampled_from([1e-12, 0.05, 0.1, 0.25, 0.5]),
        tau=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        density=st.sampled_from([0.1, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_reaches_every_score(
        self, rows, cols, k_frac, table, values, ties, p0, tau, density, seed
    ):
        """Rows of one to four packed words, with and without padding bits.
        Each k-subset of the rows is its own group, one subset of its k
        rows, whose owner's best is its own computed score: the kernel sums
        the group's top, its only subset, exactly when the bound reaches
        that score, so every group must be summed.  Random tables have any
        signs and f[k] below max f[:k]; nonnegative ones make the exact
        bound the exact score, so only the margin separates the two
        roundings; tied ones repeat values, so levels have zero weights;
        and the empty-subgraph table scores only the count 0."""
        k = 1 + round(k_frac * (rows - 1))
        if table == "contribution":
            assume(z_threshold_to_count(tau, BennettKernel(k, p0)) < k)
            f = detectors._contribution_table(k, p0, tau)
        elif table == "empty":
            f = np.where(np.arange(k + 1) == 0, 1.0, 0.0)
        else:
            f = np.array((ties if table == "tied" else values)[: k + 1])
            if table == "nonnegative":
                f = np.abs(f)
        flat = (np.random.default_rng(seed).random((rows, cols)) < density).astype(np.uint8)
        subsets = np.array(list(combinations(range(rows), k)), dtype=np.intp)
        computed = f[flat[subsets].sum(axis=1)].sum(axis=-1)
        summed, score = [], detectors._score_pairs

        def record(flat, rows, block, owner, f, best, group, sub):
            summed.extend(owner[group].tolist())
            score(flat, rows, block, owner, f, best, group, sub)

        best = computed.copy()
        group = np.arange(len(subsets))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detectors, "_score_pairs", record)
            detectors._score_subsets(
                flat, group, subsets, np.arange(k)[None], f, best, detectors._pack_rows(flat)
            )
        assert sorted(summed) == group.tolist()
        assert _bit_equal(computed, best)


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
        chunks = [len(s[part]) for s, block in rng.trial_blocks(13, rng.TAG_CAL, 8, 8, 3000)
                  for part, _ in block]
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
    @settings(max_examples=150, deadline=None)
    @given(
        n1=st.integers(1, 24), n2=st.integers(1, 24),
        f1=st.floats(0.0, 1.0), f2=st.floats(0.0, 1.0),
        p0=st.floats(0.01, 0.99),
        c_tau=st.floats(0.01, 20.0),
        budget=st.sampled_from([None, 1, 10**6]),
    )
    def test_resolve_refuses_what_the_subtest_refuses(self, n1, n2, f1, f2, p0, c_tau, budget):
        """resolve_kind refuses DELTA_STAR, with the same error type, exactly
        when the sub-test it resolves to, given the composite's budget, fails
        on one null trial with a ParameterError or EmptyConditionError.  A
        budget that a scan exceeds is left to the scan."""
        shape = ProblemShape(n1, n2, max(1, round(f1 * n1)), max(1, round(f2 * n2)))
        assume(max(math.comb(n1, shape.k1), math.comb(n2, shape.k2)) <= 10**6)
        consts = RateConstants(C_tau=c_tau)
        sub = delta_star_subtest(shape, p0, consts)

        def refusal(call):
            try:
                call()
            except (ParameterError, EmptyConditionError) as exc:
                return type(exc)
            except BudgetError:
                pass
            return None

        composite = DetectorKind(DetectorTag.DELTA_STAR, budget=budget)
        refused = refusal(lambda: detectors.resolve_kind(composite, shape, p0, consts))

        def one_trial():
            null_statistics(dataclasses.replace(sub, budget=budget), shape, p0, 1, 0)

        assert refused is refusal(one_trial)
        if refused is None:
            resolved = detectors.resolve_kind(composite, shape, p0, consts)
            assert resolved == dataclasses.replace(sub, budget=budget)

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

    @pytest.mark.parametrize("kind", [
        TOTAL,
        DetectorKind(TRUNC1, tau=1.0),
        DetectorKind(TRUNC2, tau=1.0),
        DetectorKind(MAX1, tau=1.0, k_scan=3, budget=1),
        DetectorKind(MAX2, tau=1.0, k_scan=3, budget=1),
    ], ids=lambda kind: kind.tag.value)
    def test_zero_trials(self, kind):
        """On zero trials every statistic returns an empty float array and
        builds no table of subsets, so a budget of 1 is refused only once a
        trial is scanned: resolve_kind checks a sub-test this way."""
        got = _batch_statistic(np.zeros((0, 6, 9), np.uint8), 0.25, kind)
        assert got.shape == (0,) and got.dtype == np.float64
        if kind.budget is not None:
            with pytest.raises(BudgetError):
                _batch_statistic(np.zeros((1, 6, 9), np.uint8), 0.25, kind)
