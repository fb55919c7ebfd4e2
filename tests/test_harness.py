import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from planted_bipartite import (
    BracketError,
    ConfigError,
    DetectorKind,
    DetectorTag,
    ExperimentConfig,
    ParameterError,
    ProblemShape,
    SignalConfig,
    ThresholdMode,
    ThresholdSpec,
    bisect_delta_star,
    emit_results,
    estimate_risk,
    phase_diagram,
    power_sweep,
    sample_null,
    sample_planted_uniform_support,
)
from planted_bipartite import detectors, harness, rng
from planted_bipartite.detectors import resolve_threshold
from planted_bipartite.harness import CSV_COLUMNS, RiskEstimate, SweepResult, result_rows
from oracles import empty_subgraph_diagnostic


def _cfg(**over):
    base = dict(
        shape=ProblemShape(16, 16, 4, 4),
        p0=0.25,
        delta_grid=(0.0, 0.3),
        detector=DetectorKind(DetectorTag.TOTAL_DEGREE),
        threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1, trials=2000, seed=5),
        trials=1000,
        seed=17,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="delta_grid"):
            _cfg(delta_grid=())

    def test_grid_range(self):
        with pytest.raises(ConfigError, match="delta_grid"):
            _cfg(delta_grid=(0.9,))

    def test_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            _cfg(trials=50)


class TestEstimateRisk:
    def test_never_reject(self):
        cfg = _cfg(threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1,
                                           trials=100, seed=5, value=math.inf))
        est = estimate_risk(cfg, 0.3)
        assert est.type1 == 0.0 and est.type2 == 1.0 and est.risk == 1.0

    def test_always_reject(self):
        cfg = _cfg(threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1,
                                           trials=100, seed=5, value=-math.inf))
        est = estimate_risk(cfg, 0.3)
        assert est.type1 == 1.0 and est.type2 == 0.0 and est.risk == 1.0

    def test_delta_zero_calibration_contract(self):
        cfg = _cfg(
            shape=ProblemShape(64, 64, 8, 8),
            threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1, trials=5000, seed=12),
            trials=5000,
            seed=303,
        )
        est = estimate_risk(cfg, 0.0)
        se = math.sqrt(0.1 * 0.9 / cfg.trials)
        assert abs(est.type1 - 0.1) <= 5 * se
        assert abs(est.type2 - 0.9) <= 5 * se

    def test_determinism(self):
        cfg = _cfg()
        a = estimate_risk(cfg, 0.2)
        b = estimate_risk(cfg, 0.2)
        assert a == b


class TestPowerSweep:
    def test_zero_grid_risk_near_one(self):
        cfg = _cfg(delta_grid=(0.0,))
        sw = power_sweep(cfg)
        assert len(sw.rows) == 1
        assert sw.rows[0].risk == pytest.approx(1.0, abs=0.1)

    def test_power_improves(self):
        cfg = _cfg(shape=ProblemShape(32, 32, 16, 16), delta_grid=(0.0, 0.5), trials=800)
        sw = power_sweep(cfg)
        assert sw.rows[1].risk < sw.rows[0].risk
        # Type II does not rise along the grid beyond 4 standard errors.
        rows = sw.rows
        assert all(b.type2 <= a.type2 + 4.0 * (a.se2 + b.se2) for a, b in zip(rows, rows[1:]))

    @pytest.mark.parametrize("value", [None, math.inf, -math.inf])
    def test_equals_estimate_per_delta(self, value):
        cfg = _cfg(delta_grid=(0.3, 0.0, 0.15), trials=300,
                   threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1,
                                           trials=500, seed=5, value=value))
        sw = power_sweep(cfg)
        assert [row.delta for row in sw.rows] == [0.0, 0.15, 0.3]
        for row in sw.rows:
            assert row == estimate_risk(cfg, row.delta)
        kind, threshold = resolve_threshold(cfg.detector, cfg.shape, cfg.p0, cfg.threshold)
        assert (sw.kind, sw.threshold) == (kind, threshold)

    def test_se_scaling(self):
        cfg1 = _cfg(trials=1000)
        cfg2 = _cfg(trials=4000)
        e1 = estimate_risk(cfg1, 0.0)
        e2 = estimate_risk(cfg2, 0.0)
        # se ~ 1/sqrt(trials): quadrupling trials halves the se within noise.
        # These configs give 0.00858 and 0.00434, a ratio of 0.506.
        assert e1.se1 > 0 and e2.se1 > 0
        assert 0.45 <= e2.se1 / e1.se1 <= 0.55

    @pytest.mark.parametrize("n", [100, 101, 1000, 4096])
    def test_se_is_the_binomial_formula(self, n):
        """se1 and se2 are derived from the stored rate and trial count, bit
        for bit the double sqrt(p (1 - p) / n) at p = r / n, for every count
        r."""
        for r in range(n + 1):
            p = r / n
            want = math.sqrt(p * (1 - p) / n)
            e = RiskEstimate(0.0, p, p, n)
            assert (e.se1, e.se2) == (want, want), (n, r)


class TestBisect:
    def test_degenerate_detector(self):
        cfg = _cfg(threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1,
                                           trials=100, seed=5, value=-math.inf))
        with pytest.raises(BracketError):
            bisect_delta_star(cfg, 0.05)

    def test_calibrates_once(self, monkeypatch):
        calls = []
        original = detectors.calibrate_threshold
        monkeypatch.setattr(detectors, "calibrate_threshold",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        cfg = _cfg(
            shape=ProblemShape(32, 32, 16, 16),
            threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1, trials=200, seed=5),
            trials=200,
        )
        bisect_delta_star(cfg, 0.1)
        assert len(calls) == 1

    def test_crossing_in_range(self):
        cfg = _cfg(
            shape=ProblemShape(32, 32, 16, 16),
            threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1, trials=1000, seed=5),
            trials=500,
        )
        d = bisect_delta_star(cfg, 0.05)
        assert 0.0 < d < 0.75

    @pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1.0])
    def test_tolerance_must_be_positive(self, tolerance):
        """A NaN tolerance passes a `<= 0` check and would return the
        bracket midpoint."""
        cfg = _cfg(shape=ProblemShape(16, 16, 8, 8), trials=100,
                   threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1, trials=100, seed=5))
        with pytest.raises(ParameterError):
            bisect_delta_star(cfg, tolerance)

    @pytest.mark.parametrize("eta", [0.0, 1.0, math.nan])
    def test_eta_must_lie_in_open_unit_interval(self, eta):
        """A NaN eta fails both bracket comparisons and would be reported
        as a missing crossing, not as a bad level."""
        cfg = _cfg(shape=ProblemShape(16, 16, 8, 8), trials=100,
                   threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1, trials=100, seed=5))
        with pytest.raises(ParameterError, match="eta"):
            bisect_delta_star(cfg, 0.05, eta=eta)


_SMALL = ProblemShape(8, 8, 2, 2)
_FEW = ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1, trials=100, seed=5)
# Each entry point of a seed into the streams, as a function of the seed.
_SEEDED = {
    "sample_null": lambda s: sample_null(_SMALL, 0.25, s),
    "sample_planted_uniform_support":
        lambda s: sample_planted_uniform_support(_SMALL, SignalConfig(0.25, 0.5), s),
    "calibrate_threshold": lambda s: detectors.calibrate_threshold(
        DetectorKind(DetectorTag.TOTAL_DEGREE), _SMALL, 0.25, 0.1, 100, s),
    "power_sweep-seed": lambda s: power_sweep(_cfg(shape=_SMALL, threshold=_FEW, trials=100,
                                                   seed=s)),
    "power_sweep-threshold-seed": lambda s: power_sweep(_cfg(
        shape=_SMALL, trials=100,
        threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1, trials=100, seed=s))),
}


class TestSeedRange:
    """A seed outside [0, 2^64) is refused where it enters a stream, not
    reduced mod 2^64 onto the stream of another seed."""

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", "2^64"])
    @pytest.mark.parametrize("name", list(_SEEDED))
    def test_out_of_range_rejected(self, name, seed):
        with pytest.raises(ParameterError, match=r"\[0, 2\^64\)"):
            _SEEDED[name](seed)

    @pytest.mark.parametrize("name", list(_SEEDED))
    def test_range_ends_accepted(self, name):
        for seed in (0, 2**64 - 1):
            _SEEDED[name](seed)


class TestPhaseDiagram:
    def test_swap_symmetry(self):
        grid = [ProblemShape(64, 32, 8, 4), ProblemShape(32, 64, 4, 8)]
        rows = phase_diagram(grid)
        assert rows[0][1].R == rows[1][1].R

    def test_branch_is_argmin(self):
        grid = [ProblemShape(n, 64, k, 8) for n in (32, 64, 128) for k in (4, 8, 16)]
        for shape, rb in phase_diagram(grid):
            arms = {
                "MAX_TRUNC_1": rb.psi12 + rb.beta21,
                "MAX_TRUNC_2": rb.psi21 + rb.beta12,
                "BRANCH_A": rb.phi12,
                "BRANCH_B": rb.phi21,
            }
            assert arms[rb.branch.value] == rb.R_tilde


class TestEmptySubgraph:
    def test_p0_one(self):
        res = empty_subgraph_diagnostic(ProblemShape(4, 4, 2, 2), 1.0, 200, 3)
        assert res["union_bound"] == 0.0
        assert res["mc_estimate"] == 0.0

    def test_k1_closed_form(self):
        # 1x1 empty subgraph exists iff some entry is 0: 1 - p0^(n1 n2)
        res = empty_subgraph_diagnostic(ProblemShape(2, 2, 1, 1), 0.5, 20_000, 9)
        exact = 1 - 0.5**4
        se = math.sqrt(exact * (1 - exact) / 20_000)
        assert abs(res["mc_estimate"] - exact) <= 4 * se

    def test_union_bound_dominates(self):
        for shape, p0 in [
            (ProblemShape(6, 6, 2, 2), 0.5),
            (ProblemShape(8, 8, 2, 2), 0.7),
            (ProblemShape(5, 5, 3, 3), 0.3),
        ]:
            res = empty_subgraph_diagnostic(shape, p0, 2000, 4)
            assert res["mc_estimate"] <= min(1.0, res["union_bound"]) + 4 * res["mc_se"]

    def test_row_variant(self):
        res = empty_subgraph_diagnostic(ProblemShape(4, 3, 2, 1), 0.3, 2000, 5, row_variant=True)
        assert 0.0 <= res["mc_estimate"] <= 1.0
        assert res["mc_estimate"] <= min(1.0, res["union_bound"]) + 4 * res["mc_se"]

    def test_budget_counts_row_subsets(self):
        # C(20, 5) = 15,504 row subsets are scanned; C(20, 5) C(64, 5) blocks
        # are far above the budget but never enumerated.
        res = empty_subgraph_diagnostic(ProblemShape(20, 64, 5, 5), 0.25, 100, 6)
        assert res["trials"] == 100
        assert 0.0 <= res["mc_estimate"] <= 1.0


@st.composite
def _small_shapes(draw):
    n1, n2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return ProblemShape(n1, n2, draw(st.integers(1, n1)), draw(st.integers(1, n2)))


def _brute_force_hits(shape, p0, trials, seed, row_variant):
    """Trials whose TAG_NULL matrix has an all-zero k1 x k2 block (k1 rows
    with no edge at all for row_variant), testing every k1-row subset."""
    base = rng.derive_seed(seed, rng.TAG_NULL)
    need = shape.n2 if row_variant else shape.k2
    hits = 0
    for i in range(1, trials + 1):
        bits = rng.cell_uniforms((base + i) % 2**64, shape.n1, shape.n2) < rng.below(p0)
        hits += any(
            int((~bits[list(rows)].any(axis=0)).sum()) >= need
            for rows in combinations(range(shape.n1), shape.k1)
        )
    return hits


class TestEmptySubgraphExact:
    @settings(max_examples=25, deadline=None)
    @given(
        shape=_small_shapes(),
        p0=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        row_variant=st.booleans(),
        chunk=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # C(6, 3) = 20 subsets exceed 2 * n1 = 12: the subset runs and the trial
    # blocks inside each 2-trial chunk both split.
    @example(shape=ProblemShape(6, 4, 3, 2), p0=0.5, row_variant=False, chunk=2, seed=7)
    def test_matches_brute_force(self, shape, p0, row_variant, chunk, seed):
        """The Monte Carlo hit count is exactly the number of trials whose
        matrix an exhaustive subset check finds an empty block in, with
        batches of `chunk` trials."""
        trials = 100
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "BATCH_BYTES", 8 * shape.n1 * shape.n2 * chunk)
            res = empty_subgraph_diagnostic(shape, p0, trials, seed, row_variant=row_variant)
        hits = _brute_force_hits(shape, p0, trials, seed, row_variant)
        assert res["mc_estimate"] == hits / trials


class TestTrialPipeline:
    def test_planted_trials_match_sampler(self, monkeypatch):
        """Trial j of the planted pass is the matrix the sampler draws from
        seed derive_seed(seed, TAG_ALT) + j, across chunk boundaries."""
        shape, p0, delta, seed, trials = ProblemShape(12, 10, 3, 4), 0.25, 0.5, 21, 40
        monkeypatch.setattr(rng, "BATCH_BYTES", 8 * shape.n1 * shape.n2 * 16)  # 16 per chunk
        seen = []
        original = harness._batch_statistic

        def record(bits, *args):
            seen.extend(bits)
            return original(bits, *args)

        monkeypatch.setattr(harness, "_batch_statistic", record)
        kind = DetectorKind(DetectorTag.TOTAL_DEGREE)
        harness._planted_accept_count(kind, shape, p0, [delta], 0.0, trials, seed)
        assert len(seen) == trials
        base = rng.derive_seed(seed, rng.TAG_ALT)
        for j, bits in enumerate(seen, start=1):
            A, _ = sample_planted_uniform_support(shape, SignalConfig(p0, delta), base + j)
            assert np.array_equal(bits, A.bits), j

    @pytest.mark.parametrize("budget, blocks", [
        (2400, [(3, [1, 1, 1])] * 33 + [(2, [1, 1])]),
        (3840, [(4, [2, 2])] * 25 + [(1, [1])]),
    ], ids=["1-trial-chunks", "2-trial-chunks"])
    def test_blocks_do_not_change_results(self, monkeypatch, budget, blocks):
        """Small chunks in blocks of several chunks, the last block cut
        short, give the words, null statistics, planted bits and accept
        counts of the default sizes, where the 101 trials are one chunk."""
        shape, p0, seed, trials = ProblemShape(12, 20, 3, 5), 0.25, 8, 101
        kind = DetectorKind(DetectorTag.TRUNC_DEGREE_AXIS1, tau=1.0)
        seen = []
        original = harness._batch_statistic

        def record(bits, *args):
            seen.append(bits.copy())
            return original(bits, *args)

        monkeypatch.setattr(harness, "_batch_statistic", record)

        def run():
            sizes = [(len(seeds), [len(seeds[part]) for part, _ in chunks])
                     for seeds, chunks in rng.trial_blocks(seed, rng.TAG_ALT, 12, 20, trials)]
            words = np.concatenate([x.copy() for _, block in
                                    rng.trial_blocks(seed, rng.TAG_CAL, 12, 20, trials)
                                    for _, x in block])
            stats = detectors.null_statistics(kind, shape, p0, trials, seed)
            seen.clear()
            counts = harness._planted_accept_count(
                kind, shape, p0, [0.0, 0.5], float(np.median(stats)), trials, seed)
            # Each chunk is scored at both deltas in turn: regroup by delta.
            return sizes, words, stats, np.concatenate(seen[0::2] + seen[1::2]), counts

        sizes, words, stats, bits, counts = run()
        assert sizes == [(trials, [trials])]
        monkeypatch.setattr(rng, "BATCH_BYTES", budget)
        small = run()
        assert small[0] == blocks
        assert np.array_equal(small[1], words)
        assert np.array_equal(small[2].view(np.uint64), stats.view(np.uint64))
        assert np.array_equal(small[3], bits)
        assert small[4] == counts

    @pytest.mark.parametrize("n, trials", [(256, 40), (64, 300)])
    def test_planted_pass_memory_is_bounded(self, n, trials):
        """A planted pass holds a chunk of states and its scratch, the
        block's row hashes and supports, and the last chunk's bits, planted
        states and block index.  At p0 = 1/4 its null bits take one
        comparison, which allocates only the bits.  The peak is 2.41
        BATCH_BYTES at 256^2, as a chunk's bits are decided beside the last
        chunk's, and 2.90 at 64^2, as a block of 128 supports is shuffled.
        The bound leaves 0.35 of margin, so one more word-sized matrix per
        chunk fails it."""
        shape = ProblemShape(n, n, 16, 16)
        kind = DetectorKind(DetectorTag.TRUNC_DEGREE_AXIS1, tau=1.0)
        harness._planted_accept_count(kind, shape, 0.25, [0.0, 0.3], 0.0, 2, 3)
        tracemalloc.start()
        try:
            harness._planted_accept_count(kind, shape, 0.25, [0.0, 0.3], 0.0, trials, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.25 * rng.BATCH_BYTES


class TestEmitResults:
    def _rows(self):
        cfg = _cfg(delta_grid=(0.0, 0.2), trials=200,
                   threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1,
                                           trials=200, seed=5, value=1.5))
        sweep = power_sweep(cfg)
        return result_rows(cfg, sweep, "exp-1")

    def test_empty_table_header_only(self, tmp_path):
        p = tmp_path / "out.csv"
        emit_results([], p)
        lines = p.read_text().strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("experiment_id,n1,n2,")

    def test_round_trip_17_digits(self, tmp_path):
        import csv

        rows = self._rows()
        p = tmp_path / "out.csv"
        emit_results(rows, p)
        with open(p) as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == len(rows) == 2
        for row, rec in zip(rows, got):
            orig = dict(zip(CSV_COLUMNS, row))
            for column in ("p0", "delta", "threshold", "type1", "se1", "type2", "se2", "risk"):
                assert float(rec[column]) == orig[column], column
            assert int(rec["trials"]) == orig["trials"]

    def test_golden_bytes(self, tmp_path):
        """Hand-built estimates give exact bytes: the header, CRLF line ends,
        17-significant-digit floats, and se1 and se2 derived from the stored
        rates, in the columns that the tuples' order puts them."""
        cfg = _cfg(trials=200)
        rows = (RiskEstimate(0.0, 20 / 200, 175 / 200, 200),
                RiskEstimate(0.3, 20 / 200, 6 / 200, 200))
        sweep = SweepResult(rows, DetectorKind(DetectorTag.TOTAL_DEGREE), 1 / 3)
        p = tmp_path / "out.csv"
        emit_results(result_rows(cfg, sweep, "id"), p)
        assert p.read_bytes() == (
            b"experiment_id,n1,n2,k1,k2,p0,delta,detector,threshold_mode,threshold,trials,"
            b"seed,type1,se1,type2,se2,risk\r\n"
            b"id,16,16,4,4,0.25,0,TOTAL_DEGREE,CALIBRATED,0.33333333333333331,200,17,"
            b"0.10000000000000001,0.021213203435596427,0.875,0.023385358667337135,"
            b"0.97499999999999998\r\n"
            b"id,16,16,4,4,0.25,0.29999999999999999,TOTAL_DEGREE,CALIBRATED,"
            b"0.33333333333333331,200,17,0.10000000000000001,0.021213203435596427,"
            b"0.029999999999999999,0.012062338081814818,0.13\r\n"
        )

    def test_byte_identical_rerun(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(self._rows(), p1)
        emit_results(self._rows(), p2)
        assert p1.read_bytes() == p2.read_bytes()
