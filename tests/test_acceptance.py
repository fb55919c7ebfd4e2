"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
so the whole gate can be read off a `pytest -s` run at a glance.
"""

import math
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from planted_bipartite import (
    BennettKernel,
    DetectorKind,
    DetectorTag,
    ExperimentConfig,
    ProblemShape,
    ThresholdMode,
    ThresholdSpec,
    binomial_tail,
    bisect_delta_star,
    calibrate_threshold,
    delta_star_bounds,
    gamma,
    nu,
    power_sweep,
    rate_bundle,
    risk_lower_bound,
    second_moment_exact,
    second_moment_exp_bounds,
    tv_exact,
    w_stat,
    z_threshold_to_count,
)
from planted_bipartite import rng
from planted_bipartite.cli import dispatch
from planted_bipartite.detectors import null_statistics, truncation_levels
from oracles import (
    bennett_h, empty_subgraph_diagnostic, second_moment_bruteforce, total_degree_errors,
)


@contextmanager
def criterion(label):
    # Write to the unbuffered real stdout so the verdict line survives
    # pytest's capture in plain `pytest -v` runs.
    try:
        yield
    except Exception:
        print(f"{label}: FAIL", file=sys.__stdout__)
        raise
    print(f"{label}: PASS", file=sys.__stdout__)


def _std_normal_tail(a):
    return 0.5 * math.erfc(a / math.sqrt(2.0))


def test_a1_kernel_exactness():
    with criterion("A1"):
        # Closed-form spot checks.
        assert bennett_h(0.0) == 0.0
        assert bennett_h(-1.0) == 1.0
        assert bennett_h(1.0) == pytest.approx(2 * math.log(2) - 1, rel=1e-12)
        assert w_stat(2, BennettKernel(4, 0.25)) == pytest.approx(0.575364, abs=1e-6)
        assert w_stat(4, BennettKernel(4, 0.25)) == pytest.approx(4 * math.log(4), rel=1e-12)
        assert nu(1.0, BennettKernel(4, 0.25)) == pytest.approx(0.940023, abs=1e-6)
        assert nu(0.0, BennettKernel(2, 0.25)) == pytest.approx(0.642670, abs=5e-6)
        assert binomial_tail(4, 10, 0.25) == pytest.approx(0.2241249, abs=1e-7)

        # Conditional moments against a fresh Monte Carlo oracle.
        rng = np.random.default_rng(20260823)
        for n in (10, 50, 200):
            for p0 in (0.1, 0.25):
                kern = BennettKernel(n, p0)
                for a in (0.5, 1.0, 2.0):
                    kmin = z_threshold_to_count(a, kern)
                    ys = rng.binomial(n, p0, size=1_000_000)
                    sel = ys[ys >= kmin]
                    ws = w_stat(sel, kern)
                    for moment, func in [(ws, nu), (ws**2, gamma)]:
                        se = moment.std(ddof=1) / math.sqrt(len(moment))
                        assert abs(func(a, kern) - moment.mean()) <= 4 * se


def test_a2_kernel_inequalities():
    with criterion("A2"):
        for n in (10, 100, 1000):
            for p0 in (0.05, 0.1, 0.25):
                kern = BennettKernel(n, p0)
                ys = np.arange(n + 1)
                ws = w_stat(ys, kern)

                # Quadratic envelope: global upper, lower near the mean.
                assert np.all(ws <= (ys - kern.mean) ** 2 / kern.sigma**2 + 1e-9)
                near = (ys >= kern.mean) & (ys <= kern.mean + 0.05 * kern.sigma**2)
                if near.any():
                    lower = (ys[near] - kern.mean) ** 2 / (8 * kern.sigma**2)
                    assert np.all(ws[near] >= lower - 1e-12)

                # Bernstein upper bound on the upper tail.
                for y in range(int(math.ceil(kern.mean)) + 1, n + 1):
                    t = (y - kern.mean) / kern.sigma
                    bound = math.exp(-(t * t / 2) / (1 + t / (3 * kern.sigma)))
                    assert binomial_tail(y, n, p0) <= bound * (1 + 1e-12)

                # Gaussian lower bound on the upper tail (valid for p0 <= 1/4):
                # tail >= 1 - Phi(a), and tail >= exp(-a^2/2) / (4a) on a >= 2.
                for y in range(n + 1):
                    a = (y - kern.mean) / kern.sigma
                    if not 2.0 <= a <= kern.sigma:
                        continue
                    tail = binomial_tail(y, n, p0)
                    assert tail >= _std_normal_tail(a) * (1 - 1e-12)
                    assert tail >= math.exp(-a * a / 2) / (4 * a) * (1 - 1e-12)


def test_a3_type_one_control():
    with criterion("A3"):
        alpha, trials = 0.1, 10_000
        big = ProblemShape(64, 64, 8, 8)
        small = ProblemShape(12, 64, 3, 8)
        cases = [
            (DetectorKind(DetectorTag.TOTAL_DEGREE), big),
            (
                DetectorKind(
                    DetectorTag.TRUNC_DEGREE_AXIS1,
                    tau=truncation_levels(big)[0],
                ),
                big,
            ),
            (
                DetectorKind(
                    DetectorTag.MAX_TRUNC_AXIS1,
                    tau=truncation_levels(small)[1],
                    k_scan=3,
                ),
                small,
            ),
        ]
        se = math.sqrt(alpha * (1 - alpha) / trials)
        for kind, shape in cases:
            h = calibrate_threshold(kind, shape, 0.25, alpha, trials, seed=12)
            fresh = null_statistics(kind, shape, 0.25, trials, seed=101)
            type1 = float((fresh > h).mean())
            assert abs(type1 - alpha) <= 4 * se


def _a4_config():
    shape = ProblemShape(64, 64, 16, 16)
    p0 = 0.25
    rb = rate_bundle(shape)
    delta = min(math.sqrt(16 * p0 * (1 - p0) * rb.R), 1 - p0)
    grid = (0.0, delta / 3, 2 * delta / 3, delta)
    cfg = ExperimentConfig(
        shape=shape,
        p0=p0,
        delta_grid=grid,
        detector=DetectorKind(DetectorTag.DELTA_STAR),
        threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1, trials=10_000, seed=12),
        trials=2000,
        seed=404,
    )
    return cfg, delta


def test_a4_detection_power():
    with criterion("A4"):
        cfg, delta = _a4_config()
        sweep = power_sweep(cfg)
        top = sweep.rows[-1].estimate
        assert sweep.rows[-1].delta == delta
        assert top.risk <= 0.5
        assert sweep.type2_monotone


def test_a5_delta_star_sandwich():
    with criterion("A5"):
        cfg, _ = _a4_config()
        lower, upper = delta_star_bounds(cfg.shape, cfg.p0)
        d_star = bisect_delta_star(cfg, tolerance=0.02, eta=0.5)
        assert lower <= d_star <= upper


def test_a6_lower_bound_chain():
    with criterion("A6"):
        for n1 in range(1, 7):
            for n2 in range(1, 7):
                for k1 in range(1, min(2, n1) + 1):
                    for k2 in range(1, min(2, n2) + 1):
                        shape = ProblemShape(n1, n2, k1, k2)
                        for p0 in (0.1, 0.25):
                            for delta in (0.0, 0.1, 0.25):
                                exact = second_moment_exact(shape, p0, delta)
                                brute = second_moment_bruteforce(shape, p0, delta)
                                assert exact == pytest.approx(brute, rel=1e-10, abs=1e-10)
                                exp_h, exp_b = second_moment_exp_bounds(shape, p0, delta)
                                assert 1.0 - 1e-12 <= exact <= exp_h * (1 + 1e-12)
                                assert exp_h <= exp_b * (1 + 1e-12) or math.isinf(exp_b)
                                if n1 * n2 <= 12:
                                    bayes = 1.0 - tv_exact(shape, p0, delta)
                                    assert bayes >= risk_lower_bound(exact) - 1e-10


def test_a7_small_signal_second_moment():
    with criterion("A7"):
        shapes = [
            ProblemShape(n, n, k, k)
            for n in (16, 24, 32, 48, 64)
            for k in (2, 4, 6, 8)
        ]
        assert len(shapes) == 20
        p0 = 0.25
        for shape in shapes:
            rb = rate_bundle(shape)
            assert math.isfinite(rb.R)
            delta = math.sqrt(0.01 * p0 * (1 - p0) * rb.R)
            exact = second_moment_exact(shape, p0, delta)
            assert exact - 1.0 <= 1.0


def test_a8_empty_subgraph_diagnostics():
    with criterion("A8"):
        grid = [
            (ProblemShape(4, 4, 2, 2), 0.5),
            (ProblemShape(6, 6, 2, 2), 0.5),
            (ProblemShape(8, 8, 2, 2), 0.7),
            (ProblemShape(5, 5, 3, 3), 0.3),
            (ProblemShape(6, 4, 2, 1), 0.4),
            (ProblemShape(3, 6, 1, 2), 0.5),
            (ProblemShape(7, 7, 2, 2), 0.6),
            (ProblemShape(5, 8, 2, 2), 0.5),
            (ProblemShape(4, 4, 1, 1), 0.5),
            (ProblemShape(6, 6, 3, 3), 0.4),
        ]
        for i, (shape, p0) in enumerate(grid):
            res = empty_subgraph_diagnostic(shape, p0, trials=2000, seed=50 + i)
            assert res["mc_estimate"] <= min(1.0, res["union_bound"]) + 4 * res["mc_se"]

        # 1x1 blocks: an all-zero block exists iff some entry is zero.
        for shape, p0 in [(ProblemShape(2, 2, 1, 1), 0.5), (ProblemShape(3, 4, 1, 1), 0.6)]:
            res = empty_subgraph_diagnostic(shape, p0, trials=20_000, seed=99)
            closed = 1.0 - p0 ** (shape.n1 * shape.n2)
            se = math.sqrt(max(closed * (1 - closed), 1e-12) / 20_000)
            assert abs(res["mc_estimate"] - closed) <= 4 * se


def test_a9_phase_structure():
    with criterion("A9"):
        n1, n2, k2 = 10_000, 4096, 2

        def closed_form(k1):
            return math.log1p((n1 * k2 / k1**2) * math.log(n2)) / k2

        # Bracket on the range where the slice hypotheses hold.
        for k1 in (150, 200, 250, 300, 350, 400, 450, 480):
            assert k1 * k1 >= n1 * k2
            assert n1 / k1 >= math.e * math.log(n2 / k2)
            ratio = rate_bundle(ProblemShape(n1, n2, k1, k2)).R / closed_form(k1)
            assert 1 / 8 <= ratio <= 8

        # Exactly one branch change along the monotone k1 path.
        path = list(range(100, 1001, 50))
        branches = [rate_bundle(ProblemShape(n1, n2, k1, k2)).branch for k1 in path]
        changes = sum(1 for a, b in zip(branches, branches[1:]) if a is not b)
        assert changes == 1


def test_a10_batch_size_determinism(tmp_path, monkeypatch):
    with criterion("A10"):
        # 64x64 float64 uniforms take 32 KiB per trial: budgets of one trial,
        # the default 16 trials and all 400 trials per chunk.
        outs = []
        for budget in (8 * 64 * 64, rng.BATCH_BYTES, 8 * 64 * 64 * 400):
            monkeypatch.setattr(rng, "BATCH_BYTES", budget)
            out = tmp_path / f"b{budget}.csv"
            code = dispatch([
                "sweep", "--n1", "64", "--n2", "64", "--k1", "16", "--k2", "16",
                "--p0", "0.25", "--delta", "0,0.2,0.4", "--trials", "400",
                "--seed", "7", "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


def test_a12_total_degree_exact_errors():
    with criterion("A12"):
        # The edge total has an exact law under both hypotheses, so the
        # sweep's Type I and each Type II lie within 4 SE of the oracle's,
        # the SE being that of the exact proportion.  The last grid point
        # plants a block of all ones.
        p0, trials = 0.25, 20_000
        for shape in (ProblemShape(16, 16, 4, 4), ProblemShape(12, 20, 3, 5)):
            cfg = ExperimentConfig(
                shape=shape,
                p0=p0,
                delta_grid=(0.0, 0.15, 0.3, 0.45, 0.6, 1 - p0),
                detector=DetectorKind(DetectorTag.TOTAL_DEGREE),
                threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1, trials=2000, seed=3),
                trials=trials,
                seed=12,
            )
            sweep = power_sweep(cfg)
            for row in sweep.rows:
                type1, type2 = total_degree_errors(shape, p0, row.delta, sweep.threshold)
                for mc, exact in ((row.estimate.type1, type1), (row.estimate.type2, type2)):
                    assert abs(mc - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)
