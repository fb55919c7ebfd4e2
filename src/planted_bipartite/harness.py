"""Monte Carlo experiment engine.

Estimates Type I / Type II error of a detector over many seeded trials,
sweeps a grid of signal strengths, bisects for the empirical separation
level, and evaluates rate bundles over shape grids.  Everything is a pure
function of (config, seed): per-trial seeds are derived from the experiment
seed and trial index, so results are identical for any batch size, and the
same uniforms drive every point of a delta grid (common random numbers).
Trials arrive in chunks of at most rng.BATCH_BYTES of uniforms, so memory
does not grow with the trial count.  The threshold and the Type I error are
computed once per sweep and once per bisection, and `SweepResult` carries
the resolved detector and threshold.  Result rows are written as CSV only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .detectors import (
    DetectorKind, ThresholdSpec, _batch_statistic, null_statistics, resolve_threshold,
)
from .errors import BracketError, ConfigError, ParameterError
from .graph_model import ProblemShape
from .rates import RateBundle, RateConstants, rate_bundle
from .rng import TAG_ALT, TAG_COLS, TAG_NULL, TAG_ROWS, below, sample_subsets, trial_blocks


@dataclass(frozen=True)
class ExperimentConfig:
    shape: ProblemShape
    p0: float
    delta_grid: tuple[float, ...]
    detector: DetectorKind
    threshold: ThresholdSpec
    trials: int
    seed: int
    consts: RateConstants = field(default_factory=RateConstants)

    def __post_init__(self):
        if not 0.0 < self.p0 < 1.0:
            raise ConfigError("p0", f"must lie in (0, 1), got {self.p0}")
        if not self.delta_grid:
            raise ConfigError("delta_grid", "must be nonempty")
        for d in self.delta_grid:
            if not 0.0 <= d <= 1.0 - self.p0 + 1e-12:
                raise ConfigError("delta_grid", f"value {d} outside [0, 1 - p0]")
        if self.trials < 100:
            raise ConfigError("trials", f"must be >= 100, got {self.trials}")


@dataclass(frozen=True)
class RiskEstimate:
    type1: float
    type2: float
    se1: float
    se2: float
    trials: int

    @property
    def risk(self) -> float:
        return self.type1 + self.type2


def _proportion_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def _null_reject_count(
    kind: DetectorKind, shape: ProblemShape, p0: float, threshold: float, trials: int, seed: int
) -> int:
    stats = null_statistics(kind, shape, p0, trials, seed, tag=TAG_NULL)
    return int((stats > threshold).sum())


def _planted_accept_count(
    kind: DetectorKind, shape: ProblemShape, p0: float, deltas: list[float], threshold: float,
    trials: int, seed: int,
) -> list[int]:
    """Planted trials accepted at each of `deltas`.  Each block's supports
    and each chunk's uniforms and null bits are drawn once; at each delta
    only the k1 x k2 planted cells of the bits are compared again."""
    counts = [0] * len(deltas)
    cuts = [below(p0 + delta) for delta in deltas]
    for seeds, chunks in trial_blocks(seed, TAG_ALT, shape.n1, shape.n2, trials):
        rows = sample_subsets(seeds, TAG_ROWS, shape.n1, shape.k1)
        cols = sample_subsets(seeds, TAG_COLS, shape.n2, shape.k2)
        for part, x in chunks:
            block = (np.arange(len(x))[:, None, None], rows[part, :, None], cols[part, None, :])
            bits = (x < below(p0)).view(np.uint8)
            for i, cut in enumerate(cuts):
                bits[block] = x[block] < cut
                stats = _batch_statistic(bits, p0, kind)
                counts[i] += int((stats <= threshold).sum())
    return counts


def _resolve(cfg: ExperimentConfig) -> tuple[DetectorKind, float, int]:
    """(concrete kind, threshold, null rejections over cfg.trials): the
    delta-independent part of a risk estimate."""
    kind, threshold = resolve_threshold(cfg.detector, cfg.shape, cfg.p0, cfg.threshold, cfg.consts)
    return kind, threshold, _null_reject_count(
        kind, cfg.shape, cfg.p0, threshold, cfg.trials, cfg.seed
    )


def _evaluate(cfg: ExperimentConfig, resolved: tuple, deltas: list[float]) -> list[RiskEstimate]:
    """Risk estimates at each of `deltas` for a config resolved by _resolve."""
    kind, threshold, r1 = resolved
    n = cfg.trials
    accepts = _planted_accept_count(kind, cfg.shape, cfg.p0, deltas, threshold, n, cfg.seed)
    se1 = _proportion_se(r1 / n, n)
    return [RiskEstimate(r1 / n, r2 / n, se1, _proportion_se(r2 / n, n), n) for r2 in accepts]


def estimate_risk(cfg: ExperimentConfig, delta: float) -> RiskEstimate:
    """Type I over null trials plus Type II over planted trials with uniform
    random support at signal level delta, both at the resolved threshold."""
    return _evaluate(cfg, _resolve(cfg), [delta])[0]


@dataclass(frozen=True)
class SweepRow:
    delta: float
    estimate: RiskEstimate


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    type2_monotone: bool
    kind: DetectorKind
    threshold: float


def power_sweep(cfg: ExperimentConfig) -> SweepResult:
    """One risk estimate per grid delta, sharing random numbers across the
    grid, plus a flag for whether Type II decreases in delta up to noise."""
    resolved = _resolve(cfg)
    deltas = sorted(cfg.delta_grid)
    rows = tuple(SweepRow(d, e) for d, e in zip(deltas, _evaluate(cfg, resolved, deltas)))
    monotone = True
    for a, b in zip(rows, rows[1:]):
        slack = 4.0 * (a.estimate.se2 + b.estimate.se2)
        if b.estimate.type2 > a.estimate.type2 + slack:
            monotone = False
    return SweepResult(rows, monotone, kind=resolved[0], threshold=resolved[1])


def bisect_delta_star(cfg: ExperimentConfig, tolerance: float, eta: float = 0.5) -> float:
    """Bisection for the signal level where empirical risk crosses eta, a
    level in (0, 1).

    Requires risk(0) > eta and risk(1 - p0) < eta; common random numbers
    make the empirical risk monotone enough for bisection at desk scale.
    """
    if not tolerance > 0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    if not 0.0 < eta < 1.0:
        raise ParameterError(f"eta must lie in (0, 1), got {eta}")
    resolved = _resolve(cfg)
    lo, hi = 0.0, 1.0 - cfg.p0
    risk_lo, risk_hi = (e.risk for e in _evaluate(cfg, resolved, [lo, hi]))
    if not (risk_lo > eta and risk_hi < eta):
        raise BracketError(
            f"no crossing: risk({lo})={risk_lo:.4f}, risk({hi})={risk_hi:.4f}, eta={eta}"
        )
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if _evaluate(cfg, resolved, [mid])[0].risk > eta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def phase_diagram(
    shape_grid, consts: RateConstants = RateConstants()
) -> list[tuple[ProblemShape, RateBundle]]:
    """Rate bundle (components, R, R_tilde, branch) for every grid shape."""
    grid = list(shape_grid)
    if not grid:
        raise ParameterError("shape grid must be nonempty")
    return [(shape, rate_bundle(shape, consts)) for shape in grid]


@dataclass(frozen=True)
class ResultRow:
    experiment_id: str
    n1: int
    n2: int
    k1: int
    k2: int
    p0: float
    delta: float
    detector: str
    threshold_mode: str
    threshold: float
    trials: int
    seed: int
    type1: float
    se1: float
    type2: float
    se2: float
    risk: float


CSV_COLUMNS = [f.name for f in fields(ResultRow)]


def result_rows(cfg: ExperimentConfig, sweep: SweepResult, experiment_id: str) -> list[ResultRow]:
    return [
        ResultRow(
            experiment_id=experiment_id,
            n1=cfg.shape.n1, n2=cfg.shape.n2, k1=cfg.shape.k1, k2=cfg.shape.k2,
            p0=cfg.p0, delta=row.delta,
            detector=sweep.kind.tag.value,
            threshold_mode=cfg.threshold.mode.value,
            threshold=sweep.threshold,
            trials=cfg.trials, seed=cfg.seed,
            type1=row.estimate.type1, se1=row.estimate.se1,
            type2=row.estimate.type2, se2=row.estimate.se2,
            risk=row.estimate.risk,
        )
        for row in sweep.rows
    ]


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def emit_results(table: list[ResultRow], path) -> None:
    """Write result rows as CSV in the fixed CSV_COLUMNS order, with
    17-significant-digit floats."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in table:
            writer.writerow([_fmt(getattr(row, c)) for c in CSV_COLUMNS])
