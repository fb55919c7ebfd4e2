"""Monte Carlo experiment engine.

Estimates Type I / Type II error of a detector over many seeded trials,
sweeps a grid of signal strengths, bisects for the empirical separation
level, and evaluates rate bundles over shape grids.  Everything is a pure
function of (config, seed): per-trial seeds are derived from the experiment
seed and trial index, so results are identical for any batch size, and the
same uniforms drive every point of a delta grid (common random numbers).
Trials arrive in chunks of at most rng.BATCH_BYTES of cell states, so
memory does not grow with the trial count.  rng.split_pass cuts a large
pass's trials into contiguous ranges for forked workers, one per usable
CPU, each with its own chunk buffers; the counts are the same for any
number of workers.  The threshold and the Type I error are computed once
per sweep and once per bisection, and `SweepResult` carries the resolved
detector and threshold.  A sweep's rows are its `RiskEstimate`s, each the
delta it was made at, its two error rates and its trial count; the
standard errors are derived from those.  Result rows are tuples in
CSV_COLUMNS order, written as CSV only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .detectors import (
    DetectorKind, ThresholdSpec, _batch_statistic, null_statistics, resolve_threshold,
)
from .errors import BracketError, ConfigError, ParameterError
from .graph_model import ProblemShape
from .rates import RateBundle, RateConstants, rate_bundle
from .rng import (
    TAG_ALT, TAG_COLS, TAG_NULL, TAG_ROWS, below, edges, sample_subsets, split_pass, trial_blocks,
)


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
    """Type I and Type II error rates at signal level delta, each the share
    of `trials` trials that erred.  The risk and each rate's binomial
    standard error are derived from these four fields."""

    delta: float
    type1: float
    type2: float
    trials: int

    @property
    def risk(self) -> float:
        return self.type1 + self.type2

    @property
    def se1(self) -> float:
        return math.sqrt(self.type1 * (1.0 - self.type1) / self.trials)

    @property
    def se2(self) -> float:
        return math.sqrt(self.type2 * (1.0 - self.type2) / self.trials)


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
    and each chunk's states and null bits are drawn once, and so is the flat
    index of the chunk's k1 x k2 planted cells: at each delta only those
    cells' bits are decided again.  rng.split_pass cuts the trials into
    contiguous ranges, one a worker, and every chunk's counts are added."""
    n1, n2 = shape.n1, shape.n2
    cuts = [below(p0 + delta) for delta in deltas]

    def chunk_counts(lo: int, hi: int):
        for seeds, chunks in trial_blocks(seed, TAG_ALT, n1, n2, range(lo, hi)):
            rows = sample_subsets(seeds, TAG_ROWS, n1, shape.k1)
            cols = sample_subsets(seeds, TAG_COLS, n2, shape.k2)
            for part, s in chunks:
                t = np.arange(len(s))[:, None, None]
                block = ((t * n1 + rows[part, :, None]) * n2 + cols[part, None, :]).ravel()
                planted = s.take(block)
                bits = edges(s, below(p0)).view(np.uint8)
                counts = []
                for cut in cuts:
                    bits.reshape(-1)[block] = edges(planted, cut)
                    stats = _batch_statistic(bits, p0, kind)
                    counts.append(int((stats <= threshold).sum()))
                yield counts

    counts = [0] * len(deltas)
    for part in split_pass(trials, trials * n1 * n2, chunk_counts):
        for chunk in part:
            counts = [a + b for a, b in zip(counts, chunk)]
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
    return [RiskEstimate(d, r1 / n, r2 / n, n) for d, r2 in zip(deltas, accepts)]


def estimate_risk(cfg: ExperimentConfig, delta: float) -> RiskEstimate:
    """Type I over null trials plus Type II over planted trials with uniform
    random support at signal level delta, both at the resolved threshold."""
    return _evaluate(cfg, _resolve(cfg), [delta])[0]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[RiskEstimate, ...]
    kind: DetectorKind
    threshold: float


def power_sweep(cfg: ExperimentConfig) -> SweepResult:
    """One risk estimate per grid delta, in increasing delta, sharing random
    numbers across the grid."""
    resolved = _resolve(cfg)
    rows = tuple(_evaluate(cfg, resolved, sorted(cfg.delta_grid)))
    return SweepResult(rows, kind=resolved[0], threshold=resolved[1])


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


CSV_COLUMNS = (
    "experiment_id", "n1", "n2", "k1", "k2", "p0", "delta", "detector", "threshold_mode",
    "threshold", "trials", "seed", "type1", "se1", "type2", "se2", "risk",
)


def result_rows(cfg: ExperimentConfig, sweep: SweepResult, experiment_id: str) -> list[tuple]:
    """One tuple per sweep row, its values in CSV_COLUMNS order."""
    shape = cfg.shape
    return [
        (experiment_id, shape.n1, shape.n2, shape.k1, shape.k2, cfg.p0, row.delta,
         sweep.kind.tag.value, cfg.threshold.mode.value, sweep.threshold, cfg.trials, cfg.seed,
         row.type1, row.se1, row.type2, row.se2, row.risk)
        for row in sweep.rows
    ]


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def emit_results(table: list[tuple], path) -> None:
    """Write result rows, tuples in CSV_COLUMNS order, as CSV under a
    CSV_COLUMNS header, with 17-significant-digit floats."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_fmt(v) for v in row] for row in table)
