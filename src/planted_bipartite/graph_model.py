"""Bipartite graphs as bit-matrices, and samplers for the null and planted
distributions.

The null model draws every edge independently with probability ``p0``.  The
planted alternative elevates the probability to ``p0 + delta`` exactly on a
k1 x k2 block of vertex pairs (the least-favorable configuration).  Sampling
uses one uniform per cell from a counter-based stream keyed on
(seed, row, col), so matrices for different signal strengths but a shared
seed are coupled entrywise.  A uniform is a 53-bit word, and a cell is an
edge when its word is below rng.below(p) of the cell's probability p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError
from .rng import TAG_COLS, TAG_ROWS, below, cell_uniforms, sample_subset


@dataclass(frozen=True)
class ProblemShape:
    """Instance geometry: ambient sizes (n1, n2) and planted sizes (k1, k2)."""

    n1: int
    n2: int
    k1: int
    k2: int

    def __post_init__(self):
        for name in ("n1", "n2", "k1", "k2"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ParameterError(f"{name} must be a positive integer, got {v!r}")
        if self.k1 > self.n1:
            raise ParameterError(f"k1={self.k1} exceeds n1={self.n1}")
        if self.k2 > self.n2:
            raise ParameterError(f"k2={self.k2} exceeds n2={self.n2}")

    def swapped(self) -> "ProblemShape":
        return ProblemShape(self.n2, self.n1, self.k2, self.k1)


class AdjacencyMatrix:
    """Immutable n1 x n2 binary matrix."""

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ParameterError(f"adjacency matrix must be 2-D, got ndim={bits.ndim}")
        if bits.size and not np.isin(bits, (0, 1)).all():
            raise ParameterError("adjacency matrix entries must be 0 or 1")
        b = bits.astype(np.uint8, copy=True)
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    @property
    def n1(self) -> int:
        return self.bits.shape[0]

    @property
    def n2(self) -> int:
        return self.bits.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdjacencyMatrix):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool((self.bits == other.bits).all())

    def __repr__(self) -> str:
        return f"AdjacencyMatrix({self.n1}x{self.n2}, {int(self.bits.sum())} edges)"


@dataclass(frozen=True)
class PlantedSupport:
    """Planted row/column index sets, sorted and strictly increasing."""

    K1: tuple[int, ...]
    K2: tuple[int, ...]

    def __post_init__(self):
        for name in ("K1", "K2"):
            ks = getattr(self, name)
            if any(b <= a for a, b in zip(ks, ks[1:])):
                raise ParameterError(f"{name} must be strictly increasing, got {ks}")
            if ks and ks[0] < 0:
                raise ParameterError(f"{name} has a negative index: {ks}")

    def validate_for(self, shape: ProblemShape) -> None:
        if len(self.K1) != shape.k1 or (self.K1 and self.K1[-1] >= shape.n1):
            raise ParameterError(f"K1={self.K1} invalid for shape {shape}")
        if len(self.K2) != shape.k2 or (self.K2 and self.K2[-1] >= shape.n2):
            raise ParameterError(f"K2={self.K2} invalid for shape {shape}")


@dataclass(frozen=True)
class SignalConfig:
    """Baseline edge probability and planted elevation.

    p0 = 0 and p0 = 1 are accepted for sampling (degenerate but well defined);
    test statistics impose 0 < p0 < 1 separately.
    """

    p0: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p0 <= 1.0:
            raise ParameterError(f"p0 must lie in [0, 1], got {self.p0}")
        if not 0.0 <= self.delta <= 1.0 - self.p0 + 1e-12:
            raise ParameterError(f"delta must lie in [0, 1 - p0], got {self.delta}")


def sample_null(shape: ProblemShape, p0: float, seed: int) -> AdjacencyMatrix:
    """Bipartite Erdos-Renyi matrix: independent Bernoulli(p0) entries,
    a pure function of (shape, p0, seed)."""
    cfg = SignalConfig(p0, 0.0)
    return AdjacencyMatrix(cell_uniforms(seed, shape.n1, shape.n2) < below(cfg.p0))


def sample_planted(
    shape: ProblemShape, cfg: SignalConfig, support: PlantedSupport, seed: int
) -> AdjacencyMatrix:
    """Planted-block matrix: Bernoulli(p0 + delta) on K1 x K2, Bernoulli(p0)
    elsewhere, all independent.  Shares its per-cell uniforms with
    sample_null, so delta = 0 reproduces the null matrix bit-for-bit and
    larger delta dominates entrywise."""
    support.validate_for(shape)
    m = np.full((shape.n1, shape.n2), below(cfg.p0), dtype=np.uint64)
    m[np.ix_(support.K1, support.K2)] = below(cfg.p0 + cfg.delta)
    return AdjacencyMatrix(cell_uniforms(seed, shape.n1, shape.n2) < m)


def sample_planted_uniform_support(
    shape: ProblemShape, cfg: SignalConfig, seed: int
) -> tuple[AdjacencyMatrix, PlantedSupport]:
    """Draw K1, K2 uniformly at random (independent of each other and of the
    edge noise), then sample the planted matrix."""
    support = PlantedSupport(
        K1=sample_subset(seed, TAG_ROWS, shape.n1, shape.k1),
        K2=sample_subset(seed, TAG_COLS, shape.n2, shape.k2),
    )
    return sample_planted(shape, cfg, support, seed), support


def write_matrix(A: AdjacencyMatrix, path) -> None:
    """Text format: line 1 is "n1 n2", then n1 rows of '0'/'1' characters."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{A.n1} {A.n2}\n")
        for row in A.bits:
            fh.write("".join("1" if b else "0" for b in row) + "\n")


def read_matrix(path) -> AdjacencyMatrix:
    """Inverse of write_matrix; bit-exact round trip.  Malformed input raises
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
