"""Counter-based deterministic random primitives.

Every random quantity in the package is a pure function of a 64-bit seed and
an integer coordinate (cell index, trial index, draw index), obtained by
hashing with the murmur3 64-bit finalizer.  This gives:

- bit-identical output for any batch size or evaluation order,
- a common-uniform-variate coupling across signal strengths (the same cell
  always sees the same uniform), and
- cheap vectorized generation with numpy uint64 arithmetic.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_M1 = 0xFF51AFD7ED558CCD
_M2 = 0xC4CEB9FE1A85EC53

# Domain-separation tags: independent streams off one user seed.
TAG_EDGE = 0x9E3779B97F4A7C15
TAG_ROWS = 0xC2B2AE3D27D4EB4F
TAG_COLS = 0x165667B19E3779F9
TAG_NULL = 0x27D4EB2F165667C5
TAG_ALT = 0x85EBCA77C2B2AE63
TAG_CAL = 0xD6E8FEB86659FD93

# Bytes of float64 per batch.  Every trial chunk and every subset block is
# sized from this one budget (below a 2 MiB L2 cache), so memory does not
# grow with the trial count.
BATCH_BYTES = 512 * 1024


def mix64(x: int) -> int:
    """murmur3 fmix64 of a 64-bit integer (scalar, Python ints)."""
    x &= _MASK
    x ^= x >> 33
    x = (x * _M1) & _MASK
    x ^= x >> 33
    x = (x * _M2) & _MASK
    x ^= x >> 33
    return x


def derive_seed(seed: int, *parts: int) -> int:
    """Fold integer parts into ``seed``, one fmix64 round per part."""
    h = mix64(seed)
    for p in parts:
        h = mix64(h ^ (p & _MASK))
    return h


def _mix64_array(x: np.ndarray) -> np.ndarray:
    z = x.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(33)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(33)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(33)
    return z


def cell_uniforms(seed: int, n1: int, n2: int) -> np.ndarray:
    """(n1, n2) array of uniforms in [0, 1); entry (r, c) depends only on
    (seed, r, c)."""
    return _uniform_grid(np.array(derive_seed(seed, TAG_EDGE), dtype=np.uint64), n1, n2)


def batch_cell_uniforms(seeds: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """(T, n1, n2) uniforms for a batch of per-trial seeds (uint64)."""
    bases = _mix64_array(_mix64_array(seeds.astype(np.uint64)) ^ np.uint64(TAG_EDGE & _MASK))
    return _uniform_grid(bases, n1, n2)


def _uniform_grid(bases: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Uniforms of shape bases.shape + (n1, n2): cell (r, c) of the matrix
    with edge-stream base b hashes b with r + 1, then with c + 1."""
    rows = _mix64_array(bases[..., None] ^ np.arange(1, n1 + 1, dtype=np.uint64))
    grid = _mix64_array(rows[..., None] ^ np.arange(1, n2 + 1, dtype=np.uint64))
    # Top 53 bits -> float64 in [0, 1).
    return (grid >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def trial_uniforms(seed: int, tag: int, n1: int, n2: int, trials: int):
    """Yield (trial_seeds, uniforms) for trials 1..trials of the (seed, tag)
    stream, as many trials per chunk as BATCH_BYTES of float64 uniforms hold
    (at least one).  Trial i has seed derive_seed(seed, tag) + i (mod 2^64),
    so its uniforms do not depend on the chunking."""
    base = np.uint64(derive_seed(seed, tag))
    chunk = max(1, BATCH_BYTES // (8 * n1 * n2))
    for lo in range(0, trials, chunk):
        seeds = base + np.arange(lo + 1, min(lo + chunk, trials) + 1, dtype=np.uint64)
        yield seeds, batch_cell_uniforms(seeds, n1, n2)


def sample_subset(seed: int, tag: int, n: int, k: int) -> tuple[int, ...]:
    """Uniform k-subset of {0, ..., n-1} via a partial Fisher-Yates shuffle
    driven by the (seed, tag) counter stream: draw i is
    derive_seed(seed, tag, i).  Returns sorted indices."""
    idx = list(range(n))
    h = derive_seed(seed, tag)
    for i in range(k):
        r = mix64(h ^ i)
        # Multiply-shift range reduction; bias is O(2^-64), negligible here.
        j = i + ((r * (n - i)) >> 64)
        idx[i], idx[j] = idx[j], idx[i]
    return tuple(sorted(idx[:k]))
