"""Counter-based deterministic random primitives.

Every random quantity in the package is a pure function of a 64-bit seed and
an integer coordinate (cell index, trial index, draw index), obtained by
hashing with the murmur3 64-bit finalizer.  This gives:

- bit-identical output for any batch size or evaluation order,
- a common-uniform-variate coupling across signal strengths (the same cell
  always sees the same uniform), and
- cheap vectorized generation with numpy uint64 arithmetic.

A cell's uniform is its 53-bit word x = fmix64(...) >> 11, standing for
u = x / 2^53 in [0, 1).  An edge is the event u < p, decided on the word as
x < below(p) with below(p) = ceil(p * 2^53): x * 2^-53 is exact, scaling by
a power of two is exact, and an integer lies below a real exactly when it
lies below the real's ceiling.  Only this module knows the word width.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

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

# Bytes per batch, 8 per uniform word.  Every trial chunk and every subset
# block is sized from this one budget (below a 2 MiB L2 cache), so memory
# does not grow with the trial count.
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
    """Fold integer parts into ``seed``, one fmix64 round per part.  Every
    user seed enters a stream here; one outside [0, 2^64) is an error, not
    reduced mod 2^64 onto another seed's stream."""
    if not 0 <= seed <= _MASK:
        raise ParameterError(f"seed must be an integer in [0, 2^64), got {seed}")
    h = mix64(seed)
    for p in parts:
        h = mix64(h ^ (p & _MASK))
    return h


def below(p: float) -> int:
    """Integer cut m = ceil(p * 2^53), 0 for p <= 0 and 2^53 for p >= 1:
    a word x is below m exactly when its uniform x / 2^53 is below p."""
    if not p > 0.0:
        return 0
    if p >= 1.0:
        return 1 << 53
    return math.ceil(math.ldexp(p, 53))


def _mix64_array(x: np.ndarray) -> np.ndarray:
    z = x.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(33)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(33)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(33)
    return z


def cell_uniforms(seed: int, n1: int, n2: int) -> np.ndarray:
    """(n1, n2) array of uniform words in [0, 2^53); entry (r, c) depends
    only on (seed, r, c)."""
    return _uniform_grid(np.array(derive_seed(seed, TAG_EDGE), dtype=np.uint64), n1, n2)


def batch_cell_uniforms(
    seeds: np.ndarray, n1: int, n2: int, out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """(T, n1, n2) uniform words for a batch of per-trial seeds (uint64).
    `out` and `scratch`, uint64 arrays of that shape, let a caller reuse
    memory across batches; the words are written into `out`."""
    bases = _mix64_array(_mix64_array(seeds.astype(np.uint64)) ^ np.uint64(TAG_EDGE & _MASK))
    return _uniform_grid(bases, n1, n2, out, scratch)


def _uniform_grid(
    bases: np.ndarray, n1: int, n2: int, out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Words of shape bases.shape + (n1, n2): cell (r, c) of the matrix with
    edge-stream base b is the top 53 bits of fmix64(fmix64(b ^ (r + 1)) ^
    (c + 1)).  The grid is mixed in place in `out` with one scratch array."""
    if n2 >= 1 << 33:
        raise ParameterError(f"n2={n2} must be below 2^33")
    rows = _mix64_array(bases[..., None] ^ np.arange(1, n1 + 1, dtype=np.uint64))
    # fmix64's first step z ^= z >> 33 is the row's own: (r ^ (c + 1)) >> 33
    # equals r >> 33 while c + 1 < 2^33.
    rows ^= rows >> np.uint64(33)
    # Copying the rows and xoring the columns in place is faster than one
    # broadcast xor, which numpy walks as n1 inner loops of length n2.
    z = np.empty(rows.shape + (n2,), dtype=np.uint64) if out is None else out
    z[...] = rows[..., None]
    z ^= np.arange(1, n2 + 1, dtype=np.uint64)
    scratch = np.empty_like(z) if scratch is None else scratch
    for m in (_M1, _M2):
        z *= np.uint64(m)
        np.right_shift(z, np.uint64(33), out=scratch)
        z ^= scratch
    z >>= np.uint64(11)
    return z


def trial_uniforms(seed: int, tag: int, n1: int, n2: int, trials: int):
    """Yield (trial_seeds, words) for trials 1..trials of the (seed, tag)
    stream, as many trials per chunk as BATCH_BYTES of 8-byte uniform words
    hold (at least one).  Trial i has seed derive_seed(seed, tag) + i
    (mod 2^64), so its words do not depend on the chunking.  Every chunk's
    words are written into one buffer, so each chunk overwrites the last."""
    base = np.uint64(derive_seed(seed, tag))
    chunk = max(1, BATCH_BYTES // (8 * n1 * n2))
    out, scratch = np.empty((2, min(chunk, max(trials, 0)), n1, n2), dtype=np.uint64)
    for lo in range(0, trials, chunk):
        seeds = base + np.arange(lo + 1, min(lo + chunk, trials) + 1, dtype=np.uint64)
        t = len(seeds)
        yield seeds, batch_cell_uniforms(seeds, n1, n2, out[:t], scratch[:t])


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
