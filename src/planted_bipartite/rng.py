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

Every trial comes from one iterator, `trial_blocks`, in blocks: a block's
edge-stream bases and row hashes are mixed once, and each chunk's cells
from its slice of them.  Trials carry cell states: a state s is fmix64
stopped before its last step, s ^= s >> 33, so the cell's word is (s ^ (s
>> 33)) >> 11.  `edges(states, below(p))` is the only code that turns
states into edge bits.  The last step keeps the top 33 bits of s, so the
word lies below a cut exactly when s lies below L, the cut times 2^11 with
its low 31 bits cleared, except for the states in [L, L + 2^31), a chance
of 2^-33 per cell, which `edges` finishes and compares exactly.  A band
state's word has the cut's top 33 bits, so it can be an edge only when the
cut's low 20 bits are not all zero; below 2^53, a cut that is a multiple of
2^20 (p a multiple of 2^-33, such as 1/4) has no band to finish.
`cell_uniforms` and `batch_cell_uniforms` finish every state into its word.
Supports come from `sample_subsets`, a partial Fisher-Yates shuffle run for
a whole block of trials at once.  Each trial keeps a table of the at most 2k
positions that its k steps touch, not a list of n, so a draw costs
O(k log k) whatever n is; its range reduction is exact in 32-bit limbs for
n < 2^32.  Every word and every support is a pure function of (seed, trial
index), so no blocking changes a bit.

For the same reason a pass splits across CPUs without changing a bit.
`split_pass` cuts a pass's items (trials, or the row blocks of an exact
enumeration) into W contiguous ranges, runs the first in this process and
each other in a child made by os.fork, and returns the ranges' results in
range order; W = 1 is the same call made in-process.  W is one per usable
CPU, at most one per MIN_WORK of the pass's work, and 1 where fork is
missing or another Python thread is alive, so no setting chooses it and
no output depends on it.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import warnings

import numpy as np

from .errors import ParameterError

_MASK = (1 << 64) - 1
_M1 = 0xFF51AFD7ED558CCD
_M2 = 0xC4CEB9FE1A85EC53
_32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)

# Domain-separation tags: independent streams off one user seed.
TAG_EDGE = 0x9E3779B97F4A7C15
TAG_ROWS = 0xC2B2AE3D27D4EB4F
TAG_COLS = 0x165667B19E3779F9
TAG_NULL = 0x27D4EB2F165667C5
TAG_ALT = 0x85EBCA77C2B2AE63
TAG_CAL = 0xD6E8FEB86659FD93

# Bytes per batch, 8 per cell state.  Every trial chunk and every subset
# block is sized from this one budget (below a 2 MiB L2 cache), and a trial
# block's row hashes from an eighth of it, so memory does not grow with the
# trial count.
BATCH_BYTES = 512 * 1024

# Work, in hashed cell states (for tv_exact, row x support x cell
# evaluations), that each worker of a split pass must have.  A fork, its
# pipe and its waitpid took 2.85-3.68 ms (median 2.96) for a 30 MB process
# on a 2-vCPU x86-64 host, and a cell costs 2-4 ns, so a worker costs about
# 1M cells; at 4M cells or more a worker's fork costs at most a quarter of
# its share.
MIN_WORK = 1 << 22


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


def _derive(seeds: np.ndarray, tag: int) -> np.ndarray:
    """derive_seed(s, tag) for every seed s of a uint64 array."""
    return _mix64_array(_mix64_array(seeds) ^ np.uint64(tag))


def cell_uniforms(seed: int, n1: int, n2: int) -> np.ndarray:
    """(n1, n2) array of uniform words in [0, 2^53); entry (r, c) depends
    only on (seed, r, c)."""
    base = np.array(derive_seed(seed, TAG_EDGE), dtype=np.uint64)
    return _finish(_mix_columns(_row_hashes(base, n1, n2), n2))


def batch_cell_uniforms(seeds: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """(T, n1, n2) uniform words for a batch of per-trial seeds (uint64)."""
    return _finish(_mix_columns(_row_hashes(_derive(seeds, TAG_EDGE), n1, n2), n2))


def edges(states: np.ndarray, cut: int) -> np.ndarray:
    """Edge bits, bool of the shape of `states`: whether each cell state's
    word lies below `cut`, an integer in [0, 2^53] such as below(p).  The
    word keeps the state's top 33 bits, so it lies below the cut exactly
    when the state lies below L = (cut << 11) with its low 31 bits cleared,
    unless the state lies in the band [L, L + 2^31); only those states are
    finished and compared.  Every band state has L's top 32 bits, so the
    band is looked for as a 32-bit half equal to them: one pass, cheaper
    than a second 64-bit comparison, and a low half that matches by chance
    costs only the exact look.  For the cut 2^53, L would be 2^64, and the
    last band below 2^64, whose words all lie below the cut, stands for it.

    A band state's word has the cut's top 33 bits, cut >> 20, so it is an
    edge only when its low 20 bits lie below the cut's.  So for a cut below
    2^53 that is a multiple of 2^20, such as 0 or below(1/4) = 2^51, no band
    state is an edge, and one comparison decides every cell."""
    low = min(cut << 11, _MASK) & ~((1 << 31) - 1)
    bits = states < np.uint64(low)
    if cut % (1 << 20) == 0 and cut < 1 << 53:
        return bits
    if (np.ravel(states).view(np.uint32) == np.uint32(low >> 32)).any():
        band = (states >= np.uint64(low)) & (states <= np.uint64(low + (1 << 31) - 1))
        bits[band] = _finish(states[band]) < np.uint64(cut)
    return bits


def _finish(states: np.ndarray) -> np.ndarray:
    """Words of `states`, in place: fmix64's last step, then its top 53 bits."""
    states ^= states >> np.uint64(33)
    states >>= np.uint64(11)
    return states


def _row_hashes(bases: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Row hashes of shape bases.shape + (n1,) for grids of n2 columns:
    cell (r, c) of the matrix with edge-stream base b is the top 53 bits of
    fmix64(h ^ (c + 1)) with h = fmix64(b ^ (r + 1)), and the row hash is h
    after fmix64's first step h ^= h >> 33, which is the row's own: (h ^
    (c + 1)) >> 33 equals h >> 33 while c + 1 < 2^33."""
    if n2 >= 1 << 33:
        raise ParameterError(f"n2={n2} must be below 2^33")
    rows = _mix64_array(bases[..., None] ^ np.arange(1, n1 + 1, dtype=np.uint64))
    rows ^= rows >> np.uint64(33)
    return rows


def _mix_columns(
    rows: np.ndarray, n2: int, out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """States of shape rows.shape + (n2,) from row hashes, fmix64 up to its
    second multiply, mixed in place in `out` with one scratch array."""
    # Copying the rows and xoring the columns in place is faster than one
    # broadcast xor, which numpy walks as n1 inner loops of length n2.
    z = np.empty(rows.shape + (n2,), dtype=np.uint64) if out is None else out
    z[...] = rows[..., None]
    z ^= np.arange(1, n2 + 1, dtype=np.uint64)
    z *= np.uint64(_M1)
    scratch = np.empty_like(z) if scratch is None else scratch
    np.right_shift(z, np.uint64(33), out=scratch)
    z ^= scratch
    z *= np.uint64(_M2)
    return z


def trial_blocks(seed: int, tag: int, n1: int, n2: int, trials: range):
    """Yield (seeds, chunks) for the trials i in the range `trials` of the
    (seed, tag) stream, one block of trials at a time from trials.start.
    Trial i has seed derive_seed(seed, tag) + i + 1 (mod 2^64), so its
    states do not depend on the blocking, and a worker of split_pass that
    is given trials lo..hi - 1 hashes only those.

    A chunk holds as many trials as BATCH_BYTES of 8-byte cell states hold
    (at least one); a block holds whole chunks, as many as keep its row
    hashes within BATCH_BYTES // 8 (at least one chunk).  A block's edge
    bases and row hashes are mixed once, and `chunks` yields (part,
    states): the slice `part` of the block's seeds and those trials' (t,
    n1, n2) cell states, which `edges` turns into bits.  Every chunk's
    states are written into one buffer, so each chunk overwrites the last;
    read a block's chunks before the next block."""
    base = np.uint64(derive_seed(seed, tag))
    chunk = max(1, BATCH_BYTES // (8 * n1 * n2))
    block = chunk * max(1, BATCH_BYTES // (64 * n1 * chunk))
    buffers = None
    for lo in range(trials.start, trials.stop, block):
        seeds = base + np.arange(lo + 1, min(lo + block, trials.stop) + 1, dtype=np.uint64)
        rows = _row_hashes(_derive(seeds, TAG_EDGE), n1, n2)
        if buffers is None:
            buffers = np.empty((2, min(chunk, len(trials)), n1, n2), dtype=np.uint64)
        yield seeds, _chunks(rows, chunk, n2, *buffers)


def _chunks(rows: np.ndarray, chunk: int, n2: int, out: np.ndarray, scratch: np.ndarray):
    """(part, states) for each run of `chunk` trials of a block's row hashes."""
    for lo in range(0, len(rows), chunk):
        part = slice(lo, lo + chunk)
        t = len(rows[part])
        yield part, _mix_columns(rows[part], n2, out[:t], scratch[:t])


def _workers(items: int, work: int) -> int:
    """The number of ranges split_pass cuts a pass of `items` items and
    `work` units of work into: one per usable CPU, at most one per item and
    one per MIN_WORK of work.  It is 1 where os.fork or os.sched_getaffinity
    is missing, and while another Python thread is alive, whose import or
    I/O locks a child could inherit held.  The one function that chooses
    the count; tests replace it to force one."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), items, work // MIN_WORK))


def split_pass(items: int, work: int, task) -> list[list]:
    """[list(task(lo, hi)) for each range [lo, hi)], in range order, for
    the W = _workers(items, work) contiguous ranges that cut range(items)
    into near-equal parts.  task(lo, hi) is a generator of a range's
    results that depends only on lo and hi, so the lists do not depend on W.

    The first range runs in this process and each other in a child made by
    os.fork.  A child writes one pickle, its list or the exception its range
    raised, to a pipe and leaves by os._exit, so it runs no atexit handler
    and flushes no stdio buffer inherited from this process; between
    results it leaves if this process is gone.  This process reads each
    pipe to its end before it waits for the child.  If ranges fail, the
    earliest failing range's exception is raised, as a serial pass would
    raise it.  However the call ends, KeyboardInterrupt included, every
    child still running is killed and reaped."""
    workers = _workers(items, work)
    cuts = [items * w // workers for w in range(workers + 1)]
    parent, children = os.getpid(), []  # children: (pid, pipe, lo, hi) not yet reaped
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            read, write = os.pipe()
            try:
                pid = _fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(task, lo, hi, parent, read, write)
            os.close(write)
            children.append((pid, open(read, "rb"), lo, hi))
        results = [_gather(task(cuts[0], cuts[1]), None)]
        for pid, pipe, lo, hi in list(children):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not data:
                raise ChildProcessError(
                    f"the worker of items [{lo}, {hi}) left no result (wait status {status})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        if children:
            from signal import SIGKILL  # not loaded with numpy; needed only here

            for pid, pipe, _, _ in children:
                pipe.close()
                try:
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass


def _fork() -> int:
    """os.fork, without the DeprecationWarning that Python 3.12+ gives at a
    fork while the process has more than one OS thread: _workers forks only
    while no other Python thread is alive, and the others are numpy's
    OpenBLAS pool, which its own fork handler shuts and the next BLAS call
    restarts."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        return os.fork()


def _child(task, lo: int, hi: int, parent: int, read: int, write: int):
    """The body of a forked worker of split_pass; it never returns."""
    try:
        os.close(read)
        try:
            out = True, _gather(task(lo, hi), parent)
        except BaseException as exc:
            out = False, exc
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
    finally:
        os._exit(0)


def _gather(results, parent: int | None) -> list:
    """The list of a range's results.  In a worker, `parent` is the pid of
    the process that forked it, and the worker leaves once that is gone."""
    out = []
    for value in results:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        out.append(value)
    return out


def sample_subsets(seeds: np.ndarray, tag: int, n: int, k: int) -> np.ndarray:
    """(T, k) sorted intp indices for T seeds (uint64): row t is the uniform
    k-subset of {0, ..., n-1} that sample_subset(seeds[t], tag, n, k)
    draws.  The T shuffles run at once.  n must lie below 2^32 and k in
    [0, n] (ParameterError)."""
    return _shuffle(_derive(np.asarray(seeds, dtype=np.uint64), tag), n, k)


def sample_subset(seed: int, tag: int, n: int, k: int) -> tuple[int, ...]:
    """Uniform k-subset of {0, ..., n-1} via a partial Fisher-Yates shuffle
    driven by the (seed, tag) counter stream: draw i is
    derive_seed(seed, tag, i).  Returns sorted indices; the one-seed case
    of sample_subsets."""
    base = np.array([derive_seed(seed, tag)], dtype=np.uint64)
    return tuple(_shuffle(base, n, k)[0].tolist())


def _shuffle(bases: np.ndarray, n: int, k: int) -> np.ndarray:
    """The first k entries of a partial Fisher-Yates shuffle of 0..n-1 for
    each stream base h, sorted: step i swaps positions i and j = i + the
    high 64 bits of r * (n - i), with draw r = fmix64(h ^ i).  The steps of
    all bases run at once, and a shuffle touches only positions 0..k-1 and
    its k targets j, so each keeps a table of those 2k positions instead
    of a list of n: a draw costs O(k log k), whatever n is."""
    if not 0 <= n < 1 << 32:
        raise ParameterError(f"n={n} must lie in [0, 2^32)")
    if not 0 <= k <= n:
        raise ParameterError(f"k={k} must lie in [0, n] for n={n}")
    t = len(bases)
    draws = _mix64_array(bases[:, None] ^ np.arange(k, dtype=np.uint64))
    # Multiply-shift range reduction; bias is O(2^-64), negligible here.
    # With r = hi 2^32 + lo and m = n - i < 2^32, the high 64 bits of r * m
    # are (hi m + (lo m >> 32)) >> 32, and no product or sum overflows.
    m = np.arange(n, n - k, -1, dtype=np.uint64)
    j = ((draws >> _32) * m + (((draws & _LOW32) * m) >> _32)) >> _32
    steps = np.arange(k)
    positions = np.concatenate([np.broadcast_to(steps, (t, k)), j.astype(np.intp) + steps], axis=1)
    # Key s < k is step s's own position, key k + s its target.  Sorted, the
    # keys are the table: the first copy of each position holds its value,
    # at the start the position itself.  slot[s] is the flat index of key
    # s's first copy, so step i reads slots i and k + i.
    order = np.argsort(positions, axis=1)
    table = np.take_along_axis(positions, order, axis=1)
    first = np.zeros_like(table)
    first[:, 1:] = np.where(table[:, 1:] != table[:, :-1], np.arange(1, 2 * k), 0)
    np.maximum.accumulate(first, axis=1, out=first)
    first += np.arange(t)[:, None] * (2 * k)
    slot = np.empty((2 * k, t), dtype=np.intp)
    np.put_along_axis(slot.T, order, first, axis=1)
    flat = table.ravel()
    out = np.empty((k, t), dtype=np.intp)
    # Position i is final after step i: only the target keeps a value.
    for i in range(k):
        moved = flat[slot[i]]
        out[i] = flat[slot[k + i]]
        flat[slot[k + i]] = moved
    return np.sort(out.T, axis=1)
