import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from planted_bipartite import (
    AdjacencyMatrix,
    ParameterError,
    FormatError,
    PlantedSupport,
    ProblemShape,
    SignalConfig,
    read_matrix,
    sample_null,
    sample_planted,
    sample_planted_uniform_support,
    write_matrix,
)
from planted_bipartite import rng
from planted_bipartite.rng import batch_cell_uniforms, cell_uniforms

from oracles import read_matrix_reference, sample_subset_reference, write_matrix_reference


class TestTypes:
    def test_shape_validation(self):
        ProblemShape(3, 4, 2, 2)
        with pytest.raises(ParameterError):
            ProblemShape(3, 4, 4, 2)
        with pytest.raises(ParameterError):
            ProblemShape(0, 4, 0, 2)
        with pytest.raises(ParameterError):
            ProblemShape(3, 4, 2, 5)

    def test_support_validation(self):
        s = PlantedSupport((0, 2), (1,))
        s.validate_for(ProblemShape(3, 2, 2, 1))
        with pytest.raises(ParameterError):
            PlantedSupport((2, 0), (1,))
        with pytest.raises(ParameterError):
            s.validate_for(ProblemShape(2, 2, 2, 1))

    def test_signal_validation(self):
        SignalConfig(0.0, 0.0)
        SignalConfig(1.0, 0.0)
        SignalConfig(0.25, 0.75)
        with pytest.raises(ParameterError):
            SignalConfig(0.25, 0.8)
        with pytest.raises(ParameterError):
            SignalConfig(-0.1, 0.0)

    def test_matrix_entries_checked(self):
        with pytest.raises(ParameterError):
            AdjacencyMatrix(np.array([[0, 2]]))

    @pytest.mark.parametrize("entry", [2, -1, 0.5, math.nan, math.inf, -math.inf, "0", "1"])
    def test_matrix_entries_refused_without_warning(self, entry):
        bits = np.array([[1, entry]] if isinstance(entry, str) else [[1, 0], [0, entry]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="must be 0 or 1"):
                AdjacencyMatrix(bits)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64, bool])
    def test_matrix_is_a_read_only_copy(self, dtype):
        bits = np.array([[1, 0, 1], [0, 0, 1]], dtype=dtype)
        A = AdjacencyMatrix(bits)
        bits[0, 0] = 0
        assert A.bits.dtype == np.uint8 and not A.bits.flags.writeable
        assert A.bits.tolist() == [[1, 0, 1], [0, 0, 1]]

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (4, 0)])
    def test_empty_matrix_accepted(self, shape):
        A = AdjacencyMatrix(np.zeros(shape))
        assert A.bits.shape == shape and A.bits.dtype == np.uint8


def _reference_uniforms(seed: int, n1: int, n2: int) -> np.ndarray:
    """Float uniforms (fmix64(fmix64(b ^ (r + 1)) ^ (c + 1)) >> 11) * 2^-53
    of the edge stream's base b, cell by cell with Python integers."""
    base = rng.derive_seed(seed, rng.TAG_EDGE)
    words = [[rng.mix64(rng.mix64(base ^ (r + 1)) ^ (c + 1)) >> 11 for c in range(n2)]
             for r in range(n1)]
    return np.array(words, dtype=np.uint64).astype(np.float64) * (1.0 / (1 << 53))


# Probabilities at which the float and word comparisons could part: the
# ends, the smallest subnormal, one word's width, and sums that round.
EDGE_PROBABILITIES = [0.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53, 1.0, 0.25 + 0.75,
                      0.25 + 0.7375, 0.1 + 0.2, -0.5, 1.5]

_seeds = st.integers(0, 2**64 - 1)
_sides = st.integers(1, 6)


class TestCellUniforms:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63, 2**64 - 1])
    def test_single_equals_batch(self, seed):
        one = cell_uniforms(seed, 5, 7)
        batch = batch_cell_uniforms(np.array([seed], dtype=np.uint64), 5, 7)
        assert one.shape == (5, 7)
        assert np.array_equal(one, batch[0])

    @given(_seeds, _sides, _sides)
    @example(0, 1, 1)
    @example(2**64 - 1, 1, 6)
    @example(12345, 6, 1)
    def test_words_are_the_reference_uniforms(self, seed, n1, n2):
        """A word times 2^-53 is the float uniform, bit for bit."""
        words = cell_uniforms(seed, n1, n2)
        assert words.dtype == np.uint64 and words.shape == (n1, n2)
        assert (words < 2**53).all()
        ref = _reference_uniforms(seed, n1, n2)
        assert np.array_equal((words.astype(np.float64) * 2.0**-53).view(np.uint64),
                              ref.view(np.uint64))

    @given(st.lists(_seeds, min_size=1, max_size=4), _sides, _sides)
    @example([0, 2**64 - 1], 1, 1)
    def test_batch_words_are_the_reference_uniforms(self, seeds, n1, n2):
        batch = batch_cell_uniforms(np.array(seeds, dtype=np.uint64), n1, n2)
        for words, seed in zip(batch, seeds):
            ref = _reference_uniforms(seed, n1, n2)
            assert np.array_equal(words.astype(np.float64) * 2.0**-53, ref)

    def test_column_bound_guarded(self):
        """A cell's first xor-shift is its row's only while n2 < 2^33; the
        bound is checked before anything is allocated."""
        with pytest.raises(ParameterError, match="2\\^33"):
            cell_uniforms(0, 1, 2**33)

    def test_trial_chunks_are_fresh_batches(self, monkeypatch):
        """trial_blocks reuses one buffer; each chunk's states, read before
        the next chunk, finish into the words of a fresh batch of its seeds,
        and their edge bits are those words' comparisons at every cut."""
        monkeypatch.setattr(rng, "BATCH_BYTES", 8 * 3 * 5 * 4)  # 4 trials per chunk
        sizes = []
        for seeds, block in rng.trial_blocks(7, rng.TAG_CAL, 3, 5, range(10)):
            for part, states in block:
                sizes.append(len(seeds[part]))
                words = batch_cell_uniforms(seeds[part], 3, 5)
                for p in EDGE_PROBABILITIES + [0.25, 0.5, 0.75]:
                    cut = rng.below(p)
                    assert np.array_equal(rng.edges(states, cut), words < cut), p
                assert np.array_equal(rng._finish(states.copy()), words)
        assert sizes == [4, 4, 2]


class TestBelow:
    @staticmethod
    def _agrees(p: float) -> None:
        m = rng.below(p)
        assert 0 <= m <= 2**53
        xs = [x for x in (m - 1, m, m + 1) if 0 <= x < 2**53]
        words = np.array(xs, dtype=np.uint64)
        floats = words.astype(np.float64) * 2.0**-53
        assert ((words < m) == (floats < p)).all()
        assert [x < m for x in xs] == [x * 2.0**-53 < p for x in xs]

    @pytest.mark.parametrize("p", EDGE_PROBABILITIES)
    def test_edge_probabilities(self, p):
        self._agrees(p)

    @given(st.floats(-0.5, 1.5, allow_nan=False))
    def test_word_cut_equals_float_comparison(self, p):
        self._agrees(p)

    def test_ends(self):
        assert rng.below(0.0) == 0 and rng.below(-1.0) == 0
        assert rng.below(1.0) == 2**53 and rng.below(2.0) == 2**53
        assert rng.below(5e-324) == 1 and rng.below(0.5) == 2**52


# Cuts whose band [L, L + 2^31) holds both edges and non-edges (near 2^53,
# where L + 2^31 reaches 2^64, and anywhere), none (0, 2^51 and the other
# multiples of 2^20 below 2^53, which edges decides by one comparison) or
# only the words below 1; and multiples of 2^19, half of them with the low
# 20 bits 2^19.
_CUTS = st.one_of(st.sampled_from([0, 1, rng.below(0.25), 2**53]),
                  st.integers(2**53 - 2**20, 2**53 - 1),
                  st.integers(0, 2**53),
                  st.integers(0, 2**33).map(lambda m: m << 20),
                  st.integers(0, 2**34).map(lambda m: m << 19))


def _state(word: int, r: int = 0) -> int:
    """A cell state whose word is `word`: y = word 2^11 + r gives the state
    y ^ (y >> 33), since the xor-shift by 33 undoes itself."""
    y = (word << 11) + r
    return y ^ (y >> 33)


class TestEdges:
    """rng.edges against the finished words: a state s's word is (s ^ (s >>
    33)) >> 11, and its edge bit is whether that word lies below the cut."""

    @staticmethod
    def _check(states: list[int], cut: int) -> None:
        want = [((s ^ (s >> 33)) >> 11) < cut for s in states]
        arr = np.array(states, dtype=np.uint64)
        for shaped in (arr, arr.reshape(1, -1, 1)):
            got = rng.edges(shaped, cut)
            assert got.dtype == np.bool_ and got.shape == shaped.shape
            assert got.ravel().tolist() == want
        assert arr.tolist() == states

    @given(_CUTS, st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_uniform_states(self, cut, states):
        self._check(states, cut)

    @given(_CUTS, st.lists(st.integers(-2**31, 2**32), max_size=64),
           st.lists(st.tuples(st.integers(-2, 1), st.integers(0, 2**11 - 1)), max_size=16),
           st.lists(st.integers(0, 2**32 - 1), max_size=4))
    def test_band_states(self, cut, offsets, near, highs):
        """States in the band [L, L + 2^31), at its ends L - 1, L, L + 2^31 -
        1 and L + 2^31, and in the rest of the 2^32 states that share L's
        top half; states whose words lie next to the cut: the word x with
        low bits r comes from the state y ^ (y >> 33), y = x 2^11 + r, since
        the xor-shift by 33 undoes itself; and states whose low half, not
        their top half, equals L's top half.  For the cut 2^53, L would be
        2^64, and the top 2^31 states stand in for the band."""
        low = min((cut << 11) & ~(2**31 - 1), 2**64 - 2**31)
        states = [low - 1, low, low + 2**31 - 1, low + 2**31] + [low + d for d in offsets]
        states += [_state(cut + dx, r) for dx, r in near]
        states += [(h << 32) + (low >> 32) for h in highs]
        self._check([s for s in states if 0 <= s < 2**64], cut)

    @pytest.mark.parametrize("cut,word,edge", [
        (2**51, 2**51, False), (2**51 + 1, 2**51, True),
        (2**51 + 2**19, 2**51 + 2**19 - 1, True), (2**51 + 2**19, 2**51 + 2**19, False),
        (2**20, 2**20, False), (2**20 + 1, 2**20, True),
    ])
    def test_band_state_next_to_the_cut(self, cut, word, edge):
        """A band state's word shares the cut's top 33 bits, so it is an
        edge only when its low 20 bits lie below the cut's: never at the
        cuts 2^51 and 2^20, which edges decides by one comparison, but at
        2^51 + 1, 2^20 + 1 and 2^51 + 2^19, whose low bits are not all zero."""
        states = [_state(word), _state(word, 2**11 - 1)]
        assert all((cut << 11) >> 31 == s >> 31 for s in states)
        assert rng.edges(np.array(states, dtype=np.uint64), cut).tolist() == [edge, edge]

    def test_top_band_at_the_cut_one(self):
        """At the cut 2^53 every word is an edge; L would be 2^64, so the
        top band [2^64 - 2^31, 2^64) stands for it and must be finished."""
        states = [2**64 - 2**31, 2**64 - 2**31 + 12345, 2**64 - 1, 2**64 - 2**31 - 1, 0]
        assert rng.edges(np.array(states, dtype=np.uint64), 2**53).all()


class TestSampling:
    def test_null_p0_zero_one(self):
        shape = ProblemShape(3, 3, 1, 1)
        assert sample_null(shape, 0.0, 7).bits.sum() == 0
        assert sample_null(shape, 1.0, 7).bits.sum() == 9

    def test_null_empirical_mean(self):
        A = sample_null(ProblemShape(64, 64, 8, 8), 0.25, 1)
        se = math.sqrt(0.25 * 0.75 / 4096)
        assert abs(A.bits.mean() - 0.25) <= 4 * se

    def test_null_determinism(self):
        shape = ProblemShape(16, 16, 2, 2)
        assert sample_null(shape, 0.3, 5) == sample_null(shape, 0.3, 5)
        assert sample_null(shape, 0.3, 5) != sample_null(shape, 0.3, 6)

    def test_planted_deterministic_block(self):
        shape = ProblemShape(2, 2, 1, 1)
        A = sample_planted(shape, SignalConfig(0.0, 1.0), PlantedSupport((0,), (0,)), 3)
        assert A.bits[0, 0] == 1 and A.bits.sum() == 1

    def test_planted_delta_zero_equals_null(self):
        shape = ProblemShape(10, 10, 3, 3)
        sup = PlantedSupport((0, 1, 2), (0, 1, 2))
        A = sample_planted(shape, SignalConfig(0.25, 0.0), sup, 11)
        assert A == sample_null(shape, 0.25, 11)

    def test_planted_block_mean(self):
        shape = ProblemShape(64, 64, 16, 16)
        sup = PlantedSupport(tuple(range(16)), tuple(range(16)))
        A = sample_planted(shape, SignalConfig(0.25, 0.2), sup, 2)
        block = A.bits[:16, :16]
        se = math.sqrt(0.45 * 0.55 / 256)
        assert abs(block.mean() - 0.45) <= 4 * se

    def test_domination_coupling(self):
        shape = ProblemShape(20, 20, 5, 5)
        sup = PlantedSupport(tuple(range(5)), tuple(range(5)))
        lo = sample_planted(shape, SignalConfig(0.2, 0.1), sup, 9)
        hi = sample_planted(shape, SignalConfig(0.2, 0.5), sup, 9)
        assert np.all(hi.bits >= lo.bits)

    @pytest.mark.parametrize("p0", [0.0, 0.25, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_null_equals_float_construction(self, p0, seed):
        shape = ProblemShape(6, 7, 2, 3)
        A = sample_null(shape, p0, seed)
        assert np.array_equal(A.bits, _reference_uniforms(seed, 6, 7) < p0)

    @pytest.mark.parametrize("p0", [0.0, 0.25, 0.3, 1.0])
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_planted_equals_float_construction(self, p0, share, seed):
        """delta = share * (1 - p0) includes delta = 1 - p0, where the block
        probability p0 + delta may round."""
        shape = ProblemShape(6, 7, 2, 3)
        cfg = SignalConfig(p0, share * (1.0 - p0))
        support = PlantedSupport((1, 4), (0, 2, 6))
        A = sample_planted(shape, cfg, support, seed)
        p = np.full((6, 7), cfg.p0)
        p[np.ix_(support.K1, support.K2)] = cfg.p0 + cfg.delta
        assert np.array_equal(A.bits, _reference_uniforms(seed, 6, 7) < p)

    @settings(max_examples=200, deadline=None)
    @given(
        n1=st.integers(1, 12),
        n2=st.integers(1, 12),
        p0=st.one_of(st.sampled_from([0.0, 0.25, 0.3, 1.0]), st.floats(0.0, 1.0)),
        share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_planted_equals_per_cell_cuts(self, n1, n2, p0, share, seed, data):
        """Every cell decided at below(p0) and the block rewritten at
        below(p0 + delta) gives the bits of comparing each cell's word with
        a matrix of per-cell cuts."""
        K1 = sorted(data.draw(st.sets(st.integers(0, n1 - 1), min_size=1)))
        K2 = sorted(data.draw(st.sets(st.integers(0, n2 - 1), min_size=1)))
        shape = ProblemShape(n1, n2, len(K1), len(K2))
        cfg = SignalConfig(p0, share * (1.0 - p0))
        support = PlantedSupport(tuple(K1), tuple(K2))
        cuts = np.full((n1, n2), rng.below(cfg.p0), dtype=np.uint64)
        cuts[np.ix_(K1, K2)] = rng.below(cfg.p0 + cfg.delta)
        A = sample_planted(shape, cfg, support, seed)
        assert np.array_equal(A.bits, cell_uniforms(seed, n1, n2) < cuts)

    def test_support_out_of_range(self):
        shape = ProblemShape(4, 4, 2, 2)
        with pytest.raises(ParameterError):
            sample_planted(shape, SignalConfig(0.2, 0.1), PlantedSupport((0, 5), (0, 1)), 1)


# (n, k): n up to 300 with any k in [0, n], or n up to 2^32 - 1 with k <= 20.
_SUBSET_SIZES = st.one_of(
    st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    st.integers(0, 20).flatmap(lambda k: st.tuples(st.integers(max(k, 1), 2**32 - 1), st.just(k))),
)


class TestUniformSupport:
    def test_full_support_unique(self):
        shape = ProblemShape(3, 2, 3, 2)
        _, sup = sample_planted_uniform_support(shape, SignalConfig(0.2, 0.1), 4)
        assert sup.K1 == (0, 1, 2) and sup.K2 == (0, 1)

    @staticmethod
    def _batched_rows(shape: ProblemShape, trials: int) -> np.ndarray:
        """Row supports of sample_planted_uniform_support for seeds
        0..trials-1, drawn in one batch; a few seeds are checked against the
        sampler itself."""
        rows = rng.sample_subsets(np.arange(trials, dtype=np.uint64), rng.TAG_ROWS,
                                  shape.n1, shape.k1)
        for seed in (0, 1, 977, trials - 1):
            _, sup = sample_planted_uniform_support(shape, SignalConfig(0.2, 0.1), seed)
            assert sup.K1 == tuple(rows[seed].tolist())
        return rows

    def test_single_index_uniform(self):
        n = 40_000
        rows = self._batched_rows(ProblemShape(4, 2, 1, 1), n)
        counts = Counter(rows[:, 0].tolist())
        se = math.sqrt(0.25 * 0.75 / n)
        for i in range(4):
            assert abs(counts[i] / n - 0.25) <= 4 * se

    def test_pair_subsets_uniform(self):
        n = 30_000
        rows = self._batched_rows(ProblemShape(4, 2, 2, 1), n)
        counts = Counter(map(tuple, rows.tolist()))
        se = math.sqrt((1 / 6) * (5 / 6) / n)
        assert len(counts) == 6
        for key, c in counts.items():
            assert abs(c / n - 1 / 6) <= 4 * se

    def test_draws_follow_the_seed_stream(self):
        """Draw i of sample_subset is derive_seed(seed, tag, i): the
        reference below runs the partial Fisher-Yates shuffle on it."""
        gen = np.random.default_rng(3)
        for _ in range(300):
            seed = int(gen.integers(0, 2**63)) * 2 + int(gen.integers(0, 2))
            n = int(gen.integers(1, 80))
            k = int(gen.integers(0, n + 1))
            idx = list(range(n))
            for i in range(k):
                j = i + ((rng.derive_seed(seed, rng.TAG_ROWS, i) * (n - i)) >> 64)
                idx[i], idx[j] = idx[j], idx[i]
            assert rng.sample_subset(seed, rng.TAG_ROWS, n, k) == tuple(sorted(idx[:k]))

    @settings(max_examples=60, deadline=None)
    @given(nk=_SUBSET_SIZES, block=st.sampled_from([1, 16, 500]),
           base=st.one_of(st.integers(0, 1000), st.integers(2**64 - 1000, 2**64 - 1)))
    @example(nk=(300, 300), block=500, base=2**64 - 10)
    @example(nk=(2**32 - 1, 20), block=16, base=2**64 - 5)
    def test_batch_rows_are_the_reference(self, nk, block, base):
        """Row t of sample_subsets is the scalar shuffle of seed t, for seeds
        near 0 and near 2^64, where base + t wraps."""
        n, k = nk
        seeds = [(base + t) % 2**64 for t in range(block)]
        got = rng.sample_subsets(np.array(seeds, dtype=np.uint64), rng.TAG_COLS, n, k)
        assert got.shape == (block, k) and got.dtype == np.intp
        assert [tuple(row) for row in got.tolist()] == [
            sample_subset_reference(s, rng.TAG_COLS, n, k) for s in seeds]

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (64, 16), (10**6, 10), (2**32 - 1, 20)])
    def test_single_is_the_batch_of_one(self, seed, n, k):
        one = rng.sample_subset(seed, rng.TAG_ROWS, n, k)
        assert one == tuple(rng.sample_subsets([seed], rng.TAG_ROWS, n, k)[0])
        assert one == sample_subset_reference(seed, rng.TAG_ROWS, n, k)

    @pytest.mark.parametrize("n, k, name", [
        (2**32, 1, "n=4294967296"), (3, 5, "k=5"), (5, -2, "k=-2"), (-1, 0, "n=-1")],
        ids=["n=2^32", "k>n", "k<0", "n<0"])
    def test_limits_refused(self, n, k, name):
        """n below 2^32 bounds the 32-bit limb product; k outside [0, n]
        was an IndexError (k > n) or a silent 3-subset (k = -2)."""
        with pytest.raises(ParameterError, match=name):
            rng.sample_subset(1, rng.TAG_ROWS, n, k)
        with pytest.raises(ParameterError, match=name):
            rng.sample_subsets(np.arange(3, dtype=np.uint64), rng.TAG_ROWS, n, k)


class TestIO:
    def test_round_trip_zeros(self, tmp_path):
        A = AdjacencyMatrix(np.zeros((3, 3), dtype=np.uint8))
        p = tmp_path / "m.txt"
        write_matrix(A, p)
        assert read_matrix(p) == A

    def test_round_trip_random(self, tmp_path):
        A = sample_null(ProblemShape(17, 9, 2, 2), 0.4, 123)
        p = tmp_path / "m.txt"
        write_matrix(A, p)
        assert read_matrix(p) == A

    @settings(max_examples=60, deadline=None)
    @given(n1=st.integers(1, 40), n2=st.integers(1, 40),
           fill=st.sampled_from(["random", "zeros", "ones"]), seed=st.integers(0, 2**32 - 1))
    @example(n1=1, n2=1, fill="zeros", seed=0)
    @example(n1=1, n2=1, fill="ones", seed=0)
    @example(n1=1, n2=1, fill="random", seed=3)
    def test_bytes_match_cell_writer(self, tmp_path_factory, n1, n2, fill, seed):
        """The one-array writer gives the per-cell writer's bytes."""
        bits = {"zeros": np.zeros((n1, n2)), "ones": np.ones((n1, n2)),
                "random": np.random.default_rng(seed).integers(0, 2, (n1, n2))}[fill]
        A = AdjacencyMatrix(bits)
        tmp = tmp_path_factory.mktemp("writer")
        got, want = tmp / "got.txt", tmp / "want.txt"
        write_matrix(A, got)
        write_matrix_reference(A, want)
        assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(
        n1=st.integers(1, 5),
        n2=st.integers(1, 8),
        header=st.sampled_from(["ok"] * 12 + ["n1+1", "n1-1", "n2+1", "n2-1", "2", "a b", " 2  3 "]),
        edits=st.lists(
            st.tuples(st.integers(0, 6), st.sampled_from(["short", "long", "char", "char", "char"]),
                      st.integers(0, 8), st.sampled_from(["2", "x", " ", "\t", "/", "\x00", "\xe9"])),
            max_size=3,
        ),
        extra=st.sampled_from([0] * 6 + [-1, 1, 2]),
        ends=st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e"]),
                      min_size=9, max_size=9),
        final=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reader_matches_row_reader(
        self, tmp_path_factory, n1, n2, header, edits, extra, ends, final, seed
    ):
        """The one-pass reader accepts what the row-at-a-time reader does,
        with the same bits, and refuses the rest with the same message:
        near-valid files with bad characters, short, long, missing or extra
        rows, bad headers, and every ASCII line ending splitlines honours."""
        gen = np.random.default_rng(seed)
        rows = ["".join(gen.choice(["0", "1"], n2)) for _ in range(max(0, n1 + extra))]
        for i, edit, at, char in edits:
            if i < len(rows):
                row, at = rows[i], min(at, len(rows[i]))
                rows[i] = {"short": row[:-1], "long": row + "1",
                           "char": row[:at] + char + row[at + 1 :]}[edit]
        head = {"ok": f"{n1} {n2}", "n1+1": f"{n1 + 1} {n2}", "n1-1": f"{n1 - 1} {n2}",
                "n2+1": f"{n1} {n2 + 1}", "n2-1": f"{n1} {n2 - 1}"}.get(header, header)
        lines = [head, *rows]
        endings = ends[: len(lines)]
        if not final:
            endings[-1] = ""
        path = tmp_path_factory.mktemp("reader") / "m.txt"
        path.write_bytes("".join(map(str.__add__, lines, endings)).encode("latin-1"))

        def outcome(read):
            try:
                return read(path).bits.tolist()
            except FormatError as exc:
                return str(exc)

        assert outcome(read_matrix) == outcome(read_matrix_reference)

    def test_explicit_bits(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2 3\n010\n110\n")
        A = read_matrix(p)
        assert A.bits.tolist() == [[0, 1, 0], [1, 1, 0]]

    def test_bad_row_length(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2 3\n01\n110\n")
        with pytest.raises(FormatError, match="line 2"):
            read_matrix(p)

    def test_bad_characters(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 3\n0x1\n")
        with pytest.raises(FormatError, match="line 2"):
            read_matrix(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n01\n10\n")
        with pytest.raises(FormatError, match="line 1"):
            read_matrix(p)

    def test_non_ascii_byte(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_bytes(b"2 3\n010\n1\xe90\n")
        with pytest.raises(FormatError, match="line 3"):
            read_matrix(p)

    def test_zero_dimension(self, tmp_path):
        for text in ("0 3\n", "2 0\n\n\n"):
            p = tmp_path / "m.txt"
            p.write_text(text)
            with pytest.raises(FormatError, match="line 1"):
                read_matrix(p)

    def test_row_count_mismatch(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3 2\n01\n10\n")
        with pytest.raises(FormatError):
            read_matrix(p)
