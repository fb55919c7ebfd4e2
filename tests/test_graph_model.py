import math
from collections import Counter

import numpy as np
import pytest

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
from planted_bipartite.rng import batch_cell_uniforms, cell_uniforms


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


class TestCellUniforms:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63, 2**64 - 1])
    def test_single_equals_batch(self, seed):
        one = cell_uniforms(seed, 5, 7)
        batch = batch_cell_uniforms(np.array([seed], dtype=np.uint64), 5, 7)
        assert one.shape == (5, 7)
        assert np.array_equal(one, batch[0])


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

    def test_support_out_of_range(self):
        shape = ProblemShape(4, 4, 2, 2)
        with pytest.raises(ParameterError):
            sample_planted(shape, SignalConfig(0.2, 0.1), PlantedSupport((0, 5), (0, 1)), 1)


class TestUniformSupport:
    def test_full_support_unique(self):
        shape = ProblemShape(3, 2, 3, 2)
        _, sup = sample_planted_uniform_support(shape, SignalConfig(0.2, 0.1), 4)
        assert sup.K1 == (0, 1, 2) and sup.K2 == (0, 1)

    def test_single_index_uniform(self):
        shape = ProblemShape(4, 2, 1, 1)
        counts = Counter()
        n = 40_000
        for seed in range(n):
            _, sup = sample_planted_uniform_support(shape, SignalConfig(0.2, 0.1), seed)
            counts[sup.K1[0]] += 1
        se = math.sqrt(0.25 * 0.75 / n)
        for i in range(4):
            assert abs(counts[i] / n - 0.25) <= 4 * se

    def test_pair_subsets_uniform(self):
        shape = ProblemShape(4, 2, 2, 1)
        counts = Counter()
        n = 30_000
        for seed in range(n):
            _, sup = sample_planted_uniform_support(shape, SignalConfig(0.2, 0.1), seed)
            counts[sup.K1] += 1
        se = math.sqrt((1 / 6) * (5 / 6) / n)
        assert len(counts) == 6
        for key, c in counts.items():
            assert abs(c / n - 1 / 6) <= 4 * se


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
