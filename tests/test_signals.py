"""Tests for streams, fading/noise draws, pilots, and QPSK mapping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csa_mimo.frame import SystemConfig
from csa_mimo.signals import (
    RandomStream,
    build_hadamard_pilots,
    complex_normal,
    qpsk_hard_demodulate,
    qpsk_modulate,
    walsh_hadamard_transform,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


class TestRandomStream:
    def test_identical_streams_reproduce_identical_draws(self):
        a = complex_normal(RandomStream(7, 3).generator(), 256, 1.0)
        b = complex_normal(RandomStream(7, 3).generator(), 256, 1.0)
        np.testing.assert_array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RandomStream(7, 0).generator().standard_normal(64)
        b = RandomStream(7, 1).generator().standard_normal(64)
        assert not np.array_equal(a, b)

    def test_distinct_streams_uncorrelated(self):
        n = 200_000
        a = RandomStream(7, 0).generator().standard_normal(n)
        b = RandomStream(7, 1).generator().standard_normal(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(n)

    def test_generator_restarts_at_stream_origin(self):
        stream = RandomStream(11, 5)
        first = stream.generator().standard_normal(8)
        again = stream.generator().standard_normal(8)
        np.testing.assert_array_equal(first, again)


class TestChannelDraws:
    def test_squared_norm_concentrates_on_antenna_count(self):
        # law-of-large-numbers check: mean ||h||^2 over 1e5 draws ~ m
        rng = RandomStream(1, 0).generator()
        m, n_draws = 256, 100_000
        h = complex_normal(rng, (n_draws, m), 1.0)
        norms = np.einsum("ij,ij->i", h.real, h.real) + np.einsum(
            "ij,ij->i", h.imag, h.imag
        )
        assert abs(norms.mean() - m) < 0.01 * m

    def test_normalized_norm_concentrates_on_one(self):
        rng = RandomStream(2, 0).generator()
        m, n_draws = 256, 10_000
        h = complex_normal(rng, (n_draws, m), 1.0)
        ratio = (np.abs(h) ** 2).sum(axis=1) / m
        assert abs(ratio.mean() - 1.0) < 0.01

    def test_entry_moments_within_three_standard_errors(self):
        rng = RandomStream(3, 0).generator()
        n = 2_000_000
        h = complex_normal(rng, n, 1.0)
        # per-entry mean -> 0, per-entry variance -> 1 (split over quadratures)
        se_mean = 1.0 / np.sqrt(2 * n)  # per real dimension, var 1/2 each
        assert abs(h.real.mean()) < 3 * se_mean
        assert abs(h.imag.mean()) < 3 * se_mean
        var = np.mean(np.abs(h) ** 2)
        se_var = np.sqrt(2.0 / n)
        assert abs(var - 1.0) < 3 * se_var

    def test_degenerate_variance_gives_zeros(self):
        rng = RandomStream(4, 0).generator()
        np.testing.assert_array_equal(
            complex_normal(rng, (5, 5), 0.0), np.zeros((5, 5))
        )

    def test_invalid_parameters_rejected(self):
        # antenna count and channel power enter through the scenario config
        with pytest.raises(ValueError):
            SystemConfig(m=0)
        with pytest.raises(ValueError):
            SystemConfig(channel_var=0.0)
        with pytest.raises(ValueError):
            complex_normal(RandomStream(0, 0).generator(), 4, -1.0)


class TestNoiseDraws:
    def test_sample_variance_matches_configured(self):
        rng = RandomStream(5, 0).generator()
        var = 0.1
        z = complex_normal(rng, (256, 64), var)
        for _ in range(60):  # > 1e6 entries total
            z = np.concatenate([z.ravel(), complex_normal(rng, (256, 64), var).ravel()])
        measured = np.mean(np.abs(z) ** 2)
        assert abs(measured - var) < 0.02 * var

    def test_zero_variance_all_zero(self):
        rng = RandomStream(6, 0).generator()
        np.testing.assert_array_equal(complex_normal(rng, (3, 4), 0.0), np.zeros((3, 4)))

    def test_determinism_under_fixed_stream(self):
        a = complex_normal(RandomStream(9, 2).generator(), (8, 8), 0.1)
        b = complex_normal(RandomStream(9, 2).generator(), (8, 8), 0.1)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [7, (5, 6), (3, 4, 5)])
    def test_bitwise_equal_to_two_part_formula(self, shape):
        # the draws are (real, imaginary) pairs of standard normals, scaled
        var = 0.3
        z = RandomStream(12, 1).generator().standard_normal(tuple(np.atleast_1d(shape)) + (2,))
        expected = np.sqrt(var / 2.0) * (z[..., 0] + 1j * z[..., 1])
        drawn = complex_normal(RandomStream(12, 1).generator(), shape, var)
        assert drawn.shape == expected.shape
        np.testing.assert_array_equal(drawn.view(np.uint64), expected.view(np.uint64))

    def test_zero_dimension_rejected(self):
        # noise matrices are (m, n_p) and (m, n_d); the config rejects empty ones
        for field in ("m", "n_p", "n_d"):
            with pytest.raises(ValueError):
                SystemConfig(**{field: 0})


class TestHadamardPilots:
    def test_sylvester_base_case(self):
        pilots = build_hadamard_pilots(2)
        np.testing.assert_array_equal(pilots.sequences, [[1, 1], [1, -1]])

    def test_orthogonality_is_exact_for_64(self):
        # integer arithmetic: every distinct-row inner product is exactly 0
        seqs = build_hadamard_pilots(64).sequences
        gram = seqs @ seqs.T
        np.testing.assert_array_equal(gram, 64 * np.eye(64, dtype=np.int64))

    def test_unit_symbol_energy(self):
        seqs = build_hadamard_pilots(16).sequences
        np.testing.assert_array_equal(np.abs(seqs), np.ones((16, 16)))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            build_hadamard_pilots(48)
        with pytest.raises(ValueError):
            build_hadamard_pilots(0)


class TestWalshHadamardTransform:
    def test_matches_direct_matrix_product(self):
        rng = RandomStream(10, 0).generator()
        seqs = build_hadamard_pilots(32).sequences.astype(float)
        x = complex_normal(rng, (7, 32), 1.0)
        np.testing.assert_allclose(
            walsh_hadamard_transform(x), x @ seqs, rtol=1e-13, atol=1e-13
        )

    def test_pilot_aligned_input_transforms_exactly(self):
        # a vector proportional to pilot row j concentrates on bin j with no
        # floating-point residue in the other bins
        rng = RandomStream(11, 0).generator()
        seqs = build_hadamard_pilots(64).sequences
        h = complex_normal(rng, 1, 1.0)[0]
        x = h * seqs[23].astype(float)
        out = walsh_hadamard_transform(x)
        assert out[23] == 64 * h
        out[23] = 0
        np.testing.assert_array_equal(out, np.zeros(64))

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            walsh_hadamard_transform(np.zeros(12))


class TestQpsk:
    def test_all_two_bit_patterns_round_trip(self):
        for bits in ([0, 0], [0, 1], [1, 0], [1, 1]):
            symbols = qpsk_modulate(np.array(bits))
            np.testing.assert_array_equal(qpsk_hard_demodulate(symbols), bits)

    def test_labeling_convention_fixed_point(self):
        np.testing.assert_array_equal(
            qpsk_modulate(np.array([0, 0])), [SQRT_HALF * (1 + 1j)]
        )

    def test_unit_symbol_energy(self):
        symbols = qpsk_modulate(np.array([0, 0, 0, 1, 1, 0, 1, 1]))
        np.testing.assert_allclose(np.abs(symbols) ** 2, 1.0, rtol=1e-15)

    def test_decision_region_interior(self):
        perturbed = np.array([SQRT_HALF * (1 + 1j) + (0.2 - 0.35j)])
        np.testing.assert_array_equal(qpsk_hard_demodulate(perturbed), [0, 0])

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError):
            qpsk_modulate(np.array([0, 1, 0]))

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0))
    def test_round_trip_identity(self, bits):
        symbols = qpsk_modulate(np.array(bits, dtype=np.uint8))
        np.testing.assert_array_equal(qpsk_hard_demodulate(symbols), bits)
