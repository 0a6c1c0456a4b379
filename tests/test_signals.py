"""Tests for streams, fading/noise draws, pilots, and QPSK mapping."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csa_mimo import signals
from csa_mimo.frame import SystemConfig
from csa_mimo.signals import (
    RandomStream,
    build_hadamard_pilots,
    complex_normal,
    qpsk_hard_demodulate,
    qpsk_modulate,
    standard_normal_segments,
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

    @pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_seed_and_stream_id_outside_64_bits_rejected(self, seed, stream_id):
        with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
            RandomStream(seed, stream_id)

    def test_largest_64_bit_seed_and_stream_id_accepted(self):
        top = 2**64 - 1
        a = RandomStream(top, top).generator().standard_normal(8)
        b = np.random.default_rng(np.random.SeedSequence((top, top))).standard_normal(8)
        np.testing.assert_array_equal(a, b)

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


def assert_segments_match_serial_draw(make_rng, sizes):
    """``standard_normal_segments`` gives the serial draw's values, cut at
    ``sizes``, and leaves the generator in the serial draw's state."""
    rng, oracle_rng = make_rng(), make_rng()
    segments = standard_normal_segments(rng, sizes)
    expected = oracle_rng.standard_normal(sum(sizes))
    assert [segment.shape for segment in segments] == [(size,) for size in sizes]
    assert all(segment.dtype == np.float64 for segment in segments)
    drawn = np.concatenate(segments) if segments else np.empty(0)
    assert drawn.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    np.testing.assert_array_equal(
        rng.integers(0, 2**32, size=3, dtype=np.uint32),
        oracle_rng.integers(0, 2**32, size=3, dtype=np.uint32),
    )


def split_into(monkeypatch, parts: int) -> None:
    """Split every later draw into up to ``parts`` parts, however small."""
    monkeypatch.setattr(signals, "draw_threads", parts)
    monkeypatch.setattr(signals, "_MIN_PART", 1)


class TestStandardNormalSegments:
    """The threaded segment draw against one ``standard_normal`` call."""

    SIZES = [
        [],
        [0],
        [1],
        [0, 1, 0],
        [5, 0, 7],
        [1, 1, 1, 1, 1],
        [100_000],
        [40_000, 1, 0, 80_000, 3, 25_000],
    ]

    @pytest.mark.parametrize("parts", (1, 2, 3, 4))
    @pytest.mark.parametrize("sizes", SIZES)
    def test_matches_serial_draw(self, monkeypatch, sizes, parts):
        split_into(monkeypatch, parts)
        for seed in range(3):
            assert_segments_match_serial_draw(lambda: RandomStream(21, seed).generator(), sizes)

    @pytest.mark.parametrize("parts", (2, 3, 4))
    def test_matches_serial_draw_on_many_seeds(self, monkeypatch, parts):
        split_into(monkeypatch, parts)
        for seed in range(20):
            sizes = np.random.default_rng(seed).integers(0, 30_000, size=12).tolist()
            assert_segments_match_serial_draw(lambda: RandomStream(22, seed).generator(), sizes)

    @pytest.mark.parametrize("parts", (1, 3))
    def test_buffered_uint32_half_survives(self, monkeypatch, parts):
        split_into(monkeypatch, parts)

        def rng_holding_half():
            rng = RandomStream(23, 0).generator()
            rng.integers(0, 2**32, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1
            return rng
        assert_segments_match_serial_draw(rng_holding_half, [30_000, 20_000, 10_000])

    def test_default_part_count_matches_serial_draw(self):
        # enough normals for one part per CPU on hosts with up to 3 CPUs
        sizes = [2 * 64 * 256] * (3 * signals._MIN_PART // (2 * 64 * 256) + 1)
        assert_segments_match_serial_draw(lambda: RandomStream(24, 0).generator(), sizes)

    def test_part_count(self, monkeypatch):
        monkeypatch.setattr(signals.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert signals.draw_threads is None
        assert [signals._part_count(n * signals._MIN_PART) for n in (0, 1, 2, 3, 9)] == [
            1, 1, 2, 3, 3]
        monkeypatch.setattr(signals, "draw_threads", 1)
        assert signals._part_count(9 * signals._MIN_PART) == 1

    @pytest.fixture
    def located(self, monkeypatch):
        """What every boundary search returned: a match, or None for a miss."""
        results = []
        locate = signals._locate

        def recording_locate(probe, window):
            results.append(locate(probe, window))
            return results[-1]

        monkeypatch.setattr(signals, "_locate", recording_locate)
        return results

    def test_guess_is_matched(self, monkeypatch, located):
        split_into(monkeypatch, 4)
        assert_segments_match_serial_draw(lambda: RandomStream(26, 0).generator(), [50_000] * 4)
        assert len(located) == 3 and None not in located

    @pytest.mark.parametrize("words_per_normal", (0.5, 2.0))
    def test_missed_guess_falls_back_to_serial_redraw(
        self, monkeypatch, located, words_per_normal
    ):
        # a guess far before or past the part's start leaves nothing to match
        monkeypatch.setattr(signals, "_WORDS_PER_NORMAL", words_per_normal)
        split_into(monkeypatch, 4)
        assert_segments_match_serial_draw(lambda: RandomStream(27, 0).generator(), [50_000] * 4)
        assert located == [None, None, None]

    def test_worker_exception_reaches_caller(self, monkeypatch):
        rng = RandomStream(28, 0).generator()
        fill = signals._fill

        def failing_fill(gen, out):
            if gen is not rng:
                raise RuntimeError("part failed")
            fill(gen, out)

        monkeypatch.setattr(signals, "_fill", failing_fill)
        split_into(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="part failed"):
            standard_normal_segments(rng, [10_000, 10_000])

    def test_segments_are_views_of_disjoint_memory(self, monkeypatch):
        split_into(monkeypatch, 2)
        segments = standard_normal_segments(
            RandomStream(29, 0).generator(), [30_000, 20_000, 10_000, 5_000])
        assert all(segment.base is not None for segment in segments)
        for a, b in itertools.combinations(segments, 2):
            assert not np.shares_memory(a, b)


class TestHadamardPilots:
    def test_sylvester_base_case(self):
        pilots = build_hadamard_pilots(2)
        np.testing.assert_array_equal(pilots, [[1, 1], [1, -1]])
        assert not pilots.flags.writeable

    def test_orthogonality_is_exact_for_64(self):
        # integer arithmetic: every distinct-row inner product is exactly 0
        seqs = build_hadamard_pilots(64)
        gram = seqs @ seqs.T
        np.testing.assert_array_equal(gram, 64 * np.eye(64, dtype=np.int64))

    def test_unit_symbol_energy(self):
        seqs = build_hadamard_pilots(16)
        np.testing.assert_array_equal(np.abs(seqs), np.ones((16, 16)))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            build_hadamard_pilots(48)
        with pytest.raises(ValueError):
            build_hadamard_pilots(0)


class TestWalshHadamardTransform:
    def test_matches_direct_matrix_product(self):
        rng = RandomStream(10, 0).generator()
        seqs = build_hadamard_pilots(32).astype(float)
        x = complex_normal(rng, (7, 32), 1.0)
        np.testing.assert_allclose(
            walsh_hadamard_transform(x), x @ seqs, rtol=1e-13, atol=1e-13
        )

    def test_pilot_aligned_input_transforms_exactly(self):
        # a vector proportional to pilot row j concentrates on bin j with no
        # floating-point residue in the other bins
        rng = RandomStream(11, 0).generator()
        seqs = build_hadamard_pilots(64)
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
        with pytest.raises(ValueError):
            qpsk_modulate(np.zeros((4, 7), dtype=np.uint8))

    @pytest.mark.parametrize(
        "shape", [(8,), (5, 32), (3, 4, 16), (0, 2 * 256)], ids=["1d", "2d", "3d", "no-users"]
    )
    def test_bitwise_equal_to_two_part_formula(self, shape):
        # (0, 2 n_d) is the payload batch of a frame with no active users
        bits = np.random.default_rng(1).integers(0, 2, size=shape, dtype=np.uint8)
        b0, b1 = bits[..., 0::2], bits[..., 1::2]
        expected = (1.0 - 2.0 * b0 + 1j * (1.0 - 2.0 * b1)) / np.sqrt(2.0)
        symbols = qpsk_modulate(bits)
        assert symbols.shape == shape[:-1] + (shape[-1] // 2,)
        assert symbols.dtype == np.complex128
        np.testing.assert_array_equal(symbols.view(np.uint64), expected.view(np.uint64))

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0))
    def test_round_trip_identity(self, bits):
        symbols = qpsk_modulate(np.array(bits, dtype=np.uint8))
        np.testing.assert_array_equal(qpsk_hard_demodulate(symbols), bits)
