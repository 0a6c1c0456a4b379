"""Tests for streams, fading/noise draws, pilots, and QPSK mapping."""

import itertools
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from csa_mimo import signals
from csa_mimo.frame import SystemConfig
from csa_mimo.signals import (
    RandomStream,
    build_hadamard_pilots,
    complex_normal,
    complex_normal_segments,
    for_each_slot,
    one_blas_thread,
    qpsk_hard_demodulate,
    qpsk_modulate,
    uniform_bits,
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

    @pytest.mark.parametrize("seed, stream_id, name", [
        (1.5, 0, "seed"), (2.0, 0, "seed"), (0, 3.0, "stream_id"), ("7", 0, "seed"),
    ])
    def test_non_integer_seed_and_stream_id_named(self, seed, stream_id, name):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            RandomStream(seed, stream_id)

    def test_numpy_integers_stored_as_int(self):
        stream = RandomStream(np.uint64(7), np.int64(3))
        assert (stream.seed, stream.stream_id) == (7, 3)
        assert type(stream.seed) is type(stream.stream_id) is int
        assert stream == RandomStream(7, 3)

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


def assert_draw_matches_serial_draw(make_rng, counts):
    """``complex_normal_segments`` at variance 2, where the scale is exactly 1, gives
    one complex128 array of ``count`` values per count whose (real, imaginary)
    pairs are the serial draw's normals, in order, and leaves the generator in the
    serial draw's state."""
    rng, oracle_rng = make_rng(), make_rng()
    arrays = complex_normal_segments(rng, [((count,), 2.0) for count in counts])
    expected = oracle_rng.standard_normal(2 * sum(counts))
    assert [array.shape for array in arrays] == [(count,) for count in counts]
    assert all(array.dtype == np.complex128 for array in arrays)
    drawn = np.concatenate([array.view(np.float64) for array in arrays] + [np.empty(0)])
    assert drawn.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    np.testing.assert_array_equal(
        rng.integers(0, 2**32, size=3, dtype=np.uint32),
        oracle_rng.integers(0, 2**32, size=3, dtype=np.uint32),
    )


def split_into(monkeypatch, parts: int) -> None:
    """Split every later draw into up to ``parts`` parts, however small."""
    monkeypatch.setattr(signals.os, "sched_getaffinity", lambda pid: set(range(parts)))
    monkeypatch.setattr(signals, "_MIN_PART", 1)


class TestSplitDraw:
    """The threaded draw of ``complex_normal_segments`` against one ``standard_normal`` call."""

    COUNTS = [
        [],
        [0],
        [1],
        [0, 1, 0],
        [5, 0, 7],
        [1, 1, 1, 1, 1],
        [50_000],
        [20_000, 1, 0, 40_000, 3, 12_500],
    ]

    @pytest.mark.parametrize("parts", (1, 2, 3, 4))
    @pytest.mark.parametrize("counts", COUNTS)
    def test_matches_serial_draw(self, monkeypatch, counts, parts):
        split_into(monkeypatch, parts)
        for seed in range(3):
            assert_draw_matches_serial_draw(lambda: RandomStream(21, seed).generator(), counts)

    @pytest.mark.parametrize("parts", (2, 3, 4))
    def test_matches_serial_draw_on_many_seeds(self, monkeypatch, parts):
        split_into(monkeypatch, parts)
        for seed in range(20):
            counts = np.random.default_rng(seed).integers(0, 15_000, size=12).tolist()
            assert_draw_matches_serial_draw(lambda: RandomStream(22, seed).generator(), counts)

    @pytest.mark.parametrize("parts", (1, 3))
    def test_buffered_uint32_half_survives(self, monkeypatch, parts):
        split_into(monkeypatch, parts)

        def rng_holding_half():
            rng = RandomStream(23, 0).generator()
            rng.integers(0, 2**32, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1
            return rng
        assert_draw_matches_serial_draw(rng_holding_half, [15_000, 10_000, 5_000])

    def test_default_part_count_matches_serial_draw(self):
        # enough normals for one part per CPU on hosts with up to 3 CPUs
        counts = [64 * 256] * (3 * signals._MIN_PART // (2 * 64 * 256) + 1)
        assert_draw_matches_serial_draw(lambda: RandomStream(24, 0).generator(), counts)

    def test_part_count(self, monkeypatch):
        monkeypatch.setattr(signals.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert [signals._part_count(n * signals._MIN_PART) for n in (0, 1, 2, 3, 9)] == [
            1, 1, 2, 3, 3]
        # a daemonic process, such as a pool worker, draws on one thread
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
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
        assert_draw_matches_serial_draw(lambda: RandomStream(26, 0).generator(), [25_000] * 4)
        assert len(located) == 3 and None not in located

    @pytest.mark.parametrize("words_per_normal", (0.5, 2.0))
    def test_missed_guess_falls_back_to_serial_redraw(
        self, monkeypatch, located, words_per_normal
    ):
        # a guess far before or past the part's start leaves nothing to match
        monkeypatch.setattr(signals, "_WORDS_PER_NORMAL", words_per_normal)
        split_into(monkeypatch, 4)
        assert_draw_matches_serial_draw(lambda: RandomStream(27, 0).generator(), [25_000] * 4)
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
            complex_normal_segments(rng, [((5_000,), 2.0), ((5_000,), 2.0)])

    @pytest.mark.parametrize("parts", (1, 2))
    def test_arrays_are_views_of_disjoint_memory(self, monkeypatch, parts):
        split_into(monkeypatch, parts)
        draws = [((count,), 2.0) for count in (15_000, 10_000, 5_000, 2_500)]
        arrays = complex_normal_segments(RandomStream(29, 0).generator(), draws)
        assert all(array.base is not None for array in arrays)
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)


class TestComplexNormalSegments:
    """The complex draw against one ``standard_normal`` call over its normals."""

    # zero-variance and empty arrays between drawn ones, and a () shape
    DRAWS = [((3, 4), 0.5), ((7,), 0.0), ((2, 0), 1.0), ((), 2.0), ((60, 300), 0.1),
             ((5, 2), 0.0), ((4000,), 3.0)]

    @staticmethod
    def expected(draws, dtype, normals):
        """Each array from the next normals, in order, scaled in float64 and
        rounded once; zeros at variance 0.  Every normal is used."""
        arrays = []
        for shape, var in draws:
            if var == 0:
                arrays.append(np.zeros(shape, dtype))
                continue
            size = 2 * np.zeros(shape).size
            z, normals = normals[:size] * np.sqrt(var / 2.0), normals[size:]
            arrays.append(z.astype(np.finfo(dtype).dtype).view(dtype).reshape(shape))
        assert normals.size == 0
        return arrays

    @pytest.mark.parametrize("dtype", (np.complex128, np.complex64))
    @pytest.mark.parametrize("parts", (1, 3))
    def test_matches_serial_draw_in_order(self, monkeypatch, parts, dtype):
        split_into(monkeypatch, parts)
        rng, oracle_rng = RandomStream(31, 0).generator(), RandomStream(31, 0).generator()
        drawn = complex_normal_segments(rng, self.DRAWS, dtype)
        n = sum(2 * np.zeros(shape).size for shape, var in self.DRAWS if var)
        expected = self.expected(self.DRAWS, dtype, oracle_rng.standard_normal(n))
        assert len(drawn) == len(expected)
        for array, want in zip(drawn, expected):
            assert array.dtype == dtype and array.shape == want.shape
            assert array.tobytes() == want.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("parts", (1, 3))
    def test_one_array_call_is_complex_normal(self, monkeypatch, parts):
        split_into(monkeypatch, parts)
        for shape, var in self.DRAWS:
            [array] = complex_normal_segments(RandomStream(32, 0).generator(), [(shape, var)])
            alone = complex_normal(RandomStream(32, 0).generator(), shape, var)
            assert array.shape == alone.shape and array.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("parts", (1, 3))
    def test_zero_variance_draws_nothing(self, monkeypatch, parts):
        split_into(monkeypatch, parts)
        rng, others_rng = RandomStream(33, 0).generator(), RandomStream(33, 0).generator()
        complex_normal_segments(rng, self.DRAWS, np.complex64)
        complex_normal_segments(others_rng, [d for d in self.DRAWS if d[1] != 0], np.complex64)
        assert rng.bit_generator.state == others_rng.bit_generator.state

    @pytest.mark.parametrize("parts", (1, 3))
    def test_complex64_arrays_hold_disjoint_memory(self, monkeypatch, parts):
        split_into(monkeypatch, parts)
        arrays = complex_normal_segments(RandomStream(34, 0).generator(), self.DRAWS, np.complex64)
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_negative_variance_rejected_before_drawing(self):
        rng = RandomStream(35, 0).generator()
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^variance must be nonnegative, got -0.1$"):
            complex_normal_segments(rng, [((3, 4), 1.0), ((5,), -0.1)], np.complex64)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("var, error, message", [
        (np.nan, ValueError, "variance must be finite, got nan"),
        (np.inf, ValueError, "variance must be finite, got inf"),
        (-np.inf, ValueError, "variance must be finite, got -inf"),
        # a bool is an int to Python, so True drew variance 1
        (True, TypeError, "variance must be a real number, got True"),
        (np.True_, TypeError, f"variance must be a real number, got {np.True_!r}"),
    ])
    def test_non_finite_or_bool_variance_rejected_before_drawing(self, var, error, message):
        rng = RandomStream(35, 0).generator()
        state = rng.bit_generator.state
        with pytest.raises(error, match=f"^{message}$"):
            complex_normal_segments(rng, [((3, 4), 1.0), ((5,), var)], np.complex64)
        with pytest.raises(error, match=f"^{message}$"):
            complex_normal(rng, 3, var)
        assert rng.bit_generator.state == state


class TestOneBlasThread:
    def test_finds_the_openblas_numpy_is_built_with(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas:
            pytest.skip(f"numpy is built with {blas}")
        assert signals._blas_thread_controls()

    def test_one_thread_inside_and_restored_after(self, blas_threads):
        before = blas_threads()
        with one_blas_thread():
            assert blas_threads() == [1] * len(before)
            with one_blas_thread():
                assert blas_threads() == [1] * len(before)
            assert blas_threads() == [1] * len(before)
        assert blas_threads() == before

    def test_restored_when_the_block_raises(self, blas_threads):
        before = blas_threads()
        with pytest.raises(RuntimeError, match="inside"):
            with one_blas_thread():
                raise RuntimeError("inside")
        assert blas_threads() == before

    def test_block_runs_unpinned_where_no_openblas_is_found(self, monkeypatch, blas_threads):
        monkeypatch.setattr(signals, "_blas_thread_controls", lambda: ())
        before, ran = blas_threads(), []
        with one_blas_thread():
            ran.append(blas_threads())
        assert ran == [before]


    @pytest.mark.parametrize("first_to_close", ("first_opened", "second_opened"))
    def test_overlapping_blocks_on_two_threads_restore_the_count(self, blas_threads,
                                                                 first_to_close):
        before = blas_threads()
        opened = {k: threading.Event() for k in (0, 1)}
        release = {k: threading.Event() for k in (0, 1)}

        def hold(k):
            with one_blas_thread():
                opened[k].set()
                assert release[k].wait(10)

        threads = [threading.Thread(target=hold, args=(k,)) for k in (0, 1)]
        for k, thread in enumerate(threads):
            thread.start()
            assert opened[k].wait(10)
        assert blas_threads() == [1] * len(before)
        order = (0, 1) if first_to_close == "first_opened" else (1, 0)
        release[order[0]].set()
        threads[order[0]].join(10)
        assert not threads[order[0]].is_alive()
        assert blas_threads() == [1] * len(before)  # the other block is still open
        release[order[1]].set()
        threads[order[1]].join(10)
        assert not threads[order[1]].is_alive()
        assert blas_threads() == before

    def test_many_threads_opening_blocks_lose_no_count(self, blas_threads):
        before, inside = blas_threads(), []

        def open_blocks():
            for _ in range(200):
                with one_blas_thread():
                    inside.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=open_blocks) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert inside == [[1] * len(before)] * (8 * 200)
        assert blas_threads() == before


class TestForEachSlot:
    """``for_each_slot`` against a loop over the indices."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the affinity mask to that many CPUs, each paying from one value up."""
        monkeypatch.setattr(signals, "_MIN_PART", 1)
        return lambda n: monkeypatch.setattr(signals.os, "sched_getaffinity",
                                             lambda pid: set(range(n)))

    @pytest.mark.parametrize("cpus_, count, blocks", [
        (1, 7, [7]), (3, 0, []), (3, 1, [1]), (3, 2, [1, 1]), (3, 8, [2, 3, 3]), (2, 9, [4, 5]),
    ])
    def test_contiguous_blocks_one_per_cpu(self, cpus, cpus_, count, blocks):
        cpus(cpus_)
        # thread objects, not idents, which a later thread may reuse
        calls, caller, threads = {}, threading.current_thread(), threading.active_count()
        for_each_slot(lambda s: calls.setdefault(s, []).append(threading.current_thread()),
                      count, count)
        assert sorted(calls) == list(range(count))
        assert all(len(called) == 1 for called in calls.values())
        by_index = [calls[s][0] for s in range(count)]
        runs = [len(list(group)) for _, group in itertools.groupby(by_index)]
        assert runs == blocks
        assert len(set(by_index)) == len(blocks)  # each block on its own thread
        assert not by_index or by_index[0] is caller
        assert threading.active_count() == threads

    def test_daemonic_process_runs_one_block_on_the_calling_thread(self, cpus, monkeypatch):
        cpus(3)
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        threads = set()
        for_each_slot(lambda s: threads.add(threading.current_thread()), 9, 9)
        assert threads == {threading.current_thread()}

    def test_small_stage_runs_on_fewer_threads(self, monkeypatch):
        monkeypatch.setattr(signals.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        for size, blocks in ((0, 1), (2 * signals._MIN_PART - 1, 1), (2 * signals._MIN_PART, 2),
                             (9 * signals._MIN_PART, 3)):
            threads = set()
            for_each_slot(lambda s: threads.add(threading.current_thread()), 9, size)
            assert len(threads) == blocks

    @pytest.mark.parametrize("cpus_", (1, 3))
    def test_raises_the_first_blocks_exception_after_joining(self, cpus, cpus_):
        # blocks {0, 1, 2}, {3, 4, 5} and {6, 7, 8}: the second raises after the third
        cpus(cpus_)
        done, threads = [], threading.active_count()

        def fn(s):
            if s == 4:
                raise ValueError("slot 4")
            if s == 6:
                raise ValueError("slot 6")
            if s == 3:
                time.sleep(0.1)
            done.append(s)

        with pytest.raises(ValueError, match="^slot 4$"):
            for_each_slot(fn, 9, 9)
        assert sorted(done) == [0, 1, 2, 3]
        assert threading.active_count() == threads

    def test_calling_threads_exception_waits_for_the_other_blocks(self, cpus):
        cpus(2)
        done, threads = [], threading.active_count()

        def fn(s):
            if s == 0:
                raise KeyError("slot 0")
            time.sleep(0.05)
            done.append(s)

        with pytest.raises(KeyError, match="slot 0"):
            for_each_slot(fn, 4, 4)
        assert done == [2, 3]
        assert threading.active_count() == threads


class TestUniformBits:
    """The word-wise bit draw against numpy's bounded uint8 draw."""

    SHAPES = [0, 1, 3, 5, 35, (0, 6), (7, 2), (3, 5, 7), (4, 2 * 64)]

    @staticmethod
    def rng_holding_half(seed):
        rng = RandomStream(30, seed).generator()
        rng.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        return rng

    @pytest.mark.parametrize("holding_half", (False, True), ids=["fresh", "holding_half"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_matches_integers_draw(self, shape, holding_half):
        for seed in range(20):
            if holding_half:
                rng, oracle_rng = self.rng_holding_half(seed), self.rng_holding_half(seed)
            else:
                rng, oracle_rng = (RandomStream(30, seed).generator() for _ in range(2))
            bits = uniform_bits(rng, shape)
            expected = oracle_rng.integers(0, 2, shape, dtype=np.uint8)
            assert bits.dtype == np.uint8 and bits.shape == expected.shape
            np.testing.assert_array_equal(bits, expected)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_next_draws_continue_alike(self):
        # four bits per word: a count not a multiple of four leaves the rest of
        # its last word unused, as the uint8 draw does
        rng, oracle_rng = (RandomStream(31, 0).generator() for _ in range(2))
        for n in (5, 3, 8, 1):
            np.testing.assert_array_equal(
                uniform_bits(rng, n), oracle_rng.integers(0, 2, n, dtype=np.uint8))
        np.testing.assert_array_equal(rng.standard_normal(3), oracle_rng.standard_normal(3))


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

    @pytest.mark.parametrize("n_p", [2**k for k in range(13)])
    def test_matches_scipy_sylvester_matrix(self, n_p):
        pilots = build_hadamard_pilots(n_p)
        np.testing.assert_array_equal(pilots, scipy.linalg.hadamard(n_p, dtype=np.int64))
        assert pilots.dtype == np.int64
        assert pilots.flags.c_contiguous
        assert not pilots.flags.writeable

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            build_hadamard_pilots(48)
        with pytest.raises(ValueError):
            build_hadamard_pilots(0)


def stacked_butterfly_wht(x):
    """The transform as butterflies along the last axis, each stage stacked anew:
    the bit-level oracle of the leading-axis stages."""
    n = x.shape[-1]
    y = x.copy()
    length = 1
    while length < n:
        y = y.reshape(x.shape[:-1] + (n // (2 * length), 2, length))
        top = y[..., 0, :] + y[..., 1, :]
        bot = y[..., 0, :] - y[..., 1, :]
        y = np.stack((top, bot), axis=-2)
        length *= 2
    return y.reshape(x.shape)


class TestWalshHadamardTransform:
    @pytest.mark.parametrize("shape", [(1,), (64,), (256, 1), (256, 64), (5, 3, 16), (2, 1)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bit_identical_to_stacked_butterfly(self, shape, dtype):
        rng = RandomStream(12, len(shape)).generator()
        x = complex_normal(rng, shape, 1.0)
        x = x if dtype is complex else x.real.copy()
        out = walsh_hadamard_transform(x)
        assert out.shape == x.shape and out.dtype == x.dtype
        assert np.array_equal(out, stacked_butterfly_wht(x))
        assert not np.shares_memory(out, x)

    def test_strided_input(self):
        rng = RandomStream(13, 0).generator()
        x = complex_normal(rng, (64, 40), 1.0)[::2, 4:36]
        assert np.array_equal(walsh_hadamard_transform(x), stacked_butterfly_wht(x))

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

    @pytest.mark.parametrize("view", [
        lambda bits: bits[:, :, ::2], lambda bits: bits[:, 1:3], lambda bits: bits.T,
    ], ids=["strided", "sliced", "transposed"])
    def test_non_contiguous_bits(self, view):
        # the singleton experiment modulates slices of its bit tensor
        bits = view(np.random.default_rng(5).integers(0, 2, size=(6, 4, 16), dtype=np.uint8))
        b0, b1 = bits[..., 0::2], bits[..., 1::2]
        expected = np.ascontiguousarray((1.0 - 2.0 * b0 + 1j * (1.0 - 2.0 * b1)) / np.sqrt(2.0))
        np.testing.assert_array_equal(qpsk_modulate(bits).view(np.uint64),
                                      expected.view(np.uint64))

    @pytest.mark.parametrize("symbols", [
        np.array([0.3 - 2j, -1 + 0.5j, -0.1 - 0.1j]),
        np.random.default_rng(2).standard_normal((5, 16)).view(complex),
        np.random.default_rng(3).standard_normal((2, 3, 8)).view(complex),
        np.zeros((4, 0), dtype=complex),
        np.array([1.5, -0.5, 0.0, -2.0]),
        np.random.default_rng(4).standard_normal((6, 20)).view(complex)[::2, 1::3],
        np.array([complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 0j]),
        np.array([[1 - 1j, -1 + 1j]], dtype=np.complex64),
    ], ids=["1d", "2d", "3d", "empty", "real", "strided", "signed_zeros", "complex64"])
    def test_matches_per_quadrature_demodulation(self, symbols):
        # the demodulator as first written: one strided write per quadrature
        expected = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.uint8)
        expected[..., 0::2] = symbols.real < 0
        expected[..., 1::2] = symbols.imag < 0
        bits = qpsk_hard_demodulate(symbols)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, expected)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_zero_quadratures_are_bit_zero(self, dtype):
        # the documented tie rule, whatever the zero's sign bit
        symbols = np.array([complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 0j],
                           dtype=dtype)
        assert np.signbit(symbols.view(np.finfo(dtype).dtype)).sum() == 4
        np.testing.assert_array_equal(qpsk_hard_demodulate(symbols), np.zeros(8, dtype=np.uint8))

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0))
    def test_round_trip_identity(self, bits):
        symbols = qpsk_modulate(np.array(bits, dtype=np.uint8))
        np.testing.assert_array_equal(qpsk_hard_demodulate(symbols), bits)
