"""Tests for frame generation: slot budgeting, plans, signal assembly."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from csa_mimo import signals
from csa_mimo.cancellation import Algorithm, run_receiver
from csa_mimo.frame import (
    FrameInstance,
    SystemConfig,
    _draw_resources,
    assemble_frame,
    generate_user_plans,
    make_frame,
)
from csa_mimo.signals import RandomStream, build_hadamard_pilots, qpsk_modulate
from frame_oracle import EPS32, per_slot_assembly


def small_config(**overrides) -> SystemConfig:
    base = dict(k_a=30, m=16, n_slots=12, n_p=8, n_d=16, r=3, noise_var=0.1, t=2)
    base.update(overrides)
    return SystemConfig(**base)


def per_user_resources(config, rng):
    """The plan draw as first written: one choice and one integers call per user."""
    slots, pilots = [], []
    for _ in range(config.k_a):
        slots.append(np.sort(rng.choice(config.n_slots, size=config.r, replace=False)))
        pilots.append(rng.integers(0, config.n_p, size=config.r))
    return slots, pilots


def assert_same_stream_after(rng, oracle_rng):
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    np.testing.assert_array_equal(
        rng.integers(0, 2**32, size=4, dtype=np.uint32),
        oracle_rng.integers(0, 2**32, size=4, dtype=np.uint32),
    )
    assert rng.choice(78, size=3, replace=False).tolist() == (
        oracle_rng.choice(78, size=3, replace=False).tolist()
    )


def assert_plans_match_per_user_calls(config, stream):
    """``generate_user_plans`` gives the per-user calls' plans and leaves the
    generator where they leave it."""
    rng, oracle_rng = stream.generator(), stream.generator()
    slots, pilots, bits = generate_user_plans(config, rng)
    expected_bits = oracle_rng.integers(0, 2, size=(config.k_a, 2 * config.n_d), dtype=np.uint8)
    expected_slots, expected_pilots = per_user_resources(config, oracle_rng)
    for got, expected in ((slots, expected_slots), (pilots, expected_pilots)):
        assert got.shape == (config.k_a, config.r)
        assert all(e.dtype == got.dtype for e in expected)
        np.testing.assert_array_equal(got, np.array(expected).reshape(got.shape))
    np.testing.assert_array_equal(bits, expected_bits)
    assert_same_stream_after(rng, oracle_rng)


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def generator_starting_with(words, seed=0):
    """A PCG64 generator whose next 32-bit words are ``words`` (at most three).

    An odd leading word goes in the buffered half-output (``has_uint32``);
    the next pair is the low and high half of the next 64-bit output, forced
    by solving PCG64's XSL-RR output and LCG step for the 128-bit state.
    """
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 0, 0
    if len(words) % 2:
        state["has_uint32"], state["uinteger"] = 1, words[0]
        words = words[1:]
    if words:
        out = words[0] | (words[1] << 32)
        hi = state["state"]["state"] >> 64
        rot = hi >> 58
        lo = (((out << rot) | (out >> (64 - rot))) & (2**64 - 1)) ^ hi
        after = (hi << 64) | lo
        inverse = pow(_PCG64_MULTIPLIER, -1, 2**128)
        state["state"]["state"] = ((after - state["state"]["inc"]) * inverse) % 2**128
    rng.bit_generator.state = state
    return rng


def true_channel(frame, user, slot):
    """A replica's channel: the row of its slot's array at the user's rank there."""
    users = np.flatnonzero((frame.slot_indices == slot).any(axis=1))
    return frame.true_channels[slot][users.tolist().index(user)]


def assert_same_bytes(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def assert_assembly_matches_oracle(config, stream):
    """``assemble_frame`` gives the per-slot loop's channels (one array per
    slot, in slot order), ``p`` and ``y`` byte for byte, and leaves the
    stream where it does."""
    rng, oracle_rng = stream.generator(), stream.generator()
    frame = assemble_frame(generate_user_plans(config, rng), config, rng)
    true_channels, slots = per_slot_assembly(
        generate_user_plans(config, oracle_rng), config, oracle_rng)
    assert list(frame.true_channels) == list(range(config.n_slots))
    for slot, h in enumerate(true_channels):
        assert_same_bytes(frame.true_channels[slot], h)
    assert len(frame.slots) == len(slots)
    for signal, (p, y) in zip(frame.slots, slots):
        assert_same_bytes(signal.p, p)
        assert_same_bytes(signal.y, y)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestDerivedSlotCount:
    """The slot count ``SystemConfig`` derives from its latency budget."""

    def test_reference_budget(self):
        # 50 ms at 1 Msps with 64+256 symbol slots
        assert SystemConfig(latency_ms=50.0, symbol_rate=1e6, n_p=64, n_d=256).n_slots == 78
        assert SystemConfig() == SystemConfig(n_slots=78)

    def test_direct_floor_arithmetic(self):
        assert SystemConfig(latency_ms=50.0, symbol_rate=1e6, n_p=64, n_d=512).n_slots == 43

    def test_vanishing_latency(self):
        # the budget fits 0 slots, which no config holds
        with pytest.raises(ValueError, match="fits no 320-symbol slot twice"):
            SystemConfig(latency_ms=1e-9, symbol_rate=1e6, n_p=64, n_d=256)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="latency_ms must be positive, got 0.0"):
            SystemConfig(latency_ms=0.0, symbol_rate=1e6, n_p=64, n_d=256)
        with pytest.raises(ValueError, match="n_p must be >= 1, got 0"):
            SystemConfig(latency_ms=50.0, symbol_rate=1e6, n_p=0, n_d=256)

    @pytest.mark.parametrize("latency_ms, symbol_rate", [
        (math.nan, 1e6), (math.inf, 1e6), (50.0, math.nan), (50.0, math.inf)])
    def test_non_finite_budget_rejected(self, latency_ms, symbol_rate):
        bad = "latency_ms" if not math.isfinite(latency_ms) else "symbol_rate"
        with pytest.raises(ValueError, match=f"{bad} must be finite"):
            SystemConfig(latency_ms=latency_ms, symbol_rate=symbol_rate, n_p=64, n_d=256)

    def test_negative_budget_rejected(self):
        # the two signs would cancel in the derivation and give 78 slots
        with pytest.raises(ValueError, match="latency_ms must be positive, got -50.0"):
            SystemConfig(latency_ms=-50.0, symbol_rate=-1e6)

    @pytest.mark.parametrize("latency_ms, symbol_rate, bad", [
        (-5.0, 0.0, "latency_ms"), (50.0, 0.0, "symbol_rate"), (50.0, -1e6, "symbol_rate")])
    def test_bad_budget_rejected_with_explicit_slot_count(self, latency_ms, symbol_rate, bad):
        with pytest.raises(ValueError, match=f"{bad} must be positive"):
            SystemConfig(n_slots=6, r=2, latency_ms=latency_ms, symbol_rate=symbol_rate)

    def test_reference_counts_derive_78_slots(self):
        cfg = SystemConfig(m=256, n_p=64, n_d=256, k_a=10)
        assert cfg.n_slots == 78

    def test_replicas_checked_against_the_derived_slot_count(self):
        # 1000 ms at 1 Msps fits 1562 slots of 320 symbols: room for 100 replicas
        cfg = SystemConfig(r=100, latency_ms=1000.0)
        assert (cfg.n_slots, cfg.r) == (1562, 100)

    def test_floyd_limit_applied_to_the_derived_slot_count(self):
        # 10 s fits 15625 slots, above 10000, so r may be at most 15625 // 50 = 312
        assert SystemConfig(r=312, latency_ms=10_000.0).n_slots == 15625
        with pytest.raises(ValueError, match="r=313 replicas in 15625 slots"):
            SystemConfig(r=313, latency_ms=10_000.0)

    def test_budget_that_fits_no_slot_named(self):
        message = r"latency budget of 0.01 ms at 1e\+06 symbols/s fits no 320-symbol slot"
        with pytest.raises(ValueError, match=message):
            SystemConfig(latency_ms=0.01)

    def test_replace_carries_the_slot_count(self):
        # a sweep's per-load replace(config, k_a=ka) keeps an explicit slot count
        cfg = SystemConfig(n_slots=6, r=2)
        assert dataclasses.replace(cfg, k_a=5).n_slots == 6
        assert dataclasses.replace(cfg, latency_ms=10.0).n_slots == 6
        # None derives it again: 10 ms at 1 Msps fits 15 slots of 320 symbols
        assert dataclasses.replace(cfg, latency_ms=10.0, n_slots=None).n_slots == 15


class TestSystemConfig:
    def test_too_many_replicas_rejected(self):
        with pytest.raises(ValueError):
            small_config(r=13)

    def test_non_power_of_two_pilots_rejected(self):
        with pytest.raises(ValueError):
            small_config(n_p=12)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            small_config(noise_var=-0.1)

    @pytest.mark.parametrize("value", [2.5, 2.0, "3"])
    @pytest.mark.parametrize("name", ["k_a", "m", "n_slots", "n_p", "n_d", "r", "t"])
    def test_non_integer_count_named(self, name, value):
        # t=1.5 would read as errors <= 1, and the others failed deep in make_frame
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            small_config(**{name: value})

    def test_numpy_integer_counts_stored_as_int(self):
        counts = dict(k_a=np.int64(30), m=np.int32(16), n_slots=np.uint8(12), n_p=np.int64(8),
                      n_d=np.int64(16), r=np.int16(3), t=np.int64(2))
        config = small_config(**counts)
        assert config == small_config()
        assert all(type(getattr(config, name)) is int for name in counts)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["noise_var", "channel_var", "latency_ms", "symbol_rate"])
    def test_non_finite_real_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            small_config(**{name: value})

    @pytest.mark.parametrize("n_slots, r", [(10001, 3000), (20000, 401)])
    def test_choice_tail_shuffle_regime_rejected(self, n_slots, r):
        # past 10000 slots, choice shuffles a tail when r > n_slots // 50,
        # which the vectorised plan draw does not replay
        with pytest.raises(ValueError, match=f"at most n_slots // 50 = {n_slots // 50}"):
            SystemConfig(k_a=1, n_slots=n_slots, r=r)

    @pytest.mark.parametrize("n_slots, r", [(10000, 3000), (20000, 400)])
    def test_floyd_regime_boundary_accepted(self, n_slots, r):
        assert SystemConfig(k_a=1, n_slots=n_slots, r=r).r == r


class TestGenerateUserPlans:
    def test_no_users_gives_empty_sequence(self):
        cfg = small_config(k_a=0)
        arrays = generate_user_plans(cfg, RandomStream(0, 0).generator())
        assert [a.shape for a in arrays] == [(0, cfg.r), (0, cfg.r), (0, 2 * cfg.n_d)]

    def test_slots_distinct_and_pilots_in_range(self):
        cfg = small_config()
        slots, pilots, bits = generate_user_plans(cfg, RandomStream(1, 0).generator())
        assert slots.shape == pilots.shape == (cfg.k_a, cfg.r)
        assert all(len(set(row)) == cfg.r for row in slots.tolist())
        assert np.all(pilots >= 0)
        assert np.all(pilots < cfg.n_p)
        assert bits.shape == (cfg.k_a, 2 * cfg.n_d)

    def test_slots_ascending(self):
        # the receiver visits a decoded user's replicas in this order
        slots = generate_user_plans(SystemConfig(k_a=900), RandomStream(1, 1).generator())[0]
        assert np.all(np.diff(slots, axis=1) > 0)

    def test_full_repetition_uses_every_slot(self):
        cfg = small_config(r=12, n_slots=12)
        slots = generate_user_plans(cfg, RandomStream(2, 0).generator())[0]
        np.testing.assert_array_equal(slots, np.broadcast_to(np.arange(12), slots.shape))

    def test_slot_occupancy_statistics(self):
        # occupancy of a fixed slot is Binomial(k_a, r / n_slots); check the
        # mean over many frames at 3 sigma
        cfg = SystemConfig(k_a=800, m=4, n_slots=78, n_p=64, n_d=4, r=3)
        frames = 400
        occupancy = np.zeros(frames)
        for i in range(frames):
            slots = generate_user_plans(cfg, RandomStream(3, i).generator())[0]
            occupancy[i] = np.count_nonzero(slots == 0)
        p = cfg.r / cfg.n_slots
        expected = cfg.k_a * p
        sigma = np.sqrt(cfg.k_a * p * (1 - p) / frames)
        assert abs(occupancy.mean() - expected) < 3 * sigma

    def test_pilot_choice_uniformity(self):
        # chi-square goodness of fit over 1e5 pilot choices at 1% significance
        cfg = small_config(k_a=4000, n_p=8)
        counts = np.zeros(cfg.n_p)
        for i in range(9):
            pilots = generate_user_plans(cfg, RandomStream(4, i).generator())[1]
            counts += np.bincount(pilots.ravel(), minlength=cfg.n_p)
        assert counts.sum() >= 100_000
        _, pvalue = chisquare(counts)
        assert pvalue > 0.01

    def test_replica_payload_identity(self):
        # every replica of a user carries the user's one payload: on a
        # noiseless frame, each slot's observations are the true channels
        # times the users' pilots and that payload, summed over the slot
        cfg = small_config(noise_var=0.0)
        frame = make_frame(cfg, RandomStream(5, 0))
        pilot_rows = build_hadamard_pilots(cfg.n_p).astype(float)
        p = np.zeros((cfg.n_slots, cfg.m, cfg.n_p), dtype=complex)
        y = np.zeros((cfg.n_slots, cfg.m, cfg.n_d), dtype=complex)
        assert frame.payloads.dtype == np.complex64
        np.testing.assert_array_equal(
            frame.payloads, qpsk_modulate(frame.payload_bits).astype(np.complex64))
        for user in range(cfg.k_a):
            for slot, j in zip(frame.slot_indices[user], frame.pilot_choices[user]):
                h = true_channel(frame, user, slot).astype(complex)
                p[slot] += np.outer(h, pilot_rows[j])
                y[slot] += np.outer(h, frame.payloads[user])
        assert sum(h.shape[0] for h in frame.true_channels.values()) == cfg.k_a * cfg.r
        # the frame sums its (double-exact) products in single precision
        for slot, signal in enumerate(frame.slots):
            np.testing.assert_allclose(signal.p, p[slot], rtol=0, atol=8 * EPS32)
            np.testing.assert_allclose(signal.y, y[slot], rtol=0, atol=8 * EPS32)


def lone_replica_law(config) -> list:
    """The exact law of how many of one user's r replicas sit alone on their resource.

    Another user covers a given j of the user's (slot, pilot) resources with
    probability C(n_slots - j, r - j) / C(n_slots, r) / n_p^j, so by
    inclusion-exclusion it covers none of a given i of them with probability
    ``free[i]``; the k_a - 1 other users draw independently, and inclusion-
    exclusion over the sets of lone replicas gives the law of their count.
    """
    n, r, n_p, others = config.n_slots, config.r, config.n_p, config.k_a - 1
    cover = [math.comb(n - j, r - j) / math.comb(n, r) / n_p**j for j in range(r + 1)]
    free = [sum((-1)**j * math.comb(i, j) * cover[j] for j in range(i + 1)) for i in range(r + 1)]
    return [sum((-1)**(i - lone) * math.comb(i, lone) * math.comb(r, i) * free[i]**others
                for i in range(lone, r + 1)) for lone in range(r + 1)]


class TestLoneReplicaLaw:
    """The plan draw against the exact law of each user's lone replicas."""

    def test_law_at_the_reference_config(self):
        law = lone_replica_law(SystemConfig(k_a=1100))
        np.testing.assert_allclose(law, [0.11297, 0.36227, 0.38702, 0.13774], atol=5e-6)
        assert math.isclose(sum(law), 1.0)
        assert lone_replica_law(SystemConfig(k_a=1)) == pytest.approx([0, 0, 0, 1])

    @pytest.mark.slow
    @pytest.mark.parametrize("k_a", [300, 700, 1100])
    def test_plan_only_frames_follow_the_law(self, k_a):
        # 200 frames: pilots drawn from n_p - 1 values show at k_a = 1100 after
        # about 72 000 users
        config = SystemConfig(k_a=k_a)
        counts = np.zeros(config.r + 1)
        for i in range(200):
            frame = make_frame(config, RandomStream(33, (k_a << 32) | i), with_signals=False)
            q = frame.resources.q
            lone = (np.bincount(q.ravel())[q] == 1).sum(axis=1)
            counts += np.bincount(lone, minlength=config.r + 1)
        assert counts.sum() == 200 * k_a
        _, pvalue = chisquare(counts, counts.sum() * np.array(lone_replica_law(config)))
        assert pvalue > 1e-3


class TestPlanDrawOracle:
    """The vectorised plan draw against the per-user choice/integers calls."""

    @pytest.mark.slow
    def test_matches_per_user_calls_on_2000_streams(self):
        # the slots and pilots alone: the payload draw before them is the
        # same call on both sides, and the edge cases below cover it
        cfg = SystemConfig(k_a=900)
        for i in range(2000):
            rng, oracle_rng = RandomStream(13, i).generator(), RandomStream(13, i).generator()
            slots, pilots = _draw_resources(cfg, rng)
            expected_slots, expected_pilots = per_user_resources(cfg, oracle_rng)
            np.testing.assert_array_equal(slots, expected_slots)
            np.testing.assert_array_equal(pilots, expected_pilots)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("overrides", [
        dict(k_a=0),
        dict(k_a=1, n_d=2),               # one payload word: the slots start mid-output
        dict(k_a=900),
        dict(k_a=50, r=1),
        dict(k_a=50, n_slots=12, r=12),   # Floyd's first bound is 1: no word
        dict(k_a=50, n_p=1),              # pilot bound 1: no word
        dict(k_a=50, n_slots=150, r=5),
        dict(k_a=2, n_slots=10000, r=3000, n_d=8),   # largest Floyd regime at 10000
        dict(k_a=2, n_slots=20000, r=400, n_d=8),
    ])
    def test_edges_match_per_user_calls(self, overrides):
        cfg = SystemConfig(**overrides)
        for i in range(5):
            assert_plans_match_per_user_calls(cfg, RandomStream(14, i))

    @pytest.mark.parametrize("skip", [0, 1], ids=["whole_output", "buffered_half"])
    def test_array_bounds_draw_as_scalar_calls_in_row_major_order(self, skip):
        # the property the plan draw rests on: integers(0, B) reads the stream
        # as one integers(0, b) call per entry of B in row-major order; bounds
        # of 1 take no word, and near 2**31 about half the words are rejected
        bounds = np.array([1, 2, 3, 76, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 5, 2**32, 1, 64])
        bounds = np.broadcast_to(bounds, (40, bounds.size))
        for seed in range(5):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for generator in (rng, oracle_rng):
                generator.integers(0, 2**32, size=skip, dtype=np.uint32)
            values = rng.integers(0, bounds)
            expected = [oracle_rng.integers(0, b) for b in bounds.ravel().tolist()]
            assert values.dtype == np.int64
            np.testing.assert_array_equal(values.ravel(), expected)
            assert_same_stream_after(rng, oracle_rng)

    @pytest.mark.parametrize("words", [
        [0],                # the buffered half-output is 0
        [0, 0],             # both halves of the next output are 0
        [0, 0, 0],          # three rejections in a row
        [123456789, 0],     # a rejection after an accepted word
    ])
    @pytest.mark.parametrize("overrides", [
        dict(k_a=4),                     # first bound 76: 2**32 mod 76 = 6
        dict(k_a=4, n_slots=12, r=12),   # bounds 1, 2, 3, ...: a second 0 is rejected
        dict(k_a=4, n_slots=7, r=1),     # one draw per user, no shuffle
    ])
    def test_rejected_words_are_replaced(self, words, overrides):
        # a zero word is rejected by every bound b with 2**32 mod b > 0, so
        # numpy draws the next word instead
        cfg = SystemConfig(**overrides)
        probe = generator_starting_with(words)
        np.testing.assert_array_equal(
            probe.integers(0, 2**32, size=len(words), dtype=np.uint32), words
        )
        rng, oracle_rng = generator_starting_with(words), generator_starting_with(words)
        slots, pilots = _draw_resources(cfg, rng)
        expected_slots, expected_pilots = per_user_resources(cfg, oracle_rng)
        np.testing.assert_array_equal(slots, expected_slots)
        np.testing.assert_array_equal(pilots, expected_pilots)
        assert_same_stream_after(rng, oracle_rng)


class TestAssembleFrame:
    def test_single_user_noiseless_outer_products(self):
        cfg = small_config(k_a=1, noise_var=0.0)
        frame = make_frame(cfg, RandomStream(6, 0))
        pilot_rows = build_hadamard_pilots(cfg.n_p).astype(float)
        for slot, j in zip(frame.slot_indices[0], frame.pilot_choices[0]):
            h = true_channel(frame, 0, slot)
            sig = frame.slots[int(slot)]
            # pilot symbols are +/-1 so the products are exact; the payload
            # products are single precision and may differ from np.outer by
            # one rounding (FMA in the matrix product), hence the 1-ulp
            # tolerance of the largest quadrature product
            assert sig.p.dtype == sig.y.dtype == np.complex64
            np.testing.assert_array_equal(sig.p, np.outer(h, pilot_rows[j]))
            np.testing.assert_allclose(sig.y, np.outer(h, frame.payloads[0]), rtol=0,
                                       atol=EPS32 * np.abs(h).max())
        empty = [s for s in range(cfg.n_slots) if s not in frame.slot_indices[0]]
        for s in empty:
            np.testing.assert_array_equal(frame.slots[s].p, 0)

    def test_zero_users_pure_noise_variance(self):
        cfg = SystemConfig(k_a=0, m=64, n_slots=40, n_p=16, n_d=64, noise_var=0.1, r=3)
        frame = make_frame(cfg, RandomStream(7, 0))
        entries = np.concatenate(
            [s.p.ravel() for s in frame.slots] + [s.y.ravel() for s in frame.slots]
        )
        measured = np.mean(np.abs(entries) ** 2)
        se = cfg.noise_var * np.sqrt(2.0 / entries.size)
        assert abs(measured - cfg.noise_var) < 3 * se

    def test_superposition_reconstruct_and_subtract(self):
        # subtracting every ground-truth contribution must leave the noise
        # alone; with zero noise the residual vanishes to machine precision
        cfg = small_config(k_a=25, noise_var=0.0)
        frame = make_frame(cfg, RandomStream(8, 0))
        pilot_rows = build_hadamard_pilots(cfg.n_p).astype(float)
        residual_p = [s.p.copy() for s in frame.slots]
        residual_y = [s.y.copy() for s in frame.slots]
        for user in range(cfg.k_a):
            for slot, j in zip(frame.slot_indices[user], frame.pilot_choices[user]):
                h = true_channel(frame, user, slot)
                residual_p[int(slot)] -= np.outer(h, pilot_rows[j])
                residual_y[int(slot)] -= np.outer(h, frame.payloads[user])
        # the frame's sums and the residual's are single precision
        scale = max(np.abs(s.p).max() for s in frame.slots)
        for rp, ry in zip(residual_p, residual_y):
            assert np.abs(rp).max() < 8 * EPS32 * scale
            assert np.abs(ry).max() < 8 * EPS32 * scale

    def test_two_users_same_slot_noiseless_sum(self):
        cfg = small_config(k_a=2, n_slots=2, r=2, noise_var=0.0)
        frame = make_frame(cfg, RandomStream(9, 0))
        pilot_rows = build_hadamard_pilots(cfg.n_p).astype(float)
        slot = 0
        expected = np.zeros_like(frame.slots[slot].p)
        for user in range(cfg.k_a):
            j = int(frame.pilot_choices[user][frame.slot_indices[user].tolist().index(slot)])
            expected += np.outer(true_channel(frame, user, slot), pilot_rows[j])
        np.testing.assert_allclose(frame.slots[slot].p, expected, atol=1e-13)

    def test_same_stream_reproduces_frame_bitwise(self):
        cfg = small_config()
        f1 = make_frame(cfg, RandomStream(10, 4))
        f2 = make_frame(cfg, RandomStream(10, 4))
        for s1, s2 in zip(f1.slots, f2.slots):
            np.testing.assert_array_equal(s1.p, s2.p)
            np.testing.assert_array_equal(s1.y, s2.y)

    def test_plans_unchanged_when_signals_skipped(self):
        cfg = small_config()
        with_sig = make_frame(cfg, RandomStream(11, 0), with_signals=True)
        without = make_frame(cfg, RandomStream(11, 0), with_signals=False)
        assert without.slots is None
        for name in ("slot_indices", "pilot_choices", "payload_bits", "payloads"):
            np.testing.assert_array_equal(getattr(with_sig, name), getattr(without, name))

    def test_channels_independent_across_slots(self):
        cfg = small_config(k_a=1, noise_var=0.0)
        frame = make_frame(cfg, RandomStream(12, 0))
        chans = [true_channel(frame, 0, s) for s in frame.slot_indices[0]]
        assert not np.array_equal(chans[0], chans[1])


class TestOneBlasThread:
    """``make_frame`` assembles signals on one BLAS thread and puts the count back."""

    def test_one_thread_inside_assembly_and_restored_after(self, monkeypatch, blas_threads):
        draw, seen = signals.complex_normal_segments, []

        def recording_draw(*args, **kwargs):
            seen.append(blas_threads())
            return draw(*args, **kwargs)

        monkeypatch.setattr("csa_mimo.frame.complex_normal_segments", recording_draw)
        before = blas_threads()
        make_frame(small_config(), RandomStream(13, 0))
        assert seen == [[1] * len(before)]
        assert blas_threads() == before

    def test_restored_when_assembly_raises(self, monkeypatch, blas_threads):
        def failing_draw(*args, **kwargs):
            raise RuntimeError("draw failed")

        monkeypatch.setattr("csa_mimo.frame.complex_normal_segments", failing_draw)
        before = blas_threads()
        with pytest.raises(RuntimeError, match="draw failed"):
            make_frame(small_config(), RandomStream(13, 0))
        assert blas_threads() == before

    def test_frame_unchanged_without_the_pin(self, monkeypatch):
        # reference-size slots, as a sweep makes them, with BLAS at its default thread count
        config, stream = SystemConfig(k_a=300), RandomStream(14, 0)
        pinned = make_frame(config, stream)
        monkeypatch.setattr(signals, "_blas_thread_controls", lambda: ())
        unpinned = make_frame(config, stream)
        for a, b in zip(pinned.slots, unpinned.slots, strict=True):
            assert_same_bytes(a.p, b.p)
            assert_same_bytes(a.y, b.y)
        assert pinned.true_channels.keys() == unpinned.true_channels.keys()
        for slot, channels in pinned.true_channels.items():
            assert_same_bytes(channels, unpinned.true_channels[slot])


class TestOccupants:
    """``FrameInstance.occupants``, the one resource map of a frame."""

    @pytest.mark.parametrize("config, with_signals", [
        (small_config(k_a=0), True),
        (small_config(k_a=2), True),                  # most slots empty
        (small_config(), True),
        (small_config(), False),
        (small_config(k_a=40, n_slots=12, r=12), False),
        (SystemConfig(k_a=900), False),
    ], ids=["no_users", "empty_slots", "small", "small_no_signals", "every_slot", "reference"])
    def test_matches_per_slot_nonzero(self, config, with_signals):
        frame = make_frame(config, RandomStream(18, 0), with_signals=with_signals)
        assert len(frame.occupants) == config.n_slots
        for slot, (users, pilots) in enumerate(frame.occupants):
            expected_users, replicas = np.nonzero(frame.slot_indices == slot)
            np.testing.assert_array_equal(users, expected_users)
            np.testing.assert_array_equal(pilots, frame.pilot_choices[expected_users, replicas])
            assert users.dtype == pilots.dtype == np.int64

    @pytest.mark.parametrize("with_signals", [True, False])
    def test_computed_once_per_frame(self, with_signals, monkeypatch):
        calls = []
        compute = FrameInstance.occupants.func
        monkeypatch.setattr(FrameInstance.occupants, "func",
                            lambda frame: calls.append(frame) or compute(frame))
        frame = make_frame(small_config(), RandomStream(19, 0), with_signals=with_signals)
        first = frame.occupants
        algorithms = list(Algorithm) if with_signals else [Algorithm.LOGICAL]
        for algorithm in algorithms:
            run_receiver(frame, algorithm)
        assert calls == [frame]
        assert frame.occupants is first


class TestAssemblyOracle:
    """The one-draw frame assembly against the per-slot ``complex_normal`` loop."""

    @pytest.mark.parametrize("config", [
        SystemConfig(k_a=0),
        SystemConfig(k_a=1),
        SystemConfig(k_a=100),
        SystemConfig(k_a=900),
        small_config(k_a=2),                      # most slots empty
        SystemConfig(k_a=900, noise_var=0.0),
        SystemConfig(k_a=300, channel_var=2.5, noise_var=0.37),
        small_config(channel_var=0.3, noise_var=0.0),
    ], ids=lambda config: f"ka{config.k_a}-m{config.m}-ch{config.channel_var}-n{config.noise_var}")
    def test_byte_identical_to_per_slot_draws(self, config):
        for i in range(2 if config.m < 256 else 1):
            assert_assembly_matches_oracle(config, RandomStream(15, i))

    @pytest.mark.parametrize("noise_var", (0.1, 0.0))
    def test_small_frames_split_into_parts(self, monkeypatch, noise_var):
        # the frames above split only at the reference size on a host with
        # more than one CPU; one normal per part and three CPUs split these
        monkeypatch.setattr(signals, "_MIN_PART", 1)
        monkeypatch.setattr(signals.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        for i in range(4):
            assert_assembly_matches_oracle(small_config(noise_var=noise_var), RandomStream(17, i))

    @pytest.mark.parametrize("noise_var", (0.1, 0.0))
    def test_no_two_slots_share_memory(self, noise_var):
        config = SystemConfig(k_a=100, noise_var=noise_var)
        frame = make_frame(config, RandomStream(16, 0))
        arrays = [
            (slot, a) for slot, signal in enumerate(frame.slots) for a in (signal.p, signal.y)
        ]
        arrays += list(frame.true_channels.items())
        for (slot_a, a), (slot_b, b) in itertools.combinations(arrays, 2):
            if slot_a != slot_b:
                assert not np.shares_memory(a, b)
