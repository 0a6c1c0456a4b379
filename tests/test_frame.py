"""Tests for frame generation: slot budgeting, plans, signal assembly."""

import numpy as np
import pytest
from scipy.stats import chisquare

from csa_mimo.frame import (
    FrameInstance,
    SystemConfig,
    _draw_resources,
    assemble_frame,
    compute_slot_count,
    generate_user_plans,
    make_frame,
)
from csa_mimo.signals import RandomStream, build_hadamard_pilots, qpsk_modulate


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
    plans = generate_user_plans(config, rng)
    bits = oracle_rng.integers(0, 2, size=(config.k_a, 2 * config.n_d), dtype=np.uint8)
    slots, pilots = per_user_resources(config, oracle_rng)
    assert [plan.user_id for plan in plans] == list(range(config.k_a))
    for field, expected in (("slot_indices", slots), ("pilot_choices", pilots)):
        got = [getattr(plan, field) for plan in plans]
        assert {a.dtype for a in got} == {e.dtype for e in expected}
        np.testing.assert_array_equal(
            np.array(got).reshape(config.k_a, config.r),
            np.array(expected).reshape(config.k_a, config.r),
        )
    np.testing.assert_array_equal(
        np.array([plan.payload_bits for plan in plans]).reshape(bits.shape), bits
    )
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


class TestComputeSlotCount:
    def test_reference_budget(self):
        # 50 ms at 1 Msps with 64+256 symbol slots
        assert compute_slot_count(50.0, 1e6, 64, 256) == 78

    def test_direct_floor_arithmetic(self):
        assert compute_slot_count(50.0, 1e6, 64, 512) == 43

    def test_vanishing_latency(self):
        assert compute_slot_count(1e-9, 1e6, 64, 256) == 0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            compute_slot_count(0.0, 1e6, 64, 256)
        with pytest.raises(ValueError):
            compute_slot_count(50.0, 1e6, 0, 256)

    def test_from_latency_constructor(self):
        cfg = SystemConfig.from_latency(m=256, n_p=64, n_d=256, k_a=10)
        assert cfg.n_slots == 78


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
        plans = generate_user_plans(small_config(k_a=0), RandomStream(0, 0).generator())
        assert plans == []

    def test_slots_distinct_and_pilots_in_range(self):
        cfg = small_config()
        plans = generate_user_plans(cfg, RandomStream(1, 0).generator())
        for plan in plans:
            assert len(set(plan.slot_indices.tolist())) == cfg.r
            assert np.all(plan.pilot_choices >= 0)
            assert np.all(plan.pilot_choices < cfg.n_p)
            assert plan.payload.shape == (cfg.n_d,)
            assert plan.payload_bits.shape == (2 * cfg.n_d,)

    def test_slots_ascending(self):
        # the receiver visits a decoded user's replicas in this order
        plans = generate_user_plans(SystemConfig(k_a=900), RandomStream(1, 1).generator())
        for plan in plans:
            assert np.all(np.diff(plan.slot_indices) > 0)

    def test_full_repetition_uses_every_slot(self):
        cfg = small_config(r=12, n_slots=12)
        plans = generate_user_plans(cfg, RandomStream(2, 0).generator())
        for plan in plans:
            assert sorted(plan.slot_indices.tolist()) == list(range(12))

    def test_slot_occupancy_statistics(self):
        # occupancy of a fixed slot is Binomial(k_a, r / n_slots); check the
        # mean over many frames at 3 sigma
        cfg = SystemConfig(k_a=800, m=4, n_slots=78, n_p=64, n_d=4, r=3)
        frames = 400
        occupancy = np.zeros(frames)
        for i in range(frames):
            plans = generate_user_plans(cfg, RandomStream(3, i).generator())
            occupancy[i] = sum(0 in plan.slot_indices for plan in plans)
        p = cfg.r / cfg.n_slots
        expected = cfg.k_a * p
        sigma = np.sqrt(cfg.k_a * p * (1 - p) / frames)
        assert abs(occupancy.mean() - expected) < 3 * sigma

    def test_pilot_choice_uniformity(self):
        # chi-square goodness of fit over 1e5 pilot choices at 1% significance
        cfg = small_config(k_a=4000, n_p=8)
        counts = np.zeros(cfg.n_p)
        for i in range(9):
            plans = generate_user_plans(cfg, RandomStream(4, i).generator())
            for plan in plans:
                for j in plan.pilot_choices:
                    counts[j] += 1
        assert counts.sum() >= 100_000
        _, pvalue = chisquare(counts)
        assert pvalue > 0.01

    def test_replica_payload_identity(self):
        # every replica of a user carries the plan's one payload: on a
        # noiseless frame, each slot's observations are the true channels
        # times the plan's pilots and that payload, summed over the slot
        cfg = small_config(noise_var=0.0)
        frame = make_frame(cfg, RandomStream(5, 0))
        pilot_rows = build_hadamard_pilots(cfg.n_p).sequences.astype(float)
        p = np.zeros((cfg.n_slots, cfg.m, cfg.n_p), dtype=complex)
        y = np.zeros((cfg.n_slots, cfg.m, cfg.n_d), dtype=complex)
        for plan in frame.plans:
            np.testing.assert_array_equal(plan.payload, qpsk_modulate(plan.payload_bits))
            for slot, j in zip(plan.slot_indices, plan.pilot_choices):
                h = frame.true_channels[(plan.user_id, int(slot))]
                p[slot] += np.outer(h, pilot_rows[j])
                y[slot] += np.outer(h, plan.payload)
        assert len(frame.true_channels) == cfg.k_a * cfg.r
        for slot, signal in enumerate(frame.slots):
            np.testing.assert_allclose(signal.p, p[slot], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(signal.y, y[slot], rtol=1e-12, atol=1e-12)


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
        plan = frame.plans[0]
        pilot_rows = build_hadamard_pilots(cfg.n_p).sequences.astype(float)
        for slot, j in zip(plan.slot_indices, plan.pilot_choices):
            h = frame.true_channels[(plan.user_id, int(slot))]
            sig = frame.slots[int(slot)]
            # pilot symbols are +/-1 so the products are exact; the payload
            # products may differ from np.outer by one rounding (FMA in the
            # matrix product), hence the 1-ulp relative tolerance
            np.testing.assert_array_equal(sig.p, np.outer(h, pilot_rows[j]))
            np.testing.assert_allclose(sig.y, np.outer(h, plan.payload), rtol=1e-15)
        empty = [s for s in range(cfg.n_slots) if s not in plan.slot_indices]
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
        pilot_rows = build_hadamard_pilots(cfg.n_p).sequences.astype(float)
        residual_p = [s.p.copy() for s in frame.slots]
        residual_y = [s.y.copy() for s in frame.slots]
        for plan in frame.plans:
            for slot, j in zip(plan.slot_indices, plan.pilot_choices):
                h = frame.true_channels[(plan.user_id, int(slot))]
                residual_p[int(slot)] -= np.outer(h, pilot_rows[j])
                residual_y[int(slot)] -= np.outer(h, plan.payload)
        scale = max(np.abs(s.p).max() for s in frame.slots)
        for rp, ry in zip(residual_p, residual_y):
            assert np.abs(rp).max() < 1e-12 * scale
            assert np.abs(ry).max() < 1e-12 * scale

    def test_two_users_same_slot_noiseless_sum(self):
        cfg = small_config(k_a=2, n_slots=2, r=2, noise_var=0.0)
        frame = make_frame(cfg, RandomStream(9, 0))
        pilot_rows = build_hadamard_pilots(cfg.n_p).sequences.astype(float)
        slot = 0
        expected = np.zeros_like(frame.slots[slot].p)
        for plan in frame.plans:
            j = int(plan.pilot_choices[plan.slot_indices.tolist().index(slot)])
            expected += np.outer(frame.true_channels[(plan.user_id, slot)], pilot_rows[j])
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
        for a, b in zip(with_sig.plans, without.plans):
            np.testing.assert_array_equal(a.slot_indices, b.slot_indices)
            np.testing.assert_array_equal(a.pilot_choices, b.pilot_choices)
            np.testing.assert_array_equal(a.payload_bits, b.payload_bits)

    def test_channels_independent_across_slots(self):
        cfg = small_config(k_a=1, noise_var=0.0)
        frame = make_frame(cfg, RandomStream(12, 0))
        plan = frame.plans[0]
        chans = [frame.true_channels[(0, int(s))] for s in plan.slot_indices]
        assert not np.array_equal(chans[0], chans[1])
