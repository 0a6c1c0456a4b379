"""Tests for frame generation: slot budgeting, plans, signal assembly."""

import numpy as np
import pytest
from scipy.stats import chisquare

from csa_mimo.frame import (
    FrameInstance,
    SystemConfig,
    assemble_frame,
    compute_slot_count,
    generate_user_plans,
    make_frame,
)
from csa_mimo.signals import RandomStream, build_hadamard_pilots


def small_config(**overrides) -> SystemConfig:
    base = dict(k_a=30, m=16, n_slots=12, n_p=8, n_d=16, r=3, noise_var=0.1, t=2)
    base.update(overrides)
    return SystemConfig(**base)


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
        # every replica of a user carries the same symbols by construction:
        # the plan holds one payload used in all its slots
        cfg = small_config()
        frame = make_frame(cfg, RandomStream(5, 0))
        pilot_rows = build_hadamard_pilots(cfg.n_p).sequences.astype(float)
        for plan in frame.plans[:5]:
            for slot in plan.slot_indices:
                h = frame.true_channels[(plan.user_id, int(slot))]
                assert h.shape == (cfg.m,)


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
