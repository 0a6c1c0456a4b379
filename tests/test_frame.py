"""Tests for frame generation: slot budgeting, plans, signal assembly."""

import itertools

import numpy as np
import pytest
from scipy.stats import chisquare

from csa_mimo import signals
from csa_mimo.frame import (
    FrameInstance,
    SystemConfig,
    _draw_resources,
    assemble_frame,
    compute_slot_count,
    generate_user_plans,
    make_frame,
)
from csa_mimo.signals import RandomStream, build_hadamard_pilots, complex_normal, qpsk_modulate


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
    slots, pilots, bits, payloads = generate_user_plans(config, rng)
    expected_bits = oracle_rng.integers(0, 2, size=(config.k_a, 2 * config.n_d), dtype=np.uint8)
    expected_slots, expected_pilots = per_user_resources(config, oracle_rng)
    for got, expected in ((slots, expected_slots), (pilots, expected_pilots)):
        assert got.shape == (config.k_a, config.r)
        assert all(e.dtype == got.dtype for e in expected)
        np.testing.assert_array_equal(got, np.array(expected).reshape(got.shape))
    np.testing.assert_array_equal(bits, expected_bits)
    np.testing.assert_array_equal(payloads, qpsk_modulate(expected_bits))
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


def per_slot_assembly(plans, config, rng):
    """The signal assembly as first written: one ``complex_normal`` call per
    slot's channels and per noise matrix.  Returns ``(true_channels, [(p, y)])``."""
    slot_indices, pilot_choices, _, payloads = plans
    pilot_rows = build_hadamard_pilots(config.n_p).astype(float)
    true_channels, slots = {}, []
    for slot in range(config.n_slots):
        users, replicas = np.nonzero(slot_indices == slot)
        p = np.zeros((config.m, config.n_p), dtype=complex)
        y = np.zeros((config.m, config.n_d), dtype=complex)
        if users.size:
            channels = complex_normal(rng, (users.size, config.m), config.channel_var)
            p += channels.T @ pilot_rows[pilot_choices[users, replicas]]
            y += channels.T @ payloads[users]
            true_channels.update(zip([(u, slot) for u in users.tolist()], channels))
        if config.noise_var > 0:
            p += complex_normal(rng, (config.m, config.n_p), config.noise_var)
            y += complex_normal(rng, (config.m, config.n_d), config.noise_var)
        slots.append((p, y))
    return true_channels, slots


def assert_same_bytes(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def assert_assembly_matches_oracle(config, stream):
    """``assemble_frame`` gives the per-slot loop's channels (values and dict
    order), ``p`` and ``y`` byte for byte, and leaves the stream where it does."""
    rng, oracle_rng = stream.generator(), stream.generator()
    frame = assemble_frame(generate_user_plans(config, rng), config, rng)
    true_channels, slots = per_slot_assembly(
        generate_user_plans(config, oracle_rng), config, oracle_rng)
    assert list(frame.true_channels) == list(true_channels)
    for key, h in true_channels.items():
        assert_same_bytes(frame.true_channels[key], h)
    assert len(frame.slots) == len(slots)
    for signal, (p, y) in zip(frame.slots, slots):
        assert_same_bytes(signal.p, p)
        assert_same_bytes(signal.y, y)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


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
        cfg = small_config(k_a=0)
        arrays = generate_user_plans(cfg, RandomStream(0, 0).generator())
        assert [a.shape for a in arrays] == [(0, cfg.r), (0, cfg.r), (0, 2 * cfg.n_d), (0, cfg.n_d)]

    def test_slots_distinct_and_pilots_in_range(self):
        cfg = small_config()
        slots, pilots, bits, payloads = generate_user_plans(cfg, RandomStream(1, 0).generator())
        assert slots.shape == pilots.shape == (cfg.k_a, cfg.r)
        assert all(len(set(row)) == cfg.r for row in slots.tolist())
        assert np.all(pilots >= 0)
        assert np.all(pilots < cfg.n_p)
        assert payloads.shape == (cfg.k_a, cfg.n_d)
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
        np.testing.assert_array_equal(frame.payloads, qpsk_modulate(frame.payload_bits))
        for user in range(cfg.k_a):
            for slot, j in zip(frame.slot_indices[user], frame.pilot_choices[user]):
                h = frame.true_channels[(user, int(slot))]
                p[slot] += np.outer(h, pilot_rows[j])
                y[slot] += np.outer(h, frame.payloads[user])
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
        pilot_rows = build_hadamard_pilots(cfg.n_p).astype(float)
        for slot, j in zip(frame.slot_indices[0], frame.pilot_choices[0]):
            h = frame.true_channels[(0, int(slot))]
            sig = frame.slots[int(slot)]
            # pilot symbols are +/-1 so the products are exact; the payload
            # products may differ from np.outer by one rounding (FMA in the
            # matrix product), hence the 1-ulp relative tolerance
            np.testing.assert_array_equal(sig.p, np.outer(h, pilot_rows[j]))
            np.testing.assert_allclose(sig.y, np.outer(h, frame.payloads[0]), rtol=1e-15)
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
                h = frame.true_channels[(user, int(slot))]
                residual_p[int(slot)] -= np.outer(h, pilot_rows[j])
                residual_y[int(slot)] -= np.outer(h, frame.payloads[user])
        scale = max(np.abs(s.p).max() for s in frame.slots)
        for rp, ry in zip(residual_p, residual_y):
            assert np.abs(rp).max() < 1e-12 * scale
            assert np.abs(ry).max() < 1e-12 * scale

    def test_two_users_same_slot_noiseless_sum(self):
        cfg = small_config(k_a=2, n_slots=2, r=2, noise_var=0.0)
        frame = make_frame(cfg, RandomStream(9, 0))
        pilot_rows = build_hadamard_pilots(cfg.n_p).astype(float)
        slot = 0
        expected = np.zeros_like(frame.slots[slot].p)
        for user in range(cfg.k_a):
            j = int(frame.pilot_choices[user][frame.slot_indices[user].tolist().index(slot)])
            expected += np.outer(frame.true_channels[(user, slot)], pilot_rows[j])
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
        chans = [frame.true_channels[(0, int(s))] for s in frame.slot_indices[0]]
        assert not np.array_equal(chans[0], chans[1])


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
        # more than one CPU; one normal per part and three threads split these
        monkeypatch.setattr(signals, "_MIN_PART", 1)
        monkeypatch.setattr(signals, "draw_threads", 3)
        for i in range(4):
            assert_assembly_matches_oracle(small_config(noise_var=noise_var), RandomStream(17, i))

    @pytest.mark.parametrize("noise_var", (0.1, 0.0))
    def test_no_two_slots_share_memory(self, noise_var):
        config = SystemConfig(k_a=100, noise_var=noise_var)
        frame = make_frame(config, RandomStream(16, 0))
        arrays = [
            (slot, a) for slot, signal in enumerate(frame.slots) for a in (signal.p, signal.y)
        ]
        arrays += [(slot, h) for (_, slot), h in frame.true_channels.items()]
        for (slot_a, a), (slot_b, b) in itertools.combinations(arrays, 2):
            if slot_a != slot_b:
                assert not np.shares_memory(a, b)
