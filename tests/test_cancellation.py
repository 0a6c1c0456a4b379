"""Tests for the successive interference subtraction engine."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csa_mimo import cancellation
from csa_mimo.cancellation import (
    Algorithm,
    ReceiverState,
    pab_channel_estimate,
    run_receiver,
    subtract,
)
from csa_mimo.frame import FrameInstance, SystemConfig, UserPlan, assemble_frame, make_frame
from csa_mimo.receiver import compute_combining_statistics, estimate_all_pilot_channels
from csa_mimo.signals import (
    RandomStream,
    build_hadamard_pilots,
    complex_normal,
    qpsk_modulate,
    walsh_hadamard_transform,
)

ALL_ALGORITHMS = (Algorithm.SNB, Algorithm.PAB, Algorithm.PRCE, Algorithm.LOGICAL)


def manual_frame(assignments, *, m=16, n_slots=4, n_p=4, n_d=16, noise_var=0.0, t=2, seed=0):
    """Frame with hand-picked (slot, pilot) assignments per user.

    ``assignments`` is a list (one entry per user) of [(slot, pilot), ...].
    """
    cfg = SystemConfig(
        k_a=len(assignments), m=m, n_slots=n_slots, n_p=n_p, n_d=n_d,
        r=max(len(a) for a in assignments), noise_var=noise_var, t=t,
    )
    rng = RandomStream(seed, 0).generator()
    plans = []
    for uid, placement in enumerate(assignments):
        bits = rng.integers(0, 2, size=2 * n_d, dtype=np.uint8)
        plans.append(
            UserPlan(
                user_id=uid,
                slot_indices=np.array([s for s, _ in placement]),
                pilot_choices=np.array([j for _, j in placement]),
                payload_bits=bits,
                payload=qpsk_modulate(bits),
            )
        )
    return assemble_frame(plans, cfg, rng)


def expected_phi(p):
    """Every pilot's matched-filter estimate from a pilot-phase matrix ``p``."""
    return walsh_hadamard_transform(p) / p.shape[1]


def implied_residual(state, slot):
    """The residual ``y - H^T X`` a PAB/PRCE state holds implicitly for a slot."""
    h_sub, x_sub = state.subtracted(slot)
    return state.y[slot] - h_sub.T @ x_sub


def _explicit_residuals(state):
    """The oracle's own residual pilot- and payload-phase matrices, copied on first use."""
    if not hasattr(state, "y_res"):
        state.p_res = [s.p.copy() for s in state.frame.slots]
        state.y_res = [s.y.copy() for s in state.frame.slots]
    return state.p_res, state.y_res


def full_recompute_subtract(state, user, slot, mode):
    """PAB/PRCE subtraction by the full recompute that the implicit residual replaces.

    Keeps explicit residual pilot- and payload-phase matrices on the side,
    removes ``h s_j^T`` and ``h x^T`` from them, then re-estimates every
    pilot of the slot and its gain.
    """
    p_res, y_res = _explicit_residuals(state)
    plan = state.frame.plans[user]
    j = plan.pilot_in_slot(slot)
    if state.algorithm is Algorithm.PRCE:
        h = state.frame.true_channels[(user, slot)]
    elif mode == "generator":
        h = state.phi[slot][:, j]
    else:
        h = pab_channel_estimate(y_res[slot], plan.payload)
    state.n_up += mode == "generator"
    state.n_pa += mode == "replica"
    pilots = build_hadamard_pilots(state.config.n_p)
    p_res[slot] -= np.outer(h, pilots.sequences[j].astype(float))
    y_res[slot] -= np.outer(h, plan.payload)
    state.phi[slot] = estimate_all_pilot_channels(p_res[slot], pilots)
    state.g[slot] = compute_combining_statistics(state.phi[slot], y_res[slot])[1]
    state.stale[slot] = True


def full_recompute_numerator(state, slot, j):
    """``f_j`` of pilot j from the oracle's explicit payload-phase residual."""
    return compute_combining_statistics(state.phi[slot][:, j], explicit_residual(state, slot))[0]


def explicit_residual(state, slot):
    """The oracle's explicit payload-phase residual of a slot."""
    return _explicit_residuals(state)[1][slot]


class TestHandTracedPeeling:
    # user A repeats in slots 1 and 2, user B sits only in slot 1, all on
    # pilot 0: A is a singleton in slot 2, subtracting its replica clears
    # slot 1, then B decodes
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_two_user_chain_decodes_fully(self, algorithm):
        frame = manual_frame([[(1, 0), (2, 0)], [(1, 0)]])
        report = run_receiver(frame, algorithm)
        assert report.decoded_count == 2
        assert report.lost_count == 0
        assert report.decoded.all()

    def test_subtraction_counters_on_the_chain(self):
        frame = manual_frame([[(1, 0), (2, 0)], [(1, 0)]])
        report = run_receiver(frame, Algorithm.PAB)
        # A: generator slot 2 + replica slot 1; B: generator slot 1 only
        assert report.n_up == 2
        assert report.n_pa == 1

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_collision_free_frame_decodes_in_one_sweep(self, algorithm):
        assignments = [[(s, j)] for s in range(3) for j in range(3)]
        frame = manual_frame(assignments)
        report = run_receiver(frame, algorithm)
        assert report.decoded_count == len(assignments)
        assert report.sweep_count == 1

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_empty_frame(self, algorithm):
        cfg = SystemConfig(k_a=0, m=8, n_slots=4, n_p=4, n_d=8, r=2, noise_var=0.0, t=1)
        frame = make_frame(cfg, RandomStream(1, 0))
        report = run_receiver(frame, algorithm)
        assert report.decoded_count == 0
        assert report.lost_count == 0

    def test_full_stopping_set_loses_both_under_peeling(self):
        # two users sharing both resources never expose a singleton; graph
        # peeling is stuck with certainty (signal receivers may still
        # capture the stronger user when one channel norm dominates)
        frame = manual_frame([[(0, 1), (2, 3)], [(0, 1), (2, 3)]])
        report = run_receiver(frame, Algorithm.LOGICAL)
        assert report.decoded_count == 0
        assert report.lost_count == 2

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_unknown_decode_criterion_rejected(self, algorithm):
        frame = manual_frame([[(1, 0), (2, 0)], [(1, 0)]])
        with pytest.raises(ValueError, match="decode criterion"):
            run_receiver(frame, algorithm, decode_criterion="nonsense")

    def test_single_user_always_decodes(self):
        frame = manual_frame([[(0, 2), (3, 1)]])
        for algorithm in ALL_ALGORITHMS:
            assert run_receiver(frame, algorithm).decoded_count == 1


class TestLogicalPeeling:
    def test_needs_no_signals(self):
        cfg = SystemConfig(k_a=40, m=2, n_slots=10, n_p=8, n_d=2, r=3, noise_var=0.0, t=0)
        frame = make_frame(cfg, RandomStream(2, 0), with_signals=False)
        report = run_receiver(frame, Algorithm.LOGICAL)
        assert report.decoded_count + report.lost_count == cfg.k_a

    def test_signal_algorithms_require_signals(self):
        cfg = SystemConfig(k_a=4, m=8, n_slots=4, n_p=4, n_d=8, r=2, noise_var=0.0, t=1)
        frame = make_frame(cfg, RandomStream(3, 0), with_signals=False)
        with pytest.raises(ValueError):
            run_receiver(frame, Algorithm.PAB)

    def test_noiseless_collision_free_certainty(self):
        # spread users over distinct resources: everyone decodes
        assignments = [[(s, j), ((s + 1) % 4, (j + 1) % 4)] for s in range(4) for j in range(2)]
        frame = manual_frame(assignments)
        assert run_receiver(frame, Algorithm.LOGICAL).decoded_count == len(assignments)


def set_based_peel(frame):
    """Graph peeling with explicit occupant sets, the loop LOGICAL once ran alone.

    Visits every resource in ascending order each sweep, decodes the sole
    occupant of any resource and removes it from all its resources.
    Returns ``(decoded, sweep_count, n_up, n_pa)``.
    """
    occupants = {}
    for plan in frame.plans:
        for s, j in zip(plan.slot_indices, plan.pilot_choices):
            occupants.setdefault((int(s), int(j)), set()).add(plan.user_id)
    resources = sorted(occupants)
    decoded = np.zeros(frame.config.k_a, dtype=bool)
    n_up = n_pa = sweeps = 0
    while True:
        sweeps += 1
        new_decodes = 0
        for res in resources:
            if len(occupants[res]) != 1:
                continue
            user = next(iter(occupants[res]))
            decoded[user] = True
            n_up += 1
            plan = frame.plans[user]
            for s, j in zip(plan.slot_indices, plan.pilot_choices):
                occupants[(int(s), int(j))].discard(user)
                n_pa += (int(s), int(j)) != res
            new_decodes += 1
        if decoded.all() or new_decodes == 0:
            return decoded, sweeps, n_up, n_pa


def density_evolution_plr(load, degree):
    """Asymptotic PLR of peeling with regular user degree and Poisson resource degree.

    Iterates the erasure probability ``p <- (1 - exp(-degree load p))^(degree - 1)``
    of a user-to-resource edge from ``p = 1`` to its fixed point; a user is
    lost when all ``degree`` of its resources stay unresolved.
    """
    p = 1.0
    for _ in range(100_000):
        p_next = (1.0 - math.exp(-degree * load * p)) ** (degree - 1)
        if abs(p_next - p) < 1e-13:
            break
        p = p_next
    return (1.0 - math.exp(-degree * load * p_next)) ** degree


class TestLogicalOracles:
    def test_matches_set_based_peel_on_paired_frames(self):
        # 80 resources; loads 0.5 to 1.25 straddle the peeling threshold
        cfg = SystemConfig(k_a=1, m=2, n_slots=10, n_p=8, n_d=2, r=3, noise_var=0.0, t=0)
        lossy = lossless = 0
        for k_a in (40, 50, 60, 66, 72, 80, 90, 100):
            for i in range(6):
                frame = make_frame(
                    dataclasses.replace(cfg, k_a=k_a), RandomStream(17, k_a << 8 | i),
                    with_signals=False,
                )
                report = run_receiver(frame, Algorithm.LOGICAL)
                decoded, sweeps, n_up, n_pa = set_based_peel(frame)
                np.testing.assert_array_equal(report.decoded, decoded)
                assert (report.sweep_count, report.n_up, report.n_pa) == (sweeps, n_up, n_pa)
                lossy += report.lost_count > 0
                lossless += report.lost_count == 0
        assert lossy >= 5 and lossless >= 5

    def test_density_evolution_values(self):
        assert density_evolution_plr(0.7, 3) < 1e-9
        assert density_evolution_plr(0.81, 3) < 1e-9
        assert density_evolution_plr(0.83, 3) > 0.3
        assert density_evolution_plr(0.9, 3) == pytest.approx(0.661, abs=1e-3)
        assert density_evolution_plr(1.0, 3) == pytest.approx(0.784, abs=1e-3)

    @pytest.mark.slow
    @pytest.mark.parametrize("load", (0.7, 0.9, 1.0))
    def test_plr_matches_density_evolution(self, load):
        # the reference frame: 78 slots x 64 pilots, three replicas per user
        cfg = SystemConfig()
        resources = cfg.n_slots * cfg.n_p
        cfg = dataclasses.replace(cfg, k_a=round(load * resources))
        lost = 0
        for i in range(10):
            frame = make_frame(cfg, RandomStream(123, i), with_signals=False)
            lost += run_receiver(frame, Algorithm.LOGICAL).lost_count
        plr = lost / (10 * cfg.k_a)
        expected = density_evolution_plr(cfg.k_a / resources, cfg.r)
        if expected < 1e-9:
            assert plr <= 1e-3
        else:
            assert abs(plr - expected) <= 0.02


class TestReceiverState:
    def test_no_receiver_copies_the_received_matrices(self):
        frame = manual_frame([[(0, 2), (1, 0)]])
        for algorithm in (Algorithm.SNB, Algorithm.PAB, Algorithm.PRCE):
            state = ReceiverState(frame, algorithm)
            # the pilot phase is read once, into phi, and never kept
            np.testing.assert_array_equal(state.phi[0], expected_phi(frame.slots[0].p))
            for slot, signal in enumerate(frame.slots):
                assert state.y[slot] is signal.y

    @pytest.mark.parametrize("algorithm", (Algorithm.SNB, Algorithm.PAB, Algorithm.PRCE))
    def test_never_touches_received_matrices(self, algorithm):
        cfg = SystemConfig(k_a=30, m=32, n_slots=8, n_p=8, n_d=32, r=3, noise_var=0.1, t=3)
        frame = make_frame(cfg, RandomStream(4, 0))
        before_p = [s.p.copy() for s in frame.slots]
        before_y = [s.y.copy() for s in frame.slots]
        report = run_receiver(frame, algorithm)
        assert report.n_up + report.n_pa > 0
        for slot, (bp, by) in enumerate(zip(before_p, before_y)):
            np.testing.assert_array_equal(frame.slots[slot].p, bp)
            np.testing.assert_array_equal(frame.slots[slot].y, by)


class TestSnbSubtraction:
    def test_generator_subtraction_zeroes_gain(self):
        frame = manual_frame([[(0, 1), (1, 1)]], noise_var=0.0)
        state = ReceiverState(frame, Algorithm.SNB)
        subtract(state, 0, 0, mode="generator")
        assert state.g[0][1] == 0.0
        # replica slot uses the antenna count in place of the true norm
        g_before = state.g[1][1]
        subtract(state, 0, 1, mode="replica")
        assert state.g[1][1] == pytest.approx(g_before - frame.config.m)

    def test_matches_logical_on_single_user_noiseless_frame(self):
        frame = manual_frame([[(0, 0), (2, 3)]])
        snb = run_receiver(frame, Algorithm.SNB)
        logical = run_receiver(frame, Algorithm.LOGICAL)
        np.testing.assert_array_equal(snb.decoded, logical.decoded)

    def test_double_subtraction_rejected(self):
        frame = manual_frame([[(0, 1), (1, 1)]])
        state = ReceiverState(frame, Algorithm.SNB)
        subtract(state, 0, 0, mode="replica")
        with pytest.raises(RuntimeError):
            subtract(state, 0, 0, mode="replica")

    def test_other_pilot_statistics_untouched(self):
        frame = manual_frame([[(0, 1), (1, 2)], [(0, 3)]], noise_var=0.1)
        state = ReceiverState(frame, Algorithm.SNB)
        f_other = state.f[0][3].copy()
        g_other = state.g[0][3]
        subtract(state, 0, 0, mode="generator")
        np.testing.assert_array_equal(state.f[0][3], f_other)
        assert state.g[0][3] == g_other


class TestPabSubtraction:
    def test_noiseless_generator_subtraction_clears_pilot(self):
        frame = manual_frame([[(0, 2), (1, 0)]], noise_var=0.0)
        state = ReceiverState(frame, Algorithm.PAB)
        subtract(state, 0, 0, mode="generator")
        np.testing.assert_array_equal(state.phi[0][:, 2], np.zeros(frame.config.m))
        np.testing.assert_array_equal(state.phi[0], expected_phi(np.zeros_like(frame.slots[0].p)))
        assert state.n_up == 1

    def test_replica_mode_uses_payload_estimate(self):
        frame = manual_frame([[(0, 2), (1, 0)]], noise_var=0.0, n_d=64)
        state = ReceiverState(frame, Algorithm.PAB)
        h_true = frame.true_channels[(0, 1)]
        subtract(state, 0, 1, mode="replica")
        assert state.n_pa == 1
        # lone user, no noise: the estimate equals the channel to rounding,
        # so the residual is ~0 relative to the original signal scale
        scale = np.abs(frame.slots[1].y).max()
        assert np.abs(implied_residual(state, 1)).max() < 1e-12 * scale
        empty_phi = expected_phi(np.zeros_like(frame.slots[1].p))
        assert np.abs(state.phi[1] - empty_phi).max() < 1e-12 * scale
        assert h_true.shape == (frame.config.m,)

    def test_unknown_mode_rejected(self):
        frame = manual_frame([[(0, 2), (1, 0)]])
        state = ReceiverState(frame, Algorithm.PAB)
        with pytest.raises(ValueError):
            subtract(state, 0, 0, mode="oracle")


class TestPabChannelEstimate:
    def test_noiseless_single_user_recovers_channel(self):
        frame = manual_frame([[(0, 1), (1, 1)]], noise_var=0.0, n_d=64)
        h = frame.true_channels[(0, 0)]
        h_hat = pab_channel_estimate(frame.slots[0].y, frame.plans[0].payload)
        np.testing.assert_allclose(h_hat, h, rtol=1e-12)

    def test_error_variance_matches_interference_count(self):
        # per-entry error variance (a_total - 1) / n_d on an untouched slot
        m, n_d, a_total, trials = 64, 64, 9, 500
        rng = RandomStream(5, 0).generator()
        errs = []
        for _ in range(trials):
            channels = complex_normal(rng, (a_total, m), 1.0)
            payloads = qpsk_modulate(rng.integers(0, 2, (a_total, 2 * n_d), dtype=np.uint8))
            y = channels.T @ payloads
            h_hat = pab_channel_estimate(y, payloads[0])
            errs.append(h_hat - channels[0])
        measured = np.mean(np.abs(np.concatenate(errs)) ** 2)
        expected = (a_total - 1) / n_d
        assert measured == pytest.approx(expected, rel=0.05)

    def test_error_collapses_to_noise_after_perfect_removal(self):
        m, n_d, noise_var, trials = 64, 64, 0.1, 400
        rng = RandomStream(6, 0).generator()
        errs = []
        for _ in range(trials):
            h = complex_normal(rng, m, 1.0)
            x = qpsk_modulate(rng.integers(0, 2, 2 * n_d, dtype=np.uint8))
            y = np.outer(h, x) + complex_normal(rng, (m, n_d), noise_var)
            errs.append(pab_channel_estimate(y, x) - h)
        measured = np.mean(np.abs(np.concatenate(errs)) ** 2)
        assert measured == pytest.approx(noise_var / n_d, rel=0.1)

    def test_zero_energy_payload_rejected(self):
        with pytest.raises(ValueError):
            pab_channel_estimate(np.ones((4, 4), dtype=complex), np.zeros(4, dtype=complex))


class TestPrceSubtraction:
    def test_noiseless_cancellation_leaves_frame_without_user(self):
        # removing a decoded user with its true channels must leave exactly
        # the other users' contributions, to machine precision
        frame = manual_frame(
            [[(0, 1), (1, 2)], [(0, 1)], [(0, 3), (1, 3)]], noise_var=0.0
        )
        cfg = frame.config
        state = ReceiverState(frame, Algorithm.PRCE)
        subtract(state, 0, 0, mode="generator")
        subtract(state, 0, 1, mode="replica")
        pilot_rows = build_hadamard_pilots(cfg.n_p).sequences.astype(float)
        for slot in (0, 1):
            expected_p = np.zeros_like(frame.slots[slot].p)
            expected_y = np.zeros_like(frame.slots[slot].y)
            for plan in frame.plans[1:]:
                if slot not in plan.slot_indices:
                    continue
                h = frame.true_channels[(plan.user_id, slot)]
                expected_p += np.outer(h, pilot_rows[plan.pilot_in_slot(slot)])
                expected_y += np.outer(h, plan.payload)
            scale = max(np.abs(frame.slots[slot].p).max(), 1.0)
            assert np.abs(state.phi[slot] - expected_phi(expected_p)).max() < 1e-12 * scale
            assert np.abs(implied_residual(state, slot) - expected_y).max() < 1e-12 * scale

    def test_decodes_superset_of_pab_on_paired_frames(self):
        cfg = SystemConfig(k_a=60, m=64, n_slots=12, n_p=16, n_d=128, r=3, noise_var=0.1, t=5)
        superset = 0
        frames = 25
        for i in range(frames):
            frame = make_frame(cfg, RandomStream(7, i))
            pab = run_receiver(frame, Algorithm.PAB)
            prce = run_receiver(frame, Algorithm.PRCE)
            if np.all(prce.decoded >= pab.decoded):
                superset += 1
        assert superset >= 0.9 * frames


class TestRank1Update:
    """The implicit-residual subtraction against the explicit full recompute."""

    SIGNAL_ALGORITHMS = (Algorithm.PAB, Algorithm.PRCE)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        algorithm=st.sampled_from(SIGNAL_ALGORITHMS),
        data=st.data(),
    )
    def test_matches_full_recompute_over_random_sequences(self, seed, algorithm, data):
        cfg = SystemConfig(k_a=10, m=16, n_slots=4, n_p=4, n_d=16, r=2, noise_var=0.1, t=3)
        frame = make_frame(cfg, RandomStream(seed, 0))
        fast, slow = ReceiverState(frame, algorithm), ReceiverState(frame, algorithm)
        slots, pilots = range(cfg.n_slots), range(cfg.n_p)

        def snapshot(state, numerator, residual):
            return {
                "phi": state.phi,
                "g": state.g,
                "f": [[numerator(state, s, j) for j in pilots] for s in slots],
                "y_res": [residual(state, s) for s in slots],
            }

        def compare():
            a = snapshot(fast, ReceiverState.numerator, implied_residual)
            b = snapshot(slow, full_recompute_numerator, explicit_residual)
            for name in a:
                diff = max(np.abs(np.subtract(x, y)).max() for x, y in zip(a[name], b[name]))
                assert diff <= 1e-9 * scale[name], name
            np.testing.assert_array_equal(fast.stale, slow.stale)

        initial = snapshot(slow, full_recompute_numerator, explicit_residual)
        scale = {name: max(np.abs(a).max() for a in arrays) for name, arrays in initial.items()}
        compare()
        pairs = [(plan.user_id, int(s)) for plan in frame.plans for s in plan.slot_indices]
        order = data.draw(st.permutations(pairs))
        count = data.draw(st.integers(1, len(pairs)))
        for user, slot in order[:count]:
            mode = data.draw(st.sampled_from(("generator", "replica")))
            # as after an attempt on every resource, so the step's marks show
            fast.stale[:] = slow.stale[:] = False
            subtract(fast, user, slot, mode)
            full_recompute_subtract(slow, user, slot, mode)
            compare()
        assert (fast.n_up, fast.n_pa) == (slow.n_up, slow.n_pa)

    @pytest.mark.parametrize("algorithm", SIGNAL_ALGORITHMS)
    def test_paired_frames_decode_as_full_recompute(self, algorithm, monkeypatch):
        # an overloaded small config, so both receivers lose users on some frames
        cfg = SystemConfig(k_a=30, m=16, n_slots=8, n_p=8, n_d=32, r=2, noise_var=0.1, t=3)
        frames = [make_frame(cfg, RandomStream(13, i)) for i in range(24)]
        fast = [run_receiver(frame, algorithm) for frame in frames]
        monkeypatch.setattr(cancellation, "subtract", full_recompute_subtract)
        monkeypatch.setattr(ReceiverState, "numerator", full_recompute_numerator)
        slow = [run_receiver(frame, algorithm) for frame in frames]
        assert sum(report.lost_count > 0 for report in fast) >= 2
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a.decoded, b.decoded)
            assert (a.sweep_count, a.n_up, a.n_pa) == (b.sweep_count, b.n_up, b.n_pa)


class TestSweepInvariants:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_termination_within_user_count_sweeps(self, algorithm):
        cfg = SystemConfig(k_a=40, m=32, n_slots=8, n_p=8, n_d=32, r=2, noise_var=0.1, t=3)
        for i in range(5):
            frame = make_frame(cfg, RandomStream(8, i), with_signals=algorithm is not Algorithm.LOGICAL)
            report = run_receiver(frame, algorithm)
            assert report.sweep_count <= cfg.k_a
            assert report.decoded_count + report.lost_count == cfg.k_a

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_identical_frame_identical_report(self, algorithm):
        cfg = SystemConfig(k_a=30, m=32, n_slots=8, n_p=8, n_d=32, r=3, noise_var=0.1, t=3)
        frame = make_frame(cfg, RandomStream(9, 0), with_signals=algorithm is not Algorithm.LOGICAL)
        r1 = run_receiver(frame, algorithm)
        r2 = run_receiver(frame, algorithm)
        np.testing.assert_array_equal(r1.decoded, r2.decoded)
        assert (r1.sweep_count, r1.n_up, r1.n_pa) == (r2.sweep_count, r2.n_up, r2.n_pa)

    def test_mean_decoded_ordering_small_scale(self):
        # logical >= prce >= pab >= snb on average; seeded, so deterministic
        cfg = SystemConfig(k_a=64, m=64, n_slots=12, n_p=16, n_d=128, r=3, noise_var=0.1, t=5)
        means = {}
        for algorithm in ALL_ALGORITHMS:
            counts = []
            for i in range(20):
                frame = make_frame(
                    cfg, RandomStream(99, i), with_signals=algorithm is not Algorithm.LOGICAL
                )
                counts.append(run_receiver(frame, algorithm).decoded_count)
            means[algorithm] = np.mean(counts)
        assert means[Algorithm.LOGICAL] >= means[Algorithm.PRCE]
        assert means[Algorithm.PRCE] >= means[Algorithm.PAB]
        assert means[Algorithm.PAB] > means[Algorithm.SNB] + 10

    def test_noiseless_collision_free_decodes_everyone(self):
        # spread 9 users over distinct resources; every algorithm must
        # decode all of them with certainty when there is no noise
        assignments = [[(s, j)] for s in range(3) for j in range(3)]
        frame = manual_frame(assignments, noise_var=0.0)
        for algorithm in ALL_ALGORITHMS:
            assert run_receiver(frame, algorithm).decoded.all()
