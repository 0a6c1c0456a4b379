"""Tests for the successive interference subtraction engine."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csa_mimo import cancellation, signals
from csa_mimo.cancellation import (
    RELATIVE_GAIN_FLOOR,
    Algorithm,
    ReceiverState,
    combining_gains,
    estimate_all_pilot_channels,
    logical_peel,
    pab_channel_estimate,
    run_receiver,
    subtract,
)
from csa_mimo.frame import FrameInstance, SystemConfig, assemble_frame, make_frame
from csa_mimo.montecarlo import wilson_interval
from csa_mimo.signals import (
    RandomStream,
    build_hadamard_pilots,
    complex_normal,
    qpsk_modulate,
    walsh_hadamard_transform,
)
from frame_oracle import EPS32, double_twin, hand_built_frame

ALL_ALGORITHMS = (Algorithm.SNB, Algorithm.PAB, Algorithm.PRCE, Algorithm.LOGICAL)


def manual_frame(assignments, *, m=16, n_slots=4, n_p=4, n_d=16, noise_var=0.0, t=2, seed=0,
                 double=False):
    """Frame with hand-picked (slot, pilot) assignments per user.

    ``assignments`` is a list (one entry per user) of r [(slot, pilot), ...]
    pairs, the same r for every user.  The frame is ``assemble_frame``'s,
    complex64, or with ``double`` its complex128 twin, built by hand.
    """
    resources = np.array(assignments, dtype=np.int64)  # (k_a, r, 2)
    cfg = SystemConfig(
        k_a=len(assignments), m=m, n_slots=n_slots, n_p=n_p, n_d=n_d,
        r=resources.shape[1], noise_var=noise_var, t=t,
    )
    rng = RandomStream(seed, 0).generator()
    bits = rng.integers(0, 2, size=(cfg.k_a, 2 * n_d), dtype=np.uint8)
    plans = (resources[..., 0], resources[..., 1], bits)
    return (hand_built_frame if double else assemble_frame)(plans, cfg, rng)


def expected_phi(p):
    """Every pilot's matched-filter estimate from a pilot-phase matrix ``p``."""
    return walsh_hadamard_transform(p) / p.shape[1]


def occupied(frame, slot):
    """The pilots of a slot that carry a user, ascending: those a receiver keeps state for."""
    return np.unique(frame.occupants[slot][1])


def resource(frame, slot, j):
    """The index q of resource (slot, pilot j) among the frame's occupied resources."""
    return frame.resources.ids.tolist().index(slot * frame.config.n_p + j)


def slot_resources(frame, slot):
    """The indices q of a slot's occupied resources, in pilot order."""
    return [resource(frame, slot, j) for j in occupied(frame, slot)]


def replica(frame, user, slot):
    """The index c of a user's replica in a slot, as ``subtract`` takes it."""
    return frame.slot_indices[user].tolist().index(slot)


def column(state, slot, j):
    """A PAB/PRCE state's estimate of pilot j in a slot."""
    return state.phi[:, resource(state.frame, slot, j)]


def gemv_channel_estimate(y, payload, h_sub=None, x_sub=None):
    """The PAB replica estimate by one pass over ``y``: the Gram products' oracle.

    ``y_res x^* / ||x||^2`` with the residual ``y_res = y - h_sub^T x_sub``
    (no rows subtracted by default) taken as ``y x^* - h_sub^T (x_sub x^*)``.
    """
    x_conj = payload.conj()
    energy = float(np.real(x_conj @ payload))
    if energy <= 0:
        raise ValueError("payload has zero energy")
    correlation = y @ x_conj
    if h_sub is not None:
        correlation -= h_sub.T @ (x_sub @ x_conj)
    return correlation / energy


def gram_channel_estimate(y, payload, h_sub=None, x_sub=None):
    """``gemv_channel_estimate``'s arguments, estimated by ``pab_channel_estimate``."""
    m, n_d = y.shape
    h_sub = np.zeros((0, m), dtype=complex) if h_sub is None else h_sub
    x_sub = np.zeros((0, n_d), dtype=complex) if x_sub is None else x_sub
    x_conj = payload.conj()
    return pab_channel_estimate(y @ x_conj, h_sub.T, x_sub @ x_conj, np.real(x_conj @ payload))


_production_subtract = cancellation.subtract


def gemv_subtract(state, user, c, mode):
    """``subtract``, with the PAB replica estimate taken by the gemv oracle."""
    if state.algorithm is not Algorithm.PAB or mode == "generator":
        return _production_subtract(state, user, c, mode)
    slot = state.frame.slot_indices[user, c]
    h = gemv_channel_estimate(state.y[slot], state.frame.payloads[user], *subtracted(state, slot))
    production_estimate = cancellation.pab_channel_estimate
    cancellation.pab_channel_estimate = lambda *args: h
    try:
        _production_subtract(state, user, c, mode)
    finally:
        cancellation.pab_channel_estimate = production_estimate


def subtracted(state, slot):
    """The (estimates, payloads) a PAB/PRCE state has removed from a slot, in occupant order."""
    done = state.done[slot]
    return state.rows[slot][done], state.x[slot][done]


def implied_residual(state, slot):
    """The residual ``y - H^T X`` a PAB/PRCE state holds implicitly for a slot."""
    h_sub, x_sub = subtracted(state, slot)
    return state.y[slot] - h_sub.T @ x_sub


def _explicit_residuals(state):
    """The oracle's own residual pilot- and payload-phase matrices, copied on first use."""
    if not hasattr(state, "y_res"):
        state.p_res = [s.p.copy() for s in state.frame.slots]
        state.y_res = [s.y.copy() for s in state.frame.slots]
    return state.p_res, state.y_res


def pilot_of(frame, user, slot):
    """The pilot a user picked in one of its slots."""
    return int(frame.pilot_choices[user][frame.slot_indices[user].tolist().index(slot)])


def true_channel(frame, user, slot):
    """A replica's channel: the row of its slot's array at the user's occupant index."""
    return frame.true_channels[slot][frame.occupants[slot][0].tolist().index(user)]


def full_recompute_subtract(state, user, c, mode):
    """PAB/PRCE subtraction by the full recompute that the implicit residual replaces.

    Keeps explicit residual pilot- and payload-phase matrices on the side,
    removes ``h s_j^T`` and ``h x^T`` from them, then re-estimates every
    pilot of the slot and its gain, and marks the user's occupant done.
    """
    frame = state.frame
    slot, j = int(frame.slot_indices[user, c]), int(frame.pilot_choices[user, c])
    p_res, y_res = _explicit_residuals(state)
    payload = frame.payloads[user]
    if state.algorithm is Algorithm.PRCE:
        h = true_channel(frame, user, slot)
    elif mode == "generator":
        h = column(state, slot, j)
    else:
        h = gemv_channel_estimate(y_res[slot], payload)
    pilots = build_hadamard_pilots(state.config.n_p)
    p_res[slot] -= np.outer(h, pilots[j].astype(float))
    y_res[slot] -= np.outer(h, payload)
    phi = estimate_all_pilot_channels(p_res[slot], state.config.n_p)
    qs = slot_resources(frame, slot)
    state.phi[:, qs] = phi[:, occupied(frame, slot)]
    state.g[qs] = combining_gains(phi)[occupied(frame, slot)]
    state.stale[qs] = True
    state.done[slot][frame.occupants[slot][0].tolist().index(user)] = True


def full_recompute_numerator(state, q):
    """``f_q`` of resource q from the oracle's explicit payload-phase residual."""
    slot = int(state.frame.resources.ids[q]) // state.config.n_p
    return state.phi[:, q].conj() @ explicit_residual(state, slot)


def explicit_residual(state, slot):
    """The oracle's explicit payload-phase residual of a slot."""
    return _explicit_residuals(state)[1][slot]


# users A, B and C on pilot 0 in slots (0, 1), (1, 2) and (2, 3): A is a
# singleton in slot 0, and subtracting its replica clears slot 1 for B, whose
# replica clears slot 2 for C, all within the first sweep
CHAIN = [[(0, 0), (1, 0)], [(1, 0), (2, 0)], [(2, 0), (3, 0)]]


class TestHandTracedPeeling:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_three_user_chain_decodes_fully(self, algorithm):
        frame = manual_frame(CHAIN)
        report = run_receiver(frame, algorithm)
        assert report.decoded_count == 3
        assert report.lost_count == 0
        assert report.decoded.all()

    def test_subtraction_counters_on_the_chain(self):
        frame = manual_frame(CHAIN)
        report = run_receiver(frame, Algorithm.PAB)
        # A, B, C each: a generator slot, then one replica slot ahead of the sweep
        assert report.sweep_count == 1
        assert report.n_up == 3
        assert report.n_pa == 3

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
        frame = manual_frame(CHAIN)
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
        assert "payloads" not in vars(frame)  # nor modulated payloads

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

    def test_resource_freed_behind_the_sweep_decodes_in_the_next(self):
        # resource q = slot * n_p + pilot.  B and C are alone on q=4 and q=5;
        # decoding them frees q=0 and q=2 for A, behind them, so A waits for
        # sweep 2.  D and E share both their resources and stay lost, so a
        # third sweep finds nothing: 3 sweeps, as the ascending loop counts
        frame = manual_frame(
            [[(0, 0), (1, 0)], [(0, 0), (2, 0)], [(1, 0), (2, 1)], [(0, 1), (1, 1)],
             [(0, 1), (1, 1)]],
            n_slots=3, n_p=2,
        )
        report = logical_peel(frame)
        np.testing.assert_array_equal(report.decoded, [True, True, True, False, False])
        assert (report.sweep_count, report.n_up, report.n_pa) == (3, 3, 3)
        decoded, sweeps, n_up, n_pa = set_based_peel(frame)
        np.testing.assert_array_equal(report.decoded, decoded)
        assert (sweeps, n_up, n_pa) == (3, 3, 3)

    def test_receiver_state_rejects_logical(self):
        # the sweep state holds signals only; LOGICAL peels without it
        frame = manual_frame(CHAIN)
        for algorithm in (Algorithm.LOGICAL, "logical"):
            with pytest.raises(ValueError, match="LOGICAL keeps no signal state.*logical_peel"):
                ReceiverState(frame, algorithm)


def set_based_peel(frame):
    """Graph peeling with explicit occupant sets, the loop LOGICAL once ran alone.

    Visits every resource in ascending order each sweep, decodes the sole
    occupant of any resource and removes it from all its resources.
    Returns ``(decoded, sweep_count, n_up, n_pa)``.
    """
    occupants = {}
    for user, (slots, pilots) in enumerate(zip(frame.slot_indices, frame.pilot_choices)):
        for s, j in zip(slots, pilots):
            occupants.setdefault((int(s), int(j)), set()).add(user)
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
            for s, j in zip(frame.slot_indices[user], frame.pilot_choices[user]):
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

    def test_two_user_stopping_set_rate(self):
        # two users with r=2 of 3 slots and 2 pilots: peeling loses both
        # exactly when they share both (slot, pilot) resources, which has
        # probability 1 / (C(3, 2) * 2**2) = 1/12, and loses nobody otherwise
        cfg = SystemConfig(k_a=2, n_slots=3, n_p=2, r=2)
        frames = 4000
        stuck = 0
        for i in range(frames):
            frame = make_frame(cfg, RandomStream(31, i), with_signals=False)
            shared = bool(
                np.array_equal(frame.slot_indices[0], frame.slot_indices[1])
                and np.array_equal(frame.pilot_choices[0], frame.pilot_choices[1])
            )
            assert run_receiver(frame, Algorithm.LOGICAL).lost_count == 2 * shared
            stuck += shared
        low, high = wilson_interval(stuck, frames)
        assert low <= 1 / 12 <= high

    def test_density_evolution_values(self):
        assert density_evolution_plr(0.7, 3) < 1e-9
        assert density_evolution_plr(0.81, 3) < 1e-9
        assert density_evolution_plr(0.83, 3) > 0.3
        assert density_evolution_plr(0.9, 3) == pytest.approx(0.661, abs=1e-3)
        assert density_evolution_plr(1.0, 3) == pytest.approx(0.784, abs=1e-3)

    @pytest.mark.parametrize("load", (0.7, 0.9, 1.0))
    def test_plr_matches_density_evolution(self, load):
        # the reference frame: 78 slots x 64 pilots, three replicas per user
        cfg = SystemConfig()
        assert_logical_plr_matches_density_evolution(round(load * cfg.n_slots * cfg.n_p), frames=10)

    @pytest.mark.parametrize("k_a", (3600, 4200, 4500, 5000))
    def test_plr_matches_density_evolution_at_reference_loads(self, k_a):
        # around the threshold k_a* = 4086: none lost below it, and within
        # finite-length slack above it (20 frames measured |MC - DE| <= 0.0011)
        assert_logical_plr_matches_density_evolution(k_a, frames=20)

    def test_pair_stopping_sets_set_the_error_floor(self):
        # far below the threshold the floor is two users on the same r
        # (slot, pilot) resources: each of the C(k_a, 2) pairs is stuck with
        # probability 1 / (C(n_slots, r) n_p^r), a PLR of 2 C(k_a, 2) p / k_a.
        # A stuck pair loses two users at once, so the binomial events are
        # pairs, not users
        cfg = SystemConfig(k_a=4, m=2, n_slots=10, n_p=2, n_d=2, r=3, noise_var=0.0, t=0)
        frames, pairs_per_frame = 20_000, math.comb(cfg.k_a, 2)
        p_pair = 1 / (math.comb(cfg.n_slots, cfg.r) * cfg.n_p**cfg.r)
        stuck_pairs = lost = 0
        for i in range(frames):
            frame = make_frame(cfg, RandomStream(37, i), with_signals=False)
            report = logical_peel(frame)
            plans = np.concatenate((frame.slot_indices, frame.pilot_choices), axis=1).tolist()
            for a, b in itertools.combinations(range(cfg.k_a), 2):
                if plans[a] == plans[b]:
                    assert not report.decoded[a] and not report.decoded[b]
                    stuck_pairs += 1
            lost += report.lost_count
        low, high = wilson_interval(stuck_pairs, frames * pairs_per_frame)
        assert low <= p_pair <= high
        # larger stopping sets add little at this load: the floor is the pair term
        assert lost - 2 * stuck_pairs <= 0.2 * lost
        pair_term = 2 * pairs_per_frame * p_pair / cfg.k_a
        assert pair_term == pytest.approx(3.125e-3)
        assert lost / (frames * cfg.k_a) == pytest.approx(pair_term, rel=0.25)

    def test_matches_set_based_peel_at_reference_size(self):
        sweep_counts = []
        for k_a, i in itertools.product((900, 4200), range(3)):
            frame = make_frame(SystemConfig(k_a=k_a), RandomStream(41, i), with_signals=False)
            report = logical_peel(frame)
            decoded, sweeps, n_up, n_pa = set_based_peel(frame)
            np.testing.assert_array_equal(report.decoded, decoded)
            assert (report.sweep_count, report.n_up, report.n_pa) == (sweeps, n_up, n_pa)
            sweep_counts.append(report.sweep_count)
        assert max(sweep_counts) >= 3


def assert_logical_plr_matches_density_evolution(k_a, frames):
    """LOGICAL's PLR over reference frames: none lost where density evolution
    loses none, else within 0.015 of it."""
    cfg = dataclasses.replace(SystemConfig(), k_a=k_a)
    lost = 0
    for i in range(frames):
        frame = make_frame(cfg, RandomStream(123, i), with_signals=False)
        lost += run_receiver(frame, Algorithm.LOGICAL).lost_count
    plr = lost / (frames * k_a)
    expected = density_evolution_plr(k_a / (cfg.n_slots * cfg.n_p), cfg.r)
    if expected < 1e-9:
        assert lost == 0
    else:
        assert abs(plr - expected) <= 0.015


def set_based_resources(frame):
    """``frame.resources`` by sets: the sorted occupied (slot, pilot) pairs, each
    replica's place among them, and its user's rank among the slot's users."""
    cfg = frame.config
    plans = [list(zip(slots, pilots)) for slots, pilots in
             zip(frame.slot_indices.tolist(), frame.pilot_choices.tolist())]
    pairs = sorted({pair for plan in plans for pair in plan})
    users_in = {s: sorted(u for u, plan in enumerate(plans) if s in dict(plan))
                for s in range(cfg.n_slots)}
    ids = [s * cfg.n_p + j for s, j in pairs]
    q = [[pairs.index(pair) for pair in plan] for plan in plans]
    occupant = [[users_in[s].index(u) for s, _ in plan] for u, plan in enumerate(plans)]
    return ids, q, occupant


class TestResourceTable:
    @pytest.mark.parametrize("assignments, n_slots", [
        (CHAIN, 4),
        # slot 0's three users all on pilot 1, and slots 3 and 4 empty
        ([[(0, 1), (1, 2)], [(0, 1), (2, 0)], [(0, 1), (1, 3)]], 5),
        ([[(1, 3), (3, 0)], [(1, 3), (3, 2)], [(0, 0), (3, 2)], [(0, 1), (1, 3)]], 4),
    ])
    def test_matches_set_based_numbering_on_hand_picked_frames(self, assignments, n_slots):
        frame = manual_frame(assignments, n_slots=n_slots)
        assert_table_matches_sets(frame)

    @pytest.mark.parametrize("k_a, seed", [(0, 0), (1, 1), (4, 2), (40, 3), (120, 4)])
    def test_matches_set_based_numbering_on_drawn_frames(self, k_a, seed):
        cfg = SystemConfig(k_a=k_a, m=2, n_slots=10, n_p=8, n_d=2, r=3)
        frame = make_frame(cfg, RandomStream(seed), with_signals=False)
        if k_a == 4:  # slots 0 and 6 empty
            assert (np.bincount(frame.slot_indices.ravel(), minlength=cfg.n_slots) == 0).sum() == 2
        assert_table_matches_sets(frame)

    def test_built_once_and_shared_by_every_receiver(self):
        cfg = SystemConfig(k_a=20, m=16, n_slots=6, n_p=8, n_d=16, r=2, noise_var=0.1, t=2)
        frame = make_frame(cfg, RandomStream(5))
        table = frame.resources
        for algorithm in ALL_ALGORITHMS:
            run_receiver(frame, algorithm)
        assert frame.resources is table
        # O(k_a r) integers, whatever the frame's size
        assert table.q.shape == table.occupant.shape == (cfg.k_a, cfg.r)
        assert table.ids.size <= cfg.k_a * cfg.r


def assert_table_matches_sets(frame):
    ids, q, occupant = set_based_resources(frame)
    table = frame.resources
    np.testing.assert_array_equal(table.ids, np.array(ids, dtype=np.int64))
    shape = frame.slot_indices.shape
    np.testing.assert_array_equal(table.q, np.array(q, dtype=np.int64).reshape(shape))
    np.testing.assert_array_equal(table.occupant, np.array(occupant, dtype=np.int64).reshape(shape))
    for user, (slots, qs, places) in enumerate(zip(frame.slot_indices, table.q, table.occupant)):
        for slot, q_, i in zip(slots, qs, places):
            assert frame.occupants[slot][0][i] == user  # the occupant index assemble_frame uses
            assert table.ids[q_] // frame.config.n_p == slot


class TestReceiverState:
    def test_no_receiver_copies_the_received_matrices(self):
        frame = manual_frame([[(0, 2), (1, 0)]], double=True)
        phi = expected_phi(frame.slots[0].p)
        for algorithm in (Algorithm.SNB, Algorithm.PAB, Algorithm.PRCE):
            state = ReceiverState(frame, algorithm)
            # the pilot phase is read once, into phi, and never kept; SNB keeps
            # only the numerators phi_j^H y, the others the occupied columns
            if algorithm is Algorithm.SNB:
                assert not hasattr(state, "phi")
                np.testing.assert_allclose(state.numerator(resource(frame, 0, 2)),
                                           phi[:, 2].conj() @ frame.slots[0].y, rtol=1e-12)
            else:
                np.testing.assert_array_equal(column(state, 0, 2), phi[:, 2])
            for slot, signal in enumerate(frame.slots):
                assert state.y[slot] is signal.y

    @pytest.mark.parametrize("algorithm", (Algorithm.SNB, Algorithm.PAB, Algorithm.PRCE))
    @pytest.mark.parametrize("case", ("hand_picked", "hand_picked_double", "drawn"))
    def test_state_kept_for_occupied_pilots_only(self, algorithm, case):
        if case.startswith("hand_picked"):
            # slot 0's three users all on pilot 1, slot 1 holds two pilots,
            # slot 2 one, and slots 3 and 4 nobody
            frame = manual_frame(
                [[(0, 1), (1, 2)], [(0, 1), (2, 0)], [(0, 1), (1, 3)]], n_slots=5, noise_var=0.1,
                double=case.endswith("double"))
        else:
            cfg = SystemConfig(k_a=12, m=16, n_slots=10, n_p=8, n_d=16, r=2, noise_var=0.1)
            frame = make_frame(cfg, RandomStream(21))
        cfg = frame.config
        state = ReceiverState(frame, algorithm)
        pilots = [occupied(frame, slot) for slot in range(cfg.n_slots)]
        assert any(p.size == 0 for p in pilots)
        total = sum(p.size for p in pilots)
        # one buffer per receiver, one row or column per occupied resource,
        # in the frame's own precision; the gains are float64 in either
        dtype = frame.slots[0].y.dtype
        if algorithm is Algorithm.SNB:
            assert state.f.shape == (total, cfg.n_d) and state.f.dtype == dtype
        else:
            assert state.phi.shape == (cfg.m, total) and state.phi.dtype == dtype
            assert {rows.dtype for rows in state.rows} == {dtype}
        if algorithm is Algorithm.PAB:
            assert {gram.dtype for gram in state.gram} == {dtype}
        assert state.g.shape == state.stale.shape == (total,)
        assert state.g.dtype == np.float64
        first = 0
        for slot, signal in enumerate(frame.slots):
            # a slot's resources are consecutive, in pilot order
            assert slot_resources(frame, slot) == list(range(first, first + pilots[slot].size))
            first += pilots[slot].size
            phi = estimate_all_pilot_channels(signal.p, cfg.n_p)
            f, g = phi.conj().T @ signal.y, combining_gains(phi)
            for j in range(cfg.n_p):
                if j not in pilots[slot]:
                    # nobody picked j: no resource, so no state
                    assert slot * cfg.n_p + j not in frame.resources.ids
                    continue
                q = resource(frame, slot, j)
                assert state.g[q].tobytes() == g[j].astype(np.float64).tobytes()
                if algorithm is Algorithm.SNB:
                    # the full product's row, byte for byte
                    assert state.numerator(q).tobytes() == f[j].tobytes()
                else:
                    assert column(state, slot, j).tobytes() == phi[:, j].tobytes()

    def test_pab_gram_products_cover_each_slots_occupants(self):
        frame = double_twin(SystemConfig(k_a=40, m=16, n_slots=6, n_p=4, n_d=16), RandomStream(3))
        state = ReceiverState(frame, Algorithm.PAB)
        occupants = []
        for slot, signal in enumerate(frame.slots):
            users = np.nonzero((frame.slot_indices == slot).any(axis=1))[0]
            # the Gram products are indexed by position among the frame's occupants
            np.testing.assert_array_equal(frame.occupants[slot][0], users)
            x = frame.payloads[users]
            np.testing.assert_allclose(state.gram[slot], x @ x.conj().T, rtol=1e-12, atol=1e-12)
            occupants.append(users)
        assert sum(users.size for users in occupants) == frame.slot_indices.size

        estimates = [{} for _ in occupants]  # per slot, occupant index -> estimate

        def assert_rows_hold_correlations_or_estimates():
            for slot, users in enumerate(occupants):
                assert set(np.flatnonzero(state.done[slot])) == set(estimates[slot])
                c_t = frame.payloads[users].conj() @ frame.slots[slot].y.T
                for i in range(users.size):
                    expected = estimates[slot].get(i, c_t[i])
                    np.testing.assert_allclose(
                        state.rows[slot][i], expected, rtol=1e-12, atol=1e-12)

        assert_rows_hold_correlations_or_estimates()
        # subtract the last two occupants of every slot, the second as a replica
        # estimated with the first already done, so done is not a prefix
        for slot, users in enumerate(occupants):
            for mode, user in zip(("generator", "replica"), users[::-1][:2].tolist()):
                j = pilot_of(frame, user, slot)
                i = users.tolist().index(user)
                if mode == "generator":
                    h = column(state, slot, j).copy()
                else:
                    h = gemv_channel_estimate(
                        frame.slots[slot].y, frame.payloads[user], *subtracted(state, slot))
                subtract(state, user, replica(frame, user, slot), mode)
                estimates[slot][i] = h
        assert_rows_hold_correlations_or_estimates()

    @pytest.mark.parametrize("algorithm", (Algorithm.SNB, Algorithm.PAB, Algorithm.PRCE))
    def test_never_touches_received_matrices(self, algorithm):
        cfg = SystemConfig(k_a=30, m=32, n_slots=8, n_p=8, n_d=32, r=3, noise_var=0.1, t=3)
        frame = make_frame(cfg, RandomStream(4, 0))
        before_p = [s.p.copy() for s in frame.slots]
        before_y = [s.y.copy() for s in frame.slots]
        before_h = {slot: h.copy() for slot, h in frame.true_channels.items()}
        report = run_receiver(frame, algorithm)
        assert report.n_up + report.n_pa > 0
        for slot, (bp, by) in enumerate(zip(before_p, before_y)):
            np.testing.assert_array_equal(frame.slots[slot].p, bp)
            np.testing.assert_array_equal(frame.slots[slot].y, by)
        assert list(frame.true_channels) == list(before_h)
        for slot, h in frame.true_channels.items():
            # PRCE reads these rows in place from a frame its sweep shares
            assert not h.flags.writeable
            np.testing.assert_array_equal(h, before_h[slot])


class TestSnbSubtraction:
    def test_generator_subtraction_zeroes_gain(self):
        frame = manual_frame([[(0, 1), (1, 1)]], noise_var=0.0)
        state = ReceiverState(frame, Algorithm.SNB)
        subtract(state, 0, replica(frame, 0, 0), mode="generator")
        assert state.g[resource(frame, 0, 1)] == 0.0
        # replica slot uses the antenna count in place of the true norm
        g_before = state.g[resource(frame, 1, 1)]
        subtract(state, 0, replica(frame, 0, 1), mode="replica")
        assert state.g[resource(frame, 1, 1)] == pytest.approx(g_before - frame.config.m)

    def test_matches_logical_on_single_user_noiseless_frame(self):
        frame = manual_frame([[(0, 0), (2, 3)]])
        snb = run_receiver(frame, Algorithm.SNB)
        logical = run_receiver(frame, Algorithm.LOGICAL)
        np.testing.assert_array_equal(snb.decoded, logical.decoded)

    def test_double_subtraction_rejected(self):
        frame = manual_frame([[(0, 1), (1, 1)]])
        state = ReceiverState(frame, Algorithm.SNB)
        subtract(state, 0, replica(frame, 0, 0), mode="replica")
        with pytest.raises(RuntimeError):
            subtract(state, 0, replica(frame, 0, 0), mode="replica")

    def test_other_pilot_statistics_untouched(self):
        frame = manual_frame([[(0, 1), (1, 2)], [(0, 3), (2, 0)]], noise_var=0.1)
        state = ReceiverState(frame, Algorithm.SNB)
        other = resource(frame, 0, 3)
        f_other = state.numerator(other).copy()
        g_other = state.g[other]
        subtract(state, 0, replica(frame, 0, 0), mode="generator")
        np.testing.assert_array_equal(state.numerator(other), f_other)
        assert state.g[other] == g_other


class TestPabSubtraction:
    def test_noiseless_generator_subtraction_clears_pilot(self):
        frame = manual_frame([[(0, 2), (1, 0)]], noise_var=0.0)
        state = ReceiverState(frame, Algorithm.PAB)
        subtract(state, 0, replica(frame, 0, 0), mode="generator")
        np.testing.assert_array_equal(column(state, 0, 2), np.zeros(frame.config.m))
        empty_phi = expected_phi(np.zeros_like(frame.slots[0].p))
        np.testing.assert_array_equal(
            state.phi[:, slot_resources(frame, 0)], empty_phi[:, occupied(frame, 0)])

    def test_replica_mode_uses_payload_estimate(self):
        frame = manual_frame([[(0, 2), (1, 0)]], noise_var=0.0, n_d=64, double=True)
        state = ReceiverState(frame, Algorithm.PAB)
        h_true = true_channel(frame, 0, 1)
        subtract(state, 0, replica(frame, 0, 1), mode="replica")
        # lone user, no noise: the estimate equals the channel to rounding,
        # so the residual is ~0 relative to the original signal scale
        scale = np.abs(frame.slots[1].y).max()
        assert np.abs(implied_residual(state, 1)).max() < 1e-12 * scale
        empty_phi = expected_phi(np.zeros_like(frame.slots[1].p))[:, occupied(frame, 1)]
        assert np.abs(state.phi[:, slot_resources(frame, 1)] - empty_phi).max() < 1e-12 * scale
        assert h_true.shape == (frame.config.m,)

    def test_unknown_mode_rejected(self):
        frame = manual_frame([[(0, 2), (1, 0)]])
        state = ReceiverState(frame, Algorithm.PAB)
        with pytest.raises(ValueError):
            subtract(state, 0, replica(frame, 0, 0), mode="oracle")


class TestPabChannelEstimate:
    def test_noiseless_single_user_recovers_channel(self):
        frame = manual_frame([[(0, 1), (1, 1)]], noise_var=0.0, n_d=64, double=True)
        h = true_channel(frame, 0, 0)
        h_hat = gram_channel_estimate(frame.slots[0].y, frame.payloads[0])
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
            h_hat = gram_channel_estimate(y, payloads[0])
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
            errs.append(gram_channel_estimate(y, x) - h)
        measured = np.mean(np.abs(np.concatenate(errs)) ** 2)
        assert measured == pytest.approx(noise_var / n_d, rel=0.1)

    def test_matches_gemv_oracle_after_subtractions(self):
        m, n_d, k = 32, 64, 5
        rng = RandomStream(8, 0).generator()
        y = complex_normal(rng, (m, n_d), 1.0)
        h_sub = complex_normal(rng, (k, m), 1.0)
        x_sub = qpsk_modulate(rng.integers(0, 2, (k, 2 * n_d), dtype=np.uint8))
        x = qpsk_modulate(rng.integers(0, 2, 2 * n_d, dtype=np.uint8))
        for rows in range(k + 1):
            args = (y, x, h_sub[:rows], x_sub[:rows])
            np.testing.assert_allclose(
                gram_channel_estimate(*args), gemv_channel_estimate(*args), rtol=1e-12, atol=1e-13
            )

    def test_batch_matches_one_call_per_slot(self):
        b, m, k = 4, 8, 3
        rng = RandomStream(9, 0).generator()
        correlation = complex_normal(rng, (b, m), 1.0)
        h_sub = complex_normal(rng, (b, m, k), 1.0)
        gram = complex_normal(rng, (b, k), 1.0)
        energy = rng.uniform(1.0, 2.0, (b, 1))
        batch = pab_channel_estimate(correlation, h_sub, gram, energy)
        for i in range(b):
            one = pab_channel_estimate(correlation[i], h_sub[i], gram[i], energy[i, 0])
            np.testing.assert_allclose(batch[i], one, rtol=1e-14, atol=1e-14)

    def test_zero_energy_payload_rejected(self):
        with pytest.raises(ValueError):
            gram_channel_estimate(np.ones((4, 4), dtype=complex), np.zeros(4, dtype=complex))


class TestPrceSubtraction:
    def test_noiseless_cancellation_leaves_frame_without_user(self):
        # removing a decoded user with its true channels must leave exactly
        # the other users' contributions, to machine precision
        frame = manual_frame(
            [[(0, 1), (1, 2)], [(0, 1), (2, 0)], [(0, 3), (1, 3)]], noise_var=0.0, double=True
        )
        cfg = frame.config
        state = ReceiverState(frame, Algorithm.PRCE)
        subtract(state, 0, replica(frame, 0, 0), mode="generator")
        subtract(state, 0, replica(frame, 0, 1), mode="replica")
        pilot_rows = build_hadamard_pilots(cfg.n_p).astype(float)
        for slot in (0, 1):
            expected_p = np.zeros_like(frame.slots[slot].p)
            expected_y = np.zeros_like(frame.slots[slot].y)
            for user in range(1, cfg.k_a):
                if slot not in frame.slot_indices[user]:
                    continue
                h = true_channel(frame, user, slot)
                expected_p += np.outer(h, pilot_rows[pilot_of(frame, user, slot)])
                expected_y += np.outer(h, frame.payloads[user])
            scale = max(np.abs(frame.slots[slot].p).max(), 1.0)
            phi = expected_phi(expected_p)[:, occupied(frame, slot)]
            assert np.abs(state.phi[:, slot_resources(frame, slot)] - phi).max() < 1e-12 * scale
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
        double=st.booleans(),
        data=st.data(),
    )
    def test_matches_full_recompute_over_random_sequences(self, seed, algorithm, double, data):
        cfg = SystemConfig(k_a=10, m=16, n_slots=4, n_p=4, n_d=16, r=2, noise_var=0.1, t=3)
        frame = (double_twin if double else make_frame)(cfg, RandomStream(seed, 0))
        # the two sum in different orders; on make_frame's single-precision
        # frames they measured at most 3 float32 roundings of the scale
        # apart, and the complex128 twins keep the double-precision bound
        bound = 1e-9 if double else 32 * EPS32
        fast, slow = ReceiverState(frame, algorithm), ReceiverState(frame, algorithm)
        slots = range(cfg.n_slots)

        def snapshot(state, numerator, residual):
            return {
                "phi": [state.phi],
                "g": [state.g],
                "f": [
                    np.array([numerator(state, q) for q in slot_resources(frame, s)]).reshape(-1)
                    for s in slots
                ],
                "y_res": [residual(state, s) for s in slots],
            }

        def largest(arrays):  # a slot nobody picked has no columns and no numerators
            return max(np.abs(a).max(initial=0.0) for a in arrays)

        def compare():
            a = snapshot(fast, ReceiverState.numerator, implied_residual)
            b = snapshot(slow, full_recompute_numerator, explicit_residual)
            for name in a:
                diff = largest(np.subtract(x, y) for x, y in zip(a[name], b[name]))
                assert diff <= bound * scale[name], name
            np.testing.assert_array_equal(fast.stale, slow.stale)

        initial = snapshot(slow, full_recompute_numerator, explicit_residual)
        scale = {name: largest(arrays) for name, arrays in initial.items()}
        compare()
        replicas = list(itertools.product(range(cfg.k_a), range(cfg.r)))
        order = data.draw(st.permutations(replicas))
        count = data.draw(st.integers(1, len(replicas)))
        for user, c in order[:count]:
            mode = data.draw(st.sampled_from(("generator", "replica")))
            # as after an attempt on every resource, so the step's marks show
            fast.stale[:] = slow.stale[:] = False
            subtract(fast, user, c, mode)
            full_recompute_subtract(slow, user, c, mode)
            compare()
        for a, b in zip(fast.done, slow.done):
            np.testing.assert_array_equal(a, b)

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

    @pytest.mark.slow
    @pytest.mark.parametrize("k_a", (500, 700, 900))
    def test_reference_frames_decode_as_gemv_estimates(self, k_a, monkeypatch):
        # the Gram products and the gemv over y sum in different orders, so
        # the gate at the reference size is the paired frames' reports
        frames = [make_frame(SystemConfig(k_a=k_a), RandomStream(17, i)) for i in range(2)]
        gram = [run_receiver(frame, Algorithm.PAB) for frame in frames]
        monkeypatch.setattr(cancellation, "subtract", gemv_subtract)
        gemv = [run_receiver(frame, Algorithm.PAB) for frame in frames]
        for a, b in zip(gram, gemv):
            assert b.n_pa > 0
            np.testing.assert_array_equal(a.decoded, b.decoded)
            assert (a.sweep_count, a.n_up, a.n_pa) == (b.sweep_count, b.n_up, b.n_pa)


class TestSinglePrecision:
    """``make_frame``'s complex64 frames against their complex128 twins.

    The twin is the frame assembled in double precision from the same
    float64 draws (``frame_oracle.double_twin``), so its receivers run the
    arithmetic every frame ran before the signals were single precision.
    """

    SIGNAL_RUNS = ((Algorithm.SNB, "bit"), (Algorithm.SNB, "symbol"),
                   (Algorithm.PAB, "bit"), (Algorithm.PRCE, "bit"))

    def test_twin_is_the_frame_before_rounding(self):
        cfg = SystemConfig(k_a=20, m=16, n_slots=6, n_p=4, n_d=16, noise_var=0.1)
        frame, twin = make_frame(cfg, RandomStream(31)), double_twin(cfg, RandomStream(31))
        assert frame.payloads.dtype == np.complex64 and twin.payloads.dtype == np.complex128
        assert frame.payloads.tobytes() == twin.payloads.astype(np.complex64).tobytes()
        for slot, h in frame.true_channels.items():
            assert h.tobytes() == twin.true_channels[slot].astype(np.complex64).tobytes()
        for single, double in zip(frame.slots, twin.slots):
            assert single.p.dtype == single.y.dtype == np.complex64
            # the frame rounds its draws and sums in single precision
            for a, b in ((single.p, double.p), (single.y, double.y)):
                np.testing.assert_allclose(a, b, rtol=0, atol=8 * EPS32 * np.abs(b).max())

    @pytest.mark.slow
    @pytest.mark.parametrize("k_a", (300, 700, 1100))
    def test_reports_equal_double_precision_twins(self, k_a):
        config = SystemConfig(k_a=k_a)
        lost = 0
        for i in range(2):
            frame = make_frame(config, RandomStream(41, i))
            twin = double_twin(config, RandomStream(41, i))
            for algorithm, criterion in self.SIGNAL_RUNS:
                single = run_receiver(frame, algorithm, decode_criterion=criterion)
                double = run_receiver(twin, algorithm, decode_criterion=criterion)
                np.testing.assert_array_equal(single.decoded, double.decoded)
                assert (single.sweep_count, single.r) == (double.sweep_count, double.r)
                lost += single.lost_count
        # SNB loses users from k_a=700 on, so there the parity covers failed attempts
        assert lost > 0 or k_a < 700

    def test_noiseless_frame_stays_clear_of_gain_floor(self):
        config = SystemConfig(k_a=900, noise_var=0.0)
        frame = make_frame(config, RandomStream(43))
        floor = config.m * config.channel_var * RELATIVE_GAIN_FLOOR
        for (_, pilots), signal in zip(frame.occupants, frame.slots):
            gains = combining_gains(estimate_all_pilot_channels(signal.p, config.n_p))
            unused = np.setdiff1d(np.arange(config.n_p), pilots)
            # float32 leaves unused pilots' estimates at rounding level, not zero
            assert gains[unused].max(initial=0.0) < floor
            assert gains[pilots].min() > 1e3 * floor
        # subtracting every replica with its true channel leaves rounding alone
        state = ReceiverState(frame, Algorithm.PRCE)
        for user, c in itertools.product(range(config.k_a), range(config.r)):
            subtract(state, user, c, "replica")
        assert state.g.max() < floor


class TestSweepInvariants:
    def test_power_scale_leaves_reports_unchanged(self):
        # channel_var 4 and noise_var 0.4 make every received matrix exactly
        # twice that of the (1, 0.1) frame on the same stream, so a receiver
        # that scales its assumed powers with channel_var decides the same
        base = SystemConfig(k_a=60, m=32, n_slots=10, n_p=8, n_d=32, r=3, noise_var=0.1, t=3)
        scaled_cfg = dataclasses.replace(base, channel_var=4.0, noise_var=0.4)
        for i in range(20):
            frame = make_frame(base, RandomStream(1, i))
            scaled = make_frame(scaled_cfg, RandomStream(1, i))
            for a, b in zip(frame.slots, scaled.slots):
                np.testing.assert_array_equal(2 * a.p, b.p)
                np.testing.assert_array_equal(2 * a.y, b.y)
            for algorithm in ALL_ALGORITHMS:
                a, b = run_receiver(frame, algorithm), run_receiver(scaled, algorithm)
                np.testing.assert_array_equal(a.decoded, b.decoded)
                assert (a.sweep_count, a.n_up, a.n_pa) == (b.sweep_count, b.n_up, b.n_pa)

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

    def test_subtraction_counts_follow_the_decoded_set(self):
        # each decode is one generator and r - 1 replica subtractions, for
        # every receiver, on frames that lose users and frames that do not
        cfg = SystemConfig(k_a=24, m=16, n_slots=8, n_p=4, n_d=32, r=3, noise_var=0.1, t=3)
        partial = complete = 0
        for i in range(12):
            frame = make_frame(cfg, RandomStream(19, i))
            for algorithm in ALL_ALGORITHMS:
                report = run_receiver(frame, algorithm)
                assert report.n_up == report.decoded_count
                assert report.n_pa == report.decoded_count * (cfg.r - 1)
                partial += 0 < report.decoded_count < cfg.k_a
                complete += report.decoded_count == cfg.k_a
        assert partial >= 5 and complete >= 5

    def test_noiseless_collision_free_decodes_everyone(self):
        # spread 9 users over distinct resources; every algorithm must
        # decode all of them with certainty when there is no noise
        assignments = [[(s, j)] for s in range(3) for j in range(3)]
        frame = manual_frame(assignments, noise_var=0.0)
        for algorithm in ALL_ALGORITHMS:
            assert run_receiver(frame, algorithm).decoded.all()


class TestOneBlasThread:
    """``run_receiver`` runs on one BLAS thread and puts the count back."""

    def test_one_thread_inside_receiver_init_and_restored_after(self, monkeypatch, blas_threads):
        init, seen = ReceiverState.__init__, []

        def recording_init(self, *args, **kwargs):
            seen.append(blas_threads())
            init(self, *args, **kwargs)

        monkeypatch.setattr(cancellation.ReceiverState, "__init__", recording_init)
        frame = make_frame(SystemConfig(k_a=12, m=16, n_slots=6, n_p=8, n_d=16, t=2),
                           RandomStream(20, 0))
        before = blas_threads()
        for algorithm in ALL_ALGORITHMS:
            run_receiver(frame, algorithm)
            assert blas_threads() == before
        assert seen == [[1] * len(before)] * 3  # LOGICAL keeps no state

    def test_restored_when_the_receiver_raises(self, blas_threads):
        frame = make_frame(SystemConfig(k_a=12, m=16, n_slots=6, n_p=8, n_d=16, t=2),
                           RandomStream(20, 0), with_signals=False)
        before = blas_threads()
        with pytest.raises(ValueError, match="without signals"):
            run_receiver(frame, Algorithm.PAB)
        assert blas_threads() == before

    def test_reports_unchanged_without_the_pin(self, monkeypatch):
        # reference-size slots, as a sweep makes them, with BLAS at its default thread count
        frame = make_frame(SystemConfig(k_a=300), RandomStream(21, 0))
        pinned = [run_receiver(frame, algorithm) for algorithm in ALL_ALGORITHMS]
        monkeypatch.setattr(signals, "_blas_thread_controls", lambda: ())
        for algorithm, report in zip(ALL_ALGORITHMS, pinned):
            unpinned = run_receiver(frame, algorithm)
            np.testing.assert_array_equal(unpinned.decoded, report.decoded)
            assert (unpinned.sweep_count, unpinned.r) == (report.sweep_count, report.r)
