"""Iterative successive interference subtraction over a received frame.

Four interchangeable algorithms share one sweep loop:

* ``SNB``  (squared-norm based): on a decode, subtract only the main
  interfering term from the combining statistics of the user's pilot --
  ``f -= ||h||^2 x`` and ``g -= ||h||^2`` -- leaving the received matrices
  untouched.  The squared channel norm is taken as the measured combining
  gain in the generator slot and as the antenna count in replica slots
  (the normalized norm concentrates at 1 for large arrays).
* ``PAB``  (payload aided): subtract the user's full contribution from the
  residual matrices.  The generator slot uses the matched-filter channel
  estimate captured at decode time; replica slots re-estimate the channel
  by correlating the residual payload phase against the known payload.
* ``PRCE`` (perfect replica channel estimation): as PAB but with the
  ground-truth channels, bounding what any subtraction scheme can achieve.
* ``LOGICAL``: graph peeling on the user/(slot, pilot) bipartite graph;
  any resource holding exactly one undecoded user decodes it and removal
  is perfect.  Needs no signals at all.

The three signal receivers differ only in the channel estimate ``subtract``
uses for a decoded user on pilot j of a slot (the generator slot is where
the user was decoded, replica slots hold its other copies):

=========  ==============================  ==============================
algorithm  generator slot                  replica slot
=========  ==============================  ==============================
SNB        ``||h||^2 = g[slot][j]``        ``||h||^2 = m``
PAB        ``h = phi[slot][:, j]``         ``h = pab_channel_estimate``
PRCE       ``h = true_channels[(u, s)]``   ``h = true_channels[(u, s)]``
=========  ==============================  ==============================

PAB and PRCE never re-estimate a slot: the pilots are orthogonal, so removing
``h s_j^T`` from the pilot phase only moves ``phi[:, j]`` by ``-h``.  ``subtract``
applies that rank-1 update in O(m n_p + m n_d + n_p n_d), not a Walsh-Hadamard
transform of the slot plus an O(m n_p n_d) product.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .frame import FrameInstance
from .receiver import (
    check_decode_criterion,
    compute_combining_statistics,
    count_errors,
    estimate_all_pilot_channels,
)
from .signals import build_hadamard_pilots, qpsk_hard_demodulate

# Combining gains at or below m * RELATIVE_GAIN_FLOOR are treated as unused
# pilots; a lone user's expected gain is m, so this only rejects noise.
RELATIVE_GAIN_FLOOR = 1e-6


class Algorithm(str, enum.Enum):
    SNB = "snb"
    PAB = "pab"
    PRCE = "prce"
    LOGICAL = "logical"


@dataclass
class DecodeReport:
    """Outcome of running a receiver over one frame."""

    decoded_count: int
    lost_count: int
    decoded: np.ndarray     # (k_a,) bool, per-user outcome
    sweep_count: int
    n_up: int               # subtractions applied in generator slots
    n_pa: int               # subtractions applied in replica slots

    def __post_init__(self):
        assert self.decoded_count + self.lost_count == self.decoded.size


class ReceiverState:
    """Mutable per-frame receiver state owned by a single worker.

    Holds the residual payload-phase matrices ``y_res``, the per-slot pilot
    statistics (channel estimates ``phi``, combining numerators ``f`` and
    gains ``g``), the decoded set, and the subtraction counters.  ``phi`` is
    estimated once per slot and then updated in place by ``subtract``.
    ``stats_version`` tracks which (slot, pilot) statistics changed so
    sweeps can skip attempts whose outcome cannot have changed.  SNB never
    modifies the received matrices, so only PAB and PRCE copy ``y``.
    """

    def __init__(self, frame: FrameInstance, algorithm: Algorithm | str):
        if frame.slots is None:
            raise ValueError("frame was generated without signals")
        self.algorithm = Algorithm(algorithm)
        if self.algorithm is Algorithm.LOGICAL:
            raise ValueError("LOGICAL peels the resource graph and keeps no receiver state")
        copy = self.algorithm is not Algorithm.SNB
        cfg = frame.config
        self.config = cfg
        self.frame = frame
        pilots = build_hadamard_pilots(cfg.n_p)
        self.y_res = [s.y.copy() if copy else s.y for s in frame.slots]
        self.phi = [estimate_all_pilot_channels(s.p, pilots) for s in frame.slots]
        stats = [compute_combining_statistics(phi, y) for phi, y in zip(self.phi, self.y_res)]
        self.f = [f for f, _ in stats]
        self.g = [g for _, g in stats]
        self.decoded = np.zeros(cfg.k_a, dtype=bool)
        self.n_up = 0
        self.n_pa = 0
        self.sweep_count = 0
        self.min_gain = cfg.m * RELATIVE_GAIN_FLOOR
        self.stats_version = np.zeros((cfg.n_slots, cfg.n_p), dtype=np.int64)
        self._applied: set[tuple[int, int]] = set()


def pab_channel_estimate(y_residual: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """Estimate a user's channel from the residual payload phase.

    ``h_hat = y @ x^H / ||x||^2`` for the known payload ``x``.  Accuracy
    improves as other users' contributions are subtracted from the residual
    before the estimate is taken.
    """
    energy = float(np.real(payload.conj() @ payload))
    if energy <= 0:
        raise ValueError("payload has zero energy")
    return (y_residual @ payload.conj()) / energy


def subtract(state: ReceiverState, user: int, slot: int, mode: str) -> None:
    """Subtract a decoded user from one slot with ``state.algorithm``'s estimate.

    ``mode`` is ``"generator"`` in the slot where the user was just decoded
    (its pilot there carries no other undecoded signal) and ``"replica"``
    in its other slots; the module docstring tables the channel estimate
    each (algorithm, mode) pair uses.  SNB edits only the statistics of the
    user's pilot.  PAB and PRCE remove ``h x^T`` from ``y_res`` and apply
    the rank-1 update of the module docstring: ``f -= (phi^H h) x^T``,
    ``phi[:, j] -= h``, then ``f[j]`` and ``g[j]`` are recomputed from the
    updated column.  Every pilot of the slot gets a new ``stats_version``.
    Subtracting the same (user, slot) twice is an error.
    """
    if mode not in ("generator", "replica"):
        raise ValueError(f"unknown mode {mode!r}")
    key = (user, slot)
    if key in state._applied:
        raise RuntimeError(f"user {user} already subtracted in slot {slot}")
    state._applied.add(key)
    plan = state.frame.plans[user]
    j = plan.pilot_in_slot(slot)
    generator = mode == "generator"
    if generator:
        state.n_up += 1
    else:
        state.n_pa += 1

    if state.algorithm is Algorithm.SNB:
        norm_sq = float(state.g[slot][j]) if generator else float(state.config.m)
        state.f[slot][j] -= norm_sq * plan.payload
        state.g[slot][j] -= norm_sq
        state.stats_version[slot, j] += 1
        return
    if state.algorithm is Algorithm.PRCE:
        h_est = state.frame.true_channels[key]
    elif generator:
        h_est = state.phi[slot][:, j].copy()  # the column is updated below
    else:
        h_est = pab_channel_estimate(state.y_res[slot], plan.payload)
    phi, y = state.phi[slot], state.y_res[slot]
    y -= np.outer(h_est, plan.payload)
    state.f[slot] -= np.outer(phi.conj().T @ h_est, plan.payload)
    phi[:, j] -= h_est
    state.f[slot][j], state.g[slot][j] = compute_combining_statistics(phi[:, j], y)
    state.stats_version[slot, :] += 1


def _resource_map(frame: FrameInstance) -> dict[tuple[int, int], list[int]]:
    """User ids on every occupied (slot, pilot) resource, ascending."""
    users: dict[tuple[int, int], list[int]] = {}
    for plan in frame.plans:
        for s, j in zip(plan.slot_indices, plan.pilot_choices):
            users.setdefault((int(s), int(j)), []).append(plan.user_id)
    return users


def _build_report(decoded: np.ndarray, sweeps: int, n_up: int, n_pa: int) -> DecodeReport:
    dec = int(decoded.sum())
    return DecodeReport(
        decoded_count=dec,
        lost_count=decoded.size - dec,
        decoded=decoded,
        sweep_count=sweeps,
        n_up=n_up,
        n_pa=n_pa,
    )


def run_receiver(
    frame: FrameInstance,
    algorithm: Algorithm | str,
    *,
    decode_criterion: str = "bit",
    snb_generator_update: bool = True,
) -> DecodeReport:
    """Run the full sweep-until-fixed-point receiver over one frame.

    Sweeps visit (slot, pilot) resources in ascending order; every pilot
    whose combining gain clears the floor gets a decode attempt against the
    undecoded users transmitting on it, and each fresh success is subtracted
    immediately in the generator slot and all replica slots.  The loop ends
    when a sweep produces no new decode.  Identical (frame, algorithm)
    inputs always produce the identical report.
    """
    algorithm = Algorithm(algorithm)
    check_decode_criterion(decode_criterion)
    if algorithm is Algorithm.LOGICAL:
        return logical_peel(frame)

    cfg = frame.config
    if cfg.k_a == 0:
        return _build_report(np.zeros(0, dtype=bool), 0, 0, 0)

    state = ReceiverState(frame, algorithm)
    update_generator = algorithm is not Algorithm.SNB or snb_generator_update
    users_by_resource = _resource_map(frame)
    resources = sorted(users_by_resource)
    last_attempt = {res: -1 for res in resources}

    while True:
        state.sweep_count += 1
        new_decodes = 0
        for res in resources:
            slot, j = res
            version = state.stats_version[slot, j]
            if version <= last_attempt[res]:
                continue
            candidates = [u for u in users_by_resource[res] if not state.decoded[u]]
            if not candidates:
                continue
            last_attempt[res] = version
            g = state.g[slot][j]
            if g <= state.min_gain:
                continue
            bits_hat = qpsk_hard_demodulate(state.f[slot][j] / g)
            for user in candidates:
                plan = frame.plans[user]
                if count_errors(bits_hat, plan.payload_bits, decode_criterion) <= cfg.t:
                    state.decoded[user] = True
                    if update_generator:
                        subtract(state, user, slot, "generator")
                    for s in sorted(int(s) for s in plan.slot_indices if s != slot):
                        subtract(state, user, s, "replica")
                    new_decodes += 1
                    break
        if state.decoded.all() or new_decodes == 0:
            break

    return _build_report(state.decoded, state.sweep_count, state.n_up, state.n_pa)


def logical_peel(frame: FrameInstance) -> DecodeReport:
    """Peel the user/(slot, pilot) bipartite graph to its fixed point.

    Any resource containing exactly one undecoded user decodes that user
    with certainty; the user's replicas are then removed from all its
    resources.  Only the collision structure is consulted.
    """
    cfg = frame.config
    decoded = np.zeros(cfg.k_a, dtype=bool)
    if cfg.k_a == 0:
        return _build_report(decoded, 0, 0, 0)

    users_by_resource = {res: set(users) for res, users in _resource_map(frame).items()}
    resources = sorted(users_by_resource)

    n_up = 0
    n_pa = 0
    sweeps = 0
    while True:
        sweeps += 1
        new_decodes = 0
        for res in resources:
            occupants = users_by_resource[res]
            if len(occupants) != 1:
                continue
            user = next(iter(occupants))
            decoded[user] = True
            n_up += 1
            plan = frame.plans[user]
            for s, j in zip(plan.slot_indices, plan.pilot_choices):
                other = (int(s), int(j))
                users_by_resource[other].discard(user)
                if other != res:
                    n_pa += 1
            new_decodes += 1
        if decoded.all() or new_decodes == 0:
            break

    return _build_report(decoded, sweeps, n_up, n_pa)
