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

A decode attempt on a resource of the three signal receivers demodulates
the combined payload of its pilot and accepts the first undecoded user
within ``t`` errors; a LOGICAL attempt accepts the resource's sole
undecoded user.  The receivers differ otherwise only in the channel
estimate ``subtract`` uses for a decoded user on pilot j of a slot (the
generator slot is where the user was decoded, replica slots hold its
other copies):

=========  ==============================  ==============================
algorithm  generator slot                  replica slot
=========  ==============================  ==============================
SNB        ``||h||^2 = g[slot][j]``        ``||h||^2 = m``
PAB        ``h = phi[slot][:, j]``         ``h = pab_channel_estimate``
PRCE       ``h = true_channels[(u, s)]``   ``h = true_channels[(u, s)]``
LOGICAL    none, removal is perfect        none, removal is perfect
=========  ==============================  ==============================

Each signal receiver keeps, per slot, the pilot estimates ``phi`` (estimated
once from the pilot phase) and the combining gains ``g``; the received payload
matrix ``y`` is the frame's own and is never written:

* SNB also keeps the combining numerators ``f = phi^H y`` and edits the
  user's row of ``f`` and ``g`` in place.
* PAB and PRCE keep, in subtraction order, the estimates ``H`` (k x m) and
  payloads ``X`` (k x n_d) they subtracted from the slot, so the residual
  is ``y - H^T X`` without ever being formed.  The pilots are orthogonal,
  so removing ``h s_j^T`` from the pilot phase only moves ``phi[:, j]`` by
  ``-h``: a subtraction appends ``(h, x)``, updates that column and its
  gain, O(m) work.  The two products of the residual the receiver needs
  are formed on demand: the PAB replica estimate ``y x* - H^T (X x*)`` and
  a decode attempt's numerator ``f_j = phi_j^H y - (H phi_j*)^T X``, each
  O(m n_d + k (m + n_d)) with k at most the slot's occupancy.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .frame import FrameInstance
from .receiver import (
    check_decode_criterion,
    combining_gains,
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

    decoded: np.ndarray     # (k_a,) bool, per-user outcome
    sweep_count: int
    n_up: int               # subtractions applied in generator slots
    n_pa: int               # subtractions applied in replica slots

    @property
    def decoded_count(self) -> int:
        return int(self.decoded.sum())

    @property
    def lost_count(self) -> int:
        return self.decoded.size - self.decoded_count


class ReceiverState:
    """Mutable per-frame receiver state owned by a single worker.

    Every receiver holds the decoded set, the subtraction counters and
    ``stale``, an (n_slots, n_p) bool mask of the resources whose statistics
    changed since their last decode attempt: all start stale, an attempt
    clears its resource and ``subtract`` marks the resources it changed, so
    sweeps skip attempts whose outcome cannot have changed.  LOGICAL holds
    nothing else and needs no signals.

    The signal receivers also hold the per-slot pilot estimates ``phi`` and
    combining gains ``g``; ``y`` is the list of the frame's payload-phase
    matrices, shared and never written.  ``phi`` is estimated once per slot
    and then updated in place by ``subtract``.  SNB also holds the combining
    numerators ``f``.  PAB and PRCE hold instead the first
    ``n_subtracted[s]`` rows of ``subtracted_h[s]`` and ``subtracted_x[s]``,
    the (estimate, payload) pairs removed from slot s, buffers sized to the
    slot's occupancy; ``numerator`` forms ``f_j`` from them.
    """

    def __init__(self, frame: FrameInstance, algorithm: Algorithm | str):
        self.algorithm = Algorithm(algorithm)
        cfg = frame.config
        self.config = cfg
        self.frame = frame
        self.decoded = np.zeros(cfg.k_a, dtype=bool)
        self.n_up = 0
        self.n_pa = 0
        self.sweep_count = 0
        self.stale = np.ones((cfg.n_slots, cfg.n_p), dtype=bool)
        self._applied: set[tuple[int, int]] = set()
        if self.algorithm is Algorithm.LOGICAL:
            return
        if frame.slots is None:
            raise ValueError("frame was generated without signals")
        self.min_gain = cfg.m * RELATIVE_GAIN_FLOOR
        pilots = build_hadamard_pilots(cfg.n_p)
        self.y = [s.y for s in frame.slots]
        self.phi = [estimate_all_pilot_channels(s.p, pilots) for s in frame.slots]
        if self.algorithm is Algorithm.SNB:
            stats = [compute_combining_statistics(phi, y) for phi, y in zip(self.phi, self.y)]
            self.f = [f for f, _ in stats]
            self.g = [g for _, g in stats]
        else:
            self.g = [combining_gains(phi) for phi in self.phi]
            occupancy = np.zeros(cfg.n_slots, dtype=np.int64)
            for plan in frame.plans:
                occupancy[plan.slot_indices] += 1  # a user's slots are distinct
            self.n_subtracted = np.zeros(cfg.n_slots, dtype=np.int64)
            self.subtracted_h = [np.empty((k, cfg.m), dtype=complex) for k in occupancy]
            self.subtracted_x = [np.empty((k, cfg.n_d), dtype=complex) for k in occupancy]

    def subtracted(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """The (estimates, payloads) removed from a PAB/PRCE slot so far."""
        k = self.n_subtracted[slot]
        return self.subtracted_h[slot][:k], self.subtracted_x[slot][:k]

    def numerator(self, slot: int, j: int) -> np.ndarray:
        """Combining numerator ``f_j = phi_j^H y_res`` of pilot j in a slot.

        SNB reads its stored row.  PAB and PRCE form it from the received
        matrix and the slot's subtracted pairs, ``phi_j^H y - (H phi_j*)^T X``.
        """
        if self.algorithm is Algorithm.SNB:
            return self.f[slot][j]
        phi_conj = self.phi[slot][:, j].conj()
        h_sub, x_sub = self.subtracted(slot)
        return phi_conj @ self.y[slot] - (h_sub @ phi_conj) @ x_sub


def pab_channel_estimate(
    y: np.ndarray,
    payload: np.ndarray,
    h_sub: np.ndarray | None = None,
    x_sub: np.ndarray | None = None,
) -> np.ndarray:
    """Estimate a user's channel from the residual payload phase.

    ``h_hat = y_res x^* / ||x||^2`` for the known payload ``x``, where the
    residual ``y_res = y - h_sub^T x_sub`` is the received matrix minus the
    (estimate, payload) rows already subtracted from it (none by default);
    the residual itself is never formed.  Accuracy improves as other users'
    contributions are subtracted before the estimate is taken.
    """
    x_conj = payload.conj()
    energy = float(np.real(x_conj @ payload))
    if energy <= 0:
        raise ValueError("payload has zero energy")
    correlation = y @ x_conj
    if h_sub is not None:
        correlation -= h_sub.T @ (x_sub @ x_conj)
    return correlation / energy


def subtract(state: ReceiverState, user: int, slot: int, mode: str) -> None:
    """Subtract a decoded user from one slot with ``state.algorithm``'s estimate.

    ``mode`` is ``"generator"`` in the slot where the user was just decoded
    (its pilot there carries no other undecoded signal) and ``"replica"``
    in its other slots; the module docstring tables the channel estimate
    each (algorithm, mode) pair uses.  SNB edits only the statistics of the
    user's pilot and marks that resource stale.  PAB and PRCE append the
    (estimate ``h``, payload ``x``) pair to the slot's subtracted rows, do
    ``phi[:, j] -= h`` and recompute ``g[j]`` from the updated column; the
    received matrices are not touched.  Every pilot of the slot is marked
    stale, since every numerator ``f_j`` of the residual changed.  LOGICAL
    only counts the subtraction and marks the whole slot stale without
    looking up the pilot: a re-attempt on a resource whose undecoded users
    did not change repeats its failure.  Subtracting the same (user, slot)
    twice is an error.
    """
    if mode not in ("generator", "replica"):
        raise ValueError(f"unknown mode {mode!r}")
    key = (user, slot)
    if key in state._applied:
        raise RuntimeError(f"user {user} already subtracted in slot {slot}")
    state._applied.add(key)
    generator = mode == "generator"
    if generator:
        state.n_up += 1
    else:
        state.n_pa += 1
    if state.algorithm is Algorithm.LOGICAL:
        state.stale[slot] = True
        return

    plan = state.frame.plans[user]
    j = plan.pilot_in_slot(slot)
    if state.algorithm is Algorithm.SNB:
        norm_sq = float(state.g[slot][j]) if generator else float(state.config.m)
        state.f[slot][j] -= norm_sq * plan.payload
        state.g[slot][j] -= norm_sq
        state.stale[slot, j] = True
        return
    if state.algorithm is Algorithm.PRCE:
        h_est = state.frame.true_channels[key]
    elif generator:
        h_est = state.phi[slot][:, j]
    else:
        h_est = pab_channel_estimate(state.y[slot], plan.payload, *state.subtracted(slot))
    k = state.n_subtracted[slot]
    h = state.subtracted_h[slot][k]
    h[:] = h_est  # a copy, so the update below cannot alias a phi column
    state.subtracted_x[slot][k] = plan.payload
    state.n_subtracted[slot] = k + 1
    phi = state.phi[slot]
    phi[:, j] -= h
    state.g[slot][j] = combining_gains(phi[:, j])
    state.stale[slot] = True


def _decode_attempt(
    state: ReceiverState, slot: int, j: int, candidates: list[int], criterion: str
) -> int | None:
    """The undecoded user an attempt on pilot j of a slot decodes, if any."""
    if state.algorithm is Algorithm.LOGICAL:
        return candidates[0] if len(candidates) == 1 else None
    g = state.g[slot][j]
    if g <= state.min_gain:
        return None
    bits_hat = qpsk_hard_demodulate(state.numerator(slot, j) / g)
    for user in candidates:
        bits = state.frame.plans[user].payload_bits
        if count_errors(bits_hat, bits, criterion) <= state.config.t:
            return user
    return None


def run_receiver(
    frame: FrameInstance,
    algorithm: Algorithm | str,
    *,
    decode_criterion: str = "bit",
) -> DecodeReport:
    """Run the full sweep-until-fixed-point receiver over one frame.

    Sweeps visit (slot, pilot) resources in ascending order; every stale
    resource with an undecoded user gets a decode attempt, and each fresh
    success is subtracted immediately in the generator slot and all
    replica slots.  The loop ends when a sweep produces no new decode.
    Identical (frame, algorithm) inputs always produce the identical
    report.
    """
    algorithm = Algorithm(algorithm)
    check_decode_criterion(decode_criterion)
    if frame.config.k_a == 0:
        return DecodeReport(np.zeros(0, dtype=bool), 0, 0, 0)

    state = ReceiverState(frame, algorithm)
    users_by_resource: dict[tuple[int, int], list[int]] = {}  # user ids, ascending
    for plan in frame.plans:
        for res in zip(plan.slot_indices.tolist(), plan.pilot_choices.tolist()):
            users_by_resource.setdefault(res, []).append(plan.user_id)
    resources = sorted(users_by_resource)

    while True:
        state.sweep_count += 1
        new_decodes = 0
        for res in resources:
            slot, j = res
            if not state.stale[slot, j]:
                continue
            candidates = [u for u in users_by_resource[res] if not state.decoded[u]]
            if not candidates:
                continue
            state.stale[slot, j] = False
            user = _decode_attempt(state, slot, j, candidates, decode_criterion)
            if user is None:
                continue
            state.decoded[user] = True
            subtract(state, user, slot, "generator")
            for s in sorted(frame.plans[user].slot_indices.tolist()):
                if s != slot:
                    subtract(state, user, s, "replica")
            new_decodes += 1
        if state.decoded.all() or new_decodes == 0:
            break

    return DecodeReport(state.decoded, state.sweep_count, state.n_up, state.n_pa)
