"""Iterative successive interference subtraction over a received frame.

Four receivers decode a frame in sweeps over its (slot, pilot) resources,
in ascending order, and subtract every replica of a user as soon as it
decodes.  The three signal receivers share one sweep loop; LOGICAL, the
collision-channel bound, peels from a worklist instead (``logical_peel``)
and reports the same sweeps:

* ``SNB``  (squared-norm based): on a decode, subtract only the main
  interfering term from the combining statistics of the user's pilot --
  ``f -= ||h||^2 x`` and ``g -= ||h||^2`` -- leaving the received matrices
  untouched.  The squared channel norm is taken as the measured combining
  gain in the generator slot and as its mean, the antenna count times the
  channel variance, in replica slots (``||h||^2 / m`` concentrates at
  ``channel_var`` for large arrays).
* ``PAB``  (payload aided): subtract the user's full contribution from the
  residual matrices.  The generator slot uses the matched-filter channel
  estimate captured at decode time; replica slots re-estimate the channel
  by correlating the residual payload phase against the known payload.
* ``PRCE`` (perfect replica channel estimation): as PAB but with the
  ground-truth channels, bounding what any subtraction scheme can achieve.
* ``LOGICAL``: graph peeling on the user/(slot, pilot) bipartite graph;
  any resource holding exactly one undecoded user decodes it and removal
  is perfect.  Needs no signals at all, and keeps per resource only its
  count of undecoded users and the XOR of their ids.

A decode attempt on a resource of the three signal receivers demodulates
the combined payload of its pilot and accepts the first undecoded user
within ``t`` errors.  They differ otherwise only in the channel estimate
``subtract`` uses for a decoded user on pilot j of a slot (the generator
slot is where the user was decoded, replica slots hold its other copies;
i is the user's index among the slot's occupants, and ``phi_j`` the
slot's current estimate of pilot j's channel):

=========  ===========================  ==============================================
algorithm  generator slot               replica slot
=========  ===========================  ==============================================
SNB        ``||h||^2 = g[slot][j]``     ``||h||^2 = m channel_var``
PAB        ``h = phi_j``                ``h = (C[:, i] - H^T (G[:, i] * done)) / G[i, i]``
PRCE       ``h = true_channels[s][i]``  ``h = true_channels[s][i]``
=========  ===========================  ==============================================

Each signal receiver keeps, per slot, the combining gains ``g`` of all n_p
pilots, and per-pilot state only for the occupied pilots, those some user
picked in the slot (about 27 of 64 at k_a=900), in one buffer per receiver
with a block per slot; ``occupied_index`` maps a pilot to its place in its
slot's block.  The received payload matrix ``y`` is the frame's own and is
never written:

* SNB keeps the occupied rows of the combining numerators ``f = phi^H y``,
  cut from the full product so they keep its bits, and no ``phi``, a
  temporary of its start.  A subtraction edits the user's row of ``f`` and
  its ``g`` in place.
* PAB and PRCE keep the occupied columns of the pilot estimates ``phi``,
  estimated once from the pilot phase.  They address a slot's replicas by
  occupant index: the users who sent a replica there, ascending, with
  payloads ``X`` (occupancy x n_d).  They keep a ``done`` mask of the
  occupants subtracted and ``H``, one channel row per occupant, so the
  residual is ``y - H^T (X * done[:, None])`` without ever being formed.
  The pilots are orthogonal, so removing ``h s_j^T`` from the pilot phase
  only moves ``phi_j`` by ``-h``: a subtraction sets its occupant's ``done``,
  updates that column and its gain, O(m) work.  A decode attempt's
  numerator ``f_j = phi_j^H y - ((H phi_j*) * done)^T X`` is formed on
  demand, O((m + occupancy) n_d); the zero weights add exact zeros.
* PRCE's ``H`` is the frame's ``true_channels[s]``, read in place.  PAB's
  starts as ``C^T``, the correlations ``C = y X^H`` (m x occupancy), and
  row i takes occupant i's estimate when i is subtracted: column i of C is
  read only until then.  PAB also keeps the Gram products ``G = X X^H``.
  Each is one product when the receiver starts.  The replica estimate of
  occupant i is the matched filter ``y_res x_i* / ||x_i||^2`` of the
  residual, ``(C[:, i] - H^T (G[:, i] * done)) / G[i, i]``
  (``pab_channel_estimate``): O(m occupancy) work, and no pass over ``y``.
"""
from __future__ import annotations

import enum
import heapq
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
from .signals import qpsk_hard_demodulate

# Combining gains at or below m * channel_var * RELATIVE_GAIN_FLOOR are treated
# as unused pilots; a lone user's expected gain is m * channel_var, so this only
# rejects noise.
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

    It serves the signal receivers; LOGICAL has no signal state and runs
    ``logical_peel``.  The state holds the decoded set, the subtraction
    counters and ``stale``, an (n_slots, n_p) bool mask of the resources
    whose statistics changed since their last decode attempt: all start
    stale, an attempt clears its resource and ``subtract`` marks the
    resources it changed, so sweeps skip attempts whose outcome cannot have
    changed.

    It also holds, per slot, the (n_p,) combining gains ``g``; ``y`` is the
    list of the frame's payload-phase matrices, shared and never written.
    Per-pilot state is kept for the occupied pilots only, the pilots in
    ``frame.occupants[s]``: ``occupied_index[s, j]`` is pilot j's index in
    slot s's block, and n_p, which indexes no block, where nobody picked
    j.  SNB holds the combining numerators ``f[s]`` (occupied x n_d),
    row-block views of one buffer, and no pilot estimates.  PAB and PRCE
    hold the pilot estimates ``phi[s]`` (m x occupied), column-block views
    of one buffer, estimated once per slot and then updated in place by
    ``subtract``.  They also hold, per slot s and indexed by occupant
    (position in ``frame.occupants[s]``'s ascending users), the
    payloads ``x[s]``, the mask ``done[s]`` of the occupants subtracted and
    the channel rows ``rows[s]`` (occupancy x m); ``numerator`` forms
    ``f_j`` from them.  PRCE's ``rows[s]`` is the frame's read-only
    ``true_channels[s]``.  PAB's row i holds the correlation ``y x_i^*``
    (row i of ``C^T``) until occupant i is subtracted and its estimate
    after; PAB also holds the Gram products ``gram[s]`` (``G = X X^H``).  A
    replica estimate reads them instead of ``y``.
    """

    def __init__(self, frame: FrameInstance, algorithm: Algorithm | str):
        self.algorithm = Algorithm(algorithm)
        if self.algorithm is Algorithm.LOGICAL:
            raise ValueError("LOGICAL keeps no signal state: run it with logical_peel")
        if frame.slots is None:
            raise ValueError("frame was generated without signals")
        cfg = frame.config
        self.config = cfg
        self.frame = frame
        self.decoded = np.zeros(cfg.k_a, dtype=bool)
        self.n_up = 0
        self.n_pa = 0
        self.sweep_count = 0
        self.stale = np.ones((cfg.n_slots, cfg.n_p), dtype=bool)
        self._applied: set[tuple[int, int]] = set()
        self.min_gain = cfg.m * cfg.channel_var * RELATIVE_GAIN_FLOOR
        self.y = [s.y for s in frame.slots]
        occupied = np.zeros((cfg.n_slots, cfg.n_p), dtype=bool)
        occupied[frame.slot_indices, frame.pilot_choices] = True
        self.occupied_index = np.where(occupied, occupied.cumsum(axis=1) - 1, cfg.n_p)
        # one buffer per receiver, a block per slot: per-slot arrays would pin
        # the freed full-width temporaries between them on the heap
        total, ends = occupied.sum(), occupied.sum(axis=1).cumsum()[:-1]
        snb = self.algorithm is Algorithm.SNB
        if snb:
            self.f = np.split(np.empty((total, cfg.n_d), dtype=complex), ends)
        else:
            self.phi = np.split(np.empty((cfg.m, total), dtype=complex), ends, axis=1)
        self.g = []
        for s, signal in enumerate(frame.slots):
            phi = estimate_all_pilot_channels(signal.p, cfg.n_p)
            if snb:
                f, g = compute_combining_statistics(phi, signal.y)
                self.f[s][:] = f[occupied[s]]
            else:
                g = combining_gains(phi)
                self.phi[s][:] = phi[:, occupied[s]]
            self.g.append(g)
        if not snb:
            self.x = [frame.payloads[users] for users, _ in frame.occupants]
            self.done = [np.zeros(x.shape[0], dtype=bool) for x in self.x]
        if self.algorithm is Algorithm.PRCE:
            self.rows = [frame.true_channels[s] for s in range(cfg.n_slots)]
        elif self.algorithm is Algorithm.PAB:
            self.rows, self.gram = [], []
            for x, y in zip(self.x, self.y):
                x_conj = x.conj()
                self.rows.append(x_conj @ y.T)  # C^T: row i is y x_i^*
                self.gram.append(x @ x_conj.T)

    def numerator(self, slot: int, j: int) -> np.ndarray:
        """Combining numerator ``f_j = phi_j^H y_res`` of pilot j in a slot.

        SNB reads its stored row.  PAB and PRCE form it from the received
        matrix and the slot's subtracted occupants,
        ``phi_j^H y - ((H phi_j*) * done)^T X``.
        """
        k = self.occupied_index[slot, j]
        if self.algorithm is Algorithm.SNB:
            return self.f[slot][k]
        phi_conj = self.phi[slot][:, k].conj()
        weights = (self.rows[slot] @ phi_conj) * self.done[slot]
        return phi_conj @ self.y[slot] - weights @ self.x[slot]


def pab_channel_estimate(
    correlation: np.ndarray, h_sub: np.ndarray, gram: np.ndarray, energy
) -> np.ndarray:
    """Estimate a user's channel from the residual payload phase, by Gram products.

    The estimate is the matched filter ``y_res x^* / ||x||^2`` of the known
    payload ``x``, where the residual ``y_res = y - H X`` is the received
    matrix ``y`` minus the k estimates already subtracted, the columns of
    ``h_sub`` (m x k), times their payloads, the rows of X.  It takes the
    products with ``x^*`` instead of the residual: ``correlation = y x^*``
    (m,), ``gram = X x^*`` (k,) and ``energy = ||x||^2``, and returns
    ``(correlation - h_sub gram) / energy``, O(m k) work.  Leading axes
    broadcast, so one call serves a batch of slots.  Accuracy improves as
    other users' contributions are subtracted before the estimate is taken.
    """
    if np.any(energy <= 0):
        raise ValueError("payload has zero energy")
    return (correlation - (h_sub @ gram[..., None])[..., 0]) / energy


def subtract(state: ReceiverState, user: int, slot: int, j: int, mode: str) -> None:
    """Subtract a decoded user, on pilot j of a slot, with ``state.algorithm``'s estimate.

    ``mode`` is ``"generator"`` in the slot where the user was just decoded
    (its pilot there carries no other undecoded signal) and ``"replica"``
    in its other slots; the module docstring tables the channel estimate
    each (algorithm, mode) pair uses.  SNB edits only the statistics of the
    user's pilot and marks that resource stale.  PAB and PRCE mark the
    user's occupant index i done, subtract ``rows[i]`` from pilot j's column
    of ``phi`` and recompute ``g[j]`` from it; PAB first writes its estimate
    into ``rows[i]``.  The received matrices are not touched.  Every pilot of
    the slot is marked stale, since every numerator ``f_j`` of the residual
    changed.  Subtracting the same (user, slot) twice is an error.
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
    cfg = state.config
    if state.algorithm is Algorithm.SNB:
        norm_sq = float(state.g[slot][j]) if generator else float(cfg.m * cfg.channel_var)
        state.f[slot][state.occupied_index[slot, j]] -= norm_sq * state.frame.payloads[user]
        state.g[slot][j] -= norm_sq
        state.stale[slot, j] = True
        return
    i = np.searchsorted(state.frame.occupants[slot][0], user)  # index among occupants
    rows, done = state.rows[slot], state.done[slot]
    phi_j = state.phi[slot][:, state.occupied_index[slot, j]]
    if state.algorithm is Algorithm.PAB:
        if generator:
            rows[i] = phi_j  # a copy, so the update below cannot alias a phi column
        else:
            gram = state.gram[slot]
            rows[i] = pab_channel_estimate(rows[i], rows.T, gram[:, i] * done, gram[i, i].real)
    done[i] = True
    phi_j -= rows[i]
    state.g[slot][j] = combining_gains(phi_j)
    state.stale[slot] = True


def _decode_attempt(
    state: ReceiverState, slot: int, j: int, candidates: list[int], criterion: str
) -> int | None:
    """The undecoded user an attempt on pilot j of a slot decodes, if any."""
    g = state.g[slot][j]
    if g <= state.min_gain:
        return None
    bits_hat = qpsk_hard_demodulate(state.numerator(slot, j) / g)
    for user in candidates:
        bits = state.frame.payload_bits[user]
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
    replica slots.  The loop ends with the sweep that decodes the last
    user, or with the first sweep that decodes nobody.  LOGICAL runs
    ``logical_peel`` instead, whose report, sweep count included, is the
    one this loop gives when an attempt decodes a resource's sole undecoded
    user.  Identical (frame, algorithm) inputs always produce the identical
    report.
    """
    algorithm = Algorithm(algorithm)
    check_decode_criterion(decode_criterion)
    if frame.config.k_a == 0:
        return DecodeReport(np.zeros(0, dtype=bool), 0, 0, 0)
    if algorithm is Algorithm.LOGICAL:
        return logical_peel(frame)

    state = ReceiverState(frame, algorithm)
    slots_of, pilots_of = frame.slot_indices.tolist(), frame.pilot_choices.tolist()
    users_by_resource: dict[tuple[int, int], list[int]] = {}  # user ids, ascending
    for slot, (users, pilots) in enumerate(frame.occupants):
        for user, j in zip(users.tolist(), pilots.tolist()):
            users_by_resource.setdefault((slot, j), []).append(user)
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
            subtract(state, user, slot, j, "generator")
            for s, pilot in zip(slots_of[user], pilots_of[user]):
                if s != slot:
                    subtract(state, user, s, pilot, "replica")
            new_decodes += 1
        if state.decoded.all() or new_decodes == 0:
            break

    return DecodeReport(state.decoded, state.sweep_count, state.n_up, state.n_pa)


def logical_peel(frame: FrameInstance) -> DecodeReport:
    """LOGICAL's report on a frame, peeled from a worklist of degree-one resources.

    Resource ``q = slot * n_p + j`` keeps its count of undecoded users and
    the XOR of their ids: its last user's id once the count is one.  The
    report, sweep count included, is the one ``run_receiver``'s ascending
    sweeps would give: a resource's count drops only through a subtraction
    in its slot, which marks it stale, so it decodes at its first visit
    after the count reaches one, unless its user decodes elsewhere first.
    So each sweep pops a heap of count-one resources in ascending order,
    and a resource freed behind the one just decoded waits for the next
    sweep.  The count is the sweep that decodes the last user, else one
    past the last sweep with a decode.  Each decode is one generator and
    r - 1 replica subtractions.
    """
    cfg = frame.config
    resources = frame.slot_indices * cfg.n_p + frame.pilot_choices  # (k_a, r)
    count = np.bincount(resources.ravel(), minlength=cfg.n_slots * cfg.n_p)
    owner = np.zeros(count.size, dtype=np.int64)
    np.bitwise_xor.at(owner, resources.ravel(), np.arange(resources.size) // cfg.r)
    heap = np.flatnonzero(count == 1).tolist()  # ascending, so already a heap
    count, owner, resources_of = count.tolist(), owner.tolist(), resources.tolist()
    decoded: list[int] = []
    sweep = last_decode_sweep = 0
    while heap:
        sweep += 1
        next_sweep = []
        while heap:
            q = heapq.heappop(heap)
            if count[q] != 1:
                continue  # its user decoded at another resource
            user = owner[q]
            decoded.append(user)
            last_decode_sweep = sweep
            for q2 in resources_of[user]:
                count[q2] -= 1
                owner[q2] ^= user
                if count[q2] == 1:
                    if q2 > q:
                        heapq.heappush(heap, q2)
                    else:
                        next_sweep.append(q2)
        heapq.heapify(next_sweep)
        heap = next_sweep

    done = np.zeros(cfg.k_a, dtype=bool)
    done[decoded] = True
    sweep_count = last_decode_sweep + (len(decoded) < cfg.k_a)
    return DecodeReport(done, sweep_count, len(decoded), len(decoded) * (cfg.r - 1))
