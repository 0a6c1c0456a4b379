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

The three signal receivers share one front end per slot: the matched-filter
estimate of every pilot's channel from the pilot phase
(``estimate_all_pilot_channels``) and the maximal-ratio-combining numerators
``f = phi^H y`` and gains ``g = ||phi||^2`` (``combining_gains``) of those
estimates against the payload phase; pilot j's payload estimate is ``f[j] / g[j]``.
A receiver starts slot by slot, its slots spread over the CPUs
(``signals.for_each_slot``), each writing only its own block of state.
A decode attempt on a resource demodulates the combined payload of its
pilot and accepts the first undecoded user within ``t`` errors
(``count_errors``, under one of ``DECODE_CRITERIA``; the singleton
experiment decodes by the same rule).  Packet validation is modeled as
perfect, so a success always yields the true payload and a failure is
always detected.  The receivers differ only in the channel estimate
``subtract`` uses for a decoded user on resource q, pilot j of a slot (the
generator slot is where the user was decoded, replica slots hold its other
copies; i is the user's index among the slot's occupants, and ``phi_q``
the slot's current estimate of pilot j's channel):

=========  ===========================  ==============================================
algorithm  generator slot               replica slot
=========  ===========================  ==============================================
SNB        ``||h||^2 = g[q]``           ``||h||^2 = m channel_var``
PAB        ``h = phi_q``                ``h = (C[:, i] - H^T (G[:, i] * done)) / G[i, i]``
PRCE       ``h = true_channels[s][i]``  ``h = true_channels[s][i]``
=========  ===========================  ==============================================

All four receivers number the resources alike: q indexes the occupied
(slot, pilot) resources in ascending order (``frame.resources``).  Each
signal receiver keeps its per-resource state in one buffer indexed by q,
and per slot a ``done`` mask of the occupants subtracted there.  The
received payload matrix ``y`` is the frame's own and is never written:

* SNB keeps the combining gains ``g`` and numerators ``f = phi^H y`` of
  the occupied resources, cut from the slot's full product so they keep
  its bits, and no ``phi``, a temporary of its start.  A subtraction
  edits the user's ``f[q]`` and ``g[q]`` in place.
* PAB and PRCE keep the pilot estimates ``phi[:, q]`` of the occupied
  resources, estimated once from the pilot phase, and their gains.  They
  address a slot's replicas by occupant index: the users who sent a
  replica there, ascending, with payloads ``X`` (occupancy x n_d).  They
  keep ``H``, one channel row per occupant, so the residual is
  ``y - H^T (X * done[:, None])`` without ever being formed.  The pilots
  are orthogonal, so removing ``h s_j^T`` from the pilot phase only moves
  ``phi_q`` by ``-h``: a subtraction sets its occupant's ``done``, updates
  that column and its gain, O(m) work.  A decode attempt's numerator
  ``f_q = phi_q^H y - ((H phi_q*) * done)^T X`` is formed on demand,
  O((m + occupancy) n_d); the zero weights add exact zeros.
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
from .signals import for_each_slot, one_blas_thread, qpsk_hard_demodulate, walsh_hadamard_transform

# Combining gains at or below m * channel_var * RELATIVE_GAIN_FLOOR are treated
# as unused pilots; a lone user's expected gain is m * channel_var, so this only
# rejects noise.
RELATIVE_GAIN_FLOOR = 1e-6

DECODE_CRITERIA = ("bit", "symbol")


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
    r: int                  # replicas per user

    @property
    def decoded_count(self) -> int:
        return int(self.decoded.sum())

    @property
    def lost_count(self) -> int:
        return self.decoded.size - self.decoded_count

    @property
    def n_up(self) -> int:  # subtractions in generator slots: one per decoded user
        return self.decoded_count

    @property
    def n_pa(self) -> int:  # subtractions in replica slots: r - 1 per decoded user
        return self.decoded_count * (self.r - 1)


def estimate_all_pilot_channels(p: np.ndarray, n_p: int) -> np.ndarray:
    """Matched-filter channel estimates for every one of the ``n_p`` Hadamard pilots.

    Returns an (m, n_p) array whose column j is the pilot-j estimate
    ``p @ s_j^H / ||s_j||^2``: the sum of the channels of all users on pilot
    j plus noise with per-entry variance ``noise_var / n_p``.  Computed as a
    Walsh-Hadamard transform, which is exact for pilot-aligned inputs.

    The transform's result is in Fortran order; the division writes a new
    C-order array, because BLAS may sum an operand of another layout in
    another order, and the combining products keep their bits on this one.
    The result shares no memory with ``p``, as PAB and PRCE update it in
    place.
    """
    if p.shape[1] != n_p:
        raise ValueError(f"pilot phase has {p.shape[1]} symbols, pilot length is {n_p}")
    return np.divide(walsh_hadamard_transform(p), n_p, order="C")


def combining_gains(phi: np.ndarray):
    """Combining gain ``||phi||^2`` of one estimate, or (n_p,) gains of a stack."""
    if phi.ndim == 1:
        return float(np.real(phi.conj() @ phi))
    return np.einsum("ij,ij->j", phi.real, phi.real) + np.einsum(
        "ij,ij->j", phi.imag, phi.imag
    )


class ReceiverState:
    """Mutable per-frame state of a signal receiver, owned by a single worker.

    LOGICAL keeps none and runs ``logical_peel``.  Per-resource state is
    indexed by q (``frame.resources``), per-occupant state by the index
    among ``frame.occupants[s]``; the module docstring says what each
    receiver keeps.  ``stale[q]`` marks the resources whose statistics
    changed since their last decode attempt: all start stale, an attempt
    clears its resource and ``subtract`` marks those it changed, so sweeps
    skip attempts whose outcome cannot have changed.  ``done[s]`` marks the
    occupants subtracted in slot s.  ``g[q]`` holds the combining gains,
    SNB's ``f[q]`` the numerators and PAB/PRCE's ``phi[:, q]`` the pilot
    estimates.  PAB and PRCE also keep per slot the payloads ``x[s]`` and
    the channel rows ``rows[s]``, and PAB the Gram products ``gram[s]``.
    ``y`` lists the frame's payload-phase matrices, shared, never written.
    ``f``, ``phi``, ``rows`` and ``gram`` take the frame's own dtype,
    complex64 from ``make_frame``; ``g`` is float64.
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
        self.min_gain = cfg.m * cfg.channel_var * RELATIVE_GAIN_FLOOR
        self.y = [s.y for s in frame.slots]
        self.done = [np.zeros(users.size, dtype=bool) for users, _ in frame.occupants]
        ids = frame.resources.ids
        # slot s's resources are q in bounds[s]:bounds[s + 1]
        self.bounds = np.searchsorted(ids, np.arange(cfg.n_slots + 1) * cfg.n_p).tolist()
        self.stale = np.ones(ids.size, dtype=bool)
        self.g = np.empty(ids.size)
        # one buffer per receiver: per-slot arrays would pin the freed
        # full-width temporaries between them on the heap
        snb, pab = self.algorithm is Algorithm.SNB, self.algorithm is Algorithm.PAB
        dtype = self.y[0].dtype  # the frame's precision
        if snb:
            self.f = np.empty((ids.size, cfg.n_d), dtype=dtype)
        else:
            self.phi = np.empty((cfg.m, ids.size), dtype=dtype)
            self.x = [frame.payloads[users] for users, _ in frame.occupants]
        if self.algorithm is Algorithm.PRCE:
            self.rows = [frame.true_channels[s] for s in range(cfg.n_slots)]
        elif pab:
            self.rows = [np.empty((x.shape[0], cfg.m), dtype) for x in self.x]
            self.gram = [np.empty((x.shape[0], x.shape[0]), dtype) for x in self.x]

        def start_slot(s: int) -> None:  # writes only slot s's block and entries
            signal, block = frame.slots[s], slice(self.bounds[s], self.bounds[s + 1])
            pilots = ids[block] % cfg.n_p
            phi = estimate_all_pilot_channels(signal.p, cfg.n_p)
            if snb:
                self.f[block] = (phi.conj().T @ signal.y)[pilots]
            else:
                self.phi[:, block] = phi[:, pilots]
            self.g[block] = combining_gains(phi)[pilots]
            if pab:
                x_conj = self.x[s].conj()
                np.matmul(x_conj, signal.y.T, out=self.rows[s])  # C^T: row i is y x_i^*
                np.matmul(self.x[s], x_conj.T, out=self.gram[s])
                check_payload_energy(self.gram[s])

        for_each_slot(start_slot, cfg.n_slots, sum(s.p.size + s.y.size for s in frame.slots))

    def numerator(self, q: int) -> np.ndarray:
        """Combining numerator ``f_q = phi_q^H y_res`` of resource q.

        SNB reads its stored row.  PAB and PRCE form it from the received
        matrix and the slot's subtracted occupants,
        ``phi_q^H y - ((H phi_q*) * done)^T X``.
        """
        if self.algorithm is Algorithm.SNB:
            return self.f[q]
        slot = self.frame.resources.ids[q] // self.config.n_p
        phi_conj = self.phi[:, q].conj()
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
    The energies are checked once, where the payloads' Gram products are
    formed (``check_payload_energy``).
    """
    return (correlation - (h_sub @ gram[..., None])[..., 0]) / energy


def check_payload_energy(gram: np.ndarray) -> None:
    """Reject payloads of zero energy: the diagonal of ``gram``, the Gram
    products ``X X^H`` of one slot's payloads or of a stack of them."""
    if np.any(np.diagonal(gram, axis1=-2, axis2=-1).real <= 0):
        raise ValueError("payload has zero energy")


def subtract(state: ReceiverState, user: int, c: int, mode: str) -> None:
    """Subtract a decoded user's c-th replica with ``state.algorithm``'s estimate.

    The replica sits in slot ``frame.slot_indices[user, c]``, on resource q
    and at occupant index i there (``frame.resources``).  ``mode`` is
    ``"generator"`` in the slot where the user was just decoded (its pilot
    there carries no other undecoded signal) and ``"replica"`` in its other
    slots; the module docstring tables each (algorithm, mode) pair's
    channel estimate.  SNB edits only ``f[q]`` and ``g[q]`` and marks q
    stale.  PAB and PRCE subtract ``rows[i]`` from ``phi[:, q]`` and
    recompute ``g[q]``, PAB first writing its estimate into ``rows[i]``,
    and mark every resource of the slot stale, since every numerator of the
    residual changed.  The received matrices are not touched.  Occupant i
    is marked done; subtracting it twice is an error.
    """
    if mode not in ("generator", "replica"):
        raise ValueError(f"unknown mode {mode!r}")
    frame, cfg = state.frame, state.config
    slot = frame.slot_indices[user, c]
    q, i = frame.resources.q[user, c], frame.resources.occupant[user, c]
    done = state.done[slot]
    if done[i]:
        raise RuntimeError(f"user {user} already subtracted in slot {slot}")
    generator = mode == "generator"
    if state.algorithm is Algorithm.SNB:
        norm_sq = float(state.g[q]) if generator else float(cfg.m * cfg.channel_var)
        state.f[q] -= norm_sq * frame.payloads[user]
        state.g[q] -= norm_sq
        state.stale[q] = True
    else:
        rows, phi_q = state.rows[slot], state.phi[:, q]
        if state.algorithm is Algorithm.PAB:
            if generator:
                rows[i] = phi_q  # a copy, so the update below cannot alias a phi column
            else:
                gram = state.gram[slot]
                rows[i] = pab_channel_estimate(
                    rows[i], rows.T, gram[:, i] * done, gram[i, i].real)
        phi_q -= rows[i]
        state.g[q] = combining_gains(phi_q)
        state.stale[state.bounds[slot]:state.bounds[slot + 1]] = True
    done[i] = True


def check_decode_criterion(criterion: str) -> None:
    """Reject a decode criterion that is not in ``DECODE_CRITERIA``."""
    if criterion not in DECODE_CRITERIA:
        raise ValueError(
            f"unknown decode criterion {criterion!r}, expected one of {DECODE_CRITERIA}"
        )


def count_errors(bits_hat: np.ndarray, bits: np.ndarray, criterion: str) -> np.ndarray:
    """Errors of hard-demodulated bits against the transmitted packet.

    Counts along the last axis and broadcasts over leading ones, so one
    call serves a single attempt or a batch.  ``criterion="bit"`` counts
    wrong bits; ``criterion="symbol"`` counts QPSK symbols with at least one
    wrong bit (nearest-point hard decisions for Gray labeling).  A
    bounded-distance decoder correcting ``t`` errors succeeds iff the count
    is at most ``t``; the simulator knows the transmitted packet, so no
    algebraic codec is needed to decide success.
    """
    check_decode_criterion(criterion)
    if bits_hat.shape[-1] != bits.shape[-1]:
        raise ValueError(
            f"decisions have {bits_hat.shape[-1]} bits, packet has {bits.shape[-1]}"
        )
    wrong = bits_hat != bits
    if criterion == "symbol":
        wrong = wrong[..., 0::2] | wrong[..., 1::2]
    if wrong.ndim == 1:  # one attempt: the count without an axis is ten times cheaper
        return np.count_nonzero(wrong)
    return np.count_nonzero(wrong, axis=-1)


def _decode_attempt(
    state: ReceiverState, q: int, candidates: list[int], criterion: str
) -> int | None:
    """The undecoded user an attempt on resource q decodes, if any."""
    g = state.g[q]
    if g <= state.min_gain:
        return None
    bits_hat = qpsk_hard_demodulate(state.numerator(q) / g)
    for user in candidates:
        bits = state.frame.payload_bits[user]
        if count_errors(bits_hat, bits, criterion) <= state.config.t:
            return user
    return None


@one_blas_thread()
def run_receiver(
    frame: FrameInstance,
    algorithm: Algorithm | str,
    *,
    decode_criterion: str = "bit",
) -> DecodeReport:
    """Run the full sweep-until-fixed-point receiver over one frame.

    Sweeps visit the occupied (slot, pilot) resources in ascending order;
    every stale resource with an undecoded user gets a decode attempt, and
    each fresh success is subtracted immediately in the generator slot and
    all replica slots.  The loop ends with the sweep that decodes the last
    user, or with the first sweep that decodes nobody.  LOGICAL runs
    ``logical_peel`` instead, whose report, sweep count included, is the
    one this loop gives when an attempt decodes a resource's sole undecoded
    user.  Identical (frame, algorithm) inputs always produce the identical
    report.  It runs on one BLAS thread (``signals.one_blas_thread``).
    """
    algorithm = Algorithm(algorithm)
    check_decode_criterion(decode_criterion)
    if frame.config.k_a == 0:
        return DecodeReport(np.zeros(0, dtype=bool), 0, frame.config.r)
    if algorithm is Algorithm.LOGICAL:
        return logical_peel(frame)

    state = ReceiverState(frame, algorithm)
    resources_of = frame.resources.q.tolist()  # per user, per replica
    users_of: list[list[int]] = [[] for _ in frame.resources.ids]  # ascending
    for user, resources in enumerate(resources_of):
        for q in resources:
            users_of[q].append(user)

    sweep_count = 0
    while True:
        sweep_count += 1
        new_decodes = 0
        for q, users in enumerate(users_of):
            if not state.stale[q]:
                continue
            candidates = [u for u in users if not state.decoded[u]]
            if not candidates:
                continue
            state.stale[q] = False
            user = _decode_attempt(state, q, candidates, decode_criterion)
            if user is None:
                continue
            state.decoded[user] = True
            # subtractions in different slots commute
            for c, q2 in enumerate(resources_of[user]):
                subtract(state, user, c, "generator" if q2 == q else "replica")
            new_decodes += 1
        if state.decoded.all() or new_decodes == 0:
            break

    return DecodeReport(state.decoded, sweep_count, frame.config.r)


def logical_peel(frame: FrameInstance) -> DecodeReport:
    """LOGICAL's report on a frame, peeled from a worklist of degree-one resources.

    Resource q (``frame.resources``) keeps its count of undecoded users and
    the XOR of their ids: its last user's id once the count is one.  The
    report, sweep count included, is the one ``run_receiver``'s ascending
    sweeps would give: a resource's count drops only through a subtraction
    in its slot, which marks it stale, so it decodes at its first visit
    after the count reaches one, unless its user decodes elsewhere first.
    So each sweep pops a heap of count-one resources in ascending order,
    and a resource freed behind the one just decoded waits for the next
    sweep.  The count is the sweep that decodes the last user, else one
    past the last sweep with a decode.
    """
    cfg = frame.config
    resources = frame.resources.q  # (k_a, r)
    count = np.bincount(resources.ravel())
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
    return DecodeReport(done, last_decode_sweep + (len(decoded) < cfg.k_a), cfg.r)
