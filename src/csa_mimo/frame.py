"""Frame generation for the repetition-based slotted random access protocol.

Each active user places r replicas of one packet in r distinct slots of the
frame, picking an orthogonal pilot uniformly at random in every slot.  The
per-slot uplink observation is the superposition of all replicas through
independent block-fading channels plus additive noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .signals import (
    RandomStream,
    as_integer,
    as_real,
    build_hadamard_pilots,
    complex_normal_segments,
    for_each_slot,
    one_blas_thread,
    qpsk_modulate,
    uniform_bits,
)


# numpy's Generator.choice(n, r, replace=False) uses Floyd's algorithm unless
# n > 10000 and r > n // 50, where it shuffles a tail instead.  The plan draw
# replays Floyd's algorithm only, so configs in the other regime are rejected.
_FLOYD_MAX_SLOTS = 10_000
_FLOYD_MIN_SHARE = 50


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters.  Defaults match the reference uplink setup:

    256 antennas, 64 pilots, 256-symbol payloads, 3 replicas, noise power
    0.1, and a 50 ms latency budget at 1 Msps giving 78 slots per frame.

    ``n_slots`` left as None is derived from the latency budget: the number
    of ``n_p + n_d``-symbol slots that fit twice in ``latency_ms`` at
    ``symbol_rate`` symbols/second.  An explicit ``n_slots`` wins.
    ``dataclasses.replace`` carries the slot count over, so ``replace(config,
    k_a=...)`` keeps it; ``replace(config, latency_ms=..., n_slots=None)``
    derives it again.
    """

    k_a: int = 100              # active users per frame
    m: int = 256                # receive antennas
    n_slots: int | None = None  # slots per frame; None derives it from the latency budget
    n_p: int = 64               # pilot count == pilot length
    n_d: int = 256              # payload symbols per replica
    r: int = 3                  # replicas per user
    noise_var: float = 0.1      # per-entry noise power (linear)
    channel_var: float = 1.0    # per-entry channel power (linear)
    t: int = 10                 # correctable errors per packet
    latency_ms: float = 50.0
    symbol_rate: float = 1e6

    def __post_init__(self):
        for name, minimum in (("k_a", 0), ("m", 1), ("n_slots", 1), ("n_p", 1), ("n_d", 1),
                              ("r", 1), ("t", 0)):
            value = getattr(self, name)
            if not (value is None and name == "n_slots"):
                object.__setattr__(self, name, as_integer(name, value, minimum))
        if self.n_p & (self.n_p - 1) != 0:
            raise ValueError(f"n_p must be a power of two, got {self.n_p}")
        for name, floor in (("noise_var", "nonnegative"), ("channel_var", "positive"),
                            ("latency_ms", "positive"), ("symbol_rate", "positive")):
            object.__setattr__(self, name, as_real(name, getattr(self, name), floor))
        if self.n_slots is None:
            slot = self.n_p + self.n_d
            n = int(self.latency_ms * 1e-3 * self.symbol_rate // (2 * slot))
            if n < 1:
                raise ValueError(f"a latency budget of {self.latency_ms:g} ms at "
                                 f"{self.symbol_rate:g} symbols/s fits no {slot}-symbol slot twice")
            object.__setattr__(self, "n_slots", n)
        if self.r > self.n_slots:
            raise ValueError(f"r={self.r} replicas cannot fit in {self.n_slots} slots")
        if self.n_slots > _FLOYD_MAX_SLOTS and self.r > self.n_slots // _FLOYD_MIN_SHARE:
            raise ValueError(
                f"r={self.r} replicas in {self.n_slots} slots: above {_FLOYD_MAX_SLOTS} "
                f"slots r may be at most n_slots // {_FLOYD_MIN_SHARE} "
                f"= {self.n_slots // _FLOYD_MIN_SHARE}"
            )


@dataclass
class SlotSignal:
    """The received pilot-phase and payload-phase matrices of one slot."""

    p: np.ndarray  # (m, n_p) complex64 from make_frame
    y: np.ndarray  # (m, n_d) complex64 from make_frame


class Resources(NamedTuple):
    """A frame's occupied (slot, pilot) resources, and where each replica sits.

    Entry (u, c) of the two (k_a, r) arrays is user u's replica in slot
    ``slot_indices[u, c]``: its resource's index q into ``ids`` and its
    index among the slot's ``occupants``.
    """

    ids: np.ndarray       # slot * n_p + pilot of each resource some user picked, ascending
    q: np.ndarray
    occupant: np.ndarray


@dataclass
class FrameInstance:
    """One frame's ground truth plus the assembled per-slot observations.

    User u is row u of the three per-user arrays and of ``payloads``, their
    QPSK symbols.  ``payloads``, ``occupants``, the users of each slot, and
    ``resources``, the table of occupied resources every receiver reads,
    are each built once per frame, on first use.
    ``true_channels[slot]`` is the read-only (occupancy x m) array of the
    slot's fading vectors, row i the channel of its i-th occupant in
    ``occupants[slot]``; channels of the same user in different slots are
    independent draws.  ``slots`` is None, and ``true_channels`` empty, when
    the frame was generated for collision-structure-only processing.

    ``make_frame`` stores the channels, ``p``, ``y`` and ``payloads`` as
    complex64.  Receivers keep their state in the signals' dtype, so a frame
    built by hand in complex128, ``payloads`` set too, runs in double precision.
    """

    config: SystemConfig
    slot_indices: np.ndarray    # (k_a, r) int64, distinct slots ascending per row
    pilot_choices: np.ndarray   # (k_a, r) int64, the pilot used in each slot
    payload_bits: np.ndarray    # (k_a, 2*n_d) uint8
    # keyword-only, so a plan tuple of the wrong length cannot fill them
    true_channels: dict = field(default_factory=dict, kw_only=True)  # slot -> (occupancy, m)
    slots: list[SlotSignal] | None = field(default=None, kw_only=True)

    @cached_property
    def payloads(self) -> np.ndarray:
        """Every user's (n_d,) complex64 QPSK symbols, row u user u's."""
        return qpsk_modulate(self.payload_bits).astype(np.complex64)

    @cached_property
    def occupants(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per slot, the users with a replica there, ascending, and their pilots there."""
        flat = self.slot_indices.ravel()
        by_slot = np.argsort(flat, kind="stable")  # stable: users ascending within a slot
        ends = np.cumsum(np.bincount(flat, minlength=self.config.n_slots))[:-1]
        users = np.split(by_slot // self.config.r, ends)
        return list(zip(users, np.split(self.pilot_choices.ravel()[by_slot], ends)))

    @cached_property
    def resources(self) -> Resources:
        """The occupied resources, and each replica's resource and occupant index."""
        slots, k_a = self.slot_indices, self.config.k_a
        ids, q = np.unique(slots * self.config.n_p + self.pilot_choices, return_inverse=True)
        # (slot, user) pairs are distinct, so their rank orders each slot's users
        rank = np.unique(slots * k_a + np.arange(k_a)[:, None], return_inverse=True)[1]
        count = np.bincount(slots.ravel(), minlength=self.config.n_slots)
        occupant = rank.reshape(slots.shape) - (np.cumsum(count) - count)[slots]
        return Resources(ids, q.reshape(slots.shape), occupant)


def _draw_resources(config: SystemConfig, rng: np.random.Generator):
    """Every user's ascending slots and its pilot in each, as two (k_a, r) int64 arrays.

    Consumes the stream exactly as one ``rng.choice(n_slots, r, replace=False)``
    and one ``rng.integers(0, n_p, r)`` per user, in user order, would.  Per
    user that is Floyd's algorithm (draws with bounds n_slots-r+1 ... n_slots;
    a value already picked becomes the step's own bound minus one), the r-1
    draws of choice's final shuffle (bounds r ... 2, ignored here because the
    slots are sorted), then r pilot draws.  numpy's ``integers`` with the
    (k_a, 3r-1) array of those bounds makes them all, in row-major order and
    word for word; only Floyd's clash step is applied here.
    """
    n, r = config.n_slots, config.r
    bounds = np.concatenate(
        (np.arange(n - r + 1, n + 1), np.arange(r, 1, -1), np.full(r, config.n_p))
    )
    values = rng.integers(0, np.broadcast_to(bounds, (config.k_a, bounds.size)))
    slots = values[:, :r]
    for c in range(1, r):
        clash = (slots[:, :c] == slots[:, c, None]).any(axis=1)
        slots[clash, c] = n - r + c
    return np.sort(slots, axis=1), values[:, 2 * r - 1:]


def generate_user_plans(config: SystemConfig, rng: np.random.Generator):
    """Draw every user's slots, pilots and payload bits for one frame.

    Returns ``(slot_indices, pilot_choices, payload_bits)``, the per-user
    arrays of ``FrameInstance`` in its field order.  Slots are chosen
    uniformly without replacement; the pilot is redrawn independently in
    every chosen slot; payload bits are i.i.d. uniform and identical across
    the user's replicas.

    All users' slots and pilots come from one draw that reads the stream as
    the per-user ``Generator.choice``/``integers`` calls the frames were
    first defined by, so a stream gives the same frame; the bits likewise
    read the stream as ``rng.integers(0, 2, ..., dtype=np.uint8)`` does
    (``signals.uniform_bits``).  A numpy that changes those samplers fails
    the golden CSVs (``tests/test_golden.py``) and the oracle tests in
    ``tests/test_frame.py`` and ``tests/test_signals.py``, which keep the
    numpy calls.
    """
    bits = uniform_bits(rng, (config.k_a, 2 * config.n_d))
    slots, pilots = _draw_resources(config, rng)
    return slots, pilots, bits


def assemble_frame(plans, config: SystemConfig, rng: np.random.Generator) -> FrameInstance:
    """Superimpose every replica through a fresh fading draw, then add noise.

    ``plans`` is the tuple of per-user arrays ``generate_user_plans``
    returns.  Per slot, the pilot-phase observation is the sum of channel x
    pilot outer products and the payload-phase observation the sum of
    channel x payload outer products.  Draw order (slot-major,
    user-ascending, then the slot's two noise matrices) is fixed so a given
    stream always yields the same frame.

    Every fading and noise sample is one complex64 ``complex_normal_segments``
    call: per slot the channels, then the pilot and the payload noise, which
    become ``p`` and ``y`` as the products are added in (``noise + products``
    has the bits of ``(0 + products) + noise``).  Single precision rounds at
    about 6e-8, far below the pilot estimates' noise (``sqrt(noise_var / n_p)``).
    The slots' products are added on every CPU that pays (``for_each_slot``).
    """
    m, n_p, n_d, noise = config.m, config.n_p, config.n_d, config.noise_var
    pilot_rows = build_hadamard_pilots(n_p).astype(np.float32)
    frame = FrameInstance(config, *plans, slots=[])
    occupants, payloads = frame.occupants, frame.payloads  # built before the slots' threads
    draws = []
    for users, _ in occupants:
        draws += [((users.size, m), config.channel_var), ((m, n_p), noise), ((m, n_d), noise)]
    arrays = complex_normal_segments(rng, draws, np.complex64)

    def add_replicas(slot: int) -> None:
        (users, pilots), (channels, p, y) = occupants[slot], arrays[3 * slot:3 * slot + 3]
        if users.size:  # users ascending
            p += channels.T @ pilot_rows[pilots]
            y += channels.T @ payloads[users]
        channels.flags.writeable = False  # receivers of a sweep read it in place

    for_each_slot(add_replicas, len(occupants), sum(a.size for a in arrays))
    for slot in range(len(occupants)):
        channels, p, y = arrays[3 * slot:3 * slot + 3]
        frame.true_channels[slot] = channels
        frame.slots.append(SlotSignal(p=p, y=y))
    return frame


def make_frame(
    config: SystemConfig, stream: RandomStream, with_signals: bool = True
) -> FrameInstance:
    """Generate one complete frame trial from a single stream.

    Plans are drawn before any signal randomness, so the collision structure
    of a given stream is the same whether or not signals are materialized
    (``with_signals=False`` supports receivers that only peel the
    user/resource graph).  Signals are assembled on one BLAS thread.
    """
    rng = stream.generator()
    plans = generate_user_plans(config, rng)
    if not with_signals:
        return FrameInstance(config, *plans)
    with one_blas_thread():
        return assemble_frame(plans, config, rng)
