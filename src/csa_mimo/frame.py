"""Frame generation for the repetition-based slotted random access protocol.

Each active user places r replicas of one packet in r distinct slots of the
frame, picking an orthogonal pilot uniformly at random in every slot.  The
per-slot uplink observation is the superposition of all replicas through
independent block-fading channels plus additive noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .signals import (
    RandomStream,
    build_hadamard_pilots,
    qpsk_modulate,
    standard_normal_segments,
)


# numpy's Generator.choice(n, r, replace=False) uses Floyd's algorithm unless
# n > 10000 and r > n // 50, where it shuffles a tail instead.  The plan draw
# replays Floyd's algorithm only, so configs in the other regime are rejected.
_FLOYD_MAX_SLOTS = 10_000
_FLOYD_MIN_SHARE = 50


def compute_slot_count(latency_ms: float, symbol_rate: float, n_p: int, n_d: int) -> int:
    """Number of slots that fit the latency budget.

    A slot carries ``n_p`` pilot plus ``n_d`` payload symbols; the frame must
    fit twice within ``latency_ms`` at ``symbol_rate`` symbols/second.
    """
    if latency_ms <= 0 or symbol_rate <= 0 or n_p <= 0 or n_d <= 0:
        raise ValueError("latency, symbol rate and slot dimensions must be positive")
    symbols_in_budget = latency_ms * 1e-3 * symbol_rate
    return int(symbols_in_budget // (2 * (n_p + n_d)))


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters.  Defaults match the reference uplink setup:

    256 antennas, 64 pilots, 256-symbol payloads, 3 replicas, noise power
    0.1, and a 50 ms latency budget at 1 Msps giving 78 slots per frame.
    """

    k_a: int = 100              # active users per frame
    m: int = 256                # receive antennas
    n_slots: int = 78           # slots per frame
    n_p: int = 64               # pilot count == pilot length
    n_d: int = 256              # payload symbols per replica
    r: int = 3                  # replicas per user
    noise_var: float = 0.1      # per-entry noise power (linear)
    channel_var: float = 1.0    # per-entry channel power (linear)
    t: int = 10                 # correctable errors per packet
    latency_ms: float = 50.0
    symbol_rate: float = 1e6

    def __post_init__(self):
        if self.k_a < 0:
            raise ValueError(f"k_a must be nonnegative, got {self.k_a}")
        for name in ("m", "n_slots", "n_p", "n_d", "r"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_p & (self.n_p - 1) != 0:
            raise ValueError(f"n_p must be a power of two, got {self.n_p}")
        if self.r > self.n_slots:
            raise ValueError(f"r={self.r} replicas cannot fit in {self.n_slots} slots")
        if self.n_slots > _FLOYD_MAX_SLOTS and self.r > self.n_slots // _FLOYD_MIN_SHARE:
            raise ValueError(
                f"r={self.r} replicas in {self.n_slots} slots: above {_FLOYD_MAX_SLOTS} "
                f"slots r may be at most n_slots // {_FLOYD_MIN_SHARE} "
                f"= {self.n_slots // _FLOYD_MIN_SHARE}"
            )
        if self.noise_var < 0:
            raise ValueError(f"noise_var must be nonnegative, got {self.noise_var}")
        if self.channel_var <= 0:
            raise ValueError(f"channel_var must be positive, got {self.channel_var}")
        if self.t < 0:
            raise ValueError(f"t must be nonnegative, got {self.t}")

    @classmethod
    def from_latency(cls, **kwargs) -> "SystemConfig":
        """Build a config with ``n_slots`` derived from the latency budget."""
        base = cls(**kwargs)
        n = compute_slot_count(base.latency_ms, base.symbol_rate, base.n_p, base.n_d)
        return replace(base, n_slots=n)


@dataclass
class SlotSignal:
    """The received pilot-phase and payload-phase matrices of one slot."""

    p: np.ndarray  # (m, n_p) complex
    y: np.ndarray  # (m, n_d) complex


@dataclass
class FrameInstance:
    """One frame's ground truth plus the assembled per-slot observations.

    User u is row u of the four per-user arrays.  ``true_channels[(u, slot)]``
    holds the fading vector of each transmitted replica; channels of the
    same user in different slots are independent draws.  ``slots`` is None
    when the frame was generated for collision-structure-only processing.
    """

    config: SystemConfig
    slot_indices: np.ndarray    # (k_a, r) int64, distinct slots ascending per row
    pilot_choices: np.ndarray   # (k_a, r) int64, the pilot used in each slot
    payload_bits: np.ndarray    # (k_a, 2*n_d) uint8
    payloads: np.ndarray        # (k_a, n_d) complex QPSK symbols
    true_channels: dict = field(default_factory=dict)
    slots: list[SlotSignal] | None = None


def _bounded_draws(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """Uniform integers in ``[0, b)`` for every bound ``b > 1``, in row-major order.

    Replays numpy's Lemire sampler: a draw takes the next 32-bit word ``w``
    and returns ``(w * b) >> 32``, unless the low half of ``w * b`` is below
    ``2**32 mod b``; then ``w`` is dropped and the following word tried.
    ``integers(0, 2**32, dtype=uint32)`` takes exactly one word per element,
    so the generator ends where the same sequence of bounded calls leaves it.
    """
    flat = bounds.ravel().astype(np.uint64)
    thresholds = np.uint64(2**32) % flat
    words = rng.integers(0, 2**32, size=flat.size, dtype=np.uint32).astype(np.uint64)
    first = 0
    while True:
        low = (words[first:] * flat[first:]) & np.uint64(0xFFFFFFFF)
        rejected = np.flatnonzero(low < thresholds[first:])
        if rejected.size == 0:
            break
        first += int(rejected[0])
        extra = rng.integers(0, 2**32, size=1, dtype=np.uint32).astype(np.uint64)
        words = np.concatenate((words[:first], words[first + 1:], extra))
    return ((words * flat) >> np.uint64(32)).astype(np.int64).reshape(bounds.shape)


def _draw_resources(config: SystemConfig, rng: np.random.Generator):
    """Every user's ascending slots and its pilot in each, as two (k_a, r) int64 arrays.

    Consumes the stream exactly as one ``rng.choice(n_slots, r, replace=False)``
    and one ``rng.integers(0, n_p, r)`` per user, in user order, would.  Per
    user that is Floyd's algorithm (draws with bounds n_slots-r+1 ... n_slots;
    a value already picked becomes the step's own bound minus one), the r-1
    draws of choice's final shuffle (bounds r ... 2, ignored here because the
    slots are sorted), then r pilot draws.  A bound of 1 takes no word.
    """
    n, r, k_a = config.n_slots, config.r, config.k_a
    bounds = np.concatenate(
        (np.arange(n - r + 1, n + 1), np.arange(r, 1, -1), np.full(r, config.n_p))
    )
    drawn = bounds > 1
    values = np.zeros((k_a, bounds.size), dtype=np.int64)
    values[:, drawn] = _bounded_draws(rng, np.broadcast_to(bounds[drawn], (k_a, drawn.sum())))
    slots = values[:, :r]
    for c in range(1, r):
        clash = (slots[:, :c] == slots[:, c, None]).any(axis=1)
        slots[clash, c] = n - r + c
    return np.sort(slots, axis=1), values[:, 2 * r - 1:]


def generate_user_plans(config: SystemConfig, rng: np.random.Generator):
    """Draw every user's slots, pilots and payload for one frame.

    Returns ``(slot_indices, pilot_choices, payload_bits, payloads)``, the
    per-user arrays of ``FrameInstance`` in its field order.  Slots are
    chosen uniformly without replacement; the pilot is redrawn
    independently in every chosen slot; payload bits are i.i.d. uniform and
    identical across the user's replicas.

    All users' slots and pilots come from one vectorised draw that replays,
    word for word, the per-user ``Generator.choice``/``integers`` calls the
    frames were first defined by, so a stream gives the same frame.  This
    depends on numpy's samplers; a numpy that changes them fails the golden
    CSVs (``tests/test_golden.py``) and the oracle test in
    ``tests/test_frame.py``, which keeps the per-user calls.
    """
    bits = rng.integers(0, 2, size=(config.k_a, 2 * config.n_d), dtype=np.uint8)
    payloads = qpsk_modulate(bits)
    slots, pilots = _draw_resources(config, rng)
    return slots, pilots, bits, payloads


def assemble_frame(plans, config: SystemConfig, rng: np.random.Generator) -> FrameInstance:
    """Superimpose every replica through a fresh fading draw, then add noise.

    ``plans`` is the tuple of per-user arrays ``generate_user_plans``
    returns.  Per slot, the pilot-phase observation is the sum of channel x
    pilot outer products and the payload-phase observation the sum of
    channel x payload outer products.  Draw order (slot-major,
    user-ascending, then the slot's two noise matrices) is fixed so a given
    stream always yields the same frame.

    The whole frame is one ``standard_normal_segments`` draw.  Per slot its
    segments are the channels (occupancy x m complex entries), then the
    pilot noise (m x n_p) and the payload noise (m x n_d), the two noise
    segments only when ``noise_var > 0``.  Each slot's channel rows, ``p``
    and ``y`` are views into that draw, scaled in place as
    ``complex_normal`` scales, and the outer products are added into the
    noise views: ``noise + products`` has the bits of ``(0 + products) +
    noise``.
    """
    m, n_p, n_d = config.m, config.n_p, config.n_d
    pilot_rows = build_hadamard_pilots(n_p).astype(float)
    frame = FrameInstance(config, *plans, slots=[])
    occupants = [np.nonzero(frame.slot_indices == slot) for slot in range(config.n_slots)]
    noisy = config.noise_var > 0
    sizes = []
    for users, _ in occupants:
        sizes += [2 * users.size * m] + ([2 * m * n_p, 2 * m * n_d] if noisy else [])
    segments = iter(standard_normal_segments(rng, sizes))
    channel_scale = np.sqrt(config.channel_var / 2.0)
    noise_scale = np.sqrt(config.noise_var / 2.0)

    for slot, (users, replicas) in enumerate(occupants):  # users ascending
        channels = next(segments).view(complex).reshape(users.size, m)
        channels *= channel_scale
        if noisy:
            p = next(segments).view(complex).reshape(m, n_p)
            y = next(segments).view(complex).reshape(m, n_d)
            p *= noise_scale
            y *= noise_scale
        else:
            p = np.zeros((m, n_p), dtype=complex)
            y = np.zeros((m, n_d), dtype=complex)
        if users.size:
            p += channels.T @ pilot_rows[frame.pilot_choices[users, replicas]]
            y += channels.T @ frame.payloads[users]
            frame.true_channels.update(zip([(u, slot) for u in users.tolist()], channels))
        frame.slots.append(SlotSignal(p=p, y=y))
    return frame


def make_frame(
    config: SystemConfig, stream: RandomStream, with_signals: bool = True
) -> FrameInstance:
    """Generate one complete frame trial from a single stream.

    Plans are drawn before any signal randomness, so the collision structure
    of a given stream is the same whether or not signals are materialized
    (``with_signals=False`` supports receivers that only peel the
    user/resource graph).
    """
    rng = stream.generator()
    plans = generate_user_plans(config, rng)
    if not with_signals:
        return FrameInstance(config, *plans)
    return assemble_frame(plans, config, rng)
