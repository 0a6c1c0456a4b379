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
    complex_normal,
    qpsk_modulate,
)


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


@dataclass(frozen=True)
class UserPlan:
    """One user's transmission schedule and payload for a frame."""

    user_id: int
    slot_indices: np.ndarray    # (r,) distinct slots, ascending
    pilot_choices: np.ndarray   # (r,) pilot index used in each slot
    payload_bits: np.ndarray    # (2*n_d,) uint8
    payload: np.ndarray         # (n_d,) complex QPSK symbols


@dataclass
class SlotSignal:
    """The received pilot-phase and payload-phase matrices of one slot."""

    p: np.ndarray  # (m, n_p) complex
    y: np.ndarray  # (m, n_d) complex


@dataclass
class FrameInstance:
    """One frame's ground truth plus the assembled per-slot observations.

    ``true_channels[(user_id, slot)]`` holds the fading vector of each
    transmitted replica; channels of the same user in different slots are
    independent draws.  ``slots`` is None when the frame was generated for
    collision-structure-only processing.
    """

    config: SystemConfig
    plans: list[UserPlan]
    true_channels: dict = field(default_factory=dict)
    slots: list[SlotSignal] | None = None


def generate_user_plans(config: SystemConfig, rng: np.random.Generator) -> list[UserPlan]:
    """Draw every user's slots, pilots and payload for one frame.

    Slots are chosen uniformly without replacement; the pilot is redrawn
    independently in every chosen slot; payload bits are i.i.d. uniform and
    identical across the user's replicas.
    """
    if config.r > config.n_slots:
        raise ValueError(f"r={config.r} replicas cannot fit in {config.n_slots} slots")
    all_bits = rng.integers(0, 2, size=(config.k_a, 2 * config.n_d), dtype=np.uint8)
    payloads = qpsk_modulate(all_bits)
    plans = []
    for uid in range(config.k_a):
        slots = np.sort(rng.choice(config.n_slots, size=config.r, replace=False))
        pilots = rng.integers(0, config.n_p, size=config.r)
        plans.append(
            UserPlan(
                user_id=uid,
                slot_indices=slots,
                pilot_choices=pilots,
                payload_bits=all_bits[uid],
                payload=payloads[uid],
            )
        )
    return plans


def assemble_frame(
    plans: list[UserPlan], config: SystemConfig, rng: np.random.Generator
) -> FrameInstance:
    """Superimpose every replica through a fresh fading draw, then add noise.

    Per slot, the pilot-phase observation is the sum of channel x pilot outer
    products and the payload-phase observation the sum of channel x payload
    outer products.  Draw order (slot-major, user-ascending, then the slot's
    two noise matrices) is fixed so a given stream always yields the same frame.
    """
    pilot_rows = build_hadamard_pilots(config.n_p).sequences.astype(float)
    frame = FrameInstance(config=config, plans=plans, slots=[])

    occupants = [[] for _ in range(config.n_slots)]
    for plan in plans:
        for s, j in zip(plan.slot_indices, plan.pilot_choices):
            occupants[int(s)].append((plan.user_id, int(j)))

    for slot in range(config.n_slots):
        users = sorted(occupants[slot])
        p = np.zeros((config.m, config.n_p), dtype=complex)
        y = np.zeros((config.m, config.n_d), dtype=complex)
        if users:
            channels = complex_normal(rng, (len(users), config.m), config.channel_var)
            s_rows = pilot_rows[[j for _, j in users]]
            x_rows = np.stack([plans[uid].payload for uid, _ in users])
            p += channels.T @ s_rows
            y += channels.T @ x_rows
            for (uid, _), h in zip(users, channels):
                frame.true_channels[(uid, slot)] = h
        if config.noise_var > 0:
            p += complex_normal(rng, (config.m, config.n_p), config.noise_var)
            y += complex_normal(rng, (config.m, config.n_d), config.noise_var)
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
        return FrameInstance(config=config, plans=plans, slots=None)
    return assemble_frame(plans, config, rng)
