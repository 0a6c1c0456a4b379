"""The frame assembly as first written, one draw per slot matrix.

It is the oracle of ``frame.assemble_frame``, and in complex128 it builds
by hand the double-precision twin of a ``make_frame`` frame.
"""

import numpy as np

from csa_mimo.frame import FrameInstance, SlotSignal, generate_user_plans
from csa_mimo.signals import build_hadamard_pilots, complex_normal, qpsk_modulate

# single-precision rounding, the unit of every bound on make_frame's signals
EPS32 = np.finfo(np.float32).eps


def per_slot_assembly(plans, config, rng, dtype=np.complex64):
    """The signal assembly as first written: one ``complex_normal`` call per
    slot's channels and per noise matrix.  Each draw is a float64 product
    rounded once to ``dtype``, as ``assemble_frame`` rounds its draw;
    complex128 rounds nothing.  Returns ``(true_channels, [(p, y)])``,
    ``true_channels`` one (occupancy x m) array per slot, users ascending."""
    slot_indices, pilot_choices, bits = plans
    payloads = qpsk_modulate(bits).astype(dtype)
    pilot_rows = build_hadamard_pilots(config.n_p).astype(np.finfo(dtype).dtype)
    true_channels, slots = [], []
    for slot in range(config.n_slots):
        users, replicas = np.nonzero(slot_indices == slot)
        p = np.zeros((config.m, config.n_p), dtype=dtype)
        y = np.zeros((config.m, config.n_d), dtype=dtype)
        channels = np.zeros((0, config.m), dtype=dtype)
        if users.size:
            channels = complex_normal(rng, (users.size, config.m), config.channel_var)
            channels = channels.astype(dtype)
            p += channels.T @ pilot_rows[pilot_choices[users, replicas]]
            y += channels.T @ payloads[users]
        true_channels.append(channels)
        if config.noise_var > 0:
            p += complex_normal(rng, (config.m, config.n_p), config.noise_var).astype(dtype)
            y += complex_normal(rng, (config.m, config.n_d), config.noise_var).astype(dtype)
        slots.append((p, y))
    return true_channels, slots


def hand_built_frame(plans, config, rng) -> FrameInstance:
    """A complex128 frame of ``per_slot_assembly``'s signals, payloads included."""
    true_channels, slots = per_slot_assembly(plans, config, rng, np.complex128)
    for channels in true_channels:
        channels.flags.writeable = False
    frame = FrameInstance(
        config, *plans, true_channels=dict(enumerate(true_channels)),
        slots=[SlotSignal(p=p, y=y) for p, y in slots])
    frame.payloads = qpsk_modulate(plans[2])
    return frame


def double_twin(config, stream) -> FrameInstance:
    """``make_frame(config, stream)`` in double precision: the same draws, not rounded."""
    rng = stream.generator()
    return hand_built_frame(generate_user_plans(config, rng), config, rng)
