"""Per-slot stages on every CPU (``signals.for_each_slot``) against one block on one thread.

Frame assembly and every signal receiver's start run their slots in blocks, one
per CPU of the affinity mask.  A mask of one CPU runs them all on the calling
thread in slot order, as a plain loop does; any other mask must give the same
bytes.  ``own`` keeps the process's real mask.
"""

import dataclasses
import threading

import numpy as np
import pytest

from csa_mimo import signals
from csa_mimo.cancellation import Algorithm, ReceiverState, run_receiver
from csa_mimo.frame import SlotSignal, SystemConfig, make_frame
from csa_mimo.signals import RandomStream, one_blas_thread

# 7 slots, which three CPUs cut 2 + 2 + 3 and two CPUs 3 + 4; on streams
# (40, 0) and (40, 1) the 6 users leave two slots empty, and on (40, 1) SNB
# loses a user
CONFIG = SystemConfig(k_a=6, m=16, n_slots=7, n_p=4, n_d=16, r=2, t=2)
CONFIGS = [CONFIG, dataclasses.replace(CONFIG, noise_var=0.0)]
MASKS = {"own": None, "one": {0}, "three": {0, 1, 2}}
SIGNAL_ALGORITHMS = (Algorithm.SNB, Algorithm.PAB, Algorithm.PRCE)


def set_mask(monkeypatch, name: str) -> None:
    """Run later slot stages, and draws however small, on the CPUs of mask ``name``."""
    mask = MASKS[name]
    if mask is not None:
        monkeypatch.setattr(signals.os, "sched_getaffinity", lambda pid: mask)
    monkeypatch.setattr(signals, "_MIN_PART", 1)


def outcomes(config, stream):
    """Every array a frame and the receivers' starts hold, and every receiver's report."""
    frame = make_frame(config, stream)
    assert any(users.size == 0 for users, _ in frame.occupants)
    arrays = [a for slot in frame.slots for a in (slot.p, slot.y)]
    arrays += [frame.true_channels[s] for s in range(config.n_slots)]
    for algorithm in SIGNAL_ALGORITHMS:
        with one_blas_thread():  # as run_receiver starts it
            state = ReceiverState(frame, algorithm)
        arrays += [state.f if algorithm is Algorithm.SNB else state.phi, state.g]
        if algorithm is Algorithm.PAB:
            arrays += state.rows + state.gram
    reports = [run_receiver(frame, algorithm) for algorithm in Algorithm]
    return arrays, [(r.decoded.tolist(), r.sweep_count, r.r) for r in reports]


@pytest.mark.parametrize("mask", ["own", "three"])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: f"noise{config.noise_var}")
def test_any_mask_matches_one_block(monkeypatch, config, mask):
    for seed in range(2):
        stream = RandomStream(40, seed)
        with monkeypatch.context() as patch:
            set_mask(patch, "one")
            expected_arrays, expected_reports = outcomes(config, stream)
        with monkeypatch.context() as patch:
            set_mask(patch, mask)
            arrays, reports = outcomes(config, stream)
        assert len(arrays) == len(expected_arrays)
        for a, b in zip(arrays, expected_arrays):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert reports == expected_reports


@pytest.mark.parametrize("mask", sorted(MASKS))
def test_bad_last_slot_raises_after_every_thread_joins(monkeypatch, mask):
    set_mask(monkeypatch, mask)
    threads = threading.active_count()
    frame = make_frame(CONFIG, RandomStream(41, 0))
    assert threading.active_count() == threads
    for algorithm in SIGNAL_ALGORITHMS:
        ReceiverState(frame, algorithm)
        assert threading.active_count() == threads
    last = frame.slots[-1]
    frame.slots[-1] = SlotSignal(p=last.p[:, :-1], y=last.y)  # the last block's last slot
    for algorithm in SIGNAL_ALGORITHMS:
        with pytest.raises(ValueError, match="^pilot phase has 3 symbols, pilot length is 4$"):
            ReceiverState(frame, algorithm)
        assert threading.active_count() == threads
