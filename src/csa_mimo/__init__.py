"""Coded slotted ALOHA over a massive-MIMO uplink: simulator and analysis."""

from .analysis import (
    InterferenceScenario,
    interference_term_count,
    pab_estimate_error_variance,
    singleton_failure_probability,
    symbol_error_probability,
)
from .cancellation import (
    Algorithm,
    DecodeReport,
    ReceiverState,
    pab_channel_estimate,
    run_receiver,
    subtract,
)
from .frame import (
    FrameInstance,
    SlotSignal,
    SystemConfig,
    UserPlan,
    assemble_frame,
    compute_slot_count,
    generate_user_plans,
    make_frame,
)
from .montecarlo import (
    AnalysisRecord,
    PlrRecord,
    SingletonRecord,
    SweepSpec,
    emit_csv,
    read_csv_records,
    run_plr_sweep,
    run_singleton_experiment,
    run_singleton_sweep,
    tabulate_singleton_failure,
    wilson_interval,
)
from .receiver import (
    compute_combining_statistics,
    count_errors,
    estimate_all_pilot_channels,
)
from .signals import (
    PilotSet,
    RandomStream,
    build_hadamard_pilots,
    complex_normal,
    qpsk_hard_demodulate,
    qpsk_modulate,
    walsh_hadamard_transform,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
