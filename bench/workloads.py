"""The four workloads of the csa_mimo benchmark and their correctness check.

A workload is a sequence of passes.  Every pass runs on one input drawn from a
fixed pool, and the outcome of every operation in it is compared with the
outcome the seed code recorded for that input in ``reference.json``.  The
benchmark seed only chooses the order in which pool inputs are visited, so
every run of every seed is checked against recorded outcomes.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses a ``csa_mimo`` imported from anywhere else, so the benchmark always
measures the source tree it sits in.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import csa_mimo  # noqa: E402
from csa_mimo import cancellation, frame, montecarlo  # noqa: E402
from csa_mimo.frame import SystemConfig  # noqa: E402

if Path(csa_mimo.__file__).resolve().parent != SRC / "csa_mimo":
    raise ImportError(f"csa_mimo came from {csa_mimo.__file__}, expected it under {SRC}")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# pool inputs are the frame streams / sweep seeds / singleton seeds of this base seed
REFERENCE_SEED = 0
NPROC = os.cpu_count() or 1


@dataclass(frozen=True)
class Scale:
    """Problem sizes of every workload.  The defaults are the benchmark's;
    the smoke test shrinks them."""

    config: SystemConfig = SystemConfig()
    sic_ka: int = 900
    sic_inputs: int = 12
    snb_kas: tuple = (700, 900)
    snb_inputs: int = 40
    sweep_ka: int = 900
    sweep_max_frames: int = 100       # the CLI's default frame cap
    sweep_target_losses: int = 100    # the CLI's default stopping rule
    sweep_inputs: int = 6
    singleton_a: tuple = (30, 60)
    singleton_trials: tuple = (("snb", 2000), ("pab", 64))
    singleton_presub: float = 0.5
    singleton_inputs: int = 16

    def describe(self) -> dict:
        return json.loads(json.dumps(dataclasses.asdict(self)))


REFERENCE_SCALE = Scale()
# milliseconds of every code path: the set-up warm-up and the smoke test use it
TINY_SCALE = Scale(
    config=SystemConfig(k_a=10, m=8, n_slots=6, n_p=4, n_d=8, r=2, t=1),
    sic_ka=10, sic_inputs=2, snb_kas=(8, 10), snb_inputs=2,
    sweep_ka=10, sweep_max_frames=4, sweep_target_losses=2, sweep_inputs=2,
    singleton_trials=(("snb", 8), ("pab", 4)), singleton_inputs=2,
)


@dataclass
class PassResult:
    """Timings and outcomes of one pass over one pool input."""

    key: int
    wall_s: float = 0.0          # the timed part: what wall_s and trials_per_s use
    total_s: float = 0.0         # every operation of the pass
    trials: int = 0              # frame trials, or singleton trials, in the timed part
    frame_s: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def op(self, label: str, fn) -> float:
        """Run one operation, keep its outcome (or traceback) and return its wall time."""
        start = time.perf_counter()
        try:
            self.outcomes[label] = json.loads(json.dumps(fn()))
        except Exception:  # a failed operation is counted, the run goes on
            self.outcomes[label] = None
            self.errors[label] = traceback.format_exc()
        elapsed = time.perf_counter() - start
        self.total_s += elapsed
        return elapsed


def _frame_trial(config: SystemConfig, ka: int, index: int, algorithm: str) -> dict:
    """One frame trial (``make_frame`` + ``run_receiver``) on a pool stream."""
    stream = montecarlo.frame_stream(REFERENCE_SEED, ka, index)
    instance = frame.make_frame(dataclasses.replace(config, k_a=ka), stream)
    report = cancellation.run_receiver(instance, algorithm)
    return {
        "lost": np.flatnonzero(~report.decoded).tolist(),
        "sweeps": report.sweep_count,
        "n_up": report.n_up,
        "n_pa": report.n_pa,
    }


def _frame_pass(pass_: PassResult, scale: Scale, trials) -> PassResult:
    for algorithm, ka in trials:
        elapsed = pass_.op(f"{algorithm}.{ka}", lambda: _frame_trial(
            scale.config, ka, pass_.key, algorithm))
        pass_.frame_s.append(elapsed)
    pass_.wall_s = pass_.total_s
    pass_.trials = len(pass_.frame_s)
    return pass_


def sic_pass(key: int, scale: Scale) -> PassResult:
    """PAB then PRCE on the same stream at high load."""
    return _frame_pass(PassResult(key), scale, [("pab", scale.sic_ka), ("prce", scale.sic_ka)])


def snb_pass(key: int, scale: Scale) -> PassResult:
    """SNB on the same stream index at each load of ``snb_kas``."""
    return _frame_pass(PassResult(key), scale, [("snb", ka) for ka in scale.snb_kas])


def sweep_pass(key: int, scale: Scale) -> PassResult:
    """The sweep on ``NPROC`` workers, then the same sweep serially.

    Both must reproduce the recorded ``measure_time=False`` records, which
    also makes them identical to each other.  The serial sweep is the timed
    part and runs first, before the pool's oversubscribed BLAS threads: while
    BLAS threads in the workers are unpinned, the pool sweep varies by up to
    2x from run to run, so its wall is reported through ``parallel_speedup``
    and the per-layer metrics instead.
    """
    pass_ = PassResult(key)
    spec = montecarlo.SweepSpec(
        config=scale.config,
        ka_values=(scale.sweep_ka,),
        algorithms=("logical", "snb"),
        min_frames=1,
        max_frames=scale.sweep_max_frames,
        target_loss_events=scale.sweep_target_losses,
        base_seed=key,
    )

    def sweep(workers):
        records = montecarlo.run_plr_sweep(spec, workers=workers, measure_time=False)
        return [dataclasses.asdict(r) for r in records]

    serial_s = pass_.op("serial", lambda: sweep(1))
    pool_s = pass_.op("pool", lambda: sweep(NPROC))
    pass_.wall_s = serial_s
    pass_.trials = sum(r["frames_run"] for r in pass_.outcomes["serial"] or [])
    pass_.extra = {"pool_wall_s": pool_s, "serial_wall_s": serial_s,
                   "parallel_speedup": serial_s / pool_s}
    return pass_


def singleton_pass(key: int, scale: Scale) -> PassResult:
    """The batched singleton experiment per algorithm, then the closed form."""
    pass_ = PassResult(key)
    cfg = scale.config
    for algorithm, trials in scale.singleton_trials:
        def point_failures(algorithm=algorithm, trials=trials):
            records = montecarlo.run_singleton_sweep(
                m=cfg.m, n_d=cfg.n_d, t=cfg.t, a_pilot=1, a_values=scale.singleton_a,
                presub_fraction=scale.singleton_presub, trials=trials,
                algorithm=algorithm, n_p=cfg.n_p, noise_var=cfg.noise_var, seed=key,
            )
            return {str(r.a_total): [r.trials, r.failures] for r in records}

        pass_.op(algorithm, point_failures)
        pass_.trials += trials * len(scale.singleton_a)
    pass_.op("tabulate", lambda: [
        [r.a_total, r.p_e, r.p_fail]
        for r in montecarlo.tabulate_singleton_failure(
            cfg.m, cfg.n_d, cfg.t, 1, scale.singleton_a)
    ])
    pass_.wall_s = pass_.total_s
    return pass_


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: object
    pool_size: object   # Scale -> number of pool inputs
    frames: bool        # whether a trial is a frame trial
    warm: bool          # whether a run starts with an untimed full-size pass


WORKLOADS = {
    w.name: w
    for w in (
        # a full-size pass of sic_ka900 or sweep_pool costs a whole run, so
        # their one timed pass carries the first-call cost at full size
        Workload("sic_ka900", sic_pass, lambda s: s.sic_inputs, True, False),
        Workload("snb_ka700_900", snb_pass, lambda s: s.snb_inputs, True, True),
        Workload("sweep_pool", sweep_pass, lambda s: s.sweep_inputs, True, False),
        Workload("singleton_curve", singleton_pass, lambda s: s.singleton_inputs, False, True),
    )
}


def warm_up(name: str) -> None:
    """First calls into every code path the workload uses, at a tiny size."""
    WORKLOADS[name].run_pass(0, TINY_SCALE)


def same(a, b) -> bool:
    """Outcome equality; floats agree to 1e-12 relative."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and math.isclose(
            a, b, rel_tol=1e-12, abs_tol=0.0)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def check(pass_: PassResult, expected: dict) -> list[str]:
    """Labels of the pass's operations that raised or differ from ``expected``."""
    return [
        label for label, outcome in pass_.outcomes.items()
        if outcome is None or label not in expected or not same(outcome, expected[label])
    ]


def record(name: str, scale: Scale) -> dict:
    """Outcomes of every pool input of one workload, for ``reference.json``."""
    workload = WORKLOADS[name]
    recorded = {}
    for key in range(workload.pool_size(scale)):
        pass_ = workload.run_pass(key, scale)
        if pass_.errors:
            raise RuntimeError(f"{name} input {key} failed:\n" + "\n".join(pass_.errors.values()))
        recorded[str(key)] = pass_.outcomes
    if name == "sweep_pool":
        for outcomes in recorded.values():
            if any(o != outcomes["serial"] for o in outcomes.values()):
                raise RuntimeError("sweep records differ between pool and serial runs")
    return recorded


def load_reference(scale: Scale, path: Path = REFERENCE_PATH) -> dict:
    """Recorded outcomes per workload, refusing a file recorded at another scale."""
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    if reference["scale"] != scale.describe():
        raise ValueError(f"{path} was recorded at another scale")
    return reference["workloads"]
