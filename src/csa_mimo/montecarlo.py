"""Seeded Monte Carlo harness: loss-rate sweeps, singleton experiments, CSV.

Every frame trial gets its own random stream derived from (base seed,
active-user count, frame index), so results are reproducible bit-for-bit
for any worker count and frames are paired across algorithms.  Workers
return integer counters only; aggregation is order-independent.
"""
from __future__ import annotations

import csv
import dataclasses
import math
import os
import time
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .analysis import InterferenceScenario, singleton_failure_probability, symbol_error_probability
from .cancellation import RELATIVE_GAIN_FLOOR, Algorithm, run_receiver
from .frame import SystemConfig, make_frame
from .receiver import check_decode_criterion, count_errors
from .signals import RandomStream, complex_normal, qpsk_hard_demodulate, qpsk_modulate

# Thread-count variables of the BLAS builds numpy may link; read once, when
# a process first imports numpy.
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_WILSON_Z95 = 1.959963984540054


def wilson_interval(events: int, trials: int, z: float = _WILSON_Z95) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Stays sane at zero or few events, which is the regime near loss-rate
    cliffs.  Returns (0, 1) when there are no trials.
    """
    if trials <= 0:
        return 0.0, 1.0
    phat = events / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    # at the extremes the exact bounds coincide with the point estimate;
    # computing center - half there leaves ~1e-18 of cancellation noise
    low = 0.0 if events == 0 else max(0.0, center - half)
    high = 1.0 if events == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class SweepSpec:
    """A loss-rate sweep: which algorithms, which loads, how many frames.

    Each (algorithm, k_a) point runs at least ``min_frames`` frames and
    stops once ``target_loss_events`` packet losses have been seen, or at
    ``max_frames``.  Frame indices share a stream id with ``k_a``, so
    ``max_frames`` must stay below 2**32.
    """

    config: SystemConfig
    ka_values: tuple
    algorithms: tuple
    min_frames: int = 1
    max_frames: int = 1000
    target_loss_events: int = 100
    base_seed: int = 0
    decode_criterion: str = "bit"

    def __post_init__(self):
        object.__setattr__(self, "ka_values", tuple(int(k) for k in self.ka_values))
        object.__setattr__(
            self, "algorithms", tuple(Algorithm(a) for a in self.algorithms)
        )
        if not self.ka_values:
            raise ValueError("ka_values must not be empty")
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        if self.min_frames < 1:
            raise ValueError(f"min_frames must be >= 1, got {self.min_frames}")
        if self.max_frames < self.min_frames:
            raise ValueError("max_frames must be >= min_frames")
        if self.max_frames >= 2**32:
            raise ValueError(f"max_frames must be below 2**32, got {self.max_frames}")
        if self.target_loss_events < 1:
            raise ValueError(
                f"target_loss_events must be >= 1, got {self.target_loss_events}"
            )
        check_decode_criterion(self.decode_criterion)
        for ka in self.ka_values:
            dataclasses.replace(self.config, k_a=ka)  # reject infeasible configs early


@dataclass(frozen=True)
class PlrRecord:
    """One (algorithm, load) point of a packet-loss-rate sweep."""

    algorithm: str
    mac: str
    ka: int
    frames_run: int
    packets_sent: int
    packets_lost: int
    plr: float
    ci_low: float
    ci_high: float
    mean_n_up: float
    mean_n_pa: float
    wall_seconds: float


@dataclass(frozen=True)
class SingletonRecord:
    """One point of the single-slot singleton decode experiment."""

    algorithm: str
    a_total: int
    a_pilot: int
    p: float
    trials: int
    failures: int
    fail_prob: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class AnalysisRecord:
    """One tabulated point of the closed-form singleton failure curve."""

    a_total: int
    a_pilot: int
    m: int
    n_d: int
    t: int
    p_e: float
    p_fail: float


def frame_stream(base_seed: int, ka: int, frame_idx: int) -> RandomStream:
    """The stream assigned to one frame trial: stable in (seed, ka, index)."""
    return RandomStream(seed=base_seed, stream_id=(ka << 32) | frame_idx)


def _spawn_pool(workers: int):
    """Start a spawn pool whose workers each run one BLAS thread.

    Spawned workers read the BLAS thread variables when they import numpy,
    so the variables are set to 1 while the workers start and the parent's
    own values are put back afterwards.  Unpinned, every worker would start
    one BLAS thread per core and the pool would oversubscribe the machine.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        return get_context("spawn").Pool(processes=workers)
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _run_one_frame(task) -> tuple[int, int, int, int]:
    config, algorithm, base_seed, ka, frame_idx, criterion = task
    stream = frame_stream(base_seed, ka, frame_idx)
    frame = make_frame(
        dataclasses.replace(config, k_a=ka),
        stream,
        with_signals=algorithm is not Algorithm.LOGICAL,
    )
    report = run_receiver(frame, algorithm, decode_criterion=criterion)
    return report.lost_count, report.n_up, report.n_pa, report.sweep_count


def run_plr_sweep(
    spec: SweepSpec, workers: int = 1, measure_time: bool = True
) -> list[PlrRecord]:
    """Run every (algorithm, k_a) point of the sweep and return its records.

    Frames are consumed strictly in index order when applying the stopping
    rule, so the emitted records are identical for any ``workers`` value.
    ``measure_time=False`` zeroes the wall-clock column, making the output
    byte-stable across runs.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pool = _spawn_pool(workers) if workers > 1 else None
    try:
        records = []
        for algorithm in spec.algorithms:
            for ka in spec.ka_values:
                records.append(
                    _run_point(spec, algorithm, ka, pool, workers, measure_time)
                )
        return records
    finally:
        if pool is not None:
            pool.close()
            pool.join()


def _run_point(
    spec: SweepSpec,
    algorithm: Algorithm,
    ka: int,
    pool,
    workers: int,
    measure_time: bool,
) -> PlrRecord:
    t0 = time.perf_counter()
    frames_run = 0
    losses = 0
    n_up_sum = 0
    n_pa_sum = 0
    batch_size = max(8, 4 * workers)

    def tasks(start, stop):
        return [
            (spec.config, algorithm, spec.base_seed, ka, i, spec.decode_criterion)
            for i in range(start, stop)
        ]

    while frames_run < spec.max_frames:
        stop = min(frames_run + batch_size, spec.max_frames)
        batch = tasks(frames_run, stop)
        if pool is None:
            results = [_run_one_frame(t) for t in batch]
        else:
            results = pool.map(_run_one_frame, batch, chunksize=1)
        done = False
        for lost, n_up, n_pa, _sweeps in results:
            frames_run += 1
            losses += lost
            n_up_sum += n_up
            n_pa_sum += n_pa
            if frames_run >= spec.min_frames and losses >= spec.target_loss_events:
                done = True
                break  # later frames of the batch are discarded unseen
        if done:
            break

    sent = frames_run * ka
    ci_low, ci_high = wilson_interval(losses, sent)
    wall = time.perf_counter() - t0 if measure_time else 0.0
    return PlrRecord(
        algorithm=algorithm.value,
        mac="baseline",
        ka=ka,
        frames_run=frames_run,
        packets_sent=sent,
        packets_lost=losses,
        plr=losses / sent if sent else 0.0,
        ci_low=ci_low,
        ci_high=ci_high,
        mean_n_up=n_up_sum / frames_run if frames_run else 0.0,
        mean_n_pa=n_pa_sum / frames_run if frames_run else 0.0,
        wall_seconds=wall,
    )


def run_singleton_experiment(
    m: int,
    n_d: int,
    t: int,
    a_pilot: int,
    a_total: int,
    presub_fraction: float,
    trials: int,
    algorithm: Algorithm | str,
    *,
    n_p: int = 64,
    noise_var: float = 0.1,
    seed: int = 0,
    decode_criterion: str = "bit",
) -> SingletonRecord:
    """Estimate the failure probability of one singleton decode attempt.

    A single slot holds ``a_total`` users, ``a_pilot`` of them on the probed
    pilot.  The ``a_pilot - 1`` pilot-sharers are treated as decoded in other
    slots and subtracted in replica mode with the chosen algorithm.  Under
    PAB, a fraction ``presub_fraction`` of the remaining users is also
    subtracted in replica mode (worst case: no generator-slot subtractions)
    before the attempt; under SNB those subtractions only touch the other
    users' own pilots and leave the probed statistics unchanged, so the
    outcome is independent of the fraction by construction.

    The SNB attempt depends on the slot only through the combining pair
    (f, g).  Conditional on the probed-pilot estimate, every out-of-pilot
    user's cross term is an independent complex Gaussian scalar with
    variance equal to the squared estimate norm, and so is the filtered
    noise per payload symbol; sampling those scalars directly is
    distribution-exact and avoids materializing the antenna-by-symbol
    matrices.  The PAB branch keeps explicit residual matrices because its
    channel re-estimates consume them; pilot orthogonality still removes
    the need for the pilot-phase matrix (subtracting a user shifts the
    probed estimate only when it shares the probed pilot).
    """
    algorithm = Algorithm(algorithm)
    if algorithm not in (Algorithm.SNB, Algorithm.PAB):
        raise ValueError(f"singleton experiment supports SNB and PAB, got {algorithm}")
    if not 0.0 <= presub_fraction <= 1.0:
        raise ValueError(f"presub_fraction must lie in [0, 1], got {presub_fraction}")
    if a_pilot < 1 or a_total < a_pilot:
        raise ValueError(f"need a_total >= a_pilot >= 1, got {a_total}, {a_pilot}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    check_decode_criterion(decode_criterion)

    rng = RandomStream(seed, a_total).generator()
    n_out = a_total - a_pilot
    n_pre = int(round(presub_fraction * n_out))
    failures = 0

    if algorithm is Algorithm.SNB:
        batch_size = max(1, 2**24 // max(1, a_total * n_d))
    else:
        batch_size = max(1, min(128, 2**27 // max(1, m * n_d)))

    done = 0
    while done < trials:
        b = min(batch_size, trials - done)
        done += b
        bits = rng.integers(0, 2, size=(b, a_total, 2 * n_d), dtype=np.uint8)
        payloads = qpsk_modulate(bits)

        if algorithm is Algorithm.SNB:
            sharers = complex_normal(rng, (b, a_pilot, m), 1.0)
            phi = sharers.sum(axis=1) + complex_normal(rng, (b, m), noise_var / n_p)
            g = np.einsum("bm,bm->b", phi.conj(), phi).real
            c_shar = np.einsum("bm,bpm->bp", phi.conj(), sharers)
            c_out = np.sqrt(g)[:, None] * complex_normal(rng, (b, n_out), 1.0)
            f = np.einsum("bp,bpn->bn", c_shar, payloads[:, :a_pilot])
            if n_out:
                f += np.einsum("bo,bon->bn", c_out, payloads[:, a_pilot:])
            if noise_var > 0:
                f += np.sqrt(noise_var * g)[:, None] * complex_normal(rng, (b, n_d), 1.0)
            for k in range(1, a_pilot):
                f = f - m * payloads[:, k]
                g = g - m
        else:
            channels = complex_normal(rng, (b, a_total, m), 1.0)
            phi = channels[:, :a_pilot].sum(axis=1)
            phi = phi + complex_normal(rng, (b, m), noise_var / n_p)
            y = channels.transpose(0, 2, 1) @ payloads
            if noise_var > 0:
                y += complex_normal(rng, (b, m, n_d), noise_var)
            # out-of-pilot pre-subtractions first, then the pilot-sharers;
            # each step re-estimates from the residual of its own trial
            for k in list(range(a_pilot, a_pilot + n_pre)) + list(range(1, a_pilot)):
                x_k = payloads[:, k]
                energy = np.einsum("bn,bn->b", x_k.real, x_k.real) + np.einsum(
                    "bn,bn->b", x_k.imag, x_k.imag
                )
                h_est = (y @ x_k.conj()[..., None])[..., 0] / energy[:, None]
                y -= h_est[:, :, None] * x_k[:, None, :]
                if k < a_pilot:
                    phi = phi - h_est
            f = np.einsum("bm,bmn->bn", phi.conj(), y)
            g = np.einsum("bm,bm->b", phi.conj(), phi).real

        usable = g > m * RELATIVE_GAIN_FLOOR
        x_hat = np.where(usable[:, None], f, 1.0) / np.where(usable, g, 1.0)[:, None]
        errors = count_errors(qpsk_hard_demodulate(x_hat), bits[:, 0], decode_criterion)
        failures += int(np.count_nonzero(~usable | (errors > t)))

    ci_low, ci_high = wilson_interval(failures, trials)
    return SingletonRecord(
        algorithm=algorithm.value,
        a_total=a_total,
        a_pilot=a_pilot,
        p=presub_fraction,
        trials=trials,
        failures=failures,
        fail_prob=failures / trials,
        ci_low=ci_low,
        ci_high=ci_high,
    )


def _singleton_point(kwargs) -> SingletonRecord:
    return run_singleton_experiment(**kwargs)


def run_singleton_sweep(
    m: int,
    n_d: int,
    t: int,
    a_pilot: int,
    a_values,
    presub_fraction: float,
    trials: int,
    algorithm: Algorithm | str,
    *,
    n_p: int = 64,
    noise_var: float = 0.1,
    seed: int = 0,
    decode_criterion: str = "bit",
    workers: int = 1,
) -> list[SingletonRecord]:
    """Run the singleton experiment over a grid of slot loads."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [
        dict(
            m=m, n_d=n_d, t=t, a_pilot=a_pilot, a_total=int(a),
            presub_fraction=presub_fraction, trials=trials,
            algorithm=Algorithm(algorithm), n_p=n_p, noise_var=noise_var,
            seed=seed, decode_criterion=decode_criterion,
        )
        for a in a_values
    ]
    if workers > 1 and len(tasks) > 1:
        with _spawn_pool(workers) as pool:
            return pool.map(_singleton_point, tasks)
    return [_singleton_point(t_) for t_ in tasks]


def tabulate_singleton_failure(m, n_d, t, a_pilot, a_values) -> list[AnalysisRecord]:
    """Closed-form failure curve as CSV-ready records."""
    rows = []
    for a in a_values:
        scen = InterferenceScenario(m=m, a_total=int(a), a_pilot=a_pilot, n_d=n_d, t=t)
        rows.append(
            AnalysisRecord(
                a_total=int(a),
                a_pilot=a_pilot,
                m=m,
                n_d=n_d,
                t=t,
                p_e=symbol_error_probability(m, scen.n_it),
                p_fail=singleton_failure_probability(scen),
            )
        )
    return rows


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_rows(fh, names, records) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(names)
    for rec in records:
        writer.writerow([_format_value(getattr(rec, name)) for name in names])


def emit_csv(records, path, record_type=None) -> None:
    """Write records as UTF-8 CSV with a header row.

    Field order follows the record dataclass; floats are written with full
    round-trip precision.  ``record_type`` fixes the header when the record
    list may be empty.  ``path`` may also be an open file-like object.
    """
    if record_type is None:
        if not records:
            raise ValueError("record_type is required for an empty record list")
        record_type = type(records[0])
    names = [f.name for f in dataclasses.fields(record_type)]
    if hasattr(path, "write"):
        _write_rows(path, names, records)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_rows(fh, names, records)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv_records(path, record_type) -> list:
    """Parse a CSV produced by ``emit_csv`` back into records."""
    casts = {f.name: f.type for f in dataclasses.fields(record_type)}
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            kwargs = {}
            for name, raw in row.items():
                kind = casts[name]
                if kind in (int, "int"):
                    kwargs[name] = int(raw)
                elif kind in (float, "float"):
                    kwargs[name] = float(raw)
                else:
                    kwargs[name] = raw
            out.append(record_type(**kwargs))
    return out
