"""Seeded Monte Carlo harness: loss-rate sweeps, singleton experiments, CSV.

Every frame gets its own random stream derived from (base seed,
active-user count, frame index), so results are reproducible bit-for-bit
for any worker count.  A loss-rate sweep is frame-major: each frame is made
once and shared by every algorithm whose point is still running, so frames
are paired across algorithms.  Workers return integer counters only, and
each point consumes them in frame-index order.
"""
from __future__ import annotations

import csv
import dataclasses
import inspect
import math
import os
import time
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from . import signals
from .analysis import InterferenceScenario, singleton_failure_probability, symbol_error_probability
from .cancellation import (
    RELATIVE_GAIN_FLOOR,
    Algorithm,
    check_decode_criterion,
    count_errors,
    pab_channel_estimate,
    run_receiver,
)
from .frame import SystemConfig, make_frame
from .signals import (
    RandomStream,
    as_integer,
    as_real,
    complex_normal,
    complex_normal_segments,
    one_blas_thread,
    qpsk_hard_demodulate,
    qpsk_modulate,
    uniform_bits,
)

# Thread-count variables of the BLAS builds numpy may link; read once, when
# a process first imports numpy.
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_WILSON_Z95 = 1.959963984540054

# Trials per chunk of the SNB out-of-pilot payloads modulated at once
_SNB_CHUNK = 32


def wilson_interval(events: int, trials: int) -> tuple[float, float]:
    """Two-sided 95 % Wilson score interval for a binomial proportion.

    Stays sane at zero or few events, which is the regime near loss-rate
    cliffs.  Returns (0, 1) when there are no trials.
    """
    if trials <= 0:
        return 0.0, 1.0
    z = _WILSON_Z95
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


def _check_entries(name: str, values) -> None:
    """Raise a ValueError if ``values`` is empty, or name every value listed twice."""
    if not values:
        raise ValueError(f"{name} must not be empty")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{name} lists {', '.join(map(str, repeated))} more than once")


@dataclass(frozen=True)
class SweepSpec:
    """A loss-rate sweep: which algorithms, which loads, how many frames.

    Each (algorithm, k_a) point runs at least ``min_frames`` frames and
    stops once ``target_loss_events`` packet losses have been seen, or at
    ``max_frames``.  Frame indices share a stream id with ``k_a``, so
    ``max_frames`` must stay below 2**32.  Loads and frame counts must be
    integers, and no algorithm or load may be listed twice.
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
        object.__setattr__(
            self, "ka_values", tuple(as_integer("ka_values", ka) for ka in self.ka_values)
        )
        object.__setattr__(
            self, "algorithms", tuple(Algorithm(a) for a in self.algorithms)
        )
        _check_entries("ka_values", self.ka_values)
        _check_entries("algorithms", [a.value for a in self.algorithms])
        for name in ("min_frames", "max_frames", "target_loss_events"):
            minimum = self.min_frames if name == "max_frames" else 1
            object.__setattr__(self, name, as_integer(name, getattr(self, name), minimum))
        if self.max_frames >= 2**32:
            raise ValueError(f"max_frames must be below 2**32, got {self.max_frames}")
        check_decode_criterion(self.decode_criterion)
        for ka in self.ka_values:  # reject infeasible configs, seeds and loads early
            dataclasses.replace(self.config, k_a=ka)
            frame_stream(self.base_seed, ka, self.max_frames - 1)


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
    ka, frame_idx = as_integer("k_a", ka), as_integer("frame index", frame_idx)
    for name, value in (("k_a", ka), ("frame index", frame_idx)):  # 32 bits of the id each
        if not 0 <= value < 2**32:
            raise ValueError(f"{name} must be in [0, 2**32) for its stream, got {value}")
    return RandomStream(seed=base_seed, stream_id=(ka << 32) | frame_idx)


def _spawn_pool(workers: int):
    """Start a spawn pool whose workers each run one BLAS thread.

    Spawned workers read the BLAS thread variables when they import numpy,
    so the variables are set to 1 while the workers start and the parent's
    own values are put back afterwards.  Unpinned, every worker would start
    one BLAS thread per core and the pool would oversubscribe the machine.
    The variables pin every BLAS call in a worker, not only the frame trials
    and singleton experiments that ``signals.one_blas_thread`` pins.  The
    workers are daemonic, so each makes every ``complex_normal_segments``
    draw and every per-slot stage on one thread (``signals._part_count``).
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


def _run_frame(task) -> list[int]:
    """Each receiver's lost count on one frame, made with signals only if needed."""
    config, algorithms, stream, criterion = task
    with_signals = any(a is not Algorithm.LOGICAL for a in algorithms)
    frame = make_frame(config, stream, with_signals=with_signals)
    return [run_receiver(frame, a, decode_criterion=criterion).lost_count for a in algorithms]


@dataclass
class _Point:
    """Running counters of one (algorithm, k_a) point of a sweep."""

    algorithm: Algorithm
    frames: int = 0
    losses: int = 0
    wall: float = 0.0
    stopped: bool = False

    def record(self, ka: int, r: int, measure_time: bool) -> PlrRecord:
        # each decoded packet is one generator and r - 1 replica subtractions
        sent = self.frames * ka
        ci_low, ci_high = wilson_interval(self.losses, sent)
        return PlrRecord(
            algorithm=self.algorithm.value, mac="baseline", ka=ka, frames_run=self.frames,
            packets_sent=sent, packets_lost=self.losses,
            plr=self.losses / sent if sent else 0.0, ci_low=ci_low, ci_high=ci_high,
            mean_n_up=(sent - self.losses) / self.frames,
            mean_n_pa=(sent - self.losses) * (r - 1) / self.frames,
            wall_seconds=self.wall if measure_time else 0.0,
        )


def run_plr_sweep(
    spec: SweepSpec, workers: int = 1, measure_time: bool = True
) -> list[PlrRecord]:
    """Run every (algorithm, k_a) point of the sweep and return its records.

    The sweep is frame-major: for each k_a, frame i is made once and every
    algorithm whose point has not stopped runs on it.  Each point applies
    its stopping rule to its frames in index order and discards later
    frames unseen, so its record is what running the point alone would
    give, and the records, in (algorithm, k_a) order, are identical for any
    ``workers`` value.  Serially, frames are made one at a time and none
    after every point of the k_a has stopped; a pool gets them in batches.

    ``wall_seconds`` runs from the start of the k_a's first frame to the
    end of the frame (or pool batch) at which the point stopped, so it
    includes the other receivers run on the shared frames.
    ``measure_time=False`` zeroes it, making the output byte-stable.
    """
    workers = as_integer("workers", workers, 1)
    pool = _spawn_pool(workers) if workers > 1 else None
    try:
        loads = [_run_load(spec, ka, pool, workers) for ka in spec.ka_values]
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return [
        points[a].record(ka, spec.config.r, measure_time)
        for a in range(len(spec.algorithms))
        for ka, points in zip(spec.ka_values, loads)
    ]


def _run_load(spec: SweepSpec, ka: int, pool, workers: int) -> list[_Point]:
    """Run the points of one k_a, one per algorithm, on shared frames."""
    t0 = time.perf_counter()
    config = dataclasses.replace(spec.config, k_a=ka)
    points = running = [_Point(algorithm) for algorithm in spec.algorithms]
    # one frame per worker: a pool makes at most workers - 1 past a stop
    batch_size = 1 if pool is None else workers
    start = 0
    while running and start < spec.max_frames:
        stop = min(start + batch_size, spec.max_frames)
        algorithms = tuple(point.algorithm for point in running)
        tasks = [
            (config, algorithms, frame_stream(spec.base_seed, ka, i), spec.decode_criterion)
            for i in range(start, stop)
        ]
        if pool is None:
            results = map(_run_frame, tasks)
        else:
            results = pool.map(_run_frame, tasks, chunksize=1)
        for counters in results:
            for point, lost in zip(running, counters):
                if not point.stopped:
                    point.frames += 1
                    point.losses += lost
                    point.stopped = (point.frames >= spec.min_frames
                                     and point.losses >= spec.target_loss_events)
        for point in running:
            point.wall = time.perf_counter() - t0
        running = [point for point in running if not point.stopped]
        start = stop
    return points


@one_blas_thread()
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
    PAB, ``n_pre = round(presub_fraction * (a_total - a_pilot))`` of the
    remaining users are also subtracted in replica mode (worst case: no
    generator-slot subtractions) before the attempt.  ``round`` takes halves
    to even, so presub 0.5 subtracts 14 of 29 users and 30 of 59.  Under SNB
    those subtractions only touch the other users' own pilots and leave the
    probed statistics unchanged, so the outcome is independent of the
    fraction by construction.

    The SNB attempt depends on the slot only through the combining pair
    (f, g).  Conditional on the probed-pilot estimate, every out-of-pilot
    user's cross term is an independent complex Gaussian scalar with
    variance equal to the squared estimate norm, and so is the filtered
    noise per payload symbol; sampling those scalars directly is
    distribution-exact and avoids materializing the antenna-by-symbol
    matrices.  The out-of-pilot payloads are modulated a chunk of trials at
    a time, so the whole batch's payload tensor never exists.

    The PAB branch forms the payload-phase observation y once: the products,
    then the noise added in place, drawn a chunk of whole trials at a time in
    trial order (one ``complex_normal_segments`` call per chunk, just large
    enough to split over as many threads as the whole batch), so the batch's
    noise never exists at once.  The subtractions never write y.  With X the
    payloads of the K subtracted users in order (the pre-subtractions, then
    the pilot-sharers), the correlations C = y Xᴴ and the Gram matrix G = X Xᴴ
    give each re-estimate from the residual left by the earlier subtractions,
    h_k = (C_k - Σ_{i<k} h_i G_ik) / G_kk (``cancellation.pab_channel_estimate``,
    the frame receiver's own), and the combining statistic is
    f = phiᴴ y - (phiᴴ H) X.  In exact arithmetic this is the explicit
    residual loop.  Pilot orthogonality removes the need for the pilot-phase
    matrix (subtracting a user shifts the probed estimate only when it shares
    the probed pilot).  The experiment runs on one BLAS thread
    (``signals.one_blas_thread``).
    """
    algorithm, slot, n_p, trials, noise_var, presub_fraction = _check_singleton_args(
        m, n_d, t, a_pilot, a_total, presub_fraction, trials, algorithm,
        n_p, noise_var, seed, decode_criterion,
    )
    m, a_total, a_pilot, n_d, t = dataclasses.astuple(slot)
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
        bits = uniform_bits(rng, (b, a_total, 2 * n_d))

        if algorithm is Algorithm.SNB:
            payloads = qpsk_modulate(bits[:, :a_pilot])
            sharers = complex_normal(rng, (b, a_pilot, m), 1.0)
            phi = sharers.sum(axis=1) + complex_normal(rng, (b, m), noise_var / n_p)
            g = np.einsum("bm,bm->b", phi.conj(), phi).real
            c_shar = np.einsum("bm,bpm->bp", phi.conj(), sharers)
            c_out = np.sqrt(g)[:, None] * complex_normal(rng, (b, n_out), 1.0)
            f = np.einsum("bp,bpn->bn", c_shar, payloads)
            if n_out:
                for s in range(0, b, _SNB_CHUNK):
                    x_out = qpsk_modulate(bits[s:s + _SNB_CHUNK, a_pilot:])
                    f[s:s + _SNB_CHUNK] += (c_out[s:s + _SNB_CHUNK, None] @ x_out)[:, 0]
            if noise_var > 0:
                f += np.sqrt(noise_var * g)[:, None] * complex_normal(rng, (b, n_d), 1.0)
            for k in range(1, a_pilot):
                f = f - m * payloads[:, k]
                g = g - m
        else:
            payloads = qpsk_modulate(bits)
            channels = complex_normal(rng, (b, a_total, m), 1.0)
            phi = channels[:, :a_pilot].sum(axis=1)
            phi = phi + complex_normal(rng, (b, m), noise_var / n_p)
            y = channels.transpose(0, 2, 1) @ payloads
            if noise_var > 0:  # whole trials per draw, enough to split as the batch would
                size = 2 * m * n_d  # normals per trial
                chunk = -(-signals._part_count(b * size) * signals._MIN_PART // size)
                for s in range(0, b, chunk):
                    draws = [((m, n_d), noise_var)] * min(chunk, b - s)
                    for y_trial, noise in zip(y[s:s + chunk], complex_normal_segments(rng, draws)):
                        y_trial += noise
                    del noise  # frees the chunk's last buffer before the next chunk is drawn
            order = list(range(a_pilot, a_pilot + n_pre)) + list(range(1, a_pilot))
            x = payloads[:, order]
            x_h = x.conj().transpose(0, 2, 1)
            corr = y @ x_h
            gram = x @ x_h
            h = np.empty_like(corr)
            for k, user in enumerate(order):
                h[:, :, k] = pab_channel_estimate(
                    corr[:, :, k], h[:, :, :k], gram[:, :k, k], gram[:, k, k, None].real)
                if user < a_pilot:
                    phi = phi - h[:, :, k]
            phi_h = phi.conj()[:, None]
            f = (phi_h @ y - (phi_h @ h) @ x)[:, 0]
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


def _check_singleton_args(
    m, n_d, t, a_pilot, a_total, presub_fraction, trials, algorithm,
    n_p, noise_var, seed, decode_criterion,
) -> tuple[Algorithm, InterferenceScenario, int, int, float, float]:
    """Reject a singleton experiment's bad input; return its algorithm, its slot with
    the counts as ints, n_p and trials as ints, and noise_var and presub_fraction as floats."""
    algorithm = Algorithm(algorithm)
    if algorithm not in (Algorithm.SNB, Algorithm.PAB):
        raise ValueError(f"singleton experiment supports SNB and PAB, got {algorithm}")
    slot = InterferenceScenario(m, a_total, a_pilot, n_d, t)
    n_p, trials = as_integer("n_p", n_p, 1), as_integer("trials", trials, 1)
    noise_var = as_real("noise_var", noise_var, "nonnegative")
    presub_fraction = as_real("presub_fraction", presub_fraction)
    if not 0.0 <= presub_fraction <= 1.0:
        raise ValueError(f"presub_fraction must lie in [0, 1], got {presub_fraction}")
    check_decode_criterion(decode_criterion)
    RandomStream(seed, slot.a_total)  # a seed or load outside the stream range
    return algorithm, slot, n_p, trials, noise_var, presub_fraction


def _singleton_point(kwargs) -> SingletonRecord:
    return run_singleton_experiment(**kwargs)


def run_singleton_sweep(*, a_values, workers: int = 1, **point) -> list[SingletonRecord]:
    """Run ``run_singleton_experiment`` at each slot load ``a_total`` of ``a_values``.

    ``point`` holds the experiment's other arguments, as keywords.  The
    loads must not be empty and none may be listed twice, and every load's
    arguments are checked before any worker starts.
    """
    workers = as_integer("workers", workers, 1)
    a_values = [as_integer("a_values", a) for a in a_values]
    _check_entries("a_values", a_values)
    signature = inspect.signature(run_singleton_experiment)
    tasks = []
    for a in a_values:
        task = signature.bind(**point, a_total=a)
        task.apply_defaults()
        _check_singleton_args(**task.arguments)
        tasks.append(task.arguments)
    if workers > 1 and len(tasks) > 1:
        with _spawn_pool(workers) as pool:
            return pool.map(_singleton_point, tasks)
    return [_singleton_point(task) for task in tasks]


def tabulate_singleton_failure(m, n_d, t, a_pilot, a_values) -> list[AnalysisRecord]:
    """Closed-form failure curve as CSV-ready records, over one or more loads, none twice."""
    a_values = [as_integer("a_values", a) for a in a_values]
    _check_entries("a_values", a_values)
    rows = []
    for a in a_values:
        scen = InterferenceScenario(m=m, a_total=a, a_pilot=a_pilot, n_d=n_d, t=t)
        rows.append(
            AnalysisRecord(
                **dataclasses.asdict(scen),
                p_e=symbol_error_probability(scen.m, scen.n_it),
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


def emit_csv(records, path, record_type) -> None:
    """Write records of the dataclass ``record_type`` as UTF-8 CSV.

    The header row is the dataclass's field names, in order, so an empty
    record list still gets one.  Floats are written with full round-trip
    precision.  ``path`` may also be an open file-like object.
    """
    names = [f.name for f in dataclasses.fields(record_type)]
    if hasattr(path, "write"):
        _write_rows(path, names, records)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_rows(fh, names, records)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
