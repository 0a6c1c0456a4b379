"""Benchmark of the csa_mimo simulator, measured from outside the package.

Run from the root of a checkout:

    python3 bench/run.py --workload sic_ka900 --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all

A run sets the workload up several times (imports plus a tiny warm-up) and
reports the median as ``setup_s``, then runs passes over pool inputs in an
order drawn from ``--seed`` until ``--seconds`` have elapsed, checking every
operation against ``reference.json``.  Some workloads first run one untimed
full-size pass.  With ``--trace 1`` every input runs
once untraced and once traced, and the run reports per-layer metrics and the
tracing overhead instead of the end-to-end metrics.  The last line of standard
output is one JSON object; a fuller result, with the environment manifest,
goes to ``bench/results/``.  ``--workload all`` runs every workload in its own
process and prints every end-to-end metric per workload.

The harness never sets ``*_NUM_THREADS``: the BLAS threading the environment
gives is part of what the sweep workload measures.  A run waits for every
process it starts, pool workers and multiprocessing's resource tracker too,
before it exits.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib.util
import itertools
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("sic_ka900", "snb_ka700_900", "sweep_pool", "singleton_curve")
SETUP_SAMPLES = 5
SUBTRACTIONS = tuple(
    f"{algorithm}_subtract.{mode}"
    for algorithm in ("snb", "pab", "prce")
    for mode in ("generator", "replica")
)
LAYERS = ("signals", "frame", "receiver", "cancellation", "montecarlo", "analysis")
PR_SET_CHILD_SUBREAPER = 36
REAP_GRACE_S = 30.0

# Times the import of the package and the workload's warm-up in a fresh interpreter.
SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import workloads\n"
    "workloads.warm_up(sys.argv[2])\n"
    "elapsed = time.perf_counter() - start\n"
    "import run\n"
    "run.stop_resource_tracker()\n"
    "print(elapsed)\n"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def adopt_orphans() -> None:
    """Make this process the Linux child subreaper of everything it starts.

    Descendants whose parent exits, such as the resource tracker of a set-up
    probe, are then re-parented here, so ``stop_descendants`` can wait for them.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if this process started one, and wait for it.

    Spawned pools start the tracker; it would otherwise outlive the process.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def stop_descendants() -> None:
    """Stop every process this run started and wait until each has ended."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop_resource_tracker()
    deadline = time.monotonic() + REAP_GRACE_S
    while time.monotonic() < deadline:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid == 0:
            time.sleep(0.05)


def probe_setup(name: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(BENCH), name],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def pool_startup_s(workloads) -> float:
    """Spawn a pool of ``NPROC`` workers and wait until each could import csa_mimo."""
    from multiprocessing import get_context

    from csa_mimo import montecarlo

    start = time.perf_counter()
    pool = get_context("spawn").Pool(processes=workloads.NPROC)
    try:
        pool.starmap(montecarlo.wilson_interval, [(0, 1)] * workloads.NPROC, chunksize=1)
        return time.perf_counter() - start
    finally:
        pool.close()
        pool.join()


def measure(workloads, name, scale, reference, seed, seconds, tracer=None):
    """Run passes until ``seconds`` elapse; with a tracer, each input twice.

    A warm workload first runs one untimed pass, on the input its order visits
    last, so that first calls at full size stay out of the timed passes.
    Returns the untimed, untraced and traced passes and the failures of all.
    """
    workload = workloads.WORKLOADS[name]
    pool = workload.pool_size(scale)
    order = random.Random(seed).sample(range(pool), pool)
    warm, untraced, traced, failures = [], [], [], []

    def run(key, traced_pass):
        try:
            if traced_pass:
                tracer.install()
            pass_ = workload.run_pass(key, scale)
        finally:
            if traced_pass:
                tracer.uninstall()
        for label in workloads.check(pass_, reference[str(key)]):
            failures.append({"key": key, "op": label,
                             "error": pass_.errors.get(label, "outcome differs from reference")})
        return pass_

    if workload.warm:
        warm.append(run(order[-1], False))
    start = time.perf_counter()
    for n in itertools.count():
        key = order[n % pool]
        untraced.append(run(key, False))
        if tracer is not None:
            traced.append(run(key, True))
        if time.perf_counter() - start >= seconds:
            break
    return warm, untraced, traced, failures


def tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100 * rank // len(ordered), ordered[rank - 1]


def end_to_end(untraced, setup, peak):
    return {
        "wall_s": (statistics.median(p.wall_s for p in untraced), "s"),
        "trials_per_s": (sum(p.trials for p in untraced) / sum(p.wall_s for p in untraced), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MiB"),
    }


def report(workload, untraced, attempted, failed, e2e):
    """Every end-to-end metric the workload supports, with its sample count."""
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    out["wall_s"]["passes"] = len(untraced)
    frame_s = [t for p in untraced for t in p.frame_s]
    if workload.frames:
        out["frames_per_s"] = {"value": e2e["trials_per_s"][0], "unit": "frames/s"}
    if frame_s:
        out["frame_p50_s"] = {"value": statistics.median(frame_s), "unit": "s",
                              "samples": len(frame_s)}
        tail_point = tail(frame_s)
        if tail_point is not None:
            percentile, value = tail_point
            out["frame_tail_s"] = {"value": value, "unit": "s", "percentile": percentile,
                                   "samples": len(frame_s)}
    speedups = [p.extra["parallel_speedup"] for p in untraced if "parallel_speedup" in p.extra]
    if speedups:
        out["parallel_speedup"] = {"value": statistics.median(speedups), "unit": "x",
                                   "samples": len(speedups)}
    out["failed_frac"] = {"value": failed / attempted, "unit": "fraction",
                          "attempted": attempted}
    return out


def per_layer(workloads, scale, tracer, untraced, traced, extras):
    """Per-pass means over the traced passes, keyed as in BENCHMARK.json."""
    agg = tracer.aggregate()
    counts = tracer.counts
    n = len(traced)

    def stat(name, field):
        return agg.get(name, {}).get(field, 0) / n

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("signals.complex_normal.calls", stat("signals.complex_normal", "calls"), "count")
    put("signals.complex_normal.samples", counts["signals.complex_normal.samples"] / n, "count")
    put("signals.complex_normal.self_s", stat("signals.complex_normal", "self_s"), "s")
    put("signals.walsh_hadamard_transform.calls",
        stat("signals.walsh_hadamard_transform", "calls"), "count")
    put("signals.walsh_hadamard_transform.self_s",
        stat("signals.walsh_hadamard_transform", "self_s"), "s")
    put("frame.generate_user_plans.self_s", stat("frame.generate_user_plans", "self_s"), "s")
    put("frame.assemble_frame.self_s", stat("frame.assemble_frame", "self_s"), "s")
    put("frame.signal_bytes", counts["frame.signal_bytes"], "B")
    put("receiver.estimate_all_pilot_channels.calls",
        stat("receiver.estimate_all_pilot_channels", "calls"), "count")
    put("receiver.estimate_all_pilot_channels.self_s",
        stat("receiver.estimate_all_pilot_channels", "self_s"), "s")
    put("cancellation.receiver_init_s", stat("cancellation.receiver_init", "total_s"), "s")
    for sub in SUBTRACTIONS:
        calls = agg.get(f"cancellation.{sub}", {}).get("calls", 0)
        total = agg.get(f"cancellation.{sub}", {}).get("total_s", 0.0)
        put(f"cancellation.{sub}.calls", calls / n, "count")
        put(f"cancellation.{sub}.mean_s", total / calls if calls else 0.0, "s")
    put("cancellation.refresh_slot.calls", stat("cancellation.refresh_slot", "calls"), "count")
    put("cancellation.refresh_slot.self_s", stat("cancellation.refresh_slot", "self_s"), "s")
    put("cancellation.pab_channel_estimate.self_s",
        stat("cancellation.pab_channel_estimate", "self_s"), "s")
    put("cancellation.run_receiver.self_s", stat("cancellation.run_receiver", "self_s"), "s")
    attempts = stat("signals.qpsk_hard_demodulate", "calls")
    decodes = counts["cancellation.decodes"] / n
    put("cancellation.decode_attempts", attempts, "count")
    put("cancellation.decodes", decodes, "count")
    put("cancellation.attempt_yield", decodes / attempts if attempts else 0.0, "ratio")
    put("cancellation.sweeps", counts["cancellation.sweeps"] / n, "count")
    put("cancellation.logical_peel.self_s", stat("cancellation.logical_peel", "self_s"), "s")

    put("montecarlo.pool_startup_s", extras.get("pool_startup_s", 0.0), "s")
    computed = stat("montecarlo.make_frame", "calls")
    used = sum(r["frames_run"] for p in traced for r in p.outcomes.get("serial") or []) / n
    # per-frame compute measured serially, over the capacity of the pool that ran it
    busy = stat("montecarlo.make_frame", "total_s") + stat("cancellation.run_receiver", "total_s")
    pool_wall = statistics.mean(p.extra.get("pool_wall_s", p.wall_s) for p in traced)
    put("montecarlo.frames_computed", computed, "count")
    put("montecarlo.frames_used_ratio", used / computed if computed else 0.0, "ratio")
    put("montecarlo.worker_busy_ratio",
        busy / (workloads.NPROC * pool_wall) if computed else 0.0, "ratio")
    for algorithm, _trials in scale.singleton_trials:
        for a_total in scale.singleton_a:
            put(f"montecarlo.singleton_point_s.{algorithm}.{a_total}",
                stat(f"montecarlo.singleton_point.{algorithm}.{a_total}", "total_s"), "s")
    put("analysis.tabulate_s", stat("analysis.tabulate", "total_s"), "s")

    for layer in LAYERS:
        put(f"layer.{layer}.self_s",
            sum(v["self_s"] for k, v in agg.items() if k.startswith(layer + ".")) / n, "s")
    put("stage.frame_s",
        stat("frame.generate_user_plans", "total_s") + stat("frame.assemble_frame", "total_s"),
        "s")
    put("stage.subtraction_s",
        sum(stat(f"cancellation.{sub}", "total_s") for sub in SUBTRACTIONS), "s")
    put("stage.decode_s",
        stat("cancellation.run_receiver", "self_s") + stat("signals.qpsk_hard_demodulate", "total_s"),
        "s")
    put("trace.overhead_s", statistics.median(
        t.total_s - u.total_s for t, u in zip(traced, untraced)), "s")
    return out


def manifest(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    root = BENCH.parent
    git_rev = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        git_rev = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "git_rev": git_rev,
        "seed": seed,
    }


def run_workload(args) -> dict:
    start = time.perf_counter()
    import workloads

    workloads.warm_up(args.workload)
    setup = [time.perf_counter() - start]
    setup += [probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]

    scale = workloads.REFERENCE_SCALE
    reference = workloads.load_reference(scale)
    tracer = None
    extras = {}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        if args.workload == "sweep_pool":
            extras["pool_startup_s"] = pool_startup_s(workloads)
    warm, untraced, traced, failures = measure(
        workloads, args.workload, scale, reference[args.workload],
        args.seed, args.seconds, tracer)
    peak = peak_rss_mib()

    attempted = sum(len(p.outcomes) for p in warm + untraced + traced)
    e2e = end_to_end(untraced, setup, peak)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "manifest": manifest(args.seed),
        "setup_samples_s": setup,
        "report": report(workloads.WORKLOADS[args.workload], untraced, attempted,
                         len(failures), e2e),
        "failures": failures,
        "passes": [{"key": p.key, "kind": kind, "wall_s": p.wall_s, "total_s": p.total_s,
                    "trials": p.trials, "frame_s": p.frame_s, **p.extra}
                   for kind, group in (("warm", warm), ("untraced", untraced),
                                       ("traced", traced)) for p in group],
    }
    metrics = e2e
    if tracer is not None:
        metrics = per_layer(workloads, scale, tracer, untraced, traced, extras)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["absent_hooks"] = tracer.absent
    result["line"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for index, span in enumerate(tracer.spans):
                fh.write(json.dumps([index, *span]) + "\n")
    return result


def print_summary(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"failed {result['line']['failed']} of {result['line']['attempted']}")
    for name, metric in result["report"].items():
        details = "  ".join(f"{k}={v}" for k, v in metric.items() if k not in ("value", "unit"))
        print(f"  {name:<18} {metric['value']:.6g} {metric['unit']}  {details}".rstrip())
    for name, metric in result.get("per_layer", {}).items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in a fresh process, then every end-to-end metric per workload."""
    lines = {}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        print("\n".join(out.stdout.splitlines()[:-1]))
        lines[name] = json.loads(out.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "workloads": lines,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    adopt_orphans()
    try:
        result = run_workload(args)
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_descendants()
    print_summary(result)
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
