"""Command-line front end for the simulator.

Three experiments are exposed: ``plr`` (packet-loss-rate sweep over the
active-user count), ``singleton`` (single-slot singleton decode failure
versus slot load), and ``analysis`` (closed-form failure curve).  Options
may come from a flat ``key = value`` config file; command-line flags
override file values.
"""
from __future__ import annotations

import argparse
import sys

from .cancellation import Algorithm
from .frame import SystemConfig
from .montecarlo import (
    AnalysisRecord,
    PlrRecord,
    SingletonRecord,
    SweepSpec,
    emit_csv,
    run_plr_sweep,
    run_singleton_sweep,
    tabulate_singleton_failure,
)
from .receiver import DECODE_CRITERIA

_CONFIG_KEYS = {
    "k_a": int, "m": int, "n_slots": int, "n_p": int, "n_d": int, "r": int,
    "noise_var": float, "channel_var": float, "t": int,
    "latency_ms": float, "symbol_rate": float,
    "ka_values": "int_list", "algorithms": "str_list",
    "min_frames": int, "max_frames": int, "target_loss_events": int,
    "base_seed": int, "decode_criterion": str,
}


def parse_config_file(path: str) -> dict:
    """Read a flat ``key = value`` config file (# starts a comment)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = _CONFIG_KEYS[key]
            if kind == "int_list":
                values[key] = [int(v) for v in val.split(",") if v.strip()]
            elif kind == "str_list":
                values[key] = [v.strip() for v in val.split(",") if v.strip()]
            else:
                values[key] = kind(val)
    return values


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    start, stop, step = (int(p) for p in parts)
    if step <= 0 or start > stop:
        raise ValueError(f"range needs start <= stop and a positive step, got {text!r}")
    return list(range(start, stop + 1, step))


def build_parser() -> argparse.ArgumentParser:
    par = argparse.ArgumentParser(
        prog="csa-mimo",
        description="Monte Carlo simulator for coded slotted ALOHA over a "
        "massive-MIMO uplink with successive interference subtraction.",
    )
    par.add_argument("--experiment", choices=("plr", "singleton", "analysis"),
                     default="plr")
    par.add_argument("--config", help="flat key = value config file")
    par.add_argument("--algorithm",
                     help="comma-separated subset of snb,pab,prce,logical")
    par.add_argument("--ka", type=int, help="single active-user count")
    par.add_argument("--ka-range", metavar="START:STOP:STEP",
                     help="inclusive active-user grid")
    par.add_argument("--frames", type=int, help="frame cap per sweep point")
    par.add_argument("--min-frames", type=int, help="frames to run before the "
                     "loss-event stopping rule may fire")
    par.add_argument("--target-losses", type=int,
                     help="loss events after which a sweep point stops")
    par.add_argument("--seed", type=int, help="base seed for all streams")
    par.add_argument("--m", type=int, help="receive antennas")
    par.add_argument("--n-slots", type=int,
                     help="slots per frame (default: derived from latency)")
    par.add_argument("--n-pilots", type=int, help="orthogonal pilot count")
    par.add_argument("--n-d", type=int, help="payload symbols per replica")
    par.add_argument("--r", type=int, help="replicas per user")
    par.add_argument("--t", type=int, help="correctable errors per packet")
    par.add_argument("--noise-var", type=float, help="per-entry noise power")
    par.add_argument("--latency-ms", type=float, help="latency budget")
    par.add_argument("--symbol-rate", type=float, help="symbols per second")
    par.add_argument("--decode-criterion", choices=DECODE_CRITERIA)
    par.add_argument("--out", help="output CSV path (default: stdout)")
    par.add_argument("--workers", type=int, default=1,
                     help="parallel worker processes")
    par.add_argument("--no-timing", action="store_true",
                     help="zero the wall-clock column for byte-stable output")
    par.add_argument("--a-total", type=int,
                     help="users in the probed slot (singleton/analysis)")
    par.add_argument("--a-range", metavar="START:STOP:STEP",
                     help="inclusive slot-load grid (singleton/analysis)")
    par.add_argument("--a-pilot", type=int, default=1,
                     help="users sharing the probed pilot")
    par.add_argument("--presub-fraction", type=float, default=0.0,
                     help="fraction of out-of-pilot users subtracted before "
                     "the singleton attempt (PAB only)")
    par.add_argument("--trials", type=int, default=10000,
                     help="trials per singleton point")
    return par


# the load flags each experiment reads
_LOAD_FLAGS = {"plr": ("ka", "ka_range"), "singleton": ("a_total", "a_range"),
               "analysis": ("a_total", "a_range")}


def _merged_options(args) -> dict:
    for name in ("ka", "ka_range", "a_total", "a_range"):
        if getattr(args, name) is not None and name not in _LOAD_FLAGS[args.experiment]:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} does not apply to the {args.experiment} experiment")
    opts = dict(parse_config_file(args.config)) if args.config else {}
    overrides = {
        "m": args.m, "n_slots": args.n_slots, "n_p": args.n_pilots,
        "n_d": args.n_d, "r": args.r, "t": args.t,
        "noise_var": args.noise_var, "latency_ms": args.latency_ms,
        "symbol_rate": args.symbol_rate, "min_frames": args.min_frames,
        "max_frames": args.frames, "target_loss_events": args.target_losses,
        "base_seed": args.seed, "decode_criterion": args.decode_criterion,
    }
    for key, val in overrides.items():
        if val is not None:
            opts[key] = val
    if args.algorithm is not None:
        opts["algorithms"] = [a.strip() for a in args.algorithm.split(",")]
    if args.ka is not None and args.ka_range is not None:
        raise ValueError("give --ka or --ka-range, not both")
    if args.ka_range is not None:
        opts["ka_values"] = _parse_range(args.ka_range)
    if args.ka is not None:
        opts["ka_values"] = [args.ka]
    return opts


def _system_config(opts: dict) -> SystemConfig:
    fields = {
        k: opts[k]
        for k in ("m", "n_slots", "n_p", "n_d", "r", "noise_var", "channel_var", "t",
                  "latency_ms", "symbol_rate")
        if k in opts
    }
    if "n_slots" in fields:
        return SystemConfig(**fields)
    return SystemConfig.from_latency(**fields)


def _a_values(args) -> list[int]:
    if args.a_total is not None and args.a_range is not None:
        raise ValueError("give --a-total or --a-range, not both")
    if args.a_range is not None:
        return _parse_range(args.a_range)
    if args.a_total is not None:
        return [args.a_total]
    raise ValueError("provide --a-total or --a-range for this experiment")


def _run(args) -> list:
    opts = _merged_options(args)
    config = _system_config(opts)

    if args.experiment == "plr":
        spec = SweepSpec(
            config=config,
            ka_values=opts.get("ka_values", [opts.get("k_a", config.k_a)]),
            algorithms=opts.get("algorithms", ["pab"]),
            min_frames=opts.get("min_frames", 1),
            max_frames=opts.get("max_frames", 100),
            target_loss_events=opts.get("target_loss_events", 100),
            base_seed=opts.get("base_seed", 0),
            decode_criterion=opts.get("decode_criterion", "bit"),
        )
        return run_plr_sweep(spec, workers=args.workers,
                             measure_time=not args.no_timing)

    if args.experiment == "singleton":
        algos = opts.get("algorithms", ["snb"])
        if len(algos) != 1:
            raise ValueError("singleton experiment takes exactly one algorithm")
        return run_singleton_sweep(
            m=config.m, n_d=config.n_d, t=config.t, a_pilot=args.a_pilot,
            a_values=_a_values(args), presub_fraction=args.presub_fraction,
            trials=args.trials, algorithm=Algorithm(algos[0]),
            n_p=config.n_p, noise_var=config.noise_var,
            seed=opts.get("base_seed", 0),
            decode_criterion=opts.get("decode_criterion", "bit"),
            workers=args.workers,
        )

    return tabulate_singleton_failure(
        m=config.m, n_d=config.n_d, t=config.t, a_pilot=args.a_pilot,
        a_values=_a_values(args),
    )


_RECORD_TYPES = {"plr": PlrRecord, "singleton": SingletonRecord,
                 "analysis": AnalysisRecord}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        records = _run(args)
        target = args.out if args.out else sys.stdout
        emit_csv(records, target, record_type=_RECORD_TYPES[args.experiment])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
