"""Command-line front end for the simulator.

Three experiments are exposed: ``plr`` (packet-loss-rate sweep over the
active-user count), ``singleton`` (single-slot singleton decode failure
versus slot load), and ``analysis`` (closed-form failure curve).  Options
may come from a flat ``key = value`` config file; command-line flags
override file values.  A flag the chosen experiment does not read is an
error; an unread config-file key is not, and is only parsed, as a file may be shared.
"""
from __future__ import annotations

import argparse
import dataclasses
import re
import sys

from .cancellation import DECODE_CRITERIA, Algorithm
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


def _split_list(text: str) -> list[str]:
    entries = [v.strip() for v in text.split(",")]
    if "" in entries:
        raise ValueError(f"empty entry in comma-separated list {text!r}")
    return entries


# every config key with the parser of its value: the SystemConfig fields,
# each typed by its value in the default config, and the SweepSpec fields
_SYSTEM_DEFAULTS = dataclasses.asdict(SystemConfig())
_SYSTEM_KEYS = {k: type(v) for k, v in _SYSTEM_DEFAULTS.items()}
_SWEEP_KEYS = {"ka_values": lambda text: [int(v) for v in _split_list(text)],
               "algorithms": _split_list, "min_frames": int, "max_frames": int,
               "target_loss_events": int, "base_seed": int, "decode_criterion": str}
_CONFIG_KEYS = _SYSTEM_KEYS | _SWEEP_KEYS


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
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated config key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: config key {key!r}: {exc}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    par = argparse.ArgumentParser(
        prog="csa-mimo",
        description="Monte Carlo simulator for coded slotted ALOHA over a "
        "massive-MIMO uplink with successive interference subtraction.",
    )
    # argparse reads an argument as a value rather than a flag if it matches
    # this pattern; its own has no exponent, so "--symbol-rate -1e6" failed
    # with "expected one argument" before the rate could be checked
    par._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    # a flag that sets a config key stores to it, with the flag's name as metavar
    par.add_argument("--experiment", choices=("plr", "singleton", "analysis"),
                     default="plr")
    par.add_argument("--config", help="flat key = value config file")
    par.add_argument("--algorithm", dest="algorithms", metavar="ALGORITHM",
                     help="comma-separated subset of snb,pab,prce,logical")
    par.add_argument("--ka", type=int, help="single active-user count")
    par.add_argument("--ka-range", metavar="START:STOP:STEP",
                     help="inclusive active-user grid")
    par.add_argument("--frames", type=int, dest="max_frames", metavar="FRAMES",
                     help="frame cap per sweep point")
    par.add_argument("--min-frames", type=int, help="frames to run before the "
                     "loss-event stopping rule may fire")
    par.add_argument("--target-losses", type=int, dest="target_loss_events",
                     metavar="TARGET_LOSSES",
                     help="loss events after which a sweep point stops")
    par.add_argument("--seed", type=int, dest="base_seed", metavar="SEED",
                     help="base seed for all streams")
    par.add_argument("--m", type=int, help="receive antennas")
    par.add_argument("--n-slots", type=int,
                     help="slots per frame (default: derived from latency)")
    par.add_argument("--n-pilots", type=int, dest="n_p", metavar="N_PILOTS",
                     help="orthogonal pilot count")
    par.add_argument("--n-d", type=int, help="payload symbols per replica")
    par.add_argument("--r", type=int, help="replicas per user")
    par.add_argument("--t", type=int, help="correctable errors per packet")
    par.add_argument("--noise-var", type=float, help="per-entry noise power")
    par.add_argument("--latency-ms", type=float, help="latency budget")
    par.add_argument("--symbol-rate", type=float, help="symbols per second")
    par.add_argument("--decode-criterion", choices=DECODE_CRITERIA)
    par.add_argument("--out", help="output CSV path (default: stdout)")
    par.add_argument("--workers", type=int, help="parallel worker processes")
    par.add_argument("--no-timing", action="store_true",
                     help="zero the wall-clock column for byte-stable output")
    par.add_argument("--a-total", type=int,
                     help="users in the probed slot (singleton/analysis)")
    par.add_argument("--a-range", metavar="START:STOP:STEP",
                     help="inclusive slot-load grid (singleton/analysis)")
    par.add_argument("--a-pilot", type=int, help="users sharing the probed pilot")
    par.add_argument("--presub-fraction", type=float,
                     help="fraction of out-of-pilot users subtracted before "
                     "the singleton attempt (PAB only)")
    par.add_argument("--trials", type=int, help="trials per singleton point")
    return par


# the flags each experiment reads, by dest; the others are rejected.  --config,
# --out and --no-timing apply to all three.  singleton and analysis take the
# system keys among them, and no others, and leave their checks to the callee.
_EXPERIMENT_FLAGS = {
    "plr": {"algorithms", "ka", "ka_range", "min_frames", "max_frames", "target_loss_events",
            "base_seed", "decode_criterion", "workers"} | set(_SYSTEM_KEYS),
    "singleton": {"algorithms", "a_total", "a_range", "a_pilot", "presub_fraction", "trials",
                  "base_seed", "decode_criterion", "workers", "m", "n_p", "n_d", "t", "noise_var"},
    "analysis": {"a_total", "a_range", "a_pilot", "m", "n_d", "t"},
}


def _reject_unread_flags(args, parser: argparse.ArgumentParser) -> None:
    unread = set().union(*_EXPERIMENT_FLAGS.values()) - _EXPERIMENT_FLAGS[args.experiment]
    for action in parser._actions:
        if action.dest in unread and getattr(args, action.dest) is not None:
            raise ValueError(f"{action.option_strings[0]} does not apply to the "
                             f"{args.experiment} experiment")


def _load_values(value, grid, flags: tuple[str, str]) -> list[int] | None:
    """One load or an inclusive START:STOP:STEP grid; None if neither is given."""
    if value is not None and grid is not None:
        raise ValueError(f"give {flags[0]} or {flags[1]}, not both")
    if grid is None:
        return None if value is None else [value]
    try:
        start, stop, step = (int(p) for p in grid.split(":"))
    except ValueError:  # not three parts, or a part not an integer
        raise ValueError(f"{flags[1]} expects START:STOP:STEP integers, got {grid!r}") from None
    if step <= 0 or start > stop:
        raise ValueError(f"{flags[1]} needs start <= stop and a positive step, got {grid!r}")
    return list(range(start, stop + 1, step))


def _merged_options(args) -> dict:
    opts = parse_config_file(args.config) if args.config else {}
    # the key's parser passes a typed flag through and splits --algorithm
    opts |= {k: _CONFIG_KEYS[k](v) for k, v in vars(args).items()
             if k in _CONFIG_KEYS and v is not None}
    ka_values = _load_values(args.ka, args.ka_range, ("--ka", "--ka-range"))
    if ka_values is not None:
        opts["ka_values"] = ka_values
    return opts


def _system_config(opts: dict) -> SystemConfig:
    fields = {k: opts[k] for k in _SYSTEM_KEYS if k in opts}
    for budget in ("latency_ms", "symbol_rate"):
        if "n_slots" in fields and budget in fields:
            raise ValueError(f"give n_slots or the latency budget, not both (got {budget})")
    return SystemConfig(**fields)


def _run(args, parser: argparse.ArgumentParser) -> list:
    _reject_unread_flags(args, parser)
    opts = _merged_options(args)
    workers = 1 if args.workers is None else args.workers
    a_pilot = 1 if args.a_pilot is None else args.a_pilot

    if args.experiment == "plr":
        config = _system_config(opts)
        sweep = {"ka_values": [config.k_a], "algorithms": ["pab"], "max_frames": 100}
        sweep |= {k: opts[k] for k in _SWEEP_KEYS if k in opts}
        return run_plr_sweep(SweepSpec(config=config, **sweep), workers=workers,
                             measure_time=not args.no_timing)

    a_values = _load_values(args.a_total, args.a_range, ("--a-total", "--a-range"))
    if a_values is None:
        raise ValueError("provide --a-total or --a-range for this experiment")
    system = {k: opts.get(k, _SYSTEM_DEFAULTS[k])
              for k in _EXPERIMENT_FLAGS[args.experiment] & _SYSTEM_KEYS.keys()}
    if args.experiment == "analysis":
        return tabulate_singleton_failure(a_pilot=a_pilot, a_values=a_values, **system)

    algos = opts.get("algorithms", ["snb"])
    if len(algos) != 1:
        raise ValueError("singleton experiment takes exactly one algorithm")
    if opts.get("channel_var", 1.0) != 1.0:
        raise ValueError("the singleton experiment models unit channel variance, "
                         f"got channel_var={opts['channel_var']}")
    return run_singleton_sweep(
        a_pilot=a_pilot, a_values=a_values, **system,
        presub_fraction=0.0 if args.presub_fraction is None else args.presub_fraction,
        trials=10000 if args.trials is None else args.trials,
        algorithm=Algorithm(algos[0]), seed=opts.get("base_seed", 0),
        decode_criterion=opts.get("decode_criterion", "bit"),
        workers=workers,
    )


_RECORD_TYPES = {"plr": PlrRecord, "singleton": SingletonRecord,
                 "analysis": AnalysisRecord}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records = _run(args, parser)
        target = args.out if args.out else sys.stdout
        emit_csv(records, target, record_type=_RECORD_TYPES[args.experiment])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
