"""Outside-in tracing of csa_mimo: wrap public names, record spans, sum self time.

The tracer replaces module and class attributes of the package with timing
wrappers while a traced pass runs, and puts the originals back afterwards, so
untraced passes run the package exactly as shipped.  Each call becomes a span
(name, parent, start, end); a span's self time is its duration minus the time
covered by its children.  A hooked name that the package no longer has is
listed in ``absent`` and its metrics read zero; nothing else fails.

Hooks patch the binding that callers actually look up: ``frame.complex_normal``
is the name ``assemble_frame`` calls, ``montecarlo.complex_normal`` the one the
singleton experiment calls, and both record under ``signals.complex_normal``.
Worker processes of a pool import the package afresh and are not traced.
"""
from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import time


def _argument(fn, name):
    """Return a reader of argument ``name`` from a call of ``fn``."""
    signature = inspect.signature(fn)

    def read(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments.get(name)

    return read


def _named(fn, base, *arguments):
    """Span name ``base`` followed by the str() of the given arguments."""
    readers = [_argument(fn, a) for a in arguments]

    def name_of(args, kwargs):
        parts = [base]
        for read in readers:
            value = read(args, kwargs)
            parts.append(str(getattr(value, "value", value)))
        return ".".join(parts)

    return name_of


def _count_samples(fn):
    read_shape = _argument(fn, "shape")

    def on_call(counts, args, kwargs, _result):
        shape = read_shape(args, kwargs)
        samples = math.prod(shape) if hasattr(shape, "__iter__") else int(shape)
        counts["signals.complex_normal.samples"] += samples

    return on_call


def _count_signal_bytes(_fn):
    def on_call(counts, _args, _kwargs, frame):
        size = sum(s.p.nbytes + s.y.nbytes for s in frame.slots or [])
        size += sum(h.nbytes for h in frame.true_channels.values())
        counts["frame.signal_bytes"] = max(counts["frame.signal_bytes"], size)

    return on_call


def _count_decodes(fn):
    read_algorithm = _argument(fn, "algorithm")

    def on_call(counts, args, kwargs, report):
        if str(getattr(read_algorithm(args, kwargs), "value", "")) == "logical":
            return
        counts["cancellation.decodes"] += report.decoded_count
        counts["cancellation.sweeps"] += report.sweep_count

    return on_call


# (module, attribute, span name or name builder, optional result counter).
# A span name builder takes the wrapped function and returns name_of(args, kwargs).
HOOKS = (
    ("csa_mimo.frame", "generate_user_plans", "frame.generate_user_plans", None),
    ("csa_mimo.frame", "assemble_frame", "frame.assemble_frame", _count_signal_bytes),
    ("csa_mimo.frame", "complex_normal", "signals.complex_normal", _count_samples),
    ("csa_mimo.montecarlo", "complex_normal", "signals.complex_normal", _count_samples),
    ("csa_mimo.receiver", "walsh_hadamard_transform",
     "signals.walsh_hadamard_transform", None),
    ("csa_mimo.cancellation", "estimate_all_pilot_channels",
     "receiver.estimate_all_pilot_channels", None),
    ("csa_mimo.cancellation", "ReceiverState.__init__", "cancellation.receiver_init", None),
    ("csa_mimo.cancellation", "ReceiverState.refresh_slot", "cancellation.refresh_slot", None),
    ("csa_mimo.cancellation", "snb_subtract",
     lambda fn: _named(fn, "cancellation.snb_subtract", "mode"), None),
    ("csa_mimo.cancellation", "pab_subtract",
     lambda fn: _named(fn, "cancellation.pab_subtract", "mode"), None),
    ("csa_mimo.cancellation", "prce_subtract",
     lambda fn: _named(fn, "cancellation.prce_subtract", "mode"), None),
    ("csa_mimo.cancellation", "pab_channel_estimate", "cancellation.pab_channel_estimate", None),
    # only the receiver's binding is hooked, and it demodulates once per decode
    # attempt on a (slot, pilot) resource, so its calls count decode attempts
    ("csa_mimo.cancellation", "qpsk_hard_demodulate", "signals.qpsk_hard_demodulate", None),
    ("csa_mimo.cancellation", "logical_peel", "cancellation.logical_peel", None),
    ("csa_mimo.cancellation", "run_receiver", "cancellation.run_receiver", _count_decodes),
    ("csa_mimo.montecarlo", "run_receiver", "cancellation.run_receiver", _count_decodes),
    ("csa_mimo.montecarlo", "make_frame", "montecarlo.make_frame", None),
    ("csa_mimo.montecarlo", "run_singleton_experiment",
     lambda fn: _named(fn, "montecarlo.singleton_point", "algorithm", "a_total"), None),
    ("csa_mimo.montecarlo", "tabulate_singleton_failure", "analysis.tabulate", None),
)


class Tracer:
    """Span recorder that patches ``HOOKS`` between ``install`` and ``uninstall``."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts = collections.Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        for module_name, attribute, name, counter in self.hooks:
            owner, attr, original = _resolve(module_name, attribute)
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            name_of = name(original) if callable(name) else name
            on_call = counter(original) if counter else None
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name_of, on_call))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _wrap(self, fn, name_of, on_call):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs) if callable(name_of) else name_of
            index = len(spans)
            spans.append((name, stack[-1] if stack else -1, 0.0, 0.0))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, spans[index][1], start, end)
            if on_call is not None:
                on_call(counts, args, kwargs, result)
            return result

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for (name, _parent, start, end), children in zip(self.spans, child_time):
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return totals


def _resolve(module_name: str, attribute: str):
    """(owner, attribute, current value) for ``module.attr`` or ``module.Class.attr``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attribute, None
    *path, attr = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, getattr(owner, attr, None)
