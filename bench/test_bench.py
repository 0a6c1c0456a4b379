"""Smoke test of the benchmark harness at a tiny size.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Every workload runs one untraced and one traced pass, checked against
outcomes recorded at the same tiny size.
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.TINY_SCALE
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference():
    return {name: workloads.record(name, TINY) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_checked_and_traced(name, reference):
    tracer = tracing.Tracer()
    warm, untraced, traced, failures = run.measure(
        workloads, name, TINY, reference[name], seed=3, seconds=0, tracer=tracer)
    assert failures == []
    assert len(warm) == workloads.WORKLOADS[name].warm
    assert len(untraced) == len(traced) == 1
    assert tracer.absent == []
    layer = run.per_layer(workloads, TINY, tracer, untraced, traced, {})
    assert [(k, u) for k, (_v, u) in layer.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    e2e = run.end_to_end(untraced, [1.0], 1.0)
    assert [(k, u) for k, (_v, u) in e2e.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert all(v > 0 for v, _u in e2e.values())


def test_changed_outcome_counts_as_failed(reference):
    expected = json.loads(json.dumps(reference["snb_ka700_900"]))
    for outcomes in expected.values():
        outcomes["snb.10"]["n_pa"] += 1
    _warm, _untraced, _traced, failures = run.measure(
        workloads, "snb_ka700_900", TINY, expected, seed=0, seconds=0)
    assert [f["op"] for f in failures] == ["snb.10"] * 2  # the warm and the timed pass


def test_tracer_restores_package_and_skips_absent_names():
    from csa_mimo import cancellation, frame

    originals = (frame.assemble_frame, cancellation.ReceiverState.refresh_slot)
    hooks = tracing.HOOKS + (("csa_mimo.cancellation", "no_such_function", "x", None),)
    tracer = tracing.Tracer(hooks)
    tracer.install()
    assert frame.assemble_frame is not originals[0]
    tracer.uninstall()
    assert (frame.assemble_frame, cancellation.ReceiverState.refresh_slot) == originals
    assert tracer.absent == ["csa_mimo.cancellation.no_such_function"]


def test_self_time_excludes_children():
    tracer = tracing.Tracer(())
    tracer.spans[:] = [("outer", -1, 0.0, 10.0), ("inner", 0, 1.0, 4.0), ("inner", 0, 5.0, 7.0)]
    agg = tracer.aggregate()
    assert agg["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert agg["inner"]["calls"] == 2 and agg["inner"]["self_s"] == pytest.approx(5.0)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(1, 21))) == (50, 10)
