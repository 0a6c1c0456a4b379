"""Record the outcomes every benchmark run is checked against.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs every pool input of the named workloads (default: all) at the benchmark
scale and merges the outcomes into ``bench/reference.json``.  The file in the
repository was recorded from the seed code, whose outcomes define correctness;
re-record only when a change is meant to alter results, and say so.
"""
from __future__ import annotations

import json
import sys
import time

import workloads


def main(names) -> int:
    path = workloads.REFERENCE_PATH
    scale = workloads.REFERENCE_SCALE
    reference = {"scale": scale.describe(), "workloads": {}}
    if path.exists():
        reference["workloads"] = workloads.load_reference(scale, path)
    for name in names or workloads.WORKLOADS:
        start = time.perf_counter()
        reference["workloads"][name] = workloads.record(name, scale)
        print(f"{name}: {time.perf_counter() - start:.1f} s", flush=True)
        path.write_text(json.dumps(reference, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
