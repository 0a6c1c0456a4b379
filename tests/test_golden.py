"""Golden parity: the CLI reproduces recorded ``--no-timing`` CSVs byte for byte.

The files under ``tests/data/golden`` pin the simulator's results: every
algorithm under both decode criteria, the singleton experiment for SNB and
PAB, and the closed-form table.  A change that only restructures code must
leave them untouched.  Re-record them with

    PYTHONPATH=src python tests/test_golden.py

only in a change that means to alter results.
"""
from pathlib import Path

import pytest

from csa_mimo import signals
from csa_mimo.cli import main

DATA = Path(__file__).resolve().parent / "data" / "golden"

# the system flags each experiment reads, and --no-timing
ANALYSIS_DIMS = ["--m", "32", "--n-d", "32", "--t", "3", "--no-timing"]
SINGLETON_DIMS = ANALYSIS_DIMS + ["--n-pilots", "8"]
PLR_DIMS = SINGLETON_DIMS + ["--n-slots", "10"]
PLR = ["--experiment", "plr", "--algorithm", "snb,pab,prce,logical", "--ka-range", "20:60:20",
       "--frames", "6", "--target-losses", "1000"] + PLR_DIMS
SINGLETON = ["--experiment", "singleton", "--a-range", "4:16:6", "--presub-fraction", "0.5",
             "--trials", "300"] + SINGLETON_DIMS

CASES = {
    "plr_bit.csv": PLR + ["--decode-criterion", "bit"],
    "plr_symbol.csv": PLR + ["--decode-criterion", "symbol"],
    "singleton_snb.csv": SINGLETON + ["--algorithm", "snb"],
    "singleton_pab.csv": SINGLETON + ["--algorithm", "pab"],
    "analysis.csv": ["--experiment", "analysis", "--a-range", "4:16:6"] + ANALYSIS_DIMS,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_reproduces_golden_csv(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", ["plr_bit.csv", "plr_symbol.csv"])
def test_frames_drawn_in_parts_reproduce_golden_csv(name, tmp_path, monkeypatch):
    # these frames are far below _MIN_PART normals, so they are drawn on one
    # thread above; one normal per part splits each into three
    monkeypatch.setattr(signals, "_MIN_PART", 1)
    monkeypatch.setattr(signals.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    test_cli_reproduces_golden_csv(name, tmp_path)


@pytest.mark.parametrize("name", ["singleton_pab.csv", "singleton_snb.csv"])
def test_singleton_noise_drawn_in_parts_reproduces_golden_csv(name, tmp_path, monkeypatch):
    # every complex draw of the singleton experiment is split into three
    # parts, and the PAB payload noise is drawn one trial per chunk
    monkeypatch.setattr(signals, "_MIN_PART", 1)
    monkeypatch.setattr(signals.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    test_cli_reproduces_golden_csv(name, tmp_path)


if __name__ == "__main__":
    for name, argv in CASES.items():
        if main(argv + ["--out", str(DATA / name)]) != 0:
            raise SystemExit(f"recording {name} failed")
