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

from csa_mimo.cli import main

DATA = Path(__file__).resolve().parent / "data" / "golden"

DIMS = ["--m", "32", "--n-pilots", "8", "--n-d", "32", "--n-slots", "10", "--t", "3",
        "--no-timing"]
PLR = ["--experiment", "plr", "--algorithm", "snb,pab,prce,logical", "--ka-range", "20:60:20",
       "--frames", "6", "--target-losses", "1000"]
SINGLETON = ["--experiment", "singleton", "--a-range", "4:16:6", "--presub-fraction", "0.5",
             "--trials", "300"]

CASES = {
    "plr_bit.csv": PLR + ["--decode-criterion", "bit"],
    "plr_symbol.csv": PLR + ["--decode-criterion", "symbol"],
    "singleton_snb.csv": SINGLETON + ["--algorithm", "snb"],
    "singleton_pab.csv": SINGLETON + ["--algorithm", "pab"],
    "analysis.csv": ["--experiment", "analysis", "--a-range", "4:16:6"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_reproduces_golden_csv(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + DIMS + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        if main(argv + DIMS + ["--out", str(DATA / name)]) != 0:
            raise SystemExit(f"recording {name} failed")
