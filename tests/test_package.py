"""Tests of the package's import surface: each name has one import path, its module."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_submodule():
    code = ("import json, sys, csa_mimo; print(json.dumps(["
            "sorted(m for m in sys.modules if m.startswith('csa_mimo.')), "
            "sorted(n for n in vars(csa_mimo) if not n.startswith('__')), "
            "csa_mimo.__version__]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    submodules, public, version = json.loads(done.stdout)
    assert submodules == []
    assert public == []
    assert isinstance(version, str) and version


def resolve(dotted: str):
    """The object a dotted name names, importing each module on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def test_readme_dotted_names_resolve():
    names = sorted(set(re.findall(r"csa_mimo(?:\.\w+)+", (ROOT / "README.md").read_text())))
    assert "csa_mimo.montecarlo.emit_csv" in names
    for dotted in names:
        resolve(dotted)
