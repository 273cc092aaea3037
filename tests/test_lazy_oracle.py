"""Only the numeric oracle needs numpy, and only it loads numpy.

The numpy-free checks run in a fresh interpreter: tests/helpers.py and the
benchmark hook test import the oracle into the test process itself.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import pmmobility
import pmmobility.oracle
import pmmobility.relations

SRC = Path(__file__).resolve().parent.parent / "src"

_CHILD = """
import sys
sys.path.insert(0, {src!r})
import pmmobility, pmmobility.cli
code = pmmobility.cli.run({argv!r})
print(code, "numpy" in sys.modules)
"""


def _numpy_loaded(argv: list[str]) -> tuple[int, bool]:
    child = subprocess.run(
        [sys.executable, "-c", _CHILD.format(src=str(SRC), argv=argv)],
        capture_output=True,
        text=True,
        check=True,
    )
    code, loaded = child.stdout.splitlines()[-1].split()
    return int(code), loaded == "True"


def test_analysis_without_oracle_never_loads_numpy(fixtures_dir):
    hinge = str(fixtures_dir / "toy_hinge.mech")
    assert _numpy_loaded(["analyze", "--format", "structured", "--trace", hinge]) == (0, False)
    assert _numpy_loaded(["analyze", "--oracle", "--seeds", "2", hinge]) == (0, True)


def test_every_public_name_resolves():
    for name in pmmobility.__all__:
        assert getattr(pmmobility, name) is not None
    assert pmmobility.verify_mechanism is pmmobility.oracle.verify_mechanism
    namespace: dict[str, object] = {}
    exec("from pmmobility import *", namespace)
    assert set(pmmobility.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        pmmobility.no_such_name


def test_unsatisfiable_is_one_class():
    assert pmmobility.Unsatisfiable is pmmobility.oracle.Unsatisfiable
    assert pmmobility.oracle.Unsatisfiable is pmmobility.relations.Unsatisfiable
    assert issubclass(pmmobility.Unsatisfiable, ValueError)
