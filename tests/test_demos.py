"""The demos run to completion and print what they promise."""

import pathlib
import subprocess
import sys

import pytest

from ncwb.catalog import BUILTIN_NAMES, builtin

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def run_demo(name):
    # conftest.py puts src on the demo's PYTHONPATH
    return subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_zero(name):
    r = run_demo(name)
    assert r.returncode == 0, r.stderr
    assert r.stdout


def test_universal_factorization_demo_matches_the_transpose():
    r = run_demo("universal_factorization.py")
    assert r.returncode == 0, r.stderr
    derived = [name for name in BUILTIN_NAMES
               if builtin(name).pair.source_calculus is not None]
    verdicts = [line.strip() for line in r.stdout.splitlines()
                if line.strip().startswith("Phi == transpose(phi):")]
    assert verdicts == ["Phi == transpose(phi): True"] * len(derived)


def test_quantum_plane_demo_reads_each_defect_off_the_bimodule_commutator():
    r = run_demo("quantum_plane_commutators.py")
    assert r.returncode == 0, r.stderr
    witnesses = [line for line in r.stdout.splitlines()
                 if line.strip().startswith("commutator at")]
    verdicts = [line for line in r.stdout.splitlines()
                if line.startswith("defect = action of")]
    assert witnesses and len(verdicts) == len(witnesses)
    assert all(line.endswith(": holds exactly") for line in verdicts)
