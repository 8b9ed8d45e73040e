"""The package's source for the processes the tests start.

pyproject.toml puts src on the path of the pytest process itself; the
child processes (`python -m ncwb.cli`, `python -c`, the demos) read it
from PYTHONPATH, so a checkout runs its tests without an install.
"""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
