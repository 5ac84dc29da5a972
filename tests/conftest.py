"""Make the package in src/ importable by the subprocesses some tests start.

pyproject's pytest `pythonpath` covers this process only; `python -m
spechtfan` in a child process reads PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
