"""The library imports only the dependencies pyproject.toml declares, and
no module that only an optional path uses.

scipy is a ``test`` extra used by the test suite and the benchmark, so it
is loaded in this process already; the check runs in a fresh interpreter.
``concurrent.futures`` runs only a cell's ``workers > 1`` pool, so a plain
import does not load it.
"""

import os
import subprocess
import sys
from pathlib import Path

import grasspack


def test_import_loads_no_scipy():
    src = str(Path(grasspack.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, grasspack; "
            "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')])")
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
