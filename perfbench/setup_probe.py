"""Child process for ``setup_s``: import grasspack and build one workload's specs.

Prints ``ready`` once the first solve call could be made; run.py times a
fresh interpreter from start to that line.  Usage: setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
