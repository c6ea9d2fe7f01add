"""Set-up probe: a fresh interpreter imports wastefigure and runs the first op.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Prints ``time.monotonic_ns()`` once the first op has returned; the
caller subtracts the time it started this process.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import wastefigure  # noqa: E402,F401

from wfbench.context import nproc  # noqa: E402
from wfbench.workloads import WORKLOADS  # noqa: E402

name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
WORKLOADS[name](ROOT, work, seed, nproc(), pool=1).setup_op()
print(time.monotonic_ns())
