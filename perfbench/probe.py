"""Set-up time of one fresh process, as a CLI user pays it on every call.

    python3 perfbench/probe.py WORKLOAD SEED

Imports lzsim and lzsim.cli, makes the workload's inputs from the seed, and
prints the seconds this took.  run.py starts several and reports the median.
"""

import time

START = time.perf_counter()

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lzsim
import lzsim.cli
import workloads

workloads.WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
print(repr(time.perf_counter() - START))
