"""Set-up probe: time a fresh process importing qprec and warming each layer.

Usage: python3 perfbench/probe.py <src dir> <workload seed>
Prints the elapsed seconds as its only output line.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads  # noqa: E402  (imports every qprec layer)

workloads.warm_up(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
