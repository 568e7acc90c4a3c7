"""Set-up of one workload in a fresh interpreter.

Usage: python3 setup_child.py <workload> <seed> <start>, where <start> is
``time.monotonic()`` read by the parent just before it started this process.
Prints the seconds from <start> until the workload's pqzeta modules are
imported and its inputs are built.
"""

import importlib
import sys
import time

import harness

workload, seed, start = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
harness.use_source_tree()
importlib.import_module(harness.WORKLOADS[workload]).setup(seed)
print(time.monotonic() - start)
