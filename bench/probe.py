"""One set-up of a benchmark run in a fresh interpreter.

Usage: python3 bench/probe.py <src dir> <manifest>

Imports ``ripsdecomp`` from the given source directory, loads the workload's
instance list, and prints ``time.monotonic()`` at that point.  CLOCK_MONOTONIC
is shared by all processes, so the caller subtracts the time it took just
before starting this interpreter.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

import ripsdecomp.cli  # noqa: E402,F401  (the import is what is measured)

with open(sys.argv[2]) as fh:
    if not json.load(fh)["instances"]:
        sys.exit("empty instance list")
print(repr(time.monotonic()))
