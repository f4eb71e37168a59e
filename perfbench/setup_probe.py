"""Time one fresh interpreter's set-up and print it in seconds.

Set-up is: import klflow, load the workload's manifest and resolve its corpus
entries. Usage: ``python3 setup_probe.py <src dir> <manifest>``.
"""
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import klflow  # noqa: E402
from klflow.experiment import load_manifest  # noqa: E402

configs = load_manifest(sys.argv[2])
entries = [klflow.resolve_entry(c.functional) for c in configs if c.functional]
print(repr(time.perf_counter() - t0))
