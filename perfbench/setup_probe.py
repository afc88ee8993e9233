"""Set-up probe: time ``import repro`` and the first ``Machine`` build.

Run in a fresh interpreter by ``harness.measure_setup``; prints one JSON
line ``{"import_s": .., "build_s": ..}``.  Argument: a JSON object with
``network``, ``nodes`` and an optional ``topology`` dict.
"""

import json
import sys
import time

t0 = time.perf_counter()
import repro  # noqa: E402,F401  (the import being timed)
from repro.mpi import Machine  # noqa: E402

t1 = time.perf_counter()
shape = json.loads(sys.argv[1])
Machine(shape["network"], shape["nodes"], topology=shape.get("topology"))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
