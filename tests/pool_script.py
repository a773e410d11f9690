"""An unguarded script that makes solve() split its rows with a worker
process, then exits; run it with src/ on PYTHONPATH.

    python tests/pool_script.py split      # a split solve, checked against a serial one
    python tests/pool_script.py starting   # exit while the worker is still starting

It has no __main__ guard on purpose: no worker may run it again.  It
prints "body" once per run of its top level, then the worker's pid, and
for split "split" once a solve has split its rows and "same" when that
solve equals a serial one.
"""

import os
import sys
import time

from optlim import SolveConfig, assemble_W, build_system, builtin, solve, solver
from optlim import _pool

print("body", os.getpid(), flush=True)
# One worker, forced: solve() splits from the first solve it finds it ready.
_pool._current = _pool.Pool(1)
solver._serial_s = float("inf")
print("worker", *(p.pid for p in _pool._current._procs), flush=True)
if sys.argv[1] == "split":
    deadline = time.monotonic() + 60
    while not _pool._current.ready():
        if time.monotonic() > deadline:
            sys.exit("the worker did not report ready in 60 s")
        time.sleep(0.005)
    system = build_system(assemble_W(builtin("T3")))
    cfg = SolveConfig(restarts=24, seed=3)
    split = solve(system, cfg)
    if _pool._current is not None:          # the worker answered
        print("split", flush=True)
    _pool.drop()
    print("same" if solve(system, cfg) == split else "different", flush=True)
