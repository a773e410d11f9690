"""An unguarded script that makes solve() split its rows with a worker
process, then exits; run it with src/ on PYTHONPATH.

    python tests/pool_script.py split      # a split solve, checked against a serial one
    python tests/pool_script.py starting   # exit while the worker is still starting
    python tests/pool_script.py stable     # split CLI solves, checked against one-shot runs

It has no __main__ guard on purpose: no worker may run it again.  It
prints "body" once per run of its top level, then the worker's pid, and
for split "split" once a solve has split its rows and "same" when that
solve equals a serial one.  For stable it runs STABLE_COMMANDS through
cli.main in this process, each split with the one worker, which keeps
the systems it was sent; then each again as a one-shot `python -m
optlim.cli`, which never splits.  It prints "split N" when all N split,
then "same" for each command whose stdout and exit code match, or
"different" (and exits 1).
"""

import contextlib
import io
import os
import subprocess
import sys
import time

from optlim import SolveConfig, assemble_W, build_system, builtin, cli, solve, solver
from optlim import _pool

# The multistart benchmark's six solves, and a large one.
STABLE_COMMANDS = [
    ["--stable", "solve", "--builtin", name, "--potential", kind, "--restarts", str(restarts),
     "--seed", "0"]
    for name, kind, restarts in (("4_1", "w", 12), ("5_2", "w", 12), ("5_2", "v", 12),
                                 ("T3", "w", 12), ("T5", "w", 12), ("T5", "v", 12),
                                 ("T5", "w", 512))]

print("body", os.getpid(), flush=True)
# One worker, forced: solve() splits from the first solve it finds it ready.
_pool._current = _pool.Worker()
solver._serial_s = float("inf")
print("worker", _pool._current._proc.pid, flush=True)
if sys.argv[1] in ("split", "stable"):
    deadline = time.monotonic() + 60
    while not _pool._current.ready():
        if time.monotonic() > deadline:
            sys.exit("the worker did not report ready in 60 s")
        time.sleep(0.005)
if sys.argv[1] == "split":
    system = build_system(assemble_W(builtin("T3")))
    cfg = SolveConfig(restarts=24, seed=3)
    split = solve(system, cfg)
    if _pool._current is not None:          # the worker answered
        print("split", flush=True)
    _pool.drop()
    print("same" if solve(system, cfg) == split else "different", flush=True)
elif sys.argv[1] == "stable":
    splits = []
    newton = _pool.Worker.newton

    def counting(self, system, X0):
        splits.append(len(X0))
        return newton(self, system, X0)

    _pool.Worker.newton = counting
    worker, results = _pool._current, []
    for argv in STABLE_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        results.append((code, out.getvalue()))
    if _pool._current is not worker or len(splits) != len(STABLE_COMMANDS):
        sys.exit(f"{len(splits)} of {len(STABLE_COMMANDS)} solves split")
    print("split", len(splits), flush=True)
    _pool.drop()
    failed = False
    for argv, (code, out) in zip(STABLE_COMMANDS, results):
        one_shot = subprocess.run([sys.executable, "-m", "optlim.cli", *argv],
                                  capture_output=True, text=True)
        same = (one_shot.returncode, one_shot.stdout) == (code, out)
        failed = failed or not same
        print("same" if same else "different", *argv, flush=True)
    sys.exit(1 if failed else 0)
