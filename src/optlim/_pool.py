"""solve()'s worker process, which runs solver._newton on half of a
solve's rows with the same bytes as one serial _newton.

solver._solve_rows times the serial solves of at least SPLIT_MIN_ROWS
rows; once they add up to POOL_AFTER_S (about the worker's start-up
time), the next one starts the worker in the background, when
os.sched_getaffinity lists at least 2 CPUs (so `taskset` can rule it
out), and still runs serially.  Once the worker is ready, each such solve
runs its first len // 2 rows here and the others in the worker, and joins
the halves in row order: no row's arithmetic depends on the other rows
of its block, so the bytes are those of one _newton over all rows.  A
process that solves once, such as one `optlim solve`, starts no worker;
refine() and smaller solves never split.  On 2 CPUs split/serial time
was 1.06 at 2 and 3 rows and 0.95 at 4 with BLAS pinned to one thread,
and about 0.85 at 12 rows and 0.54 at 512 with BLAS pinned or at its
default thread count; a second worker is unmeasured.

The worker is a fresh interpreter of 31-37 MB resident, `python -I -c`,
whose sys.path and bytecode setting are the caller's when it starts; it
imports this module and runs serve(), so no caller's __main__ module is
run again.  Requests and replies are pickles over its stdin and stdout.
Its first message names its numpy version and the files of numpy and of
this module; it is used only when they are the caller's.

A request is (token, the pickled system or None, released tokens, the
second half of the rows).  Each system gets a token the first time it is
sent, and is pickled only then; later requests carry its token and None,
so a process that rotates a few systems pickles each once.  The worker
keeps a token -> system table.  The caller keeps a WeakKeyDictionary
from each sent system (an EquationSystem hashes by identity) to its
token, which a collected system leaves, and the set of tokens the worker
holds; each request releases, sorted, the held tokens that are no longer
the map's values, and the worker drops them first.  So the worker holds
each live system sent once, and no others.  Only the split holding the
worker reads or writes them; close() empties the map.  A reply is
_newton's (X, fnorm, status) for those rows, or None when the worker
could not unpickle the system, or its _newton raised or warned (warnings
are errors in the worker).  The caller recomputes the half of a worker
that replied None or died, so errors and warnings surface where they
would in a serial solve.  A system that cannot be weakly referenced,
hashed or pickled is solved serially.

A worker that exits before it is ready, runs other code, replies None or
dies turns splitting off for good (_off): the process solves serially
from then on.  So does a process with one usable CPU, a frozen app, no
sys.executable or a worker that cannot be started.  A split that does
not finish (an exception in the caller's half, KeyboardInterrupt) closes
the worker, so a later solve never reads a stale reply; the next solve
that would split starts a new one.  The worker is killed and reaped at
exit, also while still starting, and a worker whose caller is gone exits
at the end of its stdin.  One split at a time uses the worker: a solve in
another thread meanwhile runs serially.  A forked child neither uses nor
kills its parent's worker.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import select
import subprocess
import sys
import threading
import warnings
import weakref

import numpy as np

from . import solver
from .equations import EquationSystem

_current: Worker | None = None
_off = False                        # set for good when no worker can serve this process
_lock = threading.Lock()            # one split at a time uses the worker's pipes


class Unusable(Exception):
    """No worker can serve this process (the module docstring says when)."""


def _identity() -> tuple[str, str, str]:
    return np.__version__, os.path.realpath(np.__file__), os.path.realpath(__file__)


class Worker:
    """A worker process, started on construction and reported ready by ready()."""

    def __init__(self):
        self.owner = os.getpid()    # a forked child must not use or kill its parent's worker
        path = [p for p in sys.path if isinstance(p, str)]
        serve_code = f"import sys; sys.path[:] = {path!r}; from optlim._pool import serve; serve()"
        flags = ["-B"] if sys.dont_write_bytecode else []   # -I ignores PYTHONDONTWRITEBYTECODE
        # A session of its own: a Ctrl-C at the terminal reaches only the caller.
        self._proc: subprocess.Popen | None = subprocess.Popen(
            [sys.executable, "-I", *flags, "-c", serve_code], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, start_new_session=True)
        self._starting = True
        # Each live system sent -> its token, and the tokens the worker holds.
        self._sent: weakref.WeakKeyDictionary[EquationSystem, int] = weakref.WeakKeyDictionary()
        self._held: set[int] = set()
        self._tokens = itertools.count()
        atexit.register(self.close)

    def ready(self) -> bool:
        """Whether the worker has reported ready, without waiting.  Raises
        Unusable when it exited first or runs other code."""
        if self._starting and select.select([self._proc.stdout], [], [], 0)[0]:
            try:
                identity = pickle.load(self._proc.stdout)
            except (EOFError, OSError, pickle.UnpicklingError) as e:
                raise Unusable("the worker exited before it was ready") from e
            if identity != _identity():
                raise Unusable(f"the worker runs {identity}, not {_identity()}")
            self._starting = False
        return not self._starting

    def newton(self, system: EquationSystem, X0: np.ndarray
               ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], bool] | None:
        """solver._newton over X0 (rows, n), the first len(X0) // 2 rows run
        here and the others by the worker; returns the joined (X, fnorm,
        status) and whether the worker answered, or None when the system
        cannot be weakly referenced, hashed or pickled.  The worker's half
        is recomputed here when the worker fails or dies."""
        job = None
        try:
            token = self._sent.get(system)
            if token is None:
                job = pickle.dumps(system, pickle.HIGHEST_PROTOCOL)
                token = self._sent[system] = next(self._tokens)
        except Exception:           # it cannot be weakly referenced, hashed or pickled
            return None
        live = set(self._sent.values())
        released, self._held = sorted(self._held - live), live
        cut = len(X0) // 2
        try:
            _write(self._proc.stdin, (token, job, released, X0[cut:]))
            sent = True
        except OSError:             # the worker is gone
            sent = False
        here = solver._newton(system, X0[:cut])
        reply = None
        if sent:
            try:
                reply = pickle.load(self._proc.stdout)
            except (EOFError, OSError, pickle.UnpicklingError):
                pass
        there = reply if reply is not None else solver._newton(system, X0[cut:])
        return tuple(np.concatenate(r) for r in zip(here, there)), reply is not None

    def close(self) -> None:
        """Kill and reap the worker, ready or still starting, and stop
        tracking the systems sent to it."""
        atexit.unregister(self.close)
        self._sent.clear()
        p, self._proc = self._proc, None
        if p is None or os.getpid() != self.owner:
            return
        p.kill()
        p.wait()
        p.stdout.close()
        try:
            p.stdin.close()
        except OSError:             # a request the killed worker never read
            pass


def newton(system: EquationSystem, X0: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """solver._newton over X0 split with the process's worker, or None when
    no worker is ready, splitting is off or another thread's split is using
    the worker; the first call starts the worker in the background."""
    if _off or not _lock.acquire(blocking=False):
        return None
    try:
        return _split(system, X0)
    finally:
        _lock.release()


def _split(system: EquationSystem, X0: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    global _current, _off
    if _current is not None and _current.owner != os.getpid():
        _current = None             # inherited through fork: the parent's worker
    try:
        if _current is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            if cpus < 2 or getattr(sys, "frozen", False) or not sys.executable:
                raise Unusable("one CPU, or `-c` would start a frozen app again")
            _current = Worker()
            return None
        if not _current.ready():
            return None
    except (Unusable, OSError):
        _off = True
        drop()
        return None
    try:
        split = _current.newton(system, X0)
    except BaseException:
        drop()
        raise
    if split is None:
        return None
    out, answered = split
    if not answered:
        _off = True
        drop()
    return out


def drop() -> None:
    """Close the worker, if any; the next solve that would split starts a new one."""
    global _current
    if _current is not None:
        _current.close()
        _current = None


def serve() -> None:
    """The worker's loop: answer requests from stdin on stdout until stdin ends."""
    requests, replies = sys.stdin.buffer, os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)                   # stray output must not reach the replies
    warnings.simplefilter("error")
    _write(replies, _identity())
    systems: dict[int, EquationSystem] = {}
    while True:
        try:
            token, job, released, X0 = pickle.load(requests)
        except EOFError:
            return
        for t in released:
            systems.pop(t, None)
        try:
            if job is not None:
                systems[token] = pickle.loads(job)
            reply = solver._newton(systems[token], X0)
        except Exception:
            reply = None
        _write(replies, reply)


def _write(f, message) -> None:
    f.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    f.flush()
