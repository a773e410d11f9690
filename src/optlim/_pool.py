"""Worker processes that run solver._newton on chunks of solve()'s rows;
when and how many, and why the bytes match, are in solver's docstring.

A worker is a fresh interpreter, `python -I -c`, whose sys.path and
bytecode setting are the caller's when the pool starts; it imports this
module and runs serve(), so no caller's __main__ module is run again.  Requests and
replies are pickles over the worker's stdin and stdout.  A worker's first
message names its numpy version and the files of numpy and of this
module; the pool is used only when they are the caller's.  A request is
(the pickled system, a chunk of rows), so a worker keeps no system
between requests.  A reply is _newton's (X, fnorm, status) for the
chunk, or None when the worker's _newton raised or warned (warnings are
errors in a worker).  The caller recomputes the chunk of a worker that
replied None or died, so errors and warnings surface where they would in
a serial solve.  A system that cannot be pickled is solved serially.

Workers that exit before they are ready, run other code, reply None or
die turn the pool off for good (_off): the process solves serially from
then on.  A split that does not finish (an exception in the caller's
chunk, KeyboardInterrupt) drops the pool, so a later solve never reads a
stale reply; a new pool starts after another POOL_AFTER_S of serial
solves.  Workers are killed and reaped at exit, also while still
starting, and a worker whose caller is gone exits at the end of its
stdin.  One split at a time uses the pool: a solve in another thread
meanwhile runs serially.  A forked child neither uses nor kills its
parent's workers.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import subprocess
import sys
import threading
import warnings

import numpy as np

from . import solver
from .equations import EquationSystem

_current: Pool | None = None
_off = False                        # set for good when workers cannot serve this process
_lock = threading.Lock()            # one split at a time uses the pool's pipes


class Unusable(Exception):
    """A worker exited before it was ready, or runs other code than the caller."""


def _identity() -> tuple[str, str, str]:
    return np.__version__, os.path.realpath(np.__file__), os.path.realpath(__file__)


class Pool:
    """Worker processes, started on construction and reported ready by ready()."""

    def __init__(self, workers: int):
        self.owner = os.getpid()    # a forked child must not use or kill its parent's workers
        self._procs: list[subprocess.Popen] = []
        path = [p for p in sys.path if isinstance(p, str)]
        serve_code = f"import sys; sys.path[:] = {path!r}; from optlim._pool import serve; serve()"
        flags = ["-B"] if sys.dont_write_bytecode else []   # -I ignores PYTHONDONTWRITEBYTECODE
        atexit.register(self.close)
        try:
            for _ in range(workers):
                # A session of its own: a Ctrl-C at the terminal reaches only the caller.
                self._procs.append(subprocess.Popen(
                    [sys.executable, "-I", *flags, "-c", serve_code], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, start_new_session=True))
        except BaseException:
            self.close()
            raise
        self._starting = list(self._procs)

    def ready(self) -> bool:
        """Whether every worker has reported ready, without waiting.  Raises
        Unusable when a worker exited first or runs other code."""
        if self._starting:
            readable = select.select([p.stdout for p in self._starting], [], [], 0)[0]
            for f in readable:
                try:
                    identity = pickle.load(f)
                except (EOFError, OSError, pickle.UnpicklingError) as e:
                    raise Unusable("a worker exited before it was ready") from e
                if identity != _identity():
                    raise Unusable(f"a worker runs {identity}, not {_identity()}")
            self._starting = [p for p in self._starting if p.stdout not in readable]
        return not self._starting

    def newton(self, system: EquationSystem, X0: np.ndarray
               ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], bool] | None:
        """solver._newton over X0 (rows, n) split into contiguous chunks of at
        least solver.CHUNK_MIN_ROWS rows, the first run here and each other
        one by a worker; returns the joined (X, fnorm, status) and whether
        every worker answered, or None when the system cannot be pickled.
        The chunk of a worker that fails or dies is recomputed here."""
        try:
            job = pickle.dumps(system, pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None
        parts = max(1, min(len(self._procs) + 1, len(X0) // solver.CHUNK_MIN_ROWS))
        cuts = [len(X0) * i // parts for i in range(parts + 1)]
        chunks = [X0[a:b] for a, b in zip(cuts, cuts[1:])]
        procs = self._procs[:parts - 1]
        sent = []
        for p, chunk in zip(procs, chunks[1:]):
            try:
                _write(p.stdin, (job, chunk))
            except OSError:         # the worker is gone
                sent.append(False)
            else:
                sent.append(True)
        results = [solver._newton(system, chunks[0])]
        answered = True
        for p, ok, chunk in zip(procs, sent, chunks[1:]):
            reply = None
            if ok:
                try:
                    reply = pickle.load(p.stdout)
                except (EOFError, OSError, pickle.UnpicklingError):
                    pass
            answered = answered and reply is not None
            results.append(reply if reply is not None else solver._newton(system, chunk))
        return tuple(np.concatenate(r) for r in zip(*results)), answered

    def close(self) -> None:
        """Kill and reap every worker, ready or still starting."""
        atexit.unregister(self.close)
        if os.getpid() != self.owner:
            self._procs = []
        for p in self._procs:
            p.kill()
        for p in self._procs:
            p.wait()
            p.stdout.close()
            try:
                p.stdin.close()
            except OSError:         # a request the killed worker never read
                pass
        self._procs = self._starting = []


def newton(system: EquationSystem, X0: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """solver._newton over X0 split with the process's pool, or None when
    no pool is ready, the pool is off or another thread's split is using
    it; the first call starts the pool in the background."""
    if _off or not _lock.acquire(blocking=False):
        return None
    try:
        return _split(system, X0)
    finally:
        _lock.release()


def _split(system: EquationSystem, X0: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    global _current
    if _current is not None and _current.owner != os.getpid():
        _current = None             # inherited through fork: the parent's workers
    if _current is None:
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        workers = min(usable - 1, solver.POOL_WORKERS)
        if getattr(sys, "frozen", False) or not sys.executable or workers < 1:
            drop(for_good=True)     # `-c` would start a frozen app again
            return None
        try:
            _current = Pool(workers)
        except OSError:
            drop(for_good=True)
        return None
    try:
        if not _current.ready():
            return None
    except Unusable:
        drop(for_good=True)
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
        drop(for_good=True)
    return out


def drop(for_good: bool = False) -> None:
    """Close the pool, if any.  Then restart the serial clock, so a new pool
    starts after another solver.POOL_AFTER_S of serial solves, or, for good,
    turn the pool off: the process solves serially from then on."""
    global _current, _off
    if _current is not None:
        _current.close()
        _current = None
    if for_good:
        _off = True
    else:
        solver._serial_s = 0.0


def serve() -> None:
    """A worker's loop: answer requests from stdin on stdout until stdin ends."""
    requests, replies = sys.stdin.buffer, os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)                   # stray output must not reach the replies
    warnings.simplefilter("error")
    _write(replies, _identity())
    while True:
        try:
            job, X0 = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = solver._newton(pickle.loads(job), X0)
        except Exception:
            reply = None
        _write(replies, reply)


def _write(f, message) -> None:
    f.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    f.flush()
