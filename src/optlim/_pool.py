"""The worker process that runs solver._newton on half of solve()'s rows;
when a solve splits, and why the bytes match, are in solver's docstring.

The worker is a fresh interpreter, `python -I -c`, whose sys.path and
bytecode setting are the caller's when it starts; it imports this module
and runs serve(), so no caller's __main__ module is run again.  Requests
and replies are pickles over its stdin and stdout.  Its first message
names its numpy version and the files of numpy and of this module; it is
used only when they are the caller's.

A request is (token, the pickled system or None, released tokens, the
second half of the rows).  The caller gives each system a token the
first time it sends it, and sends the system pickled only then; later
requests carry the token and None, so a process that rotates a few
systems pickles each once.  The worker keeps a token -> system table.  A
weakref.finalize on each sent system forgets its id and queues its token
when the caller's system is collected (before the id can name another
object), and the next request carries the queued tokens, which the
worker drops from its table first: so the worker holds each of the
caller's live systems once, and no others.  A finalizer may run in any
thread at any point, so the queue is a deque that finalizers only append
to and that only the split holding the worker drains; close() detaches
the finalizers.  A reply is _newton's (X, fnorm, status) for those rows,
or None when the worker could not unpickle the system, or its _newton
raised or warned (warnings are errors in the worker).  The caller
recomputes the half of a worker that replied None or died, so errors and
warnings surface where they would in a serial solve.  A system that
cannot be pickled or weakly referenced is solved serially.

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
import collections
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
        # id of each live system sent -> (its token, its finalizer), and
        # the tokens of collected ones not yet reported.
        self._sent: dict[int, tuple[int, weakref.finalize]] = {}
        self._released: collections.deque[int] = collections.deque()
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
        cannot be pickled or weakly referenced.  The worker's half is
        recomputed here when the worker fails or dies."""
        key, job = id(system), None
        if key in self._sent:
            token = self._sent[key][0]
        else:
            token = next(self._tokens)
            try:
                job = pickle.dumps(system, pickle.HIGHEST_PROTOCOL)
                finalizer = weakref.finalize(system, _release, self._sent, self._released,
                                             key, token)
            except Exception:       # it cannot be pickled, or weakly referenced
                return None
            finalizer.atexit = False
            self._sent[key] = token, finalizer
        released = [self._released.popleft() for _ in range(len(self._released))]
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
        for _, finalizer in list(self._sent.values()):
            finalizer.detach()
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


def _release(sent: dict[int, tuple[int, weakref.finalize]], released: collections.deque[int],
             key: int, token: int) -> None:
    """A sent system was collected: forget it, and queue its token."""
    sent.pop(key, None)
    released.append(token)


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
