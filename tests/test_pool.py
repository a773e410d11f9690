"""solve()'s worker process (optlim._pool): a split gives the serial bytes,
each system is sent to a worker once and released when the caller's is
collected, a failing or dying worker's half is recomputed in the caller
and turns splitting off, an interrupted split closes the worker, and no
worker outlives its caller.

Each test starts at most one worker, through the private Worker and
_pool._current; none sets an option.  Run them also under
`python -X dev -W error::ResourceWarning`, which fails on an unclosed
pipe or an unreaped worker.
"""

import gc
import math
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from optlim import (ALT_NEG_LOG, SolveConfig, assemble_V, assemble_W, build_diagram,
                    build_system, builtin, parse_pd, refine, sign_flip, solve, twistknot)
from optlim import _pool, solver

from conftest import FIG8_PD
from test_solver import MULTISTART_SYSTEMS, _starts

HERE = os.path.dirname(os.path.abspath(__file__))
ENV = dict(os.environ, PYTHONPATH=os.path.join(HERE, os.pardir, "src"))


def _system(name, kind):
    d = builtin(name)
    return build_system(assemble_W(d) if kind == "W" else assemble_V(d))


def _ready_worker(worker: _pool.Worker | None = None) -> _pool.Worker:
    """worker, or a new one, once it has reported ready."""
    worker = worker or _pool.Worker()
    deadline = time.monotonic() + 60
    while not worker.ready():
        if time.monotonic() > deadline:
            worker.close()
            pytest.fail("the worker did not report ready in 60 s")
        time.sleep(0.005)
    return worker


@pytest.fixture(autouse=True)
def pool_on(monkeypatch):
    """Each test starts with splitting allowed and leaves no worker behind."""
    monkeypatch.setattr(_pool, "_off", False)
    yield
    _pool.drop()


@pytest.fixture
def pool(monkeypatch):
    """One ready worker, which solve() splits with from its first solve."""
    _pool.drop()
    _pool._current = _ready_worker()
    monkeypatch.setattr(solver, "_serial_s", math.inf)
    yield _pool._current
    _pool.drop()


@pytest.fixture
def split_calls(monkeypatch):
    """The row counts of the splits that Worker.newton runs."""
    calls = []
    newton = _pool.Worker.newton

    def counting(self, system, X0):
        calls.append(len(X0))
        return newton(self, system, X0)

    monkeypatch.setattr(_pool.Worker, "newton", counting)
    return calls


@pytest.fixture
def requests(monkeypatch):
    """(token, whether the system was sent, released tokens) of each request
    written to a worker."""
    sent = []
    write = _pool._write

    def recording(f, message):
        token, job, released, _ = message
        sent.append((token, job is not None, released))
        write(f, message)

    monkeypatch.setattr(_pool, "_write", recording)
    return sent


def _same(got, ref) -> bool:
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


NO_CHILD = """
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child process")
"""


def test_import_loads_no_worker_code():
    out = _fresh("import os, sys\nimport optlim\n"
                 "print([m for m in ('optlim._pool', 'multiprocessing') if m in sys.modules])"
                 + NO_CHILD)
    assert out.splitlines() == ["[]", "no child process"]


def test_refine_and_one_row_solves_never_split():
    # The serial clock says "split" from the start; neither may.
    out = _fresh("import math, os, sys\n"
                 "from optlim import *\nfrom optlim import solver, twistknot\n"
                 "solver._serial_s = math.inf\n"
                 "system = build_system(assemble_W(builtin('T1')))\n"
                 "for seed in range(5):\n"
                 "    solve(system, SolveConfig(restarts=1, seed=seed))\n"
                 "a = twistknot.parametrize(1, complex(2, 2 / math.sqrt(3))).assignment\n"
                 "for _ in range(5):\n"
                 "    refine(system, a)\n"
                 "print('optlim._pool' in sys.modules)" + NO_CHILD)
    assert out.splitlines() == ["False", "no child process"]


def test_one_shot_cli_solve_starts_no_worker():
    out = _fresh("import contextlib, io, os, sys\nfrom optlim import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = cli.main(['--stable', 'solve', '--builtin', 'T5', '--potential', 'w',\n"
                 "                     '--restarts', '512', '--seed', '0'])\n"
                 "print(code, 'optlim._pool' in sys.modules)" + NO_CHILD)
    assert out.splitlines() == ["0 False", "no child process"]


@pytest.mark.parametrize("name,kind", MULTISTART_SYSTEMS)
def test_split_matches_serial(pool, name, kind):
    system = _system(name, kind)
    for rows, seed in ((5, 0), (12, 0), (12, 1), (13, 2), (64, 0)):
        X0 = _starts(system, rows, seed=seed)
        got, answered = pool.newton(system, X0)
        assert answered and _same(got, solver._newton(system, X0))


def test_each_system_is_sent_once(pool, requests):
    # The multistart workload rotates its systems: each is pickled for the
    # first request only, and every split still gives the serial bytes.
    systems = [_system(name, kind) for name, kind in (("4_1", "W"), ("5_2", "V"), ("T3", "W"))]
    for seed in range(3):
        for system in systems:
            X0 = _starts(system, 12, seed=seed)
            got, answered = pool.newton(system, X0)
            assert answered and _same(got, solver._newton(system, X0))
    assert requests == [(token, seed == 0, []) for seed in range(3) for token in range(3)]


def test_collected_system_is_released(pool, requests):
    pd_system = build_system(assemble_W(build_diagram(parse_pd(FIG8_PD))))
    X0 = _starts(pd_system, 12, seed=1)
    got, answered = pool.newton(pd_system, X0)
    assert answered and _same(got, solver._newton(pd_system, X0))
    assert len(pool._sent) == 1
    del pd_system                   # the last reference: no collector needed
    assert not pool._sent
    system = _system("4_1", "W")
    X0 = _starts(system, 12, seed=2)
    got, answered = pool.newton(system, X0)
    assert answered and _same(got, solver._newton(system, X0))
    assert requests == [(0, True, []), (1, True, [0])]
    pool.newton(system, X0)         # a token is released once
    assert requests[-1] == (1, False, [])


@pytest.mark.parametrize("flip", [False, True])
def test_pickled_system_carries_no_potential(flip):
    # What the worker is sent: a system's arrays and labels, no Potential
    # or Term, which solve the rows to the same bytes.
    p = assemble_W(builtin("T3"), variant=ALT_NEG_LOG)
    if flip:
        rng = np.random.default_rng(7)
        p = sign_flip(p, *rng.choice((-1, 1), (2, len(p.variables))).tolist())
    system = build_system(p)
    blob = pickle.dumps(system, pickle.HIGHEST_PROTOCOL)
    assert b"optlim.potential" not in blob
    X0 = _starts(system, 12, seed=5)
    assert _same(solver._newton(pickle.loads(blob), X0), solver._newton(system, X0))


def test_new_worker_gets_full_systems(pool, requests):
    system = _system("T3", "W")
    X0 = _starts(system, 12, seed=4)
    for _ in range(2):
        pool.newton(system, X0)
    sent = list(pool._sent.items())
    _pool.drop()
    assert sent == [(system, 0)] and not pool._sent
    fresh = _pool._current = _ready_worker()
    got, answered = fresh.newton(system, X0)
    assert answered and _same(got, solver._newton(system, X0))
    assert requests == [(0, True, []), (0, False, []), (0, True, [])]


def test_solve_splits_with_the_pool(pool, split_calls):
    system = _system("5_2", "V")
    cfg = SolveConfig(restarts=48, seed=2)
    split = solve(system, cfg)
    assert split_calls == [48] and _pool._current is pool
    _pool.drop()
    assert solve(system, cfg) == split


@pytest.mark.parametrize("when", ["before", "during"])
def test_killed_worker_chunk_is_recomputed(pool, monkeypatch, when):
    system = _system("T3", "W")
    X0 = _starts(system, 24, seed=5)
    ref = solver._newton(system, X0)
    worker = pool._proc
    if when == "before":
        worker.kill()
        worker.wait()
    else:
        newton = solver._newton

        def killing(system, X0):        # the caller's half, after the worker's was sent
            if worker.returncode is None:
                worker.kill()
                worker.wait()
            return newton(system, X0)

        monkeypatch.setattr(solver, "_newton", killing)
    assert _same(_pool.newton(system, X0), ref)
    assert _pool._current is None and _pool._off
    assert _pool.newton(system, X0) is None and _pool._current is None


def test_interrupted_split_drops_the_pool(pool, monkeypatch, split_calls):
    system = _system("4_1", "W")
    cfg = SolveConfig(restarts=24, seed=7)
    with monkeypatch.context() as m:
        def interrupted(system, X0):
            raise KeyboardInterrupt

        m.setattr(solver, "_newton", interrupted)
        with pytest.raises(KeyboardInterrupt):
            solve(system, cfg)
    assert split_calls == [24] and _pool._current is None and pool._proc is None
    # Only the worker is closed: the serial clock is the solver's, and
    # splitting stays on.
    assert solver._serial_s == math.inf and not _pool._off
    serial = solve(system, cfg)     # starts a fresh worker, solves serially meanwhile
    fresh = _pool._current
    assert split_calls == [24] and fresh is not None and fresh is not pool
    # The fresh worker never reads the interrupted split's reply.
    _ready_worker(fresh)
    assert solve(system, cfg) == serial
    assert split_calls == [24, 24] and _pool._current is fresh


class RowWarning(UserWarning):
    pass


class WarnsAtRow:
    """A system that warns whenever it evaluates the given start row; the
    worker cannot unpickle it (this module is not importable there) or
    turns the warning into an error, so its reply is None either way."""

    def __init__(self, system, row):
        self.system, self.row = system, row

    def residual_state(self, x):
        if np.logical_and.reduce(x == self.row, axis=-1).any():
            warnings.warn("start row evaluated", RowWarning)
        return self.system.residual_state(x)

    def jacobian_at(self, state):
        return self.system.jacobian_at(state)

    def margin_at(self, state):
        return self.system.margin_at(state)


def test_failing_worker_chunk_warns_in_the_caller(pool):
    # A worker that cannot solve what the caller can would fail every
    # split: splitting is turned off after the first.
    system = _system("5_2", "W")
    X0 = _starts(system, 12, seed=9)
    with pytest.warns(RowWarning):
        got = _pool.newton(WarnsAtRow(system, X0[-1]), X0)
    assert _same(got, solver._newton(system, X0))
    assert _pool._current is None and _pool._off and pool._proc is None
    assert _pool.newton(system, X0) is None and _pool._current is None


def test_unpicklable_system_is_solved_serially(pool, split_calls):
    class Local:                    # a local class cannot be pickled
        def __init__(self, system):
            self.system = system

        def __getattr__(self, name):
            return getattr(self.system, name)

    system = _system("T3", "W")
    cfg = SolveConfig(restarts=12, seed=6)
    assert solve(Local(system), cfg) == solve(system, cfg)
    assert split_calls == [12, 12] and _pool._current is pool and not _pool._off


def test_small_solves_never_split(pool, split_calls):
    system = _system("4_1", "W")
    for rows in (2, 3, 4):
        solve(system, SolveConfig(restarts=rows, seed=1))
    assert split_calls == [4]
    for rows, seed in ((3, 2), (4, 0), (5, 1)):     # a 1- or 2-row half here
        X0 = _starts(system, rows, seed=seed)
        got, answered = pool.newton(system, X0)
        assert answered and _same(got, solver._newton(system, X0))


def test_workers_share_the_callers_path_and_bytecode_setting(tmp_path, monkeypatch):
    # A module importable only through an entry the caller added at run time.
    (tmp_path / "caller_only.py").write_text(
        "class Wrapped:\n"
        "    def __init__(self, system):\n"
        "        self.system = system\n"
        "    def residual_state(self, x):\n"
        "        return self.system.residual_state(x)\n"
        "    def jacobian_at(self, state):\n"
        "        return self.system.jacobian_at(state)\n"
        "    def margin_at(self, state):\n"
        "        return self.system.margin_at(state)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import caller_only
    pool = _pool._current = _ready_worker()
    system = _system("T3", "W")
    X0 = _starts(system, 12, seed=8)
    ref = solver._newton(system, X0)
    chunks = []                     # the rows solved here, not in the worker
    newton = solver._newton

    def counting(system, X0):
        chunks.append(len(X0))
        return newton(system, X0)

    monkeypatch.setattr(solver, "_newton", counting)
    got, answered = pool.newton(caller_only.Wrapped(system), X0)
    assert answered and chunks == [6] and _same(got, ref)
    assert not (tmp_path / "__pycache__").exists()    # neither process wrote bytecode


def test_worker_running_other_code_turns_the_pool_off(monkeypatch):
    # A worker whose numpy or optlim differs from the caller's is never
    # used, and no other worker is started.
    monkeypatch.setattr(_pool, "_identity", lambda: ("another numpy", "", ""))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(solver, "_serial_s", math.inf)
    system = _system("T3", "W")
    X0 = _starts(system, 12, seed=3)
    assert _pool.newton(system, X0) is None
    worker = _pool._current._proc
    deadline = time.monotonic() + 60
    while not _pool._off:
        assert time.monotonic() < deadline, "the worker did not report in 60 s"
        assert _pool.newton(system, X0) is None
        time.sleep(0.005)
    assert _pool._current is None and worker.returncode is not None
    assert solver._serial_s == math.inf
    assert _pool.newton(system, X0) is None and _pool._current is None


def test_frozen_app_starts_no_worker(monkeypatch):
    monkeypatch.setattr(sys, "frozen", True, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(solver, "_serial_s", math.inf)
    system = _system("T3", "W")
    assert _pool.newton(system, _starts(system, 12, seed=3)) is None
    assert _pool._current is None and _pool._off


def test_one_usable_cpu_starts_no_worker(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(solver, "_serial_s", math.inf)
    system = _system("T3", "W")
    assert _pool.newton(system, _starts(system, 12, seed=3)) is None
    assert _pool._current is None and _pool._off


def test_threads_share_the_pool(pool, split_calls):
    # More solving threads than CPUs: a split holds the worker, and a solve
    # that finds it busy runs serially.
    system = _system("5_2", "V")
    cfgs = [SolveConfig(restarts=24, seed=seed) for seed in range(8)]
    solver._serial_s = 0.0
    serial = [solve(system, cfg) for cfg in cfgs]
    solver._serial_s = math.inf
    got = [None] * len(cfgs)

    def run(i):
        for j in range(i, len(cfgs), 4):
            got[j] = solve(system, cfgs[j])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial and split_calls and _pool._current is pool


def test_threads_release_collected_systems(pool, requests):
    # Threads build, split and drop systems while the collector runs in
    # any of them: every sent token is released exactly once, and the
    # worker is left with the one live system.
    def run(i):
        for j in range(4):
            pd_system = build_system(assemble_W(build_diagram(parse_pd(FIG8_PD))))
            solve(pd_system, SolveConfig(restarts=12, seed=4 * i + j))
            del pd_system
            if j % 2:
                gc.collect()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    gc.collect()
    system = _system("T3", "W")
    X0 = _starts(system, 12, seed=1)
    got, answered = pool.newton(system, X0)
    assert answered and _same(got, solver._newton(system, X0))
    sent = [token for token, full, _ in requests if full]
    released = [token for _, _, tokens in requests for token in tokens]
    assert len(sent) > 2 and sorted(released) == sent[:-1] and sent[-1] == requests[-1][0]
    assert list(pool._sent) == [system]


def test_forked_child_leaves_the_parent_workers(pool):
    system = _system("T3", "W")
    X0 = _starts(system, 12, seed=4)
    pid = os.fork()
    if pid == 0:                    # the child's exit would close the worker it inherited
        try:
            pool.close()
        finally:
            os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
    got, answered = pool.newton(system, X0)
    assert answered and _same(got, solver._newton(system, X0))


def _script(mode: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           os.path.join(HERE, "pool_script.py"), mode],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return proc.stdout.splitlines()


def test_unguarded_script_runs_its_body_once():
    lines = _script("split")
    assert [line.split()[0] for line in lines] == ["body", "worker", "split", "same"]
    assert _gone(int(lines[1].split()[1]))


def test_no_worker_outlives_a_caller_exiting_while_it_starts():
    lines = _script("starting")
    assert [line.split()[0] for line in lines] == ["body", "worker"]
    assert _gone(int(lines[1].split()[1]))


def test_split_cli_solves_print_the_one_shot_bytes():
    lines = _script("stable")
    words = [line.split()[0] for line in lines]
    assert words[:3] == ["body", "worker", "split"] and set(words[3:]) == {"same"}, lines
    assert len(words) == 3 + int(lines[2].split()[1])
    assert _gone(int(lines[1].split()[1]))
