#!/usr/bin/env python3
"""optlim benchmark: one closed-loop client, one process, one workload.

    python3 bench/run.py --workload {multistart,polish,certify} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from the `src/` directory next
to this one, never from an installed copy.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it record the environment and the run's counts.  See
bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
NUMPY_IMPORT_S = 0.1      # numpy import time at the reference speed of setup_s


def pin_environment() -> None:
    """Single-threaded BLAS/OpenMP and the CLI's default single worker.

    Must run before numpy is imported; set-up probes inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("OPTLIM_THREADS", None)


def import_package():
    """Import optlim from ROOT/src; exit nonzero when the sources are absent."""
    if not (SRC / "optlim" / "__init__.py").is_file():
        sys.exit(f"error: no optlim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import optlim
    if Path(optlim.__file__).resolve().parent != SRC / "optlim":
        sys.exit(f"error: imported optlim from {optlim.__file__}, not from {SRC}")
    import workloads
    return workloads


def setup_probe(workload: str, seed: int) -> None:
    """Time import + set-up in this fresh process and print it.

    numpy is imported first and timed on its own as the speed reference
    for set-up: its import is the same kind of work as the rest (file
    reads, unmarshalling, module execution), and optlim does not change it."""
    assert "numpy" not in sys.modules
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    workloads = import_package()
    workloads.WORKLOADS[workload](seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0, "numpy_import_s": t1 - t0}))


def measure_setup(workload: str, seed: int) -> tuple[float, list[dict]]:
    """Set-up time at the reference speed, from SETUP_REPEATS fresh
    processes run one after another, and their raw timings.

    Each probe's set-up time is divided by its own numpy import time and
    multiplied by NUMPY_IMPORT_S; the median of these is returned."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    setup_s = statistics.median(NUMPY_IMPORT_S * p["setup_s"] / p["numpy_import_s"] for p in samples)
    return setup_s, samples


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "optlim_threads": os.environ.get("OPTLIM_THREADS"),
        "git_revision": git_revision(),
        "seed": seed,
    }


class Tally:
    """Latencies and outcomes of the requests of one measured phase."""

    def __init__(self, speed):
        self.speed = speed
        self.latencies: list[float] = []
        self.ticks: list[int] = []            # speed timing in force for each request
        self.cycles: list[tuple[int, int, float]] = []   # (first, end, busy seconds)
        self.failed = self.stalled = self.hits = 0
        self.solutions = self.classes = 0
        self.details: dict[str, int] = {}
        self.wall_s = 0.0

    def add(self, latency: float, tick: int, outcome) -> None:
        self.latencies.append(latency)
        self.ticks.append(tick)
        self.failed += outcome.failed
        self.stalled += outcome.stalled
        self.hits += outcome.hit
        self.solutions += outcome.solutions
        self.classes += outcome.classes
        if outcome.failed or outcome.stalled:
            key = outcome.detail.split(" at residual")[0].split(" (residual")[0][:60]
            self.details[key] = self.details.get(key, 0) + 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def timings(self, normalized: bool = True):
        """Request latencies (s) and per-cycle throughputs (1/s), divided by
        the measured slowdown when normalized."""
        import numpy as np
        lat = np.array(self.latencies)
        slow = self.speed.slowdown()[np.array(self.ticks)] if normalized else np.ones(len(lat))
        rates = [(end - first) * slow[first:end].mean() / busy for first, end, busy in self.cycles]
        return lat / slow, np.array(rates)


def run_requests(requests, tally: Tally, tracer=None) -> None:
    clock = time.perf_counter
    for req in requests:
        tick = tally.speed.tick()
        if tracer is not None:
            tracer.request_id = tally.attempted
        t0 = clock()
        try:
            out = req.call()
        except Exception as exc:      # judged by the request's check
            out = exc
        latency = clock() - t0
        tally.add(latency, tick, req.check(out))


def measure(work, seconds: float, speed, tracer=None) -> Tally:
    """Whole cycles of requests until `seconds` have passed."""
    tally = Tally(speed)
    clock = time.perf_counter
    t0 = clock()
    while clock() - t0 < seconds:
        first, start, spent = tally.attempted, clock(), speed.spent_s
        run_requests(work.cycle(), tally, tracer)
        tally.cycles.append((first, tally.attempted, clock() - start - (speed.spent_s - spent)))
    tally.wall_s = clock() - t0
    return tally


def end_to_end(tally: Tally, setup_s: float, tail_pct: float) -> dict:
    import numpy as np
    lat, rates = tally.timings()
    n = tally.attempted
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (float(np.median(rates)), "1/s"),
        "op_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "op_tail_ms": (float(np.percentile(lat, tail_pct)) * 1e3, "ms"),
        "geometric_hit_rate": (tally.hits / n, "ratio"),
        "success_rate": ((n - tally.failed - tally.stalled) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def summary(name: str, tally: Tally, tail_pct: float) -> dict:
    import numpy as np
    lat, rates = tally.timings()
    raw_lat, raw_rates = tally.timings(normalized=False)
    tail = np.percentile(lat, tail_pct)
    return {
        "workload": name,
        "samples": tally.attempted,
        "failed": tally.failed,
        "stalled": tally.stalled,
        "error_rate": (tally.failed + tally.stalled) / tally.attempted,
        "misses": tally.attempted - tally.hits,
        "tail_percentile": tail_pct,
        "beyond_tail": int(np.sum(lat > tail)),
        "failed_or_stalled": tally.details,
        "wall_s": tally.wall_s,
        "cycles": len(tally.cycles),
        "raw_ops_per_s": float(np.median(raw_rates)),
        "raw_op_p50_ms": float(np.percentile(raw_lat, 50)) * 1e3,
        "raw_op_tail_ms": float(np.percentile(raw_lat, tail_pct)) * 1e3,
        "median_slowdown": float(np.median(tally.speed.slowdown())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("multistart", "polish", "certify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_environment()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.trace == 0:
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
    workloads = import_package()
    work = workloads.WORKLOADS[args.workload](args.seed)
    tail_pct = work.TAIL_PERCENTILE
    print(json.dumps({"env": environment(args.seed)}))

    import calibration
    speed = calibration.Speedometer()
    warm = Tally(speed)
    run_requests(work.warmup(), warm)
    if args.trace == 0:
        tally = measure(work, args.seconds, speed)
        metrics = end_to_end(tally, setup_s, tail_pct)
        info = summary(args.workload, tally, tail_pct)
        info.update(raw_setup_s=statistics.median(p["setup_s"] for p in setup_samples),
                    setup_probes=setup_samples)
        measured = [tally]
    else:
        import spans
        plain = measure(work, args.seconds / 2, speed)
        tracer = spans.Tracer()
        tracer.install()
        try:
            tally = measure(work, args.seconds / 2, speed, tracer)
        finally:
            tracer.uninstall()
        plain_ops = float(statistics.median(plain.timings()[1]))
        traced_ops = float(statistics.median(tally.timings()[1]))
        layer = tracer.metrics(tally.wall_s, tally.solutions, tally.classes, plain_ops / traced_ops)
        metrics = {name: (layer[name], unit) for name, unit in spans.metric_names()}
        info = summary(args.workload, tally, tail_pct)
        info.update(untraced_ops_per_s=plain_ops, traced_ops_per_s=traced_ops)
        measured = [plain, tally]
    print(json.dumps({"summary": info}))
    print(json.dumps({
        "correct": warm.failed + sum(t.failed for t in measured) == 0,
        "attempted": sum(t.attempted for t in measured),
        "failed": sum(t.failed for t in measured),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
