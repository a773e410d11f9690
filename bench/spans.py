"""Span tracing of the optlim layers from outside the package.

The tracer replaces each listed public function with a timing wrapper at
every place the function object is bound: the defining module, every
module of the package that imported the name, and the class for methods.
Each call records one span (function id, start, end, parent span, request
id, raised-or-not) in compact arrays that stay in memory until the run
ends.  Self time is a span's duration minus the time covered by its child
spans, so nested layers are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer (module of src/optlim) -> the functions timed in it.  A dotted name
# is a method patched on its class.
LAYERS: dict[str, tuple[str, ...]] = {
    "numerics": ("li2", "plog", "bloch_wigner"),
    "diagram": ("parse_pd", "build_diagram", "builtin", "twist_diagram", "validate"),
    "potential": ("assemble_W", "assemble_V", "evaluate"),
    "equations": ("build_system", "EquationSystem.residual_vector",
                  "EquationSystem.jacobian", "mu_integer_multipliers"),
    "solver": ("solve", "refine", "is_essential"),
    "optimistic": ("w0", "bw_volume"),
    "correspondence": ("verify_bridge", "w_to_z", "sign_flip", "sign_flip_point"),
    "twistknot": ("reproduce_reference_table", "parametrize", "poly_roots"),
    "cli": ("main",),
}

FUNCTIONS: tuple[str, ...] = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

RATIOS: tuple[str, ...] = (
    "equations.residuals_per_jacobian",
    "solver.jacobians_per_restart",
    "solver.solutions_per_class",
    "solver.refine_success_ratio",
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for fid in FUNCTIONS:
        out += [(f"{fid}.calls", "count"), (f"{fid}.self_ms", "ms"), (f"{fid}.errors", "count")]
    out += [(f"{mod}.self_share", "ratio") for mod in LAYERS]
    out += [(name, "ratio") for name in RATIOS]
    out += [("trace.spans", "count"), ("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.fid = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.current = -1
        self.request_id = -1
        self.restarts = 0             # restarts requested by traced solve() calls
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, fid: int, on_call=None):
        fids, parents, requests = self.fid, self.parent, self.request
        starts, ends, raised = self.start, self.end, self.raised
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent = tracer.current
            fids.append(fid)
            parents.append(parent)
            requests.append(tracer.request_id)
            raised.append(0)
            ends.append(0.0)
            if on_call is not None:
                on_call(args, kwargs)
            tracer.current = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                tracer.current = parent

        return traced

    def _count_restarts(self, args, kwargs):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        if cfg is None:
            from optlim.solver import SolveConfig
            cfg = SolveConfig()
        self.restarts += int(cfg.restarts)

    def install(self) -> None:
        """Wrap every function in LAYERS wherever the package binds it."""
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "optlim" or name.startswith("optlim."))]
        for fid, full in enumerate(FUNCTIONS):
            mod_name, _, qual = full.partition(".")
            module = sys.modules[f"optlim.{mod_name}"]
            on_call = self._count_restarts if full == "solver.solve" else None
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(orig, fid, on_call))
                continue
            orig = getattr(module, qual)
            wrapper = self._wrap(orig, fid, on_call)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reduction of the spans to per-layer metrics

    def self_times(self) -> np.ndarray:
        """Self time in seconds of every span."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def _count_under(self, fid: int, ancestor: int) -> int:
        """Spans of fid whose nearest solve/refine ancestor is `ancestor`."""
        fids, parents = self.fid, self.parent
        stop = {FUNCTIONS.index("solver.solve"), FUNCTIONS.index("solver.refine")}
        count = 0
        for idx in np.flatnonzero(np.frombuffer(fids, dtype=np.int32) == fid):
            p = parents[idx]
            while p >= 0 and fids[p] not in stop:
                p = parents[p]
            count += p >= 0 and fids[p] == ancestor
        return count

    def metrics(self, wall_s: float, solutions: int, classes: int,
                overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics over the traced wall time wall_s."""
        nf = len(FUNCTIONS)
        fid = np.frombuffer(self.fid, dtype=np.int32)
        calls = np.bincount(fid, minlength=nf)
        self_ms = np.bincount(fid, weights=self.self_times(), minlength=nf) * 1e3
        errors = np.bincount(fid, weights=np.frombuffer(self.raised, dtype=np.int8),
                             minlength=nf)
        out: dict[str, float] = {}
        for i, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_ms"] = float(self_ms[i])
            out[f"{name}.errors"] = int(errors[i])
        for mod, fns in LAYERS.items():
            busy = sum(out[f"{mod}.{fn}.self_ms"] for fn in fns) / 1e3
            out[f"{mod}.self_share"] = busy / wall_s if wall_s > 0 else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        res = out["equations.EquationSystem.residual_vector.calls"]
        jac = out["equations.EquationSystem.jacobian.calls"]
        jac_in_solve = self._count_under(FUNCTIONS.index("equations.EquationSystem.jacobian"),
                                         FUNCTIONS.index("solver.solve"))
        refines = out["solver.refine.calls"]
        out["equations.residuals_per_jacobian"] = ratio(res, jac)
        out["solver.jacobians_per_restart"] = ratio(jac_in_solve, self.restarts)
        out["solver.solutions_per_class"] = ratio(solutions, classes)
        out["solver.refine_success_ratio"] = ratio(refines - out["solver.refine.errors"], refines)
        out["trace.spans"] = len(fid)
        out["trace.overhead_ratio"] = overhead_ratio
        return out
