"""The three benchmark workloads: multistart, polish and certify.

A workload is built from a seed (its set-up: diagrams, potentials,
systems and generated inputs) and then hands out requests one cycle at a
time.  A request is a pair of callables: `call()` does the program work
and is what gets timed, `check(output)` judges the output against the
package's own ground truth and returns an Outcome.  Every input is drawn
from the workload's seeded generator, so the same seed gives the same
request sequence.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from optlim import cli, correspondence, diagram, equations, optimistic, potential, solver, twistknot
from optlim.numerics import PI2, reduce_centered

MATCH_TOL = 5e-4          # reference-row match in vol and in cs mod pi^2
BW_TOL = 1e-9             # |vol - Bloch-Wigner vol| on region potentials


@dataclass(frozen=True)
class Outcome:
    failed: bool = False       # raised, exited 1, or returned a value that failed its check
    stalled: bool = False      # refine did not converge (SolveError): a miss, not a failure
    hit: bool = False          # the reference row is in the result
    detail: str = ""           # why it failed, when it did
    solutions: int = 0         # sampled points returned (multistart only)
    classes: int = 0           # distinct (vol, cs mod pi^2) classes among them


@dataclass(frozen=True)
class Request:
    call: Callable[[], object]
    check: Callable[[object], Outcome]   # receives the output, or the exception raised


def cs_distance(cs_a: float, cs_b: float) -> float:
    """Distance of two Chern-Simons values on the circle R / pi^2 Z."""
    return abs(reduce_centered(cs_a - cs_b, PI2))


def matches(vol: float, cs: float, ref_vol: float, ref_cs: float) -> bool:
    return abs(vol - ref_vol) <= MATCH_TOL and cs_distance(cs, ref_cs) <= MATCH_TOL


def count_classes(rows: list[tuple[float, float]]) -> int:
    """Number of distinct (vol, cs mod pi^2) classes among solution rows."""
    reps: list[tuple[float, float]] = []
    for vol, cs in rows:
        if not any(matches(vol, cs, rv, rc) for rv, rc in reps):
            reps.append((vol, cs))
    return len(reps)


def _failure(exc: BaseException) -> Outcome:
    return Outcome(failed=True, detail=f"{type(exc).__name__}: {str(exc)[:80]}")


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Multistart:
    """`optlim solve` requests through the CLI, cycling over six systems."""

    RESTARTS = 12
    TAIL_PERCENTILE = 90
    # (built-in name, potential, twist index of its reference rows)
    SYSTEMS = (("4_1", "w", 1), ("5_2", "w", 2), ("5_2", "v", 2),
               ("T3", "w", 3), ("T5", "w", 5), ("T5", "v", 5))

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.reference = {}
        for name, pot, n in self.SYSTEMS:
            # The CLI rebuilds these per request; building them here too puts
            # the same steps in set-up as in the other workloads and stops a
            # broken system before anything is timed.
            d = diagram.builtin(name)
            equations.build_system(potential.assemble_W(d) if pot == "w" else potential.assemble_V(d))
            # The geometric (max-volume) row and its complex conjugate, the
            # min-volume row.  The systems have real coefficients and the
            # solver's start distribution is conjugation-symmetric, so both
            # are found equally often; counting both halves the sampling
            # noise of the hit rate.
            rows = twistknot.REFERENCE_ROWS[n]
            self.reference[name] = [(vol, cs) for _, vol, cs in (max(rows, key=lambda r: r[1]),
                                                                min(rows, key=lambda r: r[1]))]

    def warmup(self) -> list[Request]:
        return [self._request(name, pot, restarts=1, seed=0) for name, pot, _ in self.SYSTEMS]

    def cycle(self) -> list[Request]:
        seeds = self.rng.integers(0, 2**31 - 1, size=len(self.SYSTEMS))
        return [self._request(name, pot, self.RESTARTS, int(s))
                for (name, pot, _), s in zip(self.SYSTEMS, seeds)]

    def _request(self, name: str, pot: str, restarts: int, seed: int) -> Request:
        argv = ["solve", "--builtin", name, "--potential", pot,
                "--restarts", str(restarts), "--seed", str(seed)]
        refs = self.reference[name]

        def check(out) -> Outcome:
            if isinstance(out, BaseException):
                return _failure(out)
            code, stdout, stderr = out
            if code not in (cli.EXIT_OK, cli.EXIT_EMPTY):
                return Outcome(failed=True, detail=f"exit {code}: {stderr.strip()[:80]}")
            sols = json.loads(stdout)["solutions"]
            for s in sols:
                if pot == "w" and abs(s["vol"] - s["bw_vol"]) > BW_TOL:
                    return Outcome(failed=True,
                                   detail=f"vol {s['vol']} vs Bloch-Wigner {s['bw_vol']}")
            rows = [(s["vol"], s["cs_mod_pi2"]) for s in sols]
            hit = any(matches(vol, cs, *ref) for vol, cs in rows for ref in refs)
            return Outcome(hit=hit, solutions=len(rows), classes=count_classes(rows))

        return Request(lambda: _run_cli(argv), check)


class Polish:
    """refine + w0 from perturbed closed-form twist points, W and V systems."""

    TAIL_PERCENTILE = 99
    NOISE_DECADES = (-8.0, -3.0)      # relative noise, log-uniform in [1e-8, 1e-3]

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.points = []
        for n in range(1, twistknot.MAX_INDEX + 1):
            d = diagram.twist_diagram(n)
            pw, pv = potential.assemble_W(d), potential.assemble_V(d)
            sw, sv = equations.build_system(pw), equations.build_system(pv)
            for t in twistknot.poly_roots(twistknot.defining_poly(n)):
                par = twistknot.parametrize(n, t)
                ref = twistknot.match_reference_row(n, t)
                self.points.append((sw, pw, d, par.regions, ref))
                self.points.append((sv, pv, None, par.sides, ref))

    def warmup(self) -> list[Request]:
        return self.cycle()

    def cycle(self) -> list[Request]:
        # Stratified log-uniform noise: one draw per stratum of the decade
        # range, assigned to the points in random order.
        lo, hi = self.NOISE_DECADES
        k = len(self.points)
        strata = self.rng.permutation(k) + self.rng.uniform(0.0, 1.0, k)
        levels = 10.0 ** (lo + (hi - lo) * strata / k)
        reqs = []
        for (system, pot, d, base, ref), eps in zip(self.points, levels):
            g = self.rng.standard_normal((len(base), 2)) @ np.array([1.0, 1.0j]) / np.sqrt(2.0)
            start = {v: val * (1.0 + eps * z) for (v, val), z in zip(base.items(), g)}
            reqs.append(self._request(system, pot, d, start, ref))
        return reqs

    @staticmethod
    def _request(system, pot, d, start, ref) -> Request:
        def call():
            sol = solver.refine(system, start)
            return optimistic.w0(pot, sol, diagram=d)

        def check(out) -> Outcome:
            if isinstance(out, solver.SolveError):
                return Outcome(stalled=True, detail=f"SolveError: {str(out)[:80]}")
            if isinstance(out, BaseException):
                return _failure(out)
            if d is not None and abs(out.vol - out.bw_vol) > BW_TOL:
                return Outcome(failed=True,
                               detail=f"vol {out.vol} vs Bloch-Wigner {out.bw_vol}")
            return Outcome(hit=matches(out.vol, out.cs_mod_pi2, ref[0], ref[1]))

        return Request(call, check)


class Certify:
    """Bridge and sign-flip checks at the closed-form twist points, plus
    `optlim twist --all`; no solver work."""

    TAIL_PERCENTILE = 99
    SIGN_FLIP_TRIALS = 4

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.points = []
        for n in range(1, twistknot.MAX_INDEX + 1):
            d = diagram.twist_diagram(n)
            alt = potential.assemble_W(d, variant=potential.ALT_NEG_LOG)
            for t in twistknot.poly_roots(twistknot.defining_poly(n)):
                par = twistknot.parametrize(n, t)
                self.points.append((d, alt, par.regions, twistknot.match_reference_row(n, t)))

    def warmup(self) -> list[Request]:
        return self.cycle()

    def cycle(self) -> list[Request]:
        reqs = []
        for d, alt, regions, ref in self.points:
            signs = [(self._signs(alt), self._signs(alt)) for _ in range(self.SIGN_FLIP_TRIALS)]
            reqs.append(self._bridge_request(d, alt, regions, ref, signs))
        reqs.append(self._twist_request())
        return reqs

    def _signs(self, pot) -> dict:
        return {v: int(s) for v, s in zip(pot.variables, self.rng.choice((-1, 1), len(pot.variables)))}

    @staticmethod
    def _bridge_request(d, alt, regions, ref, signs) -> Request:
        def call():
            bridge = correspondence.verify_bridge(d, regions)
            flips = []
            # the trial loop of `optlim verify --sign-flip`
            for taus, eps in signs:
                flipped = correspondence.sign_flip(alt, taus, eps)
                point = correspondence.sign_flip_point(alt, taus, eps, regions)
                res_flip = optimistic.w0(flipped, point)
                base = optimistic.w0(alt, regions)
                flips.append(optimistic.mod_eq(res_flip.raw, base.raw, 2.0 * PI2, 1e-9))
            return bridge, flips

        def check(out) -> Outcome:
            if isinstance(out, BaseException):
                return _failure(out)
            bridge, flips = out
            res = bridge.w0_region
            if not bridge.congruent_mod_4pi2:
                detail = "region/side congruence mod 4 pi^2 fails"
            elif abs(res.vol - res.bw_vol) > BW_TOL:
                detail = f"vol {res.vol} vs Bloch-Wigner {res.bw_vol}"
            elif not all(flips):
                detail = f"{flips.count(False)} of {len(flips)} sign flips fail"
            elif not matches(res.vol, res.cs_mod_pi2, ref[0], ref[1]):
                detail = f"({res.vol}, {res.cs_mod_pi2}) is not the reference row {ref}"
            else:
                return Outcome(hit=True)
            return Outcome(failed=True, detail=detail)

        return Request(call, check)

    @staticmethod
    def _twist_request() -> Request:
        def check(out) -> Outcome:
            if isinstance(out, BaseException):
                return _failure(out)
            code, stdout, stderr = out
            rows = json.loads(stdout)["rows"] if code == cli.EXIT_OK else []
            if len(rows) != 20 or not all(r["pass"] for r in rows):
                return Outcome(failed=True,
                               detail=f"twist --all exit {code}, {len(rows)} rows {stderr.strip()[:60]}")
            return Outcome(hit=True)

        return Request(lambda: _run_cli(["twist", "--all"]), check)


WORKLOADS = {"multistart": Multistart, "polish": Polish, "certify": Certify}
