"""Command-line driver: solve diagrams, run the twist regression, verify
the region/side correspondence.

Exit codes: 0 success, 1 usage, input or validation error, 2 empty solution set.
A verify exits 1 after its report when a point's bridge raises, its
congruence fails or any of its sign-flip trials fails.  Reports are emitted
as JSON on stdout with floats at 15 significant digits; --stable drops the
timing field so identical seeds give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import correspondence, diagram, optimistic, solver, twistknot
from .equations import EvaluationError, build_system
from .potential import assemble_V, assemble_W

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EMPTY = 2


class CliError(Exception):
    pass


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, complex):
        return {"re": _round_floats(obj.real), "im": _round_floats(obj.imag)}
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(report: dict, stable: bool) -> None:
    if stable:
        report.pop("elapsed_seconds", None)
    sys.stdout.write(json.dumps(_round_floats(report), indent=2, sort_keys=True) + "\n")


def _load_diagram(args) -> tuple[diagram.LinkDiagram, diagram.ValidationReport]:
    """The chosen diagram and its validation report; DiagramError names the
    failed check of an invalid diagram."""
    chosen = [x for x in (args.pd, args.builtin, args.json_file) if x]
    if len(chosen) != 1:
        raise CliError("specify exactly one of --pd, --builtin, --json")
    if args.pd:
        d = diagram.build_diagram(diagram.parse_pd(args.pd))
    elif args.builtin:
        d = diagram.builtin(args.builtin)
    else:
        with open(args.json_file, "r", encoding="utf-8") as fh:
            d = diagram.from_json(fh.read())
    rep = diagram.validate(d)
    if not rep.ok:
        failed = [check for check in ("euler_ok", "side_borders_ok") if not getattr(rep, check)]
        raise diagram.DiagramError(f"invalid diagram: {', '.join(failed)} failed")
    return d, rep


def _solve_config(args) -> solver.SolveConfig:
    return solver.SolveConfig(restarts=args.restarts, seed=args.seed)


def _diagram_stats(rep: diagram.ValidationReport) -> dict:
    return {
        "crossings": rep.crossings,
        "regions": rep.regions,
        "sides": rep.sides,
        "components": rep.components,
        "kinks": rep.kinks,
        "euler_ok": rep.euler_ok,
    }


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    d, rep = _load_diagram(args)
    potential = assemble_W(d) if args.potential == "w" else assemble_V(d)
    system = build_system(potential)
    cfg = _solve_config(args)
    solutions = solver.solve(system, cfg)
    results = optimistic.w0_batch(potential, solutions)
    best_vol = max((r.vol for r in results), default=0.0)
    margins = (solver.essential_margin(system, np.array([system.point_from_assignment(s.assignment)
                                                         for s in solutions])).tolist()
               if solutions else [])
    records = []
    for sol, res, margin in zip(solutions, results, margins):
        records.append({
            "assignment": {str(k): v for k, v in sol.assignment.items()},
            "residual": sol.residual_norm,
            "essential_margin": margin,
            "w0_raw": res.raw,
            "vol": res.vol,
            "cs_mod_pi2": res.cs_mod_pi2,
            "bw_vol": res.bw_vol,
            "mu_integers": list(res.mu_integers),
            "geometric_heuristic": res.vol > 1e-9 and abs(res.vol - best_vol) < 1e-9,
        })
    report = {
        "command": "solve",
        "potential": args.potential,
        "diagram": _diagram_stats(rep),
        "config": {"restarts": cfg.restarts, "seed": cfg.seed,
                   "residual_tol": solver.RESIDUAL_TOL},
        "solutions": records,
        "elapsed_seconds": time.perf_counter() - t0,
    }
    _emit(report, args.stable)
    return EXIT_OK if solutions else EXIT_EMPTY


def cmd_twist(args) -> int:
    t0 = time.perf_counter()
    if args.all:
        indices = list(range(1, twistknot.MAX_INDEX + 1))
    elif args.n is not None:
        indices = [args.n]
    else:
        raise CliError("specify --n K or --all")
    rows = []
    for n in indices:
        for rec in twistknot.reproduce_reference_table(n):
            rows.append({
                "n": rec["n"],
                "t": rec["t"],
                "w0_raw": rec["raw"],
                "vol": rec["vol"],
                "bw_vol": rec["bw_vol"],
                "expected_vol_cs": list(rec["expected"]) if rec["expected"] else None,
                "pass": rec["pass"],
            })
    report = {
        "command": "twist",
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows),
        "elapsed_seconds": time.perf_counter() - t0,
    }
    if args.fixtures_out:
        with open(args.fixtures_out, "w", encoding="utf-8") as fh:
            fh.write(twistknot.fixtures_json())
    _emit(report, args.stable)
    return EXIT_OK if report["all_pass"] else EXIT_INPUT


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    d, rep = _load_diagram(args)
    assemble_V(d)                       # a kinked diagram has no side potential to verify against
    cfg = _solve_config(args)
    potential = assemble_W(d)
    solutions = solver.solve(build_system(potential), cfg)
    records = []
    rng_signs = np.random.default_rng(cfg.seed + 1)
    for sol in solutions:
        rec: dict = {"residual": sol.residual_norm}
        if not correspondence.check_w_nondegenerate(d, sol.assignment):
            rec["status"] = "skipped-degenerate"
            records.append(rec)
            continue
        try:
            bridge = correspondence.verify_bridge(d, sol)
        except (correspondence.CorrespondenceError, EvaluationError) as exc:
            rec["status"] = "error"
            rec["detail"] = str(exc)
            records.append(rec)
            continue
        rec["status"] = "ok"
        rec["w0_raw"] = bridge.w0_region.raw
        rec["v0_raw"] = bridge.v0_side.raw
        rec["congruent_mod_4pi2"] = bridge.congruent_mod_4pi2
        rec["z"] = {str(k): v for k, v in bridge.z.assignment.items()}
        if args.sign_flip:
            flips = []
            for _ in range(args.trials):
                taus, eps = rng_signs.choice((-1, 1), (2, len(potential.variables))).tolist()
                flipped = correspondence.sign_flip(potential, taus, eps)
                point = correspondence.sign_flip_point(potential, taus, eps, sol.assignment)
                res_flip = optimistic.w0(flipped, point)
                flips.append(optimistic.mod_eq(res_flip.raw, bridge.w0_region.raw,
                                               2.0 * optimistic.PI2, 1e-9))
            rec["sign_flip_passes"] = sum(flips)
            rec["sign_flip_trials"] = len(flips)
        records.append(rec)
    report = {
        "command": "verify",
        "diagram": _diagram_stats(rep),
        "solutions": records,
        "congruences_checked": sum(1 for r in records if r["status"] == "ok"),
        "congruences_pass": sum(1 for r in records
                                if r.get("congruent_mod_4pi2") is True),
        "elapsed_seconds": time.perf_counter() - t0,
    }
    _emit(report, args.stable)
    if not solutions:
        return EXIT_EMPTY
    if any(r["status"] == "error"
           or (r["status"] == "ok" and (not r["congruent_mod_4pi2"] or
                                        r.get("sign_flip_passes") != r.get("sign_flip_trials")))
           for r in records):
        return EXIT_INPUT
    return EXIT_OK


def _add_diagram_args(p):
    p.add_argument("--pd", help="PD code, e.g. 'X(4,2,5,1) X(8,6,1,5) ...'")
    p.add_argument("--builtin", help="built-in diagram name: 4_1, 5_2, T1..T5")
    p.add_argument("--json", dest="json_file", help="JSON crossing-list file")


def _add_solver_args(p):
    p.add_argument("--restarts", type=int, default=solver.SolveConfig.restarts)
    p.add_argument("--seed", type=int, default=solver.SolveConfig.seed)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="optlim",
        description="Optimistic limits of hyperbolic link diagrams",
    )
    parser.add_argument("--stable", action="store_true",
                        help="omit timing for byte-reproducible output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a diagram's equation system")
    _add_diagram_args(p_solve)
    p_solve.add_argument("--potential", choices=("w", "v"), default="w")
    _add_solver_args(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_twist = sub.add_parser("twist", help="twist-knot reference regression")
    p_twist.add_argument("--n", type=int, default=None)
    p_twist.add_argument("--all", action="store_true")
    p_twist.add_argument("--fixtures-out", default=None,
                         help="also write the JSON fixtures file here")
    p_twist.set_defaults(func=cmd_twist)

    p_verify = sub.add_parser("verify", help="verify the region/side bridge")
    _add_diagram_args(p_verify)
    _add_solver_args(p_verify)
    p_verify.add_argument("--sign-flip", action="store_true")
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:           # argparse has printed its usage or help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CliError, diagram.DiagramError, twistknot.TwistError,
            EvaluationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
