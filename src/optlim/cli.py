"""Command-line driver: solve diagrams, run the twist regression, verify
the region/side correspondence.

Exit codes: 0 success, 1 usage, input or validation error, 2 empty solution set.
argparse enforces the input rules: solve and verify take exactly one of
--pd, --builtin and --json, and twist exactly one of --n and --all.
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


def _load_diagram(args) -> tuple[diagram.LinkDiagram, diagram.ValidationReport]:
    """The chosen diagram and its validation report; DiagramError names the
    failed check of an invalid diagram."""
    if args.pd is not None:
        d = diagram.build_diagram(diagram.parse_pd(args.pd))
    elif args.builtin is not None:
        d = diagram.builtin(args.builtin)
    else:
        with open(args.json_file, "r", encoding="utf-8") as fh:
            d = diagram.from_json(fh.read())
    rep = diagram.validate(d)
    if not rep.ok:
        failed = [check for check in ("euler_ok", "side_borders_ok") if not getattr(rep, check)]
        raise diagram.DiagramError(f"invalid diagram: {', '.join(failed)} failed")
    return d, rep


def _diagram_stats(rep: diagram.ValidationReport) -> dict:
    return {
        "crossings": rep.crossings,
        "regions": rep.regions,
        "sides": rep.sides,
        "components": rep.components,
        "kinks": rep.kinks,
        "euler_ok": rep.euler_ok,
    }


def cmd_solve(args) -> tuple[dict, int]:
    d, rep = _load_diagram(args)
    potential = assemble_W(d) if args.potential == "w" else assemble_V(d)
    system = build_system(potential)
    cfg = solver.SolveConfig(restarts=args.restarts, seed=args.seed)
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
    }
    return report, EXIT_OK if solutions else EXIT_EMPTY


def cmd_twist(args) -> tuple[dict, int]:
    indices = range(1, twistknot.MAX_INDEX + 1) if args.all else [args.n]
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
    }
    if args.fixtures_out:
        with open(args.fixtures_out, "w", encoding="utf-8") as fh:
            fh.write(twistknot.fixtures_json())
    return report, EXIT_OK if report["all_pass"] else EXIT_INPUT


def cmd_verify(args) -> tuple[dict, int]:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    d, rep = _load_diagram(args)
    assemble_V(d)                       # a kinked diagram has no side potential to verify against
    cfg = solver.SolveConfig(restarts=args.restarts, seed=args.seed)
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
    }
    if not solutions:
        return report, EXIT_EMPTY
    if any(r["status"] == "error"
           or (r["status"] == "ok" and (not r["congruent_mod_4pi2"] or
                                        r.get("sign_flip_passes") != r.get("sign_flip_trials")))
           for r in records):
        return report, EXIT_INPUT
    return report, EXIT_OK


def _add_diagram_args(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--pd", help="PD code, e.g. 'X(4,2,5,1) X(8,6,1,5) ...'")
    g.add_argument("--builtin", help=f"built-in diagram name: 4_1, 5_2, T1..T{twistknot.MAX_INDEX}")
    g.add_argument("--json", dest="json_file", help="JSON crossing-list file")


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
    g_twist = p_twist.add_mutually_exclusive_group(required=True)
    g_twist.add_argument("--n", type=int)
    g_twist.add_argument("--all", action="store_true")
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
    t0 = time.perf_counter()
    try:
        report, code = args.func(args)
    except (ValueError, OSError) as exc:   # every optlim input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not args.stable:
        report["elapsed_seconds"] = time.perf_counter() - t0
    sys.stdout.write(json.dumps(_round_floats(report), indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
