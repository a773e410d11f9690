"""Command-line driver: subcommands, exit codes, JSON stability."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from optlim import CorrespondenceError, assemble_W, build_system, builtin, cli, solver, twistknot
from optlim.cli import main

from conftest import (BORROMEAN_PD, FIG8_PD, KINKED_TREFOIL_PD, WHITEHEAD_PD,
                      clear_diagram_caches)
from oracles import to_json_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_figure_eight_w(self, capsys):
        code, out, _ = run_cli(capsys, "--stable", "solve", "--builtin", "4_1",
                               "--potential", "w", "--restarts", "512", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["diagram"]["crossings"] == 4
        vols = {round(s["vol"], 4) for s in doc["solutions"]}
        assert 2.0299 in vols and -2.0299 in vols
        assert "elapsed_seconds" not in doc
        assert any(s["geometric_heuristic"] for s in doc["solutions"])

    def test_side_potential_runs(self, capsys):
        code, out, _ = run_cli(capsys, "--stable", "solve", "--builtin", "4_1",
                               "--potential", "v", "--restarts", "192", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert all(s["bw_vol"] is None for s in doc["solutions"])

    def test_52_side_rows(self, capsys):
        code, out, _ = run_cli(capsys, "--stable", "solve", "--builtin", "5_2",
                               "--potential", "v", "--restarts", "512", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        pairs = {(abs(round(s["vol"], 4)), round(s["cs_mod_pi2"], 4))
                 for s in doc["solutions"]}
        assert (2.8281, 3.0241) in pairs
        assert (0.0, -1.1135) in pairs

    def test_garbage_pd_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--pd", "garbage")
        assert code == 1
        assert "error" in err

    def test_empty_pd_exits_1(self, capsys):
        # an empty --pd is still the chosen input, not a missing one
        code, out, err = run_cli(capsys, "solve", "--pd", "")
        assert (code, out, err) == (1, "", "error: empty PD code\n")

    def test_no_input_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "solve")
        assert code == 1
        assert "one of the arguments --pd --builtin --json is required" in err

    def test_empty_solution_set_exits_2(self, capsys):
        # the flipped-clasp diagram has an empty side system
        pd = "X(1,7,2,6) X(5,3,6,2) X(4,8,5,7) X(3,8,4,1)"
        code, out, _ = run_cli(capsys, "--stable", "solve", "--pd", pd,
                               "--potential", "v", "--restarts", "64", "--seed", "4")
        assert code == 2
        assert json.loads(out)["solutions"] == []

    def test_json_input(self, capsys, tmp_path):
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(to_json_dict(builtin("4_1"))))
        code, out, _ = run_cli(capsys, "--stable", "solve", "--json", str(path),
                               "--restarts", "128", "--seed", "0")
        assert code == 0
        assert json.loads(out)["diagram"]["regions"] == 6

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_invalid_json_diagram_exits_1(self, capsys, tmp_path, command):
        # regions j and k swapped at one crossing: every region and side
        # still occurs, but the side/region borders no longer match
        doc = to_json_dict(builtin("4_1"))
        regions = doc["crossings"][0]["regions"]
        regions[0], regions[1] = regions[1], regions[0]
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "--stable", command, "--json", str(path),
                                 "--restarts", "16", "--seed", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid diagram") and "side_borders_ok" in err

    def test_records_carry_essential_margin(self, capsys):
        code, out, _ = run_cli(capsys, "--stable", "solve", "--builtin", "4_1",
                               "--restarts", "64", "--seed", "0")
        assert code == 0
        system = build_system(assemble_W(builtin("4_1")))
        records = json.loads(out)["solutions"]
        assert records
        for rec in records:
            a = {k: complex(v["re"], v["im"]) for k, v in rec["assignment"].items()}
            a = {v: a[str(v)] for v in system.variables}
            margin = solver.essential_margin(system, a)
            assert rec["essential_margin"] >= solver.ESSENTIAL_TOL
            assert abs(rec["essential_margin"] - margin) <= 1e-12 * margin

    def test_stable_output_reproducible(self, capsys):
        args = ("--stable", "solve", "--builtin", "4_1", "--restarts", "96",
                "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("name, code", [("T5", cli.EXIT_EMPTY), ("T3", cli.EXIT_OK)])
    def test_builtin_compiled_once_per_process(self, capsys, build_counter, name, code):
        args = ("--stable", "solve", "--builtin", name, "--potential", "w",
                "--restarts", "12", "--seed", "0")
        first = run_cli(capsys, *args)
        assert build_counter == ["W"]
        second = run_cli(capsys, *args)
        assert build_counter == ["W"]         # the second run compiled nothing
        assert first[0] == code
        assert second == first

    def test_zero_restarts_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--builtin", "4_1", "--restarts", "0")
        assert code == 1
        assert "at least 1" in err

    @pytest.mark.parametrize("tol", ["1e-8", "1e-6", "0", "1e-10"])
    def test_out_of_range_tol_exits_1(self, capsys, tol):
        # the residual tolerance is solver.RESIDUAL_TOL, not an option:
        # every --tol value, in range or not, is a usage error
        code, out, err = run_cli(capsys, "solve", "--builtin", "4_1", "--tol", tol)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: optlim")
        assert f"unrecognized arguments: --tol {tol}" in err

    def test_record_keys(self, capsys):
        code, out, _ = run_cli(capsys, "--stable", "solve", "--builtin", "4_1",
                               "--restarts", "12", "--seed", "0")
        assert code == 0
        for rec in json.loads(out)["solutions"]:
            assert set(rec) == {"assignment", "residual", "essential_margin", "w0_raw", "vol",
                                "cs_mod_pi2", "bw_vol", "mu_integers", "geometric_heuristic"}

    def test_negative_volume_not_flagged(self, capsys):
        # Seed 1 at 12 restarts finds only the conjugate class, vol -2.0299.
        code, out, _ = run_cli(capsys, "--stable", "solve", "--builtin", "4_1",
                               "--restarts", "12", "--seed", "1")
        assert code == 0
        records = json.loads(out)["solutions"]
        assert records and all(round(s["vol"], 4) == -2.0299 for s in records)
        assert not any(s["geometric_heuristic"] for s in records)

    def test_zero_volume_not_flagged(self, capsys):
        # The trefoil is not hyperbolic: every point has |vol| < 3e-15.
        code, out, _ = run_cli(capsys, "--stable", "solve", "--pd",
                               "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)", "--restarts", "64")
        assert code == 0
        records = json.loads(out)["solutions"]
        assert records and all(abs(s["vol"]) < 3e-15 for s in records)
        assert not any(s["geometric_heuristic"] for s in records)

    @pytest.mark.parametrize("edit", [
        {"regions": [[1], [2], [3], [4]]},
        {"sides": [1, 2, 3, True]},
        {"sign": 1.5},
        {"sign": True},
        {"sign": "1"},
        {"regions": "4213"},
    ])
    def test_malformed_json_crossing_exits_1(self, capsys, tmp_path, edit):
        doc = to_json_dict(builtin("4_1"))
        doc["crossings"][2].update(edit)
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", "--json", str(path), "--restarts", "12")
        assert code == 1
        assert out == ""
        assert err.startswith("error: crossing 2 ")


class TestUsage:
    """Usage errors exit 1 (2 means an empty solution set) with argparse's
    usage line on stderr, and return a code instead of raising SystemExit."""

    @pytest.mark.parametrize("argv,message", [
        (("solve", "--builtin", "4_1", "--bogus"), "unrecognized arguments: --bogus"),
        (("solve", "--builtin", "4_1", "--restarts", "abc"), "invalid int value: 'abc'"),
        ((), "the following arguments are required: command"),
        (("twist", "--n", "3", "--all"), "argument --all: not allowed with argument --n"),
        (("twist",), "one of the arguments --n --all is required"),
        (("solve", "--pd", FIG8_PD, "--builtin", "4_1"),
         "argument --builtin: not allowed with argument --pd"),
        (("verify", "--pd", FIG8_PD, "--builtin", "4_1"),
         "argument --builtin: not allowed with argument --pd"),
    ], ids=["unknown-option", "non-integer-restarts", "no-command", "twist-n-and-all",
            "twist-neither", "solve-two-inputs", "verify-two-inputs"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: optlim")
        assert message in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_negative_seed_exits_1(self, capsys, command):
        # SolveConfig names the option; numpy's own message does not
        code, out, err = run_cli(capsys, command, "--builtin", "4_1", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: seed must be non-negative, got -1\n"

    def test_help_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: optlim")
        assert err == ""

    def test_usage_error_exit_code_of_a_process(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "optlim.cli", "solve", "--builtin", "4_1",
                               "--bogus"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: optlim")
        assert "unrecognized arguments: --bogus" in proc.stderr


class TestTwist:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, "--stable", "twist", "--all")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 20
        assert doc["all_pass"] is True

    def test_single_index(self, capsys):
        code, out, _ = run_cli(capsys, "--stable", "twist", "--n", "1")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 2

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "twist", "--n", "9")
        assert code == 1

    def test_fixtures_out(self, capsys, tmp_path):
        path = tmp_path / "fixtures.json"
        code, _, _ = run_cli(capsys, "--stable", "twist", "--n", "2",
                             "--fixtures-out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert "rows" in doc and "defining_polynomials" in doc


class TestVerify:
    def test_t2_bridge(self, capsys):
        code, out, _ = run_cli(capsys, "--stable", "verify", "--builtin", "T2",
                               "--restarts", "512", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["congruences_checked"] >= 3
        assert doc["congruences_pass"] == doc["congruences_checked"]

    def test_sign_flip_trials(self, capsys):
        code, out, _ = run_cli(capsys, "--stable", "verify", "--builtin", "4_1",
                               "--restarts", "256", "--seed", "0",
                               "--sign-flip", "--trials", "5")
        assert code == 0
        doc = json.loads(out)
        checked = [r for r in doc["solutions"] if r["status"] == "ok"]
        assert checked
        for rec in checked:
            assert rec["sign_flip_passes"] == rec["sign_flip_trials"] == 5

    def test_sign_flips_leave_the_collector_nothing_of_optlim(self, capsys):
        # Each trial's flipped potential owns its system, which does not
        # refer back, so both go with the trial.  The collector still finds
        # the closures of json's indenting encoder, none of optlim's objects.
        argv = ("--stable", "verify", "--builtin", "T2", "--sign-flip", "--trials", "5",
                "--restarts", "64", "--seed", "0")
        run_cli(capsys, *argv)          # the parser and T2's potentials, built once
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            code, _, _ = run_cli(capsys, *argv)
            gc.collect()
            left = [o for o in gc.garbage
                    if type(o).__module__.startswith("optlim") or isinstance(o, np.ndarray)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert code == 0
        assert not left

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_exit_1(self, capsys, trials):
        code, out, err = run_cli(capsys, "verify", "--builtin", "4_1", "--restarts", "8",
                                 "--sign-flip", "--trials", trials)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "--trials" in err

    def test_sign_flip_builds_base_system_once(self, capsys, build_counter):
        for trials in ("3", "20"):
            clear_diagram_caches()
            build_counter.clear()
            code, out, _ = run_cli(capsys, "--stable", "verify", "--builtin", "4_1",
                                   "--restarts", "64", "--seed", "0",
                                   "--sign-flip", "--trials", trials)
            assert code == 0
            assert sum(r["status"] == "ok" for r in json.loads(out)["solutions"])
            # the solve system, then the bridge's side system, whatever the
            # number of solutions and trials: the bridge and the sign-flip
            # base read the solve's W, and every flipped system is derived
            # from it
            assert build_counter == ["W", "V"]

    def test_sign_flip_base_is_the_bridge_w0(self, capsys, monkeypatch):
        calls = []
        original = cli.optimistic.w0

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.optimistic, "w0", counting)
        code, out, _ = run_cli(capsys, "--stable", "verify", "--builtin", "4_1",
                               "--restarts", "64", "--seed", "0", "--sign-flip", "--trials", "3")
        assert code == 0
        checked = sum(r["status"] == "ok" for r in json.loads(out)["solutions"])
        assert checked
        # one W0 per trial, of the flipped potential; the unflipped value
        # the trials compare with is the bridge's w0_region
        assert len(calls) == 3 * checked

    def test_sign_flip_output_stable_with_warm_caches(self, capsys, monkeypatch,
                                                      build_counter):
        d = builtin("4_1")
        monkeypatch.setattr(cli.diagram, "builtin", lambda name: d)
        argv = ("--stable", "verify", "--builtin", "4_1", "--restarts", "64",
                "--seed", "0", "--sign-flip", "--trials", "5")
        first = run_cli(capsys, *argv)
        assert build_counter == ["W", "V"]
        second = run_cli(capsys, *argv)
        assert build_counter == ["W", "V"]     # every system came from a cache
        assert first[0] == 0
        assert second == first

    @pytest.mark.parametrize("flags", [(), ("--sign-flip", "--trials", "3")],
                             ids=["plain", "sign-flip"])
    def test_assembles_no_alternative_potential(self, capsys, monkeypatch, build_counter,
                                                flags):
        calls = []
        original = cli.assemble_W

        def recording(*args, **kwargs):
            calls.append((args[1:], kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "assemble_W", recording)
        code, out, _ = run_cli(capsys, "--stable", "verify", "--builtin", "4_1",
                               "--restarts", "64", "--seed", "0", *flags)
        assert code == 0
        assert calls == [((), {})]
        assert sum(r["status"] == "ok" for r in json.loads(out)["solutions"])
        # the solve system, then the bridge's side system: W and V, no other W
        assert build_counter == ["W", "V"]

    @pytest.mark.parametrize("pd", [WHITEHEAD_PD, BORROMEAN_PD], ids=["whitehead", "borromean"])
    def test_link_bridge_and_sign_flips(self, capsys, pd):
        code, out, _ = run_cli(capsys, "--stable", "verify", "--pd", pd,
                               "--sign-flip", "--trials", "5", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["congruences_checked"] > 0
        assert doc["congruences_pass"] == doc["congruences_checked"]
        assert all(r["status"] == "ok" and r["sign_flip_passes"] == r["sign_flip_trials"] == 5
                   for r in doc["solutions"])

    def test_failed_sign_flip_trials_exit_1(self, capsys, monkeypatch):
        # Only the trials compare through optimistic.mod_eq; the bridge's
        # congruence keeps its own reference and still passes.
        monkeypatch.setattr(cli.optimistic, "mod_eq", lambda *args: False)
        code, out, _ = run_cli(capsys, "--stable", "verify", "--builtin", "4_1",
                               "--restarts", "64", "--seed", "0", "--sign-flip", "--trials", "3")
        assert code == 1
        doc = json.loads(out)
        checked = [r for r in doc["solutions"] if r["status"] == "ok"]
        assert checked and doc["congruences_pass"] == doc["congruences_checked"]
        assert all(r["sign_flip_passes"] == 0 and r["sign_flip_trials"] == 3 for r in checked)

    def test_kinked_diagram_exits_1_before_solving(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("solved a kinked diagram")

        monkeypatch.setattr(cli.solver, "solve", never)
        code, out, err = run_cli(capsys, "--stable", "verify", "--pd", KINKED_TREFOIL_PD,
                                 "--restarts", "32", "--seed", "0")
        assert (code, out) == (1, "")
        assert err == "error: diagram has kinks at crossings [3]; remove them first\n"

    def test_bridge_error_is_a_point_record(self, capsys, monkeypatch):
        def failing(d, sol):
            raise CorrespondenceError("converted side values violate the side system")

        monkeypatch.setattr(cli.correspondence, "verify_bridge", failing)
        code, out, _ = run_cli(capsys, "--stable", "verify", "--builtin", "4_1",
                               "--restarts", "64", "--seed", "0")
        assert code == 1
        doc = json.loads(out)
        errors = [r for r in doc["solutions"] if r["status"] == "error"]
        assert errors and doc["congruences_checked"] == 0
        for rec in errors:
            assert set(rec) == {"residual", "status", "detail"}
            assert rec["detail"] == "converted side values violate the side system"

    def test_one_bridge_error_exits_1(self, capsys, monkeypatch):
        original = cli.correspondence.verify_bridge
        calls = []

        def first_fails(d, sol):
            calls.append(sol)
            if len(calls) == 1:
                raise CorrespondenceError("converted side values violate the side system")
            return original(d, sol)

        monkeypatch.setattr(cli.correspondence, "verify_bridge", first_fails)
        code, out, _ = run_cli(capsys, "--stable", "verify", "--builtin", "4_1",
                               "--restarts", "64", "--seed", "0")
        assert code == 1
        doc = json.loads(out)
        statuses = [r["status"] for r in doc["solutions"] if r["status"] != "skipped-degenerate"]
        assert len(statuses) == len(calls) > 1
        assert statuses[0] == "error" and set(statuses[1:]) == {"ok"}
        assert doc["congruences_pass"] == doc["congruences_checked"] == len(statuses) - 1

    def test_ratio_of_one_is_a_point_record(self, capsys, monkeypatch):
        # T2's first closed-form point with two region values of crossing 0
        # equal passes the nondegeneracy check, but the bridge cannot form
        # u' = 1/(1-u) there.
        d = builtin("T2")
        cr = d.crossings[0]
        roots = twistknot.poly_roots(twistknot.defining_poly(2))
        a = dict(twistknot.parametrize(2, roots[0]).regions)
        a[cr.regions[3]] = a[cr.regions[0]]
        monkeypatch.setattr(cli.solver, "solve", lambda system, cfg: [solver.Solution(a, 0.0)])
        code, out, err = run_cli(capsys, "--stable", "verify", "--builtin", "T2",
                                 "--restarts", "8", "--seed", "0")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["solutions"] == [{
            "residual": 0.0, "status": "error",
            "detail": f"degenerate crossing {cr.regions}: a region ratio equals 1"}]
        assert doc["congruences_checked"] == 0

    def test_empty_solution_set_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "--stable", "verify", "--builtin", "T5",
                               "--restarts", "64", "--seed", "0")
        assert code == 2
        doc = json.loads(out)
        assert doc["solutions"] == [] and doc["congruences_checked"] == 0

    def test_all_degenerate_reports_skips(self, capsys):
        pd = "X(1,7,2,6) X(5,3,6,2) X(4,8,5,7) X(3,8,4,1)"
        code, out, _ = run_cli(capsys, "--stable", "verify", "--pd", pd,
                               "--restarts", "192", "--seed", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["congruences_checked"] == 0
        assert any(r["status"] == "skipped-degenerate" for r in doc["solutions"])


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [
    ("solve", "--pd", "X(1,7,2,6) X(5,3,6,2) X(4,8,5,7) X(3,8,4,1)"),
    ("solve", "--builtin", "T5", "--potential", "v", "--restarts", "64"),
    ("verify", "--builtin", "4_1", "--sign-flip", "--trials", "5", "--restarts", "32"),
], ids=["solve-pd", "solve-T5-v", "verify-sign-flip"])
def test_stable_output_independent_of_hash_seed(argv):
    # --stable output must not depend on set or dict iteration order of
    # string labels, which PYTHONHASHSEED changes from process to process
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "optlim.cli", "--stable", *argv],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.stderr == ""
        outputs.append((proc.returncode, proc.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].startswith("{")


@pytest.mark.parametrize("argv", [
    ("twist", "--all"),
    ("verify", "--builtin", "T2", "--sign-flip", "--trials", "5", "--restarts", "64", "--seed", "0"),
], ids=["twist-all", "verify-T2-sign-flip"])
def test_repeated_runs_print_the_one_shot_bytes(capsys, argv):
    # The twist roots and points and the compiled systems kept from a first
    # run change nothing in a second one, which prints the bytes of a fresh
    # process.
    clear_diagram_caches()
    twistknot._reference_points.cache_clear()
    runs = [run_cli(capsys, "--stable", *argv) for _ in range(2)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "optlim.cli", "--stable", *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert runs[0] == runs[1] == (proc.returncode, proc.stdout, proc.stderr)
    assert runs[0][0] == 0 and runs[0][1].startswith("{")


class TestFloats:
    def test_fifteen_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "--stable", "twist", "--n", "1")
        doc = json.loads(out)
        raw = doc["rows"][0]["w0_raw"]
        assert isinstance(raw["re"], float)
        # round-trip through the 15-digit format is the identity
        assert raw["re"] == float(f"{raw['re']:.15g}")
