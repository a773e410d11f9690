"""Command-line driver: subcommands, exit codes, JSON stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from optlim import assemble_W, build_system, builtin, cli, solver
from optlim.cli import main
from optlim.diagram import to_json_dict

from conftest import clear_diagram_caches


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

    def test_no_input_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "solve")
        assert code == 1

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
            a = {v: a[str(v)] for v in system.potential.variables}
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

    @pytest.mark.parametrize("tol", ["1e-6", "0"])
    def test_out_of_range_tol_exits_1(self, capsys, tol):
        # residual_tol must lie in (0, solver.DEDUPE_TOL)
        code, out, err = run_cli(capsys, "solve", "--builtin", "4_1", "--tol", tol)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "residual_tol" in err


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


class TestFloats:
    def test_fifteen_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "--stable", "twist", "--n", "1")
        doc = json.loads(out)
        raw = doc["rows"][0]["w0_raw"]
        assert isinstance(raw["re"], float)
        # round-trip through the 15-digit format is the identity
        assert raw["re"] == float(f"{raw['re']:.15g}")
