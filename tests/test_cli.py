import argparse
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from spaceform_spectra import cli, fem2d, slsolver, spectrum
from spaceform_spectra import domains as dm
from spaceform_spectra.domains import DomainSpec, FourierProfile, SymmetryOrder

import oracles


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSlCommand:
    def test_hemisphere_first_eigenvalue(self, capsys):
        code, out, _ = run(["sl", "--form", "spherical", "--n", "2", "--k", "1",
                            "--r1", "0", "--r2", "1.5707963", "--bc", "neumann"],
                           capsys)
        assert code == 0
        first = out.strip().splitlines()[2].split()
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(2.0, abs=1e-5)

    def test_annulus_constant_mode(self, capsys):
        code, out, _ = run(["sl", "--form", "euclidean", "--n", "2", "--k", "0",
                            "--r1", "1", "--r2", "2", "--bc", "neumann"], capsys)
        assert code == 0
        first = out.strip().splitlines()[2].split()
        assert abs(float(first[1])) < 1e-9

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run(["sl", "--form", "euclidean", "--n", "2", "--k", "0",
                            "--r1", "1"], capsys)
        assert code == 2
        assert "--r2" in err

    def test_invalid_radii_exit_2(self, capsys):
        code, _, err = run(["sl", "--form", "euclidean", "--n", "2", "--k", "0",
                            "--r1", "2", "--r2", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", [["sl", "--k", "0"], ["spectrum"]],
                             ids=["sl", "spectrum"])
    def test_infinite_radius_exit_2(self, capsys, command):
        # refused before any grid is built, so numpy warns of nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run([*command, "--form", "euclidean", "--n", "2",
                                  "--r1", "1", "--r2", "inf"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "r2" in err and "must be finite" in err
        assert caught == []

    @pytest.mark.parametrize("flags,term", [
        (["--form", "euclidean", "--n", "2", "--r1", "1e-300", "--r2", "1"],
         "potential k(k+n-2)/sin_m(r1)^2 = inf at r1 = 1e-300"),
        (["--form", "euclidean", "--n", "2", "--r1", "1e-160", "--r2", "1"],
         "potential k(k+n-2)/sin_m(r1)^2 = inf at r1 = 1e-160"),
        (["--form", "hyperbolic", "--n", "3", "--r1", "0.5", "--r2", "400"],
         "weight sin_m(r)^(n-1) = inf at r = 400"),
    ], ids=["r1-1e-300", "r1-1e-160", "hyperbolic-r2-400"])
    def test_term_outside_the_doubles_exit_2(self, capsys, flags, term):
        # refused before any grid is built, naming the term; numpy warns of nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["sl", "--k", "1", *flags], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and term in err
        assert caught == []

    @pytest.mark.parametrize("flags,message", [
        (["--n", "1", "--k", "0"], "dimension n must be >= 2"),
        (["--n", "2", "--k", "-1"], "mode index k must be >= 0"),
    ], ids=["n", "k"])
    def test_problem_guard_exit_2(self, capsys, flags, message):
        code, out, err = run(["sl", "--form", "euclidean", *flags,
                              "--r1", "1", "--r2", "2"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_max_j_zero_exit_2(self, capsys):
        code, out, err = run(["sl", "--form", "euclidean", "--n", "2", "--k", "0",
                              "--r1", "1", "--r2", "2", "--max-j", "0"], capsys)
        assert code == 2
        assert "max_j" in err and out == ""

    @pytest.mark.parametrize("richardson", [[], ["--no-richardson"]])
    def test_more_pairs_than_grid_nodes_exit_2(self, capsys, richardson):
        code, out, err = run(["sl", "--form", "euclidean", "--n", "2", "--k", "0",
                              "--r1", "1", "--r2", "2", "--grid-points", "64",
                              "--max-j", "200", *richardson], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "active nodes" in err

    def test_config_file_merge_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r2": 2.0, "max_j": 2}))
        # r2 and max_j come from the config file
        code, out, _ = run(["sl", "--form", "euclidean", "--n", "2", "--k", "0",
                            "--r1", "1", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # header + legend + two modes
        # an explicit flag beats the file value
        code, out, _ = run(["sl", "--form", "euclidean", "--n", "2", "--k", "0",
                            "--r1", "1", "--max-j", "1", "--config", str(cfg)],
                           capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("values", [{"max_j": 2.9, "r2": 2.0},
                                        {"k": True, "r2": 2.0},
                                        {"k": 1.7, "r2": 2.0},
                                        {"r1": False, "r2": 2.0},
                                        {"eig_tol": 1e-12, "r2": 2.0},
                                        {"richardson": False, "r2": 2.0},
                                        {"no_richardson": 1, "r2": 2.0},
                                        {"json": 2, "r2": 2.0}])
    def test_config_value_its_flag_refuses_exit_2(self, tmp_path, capsys, monkeypatch,
                                                  values):
        # --max-j 2.9 and a boolean or fractional --k exit 2 on the command
        # line, so they do in the file too, and so does a boolean radius; a
        # key that names no flag, such as richardson (the flag is
        # no_richardson), exits 2; a switch takes only true or false, and a
        # path only a string, so no report is written to a file named 2
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        argv = ["sl", "--form", "euclidean", "--n", "2", "--r1", "1",
                "--grid-points", "64", "--config", str(cfg)]
        code, out, err = run(argv + ([] if "k" in values else ["--k", "0"]), capsys)
        assert code == 2 and out == ""
        assert next(iter(values)) in err
        assert not (tmp_path / "2").exists()

    def test_config_integer_for_float_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r2": 2}))
        code, out, _ = run(["sl", "--form", "euclidean", "--n", "2", "--k", "0",
                            "--r1", "1", "--grid-points", "64", "--config", str(cfg)],
                           capsys)
        assert code == 0
        assert "interval=[1, 2]" in out

    def test_problem_file_and_artifacts(self, tmp_path, capsys):
        problem = {"form": "euclidean", "n": 2, "k": 1, "r1": 0.0, "r2": 1.0,
                   "bc": "neumann", "grid_points": 512, "max_j": 2}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        out_json = tmp_path / "pairs.json"
        out_csv = tmp_path / "pairs.csv"
        code, _, _ = run(["sl", "--config", str(path), "--json", str(out_json),
                          "--csv", str(out_csv)], capsys)
        assert code == 0
        blob = json.loads(out_json.read_text())
        ref = oracles.first_bessel_derivative_zero(1) ** 2
        assert blob["eigenpairs"][0]["eigenvalue"] == pytest.approx(ref, abs=1e-5)
        header = out_csv.read_text().splitlines()[0]
        assert header == "r,u_j1,u_j2"

    def test_config_report_matches_the_flags(self, tmp_path, capsys):
        # a problem file is a --config file: it writes the bytes its flags write
        problem = {"form": "hyperbolic", "n": 3, "k": 2, "r1": 0.5, "r2": 1.5,
                   "bc": "dirichlet", "grid_points": 256, "max_j": 3, "no_richardson": True}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        by_file, by_flags = tmp_path / "file.json", tmp_path / "flags.json"
        code, out_file, _ = run(["sl", "--config", str(path), "--json", str(by_file)], capsys)
        assert code == 0
        code, out_flags, _ = run(["sl", "--form", "hyperbolic", "--n", "3", "--k", "2",
                                  "--r1", "0.5", "--r2", "1.5", "--bc", "dirichlet",
                                  "--grid-points", "256", "--max-j", "3", "--no-richardson",
                                  "--json", str(by_flags)], capsys)
        assert code == 0 and out_file == out_flags
        assert by_file.read_bytes() == by_flags.read_bytes()

    def test_flag_beats_the_config_grid(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"form": "euclidean", "n": 2, "k": 1, "r1": 0.0,
                                    "r2": 1.0, "grid_points": 512}))
        report = tmp_path / "pairs.json"
        code, _, _ = run(["sl", "--config", str(path), "--grid-points", "2048",
                          "--json", str(report)], capsys)
        assert code == 0
        blob = json.loads(report.read_text())
        assert blob["problem"]["grid_points"] == 2048
        assert len(blob["eigenpairs"][0]["grid"]) == 2 * 2048 + 1   # grid 2N

    def test_problem_flag_is_gone_exit_2(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"form": "euclidean", "n": 2, "k": 1, "r1": 0.0,
                                    "r2": 1.0}))
        code, out, err = run(["sl", "--problem", str(path)], capsys)
        assert code == 2 and out == ""
        assert "--problem" in err

    @pytest.mark.parametrize("n", ["2", "3"])
    @pytest.mark.parametrize("k", ["0", "1"])
    def test_pencil_outside_the_doubles_exit_2(self, capsys, k, n):
        # 1/h^2 of a 1e-160 wide interval overflows: refused before any
        # solve, naming the width and the grid; numpy warns of nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["sl", "--form", "euclidean", "--n", n, "--k", k,
                                  "--r1", "0", "--r2", "1e-160"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: the pencil of an interval of width 1e-160 on 4096 cells "
                       "is not finite in doubles\n")
        assert caught == []


class TestSpectrumCommand:
    def test_shared_low_modes(self, capsys):
        code, out, _ = run(["spectrum", "--form", "euclidean", "--n", "2",
                            "--r1", "1", "--r2", "2", "--count", "4",
                            "--grid-points", "512"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        row2 = lines[3].split()
        assert row2[0] == "2" and row2[2] == "1" and row2[3] == "1" and row2[4] == "2"

    def test_certify_report(self, capsys):
        code, out, _ = run(["spectrum", "--form", "hyperbolic", "--n", "2",
                            "--r1", "0.5", "--r2", "1.5", "--certify",
                            "--grid-points", "512", "--count", "4"], capsys)
        assert code == 0
        assert "neumann_dirichlet_bridge: PASS" in out

    def test_config_switch_true_certifies(self, tmp_path, capsys):
        # a switch keeps its JSON boolean; nothing on the command line sets it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"certify": True, "form": "hyperbolic", "n": 2,
                                   "r1": 0.5, "r2": 1.5, "grid_points": 512, "count": 4}))
        code, out, _ = run(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        assert "neumann_dirichlet_bridge: PASS" in out

    @pytest.mark.parametrize("form", ["euclidean", "spherical", "hyperbolic"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_certify_solve_count_on_benchmark_shells(self, form, n, monkeypatch, capsys):
        # one shell and one ball per form and n, drawn as the benchmark's
        # shells are at seed 2026: assemble solves each Neumann mode once
        # (9 solves) and certify_lemmas adds 5 Dirichlet modes, so a mode-0
        # double solve or a re-solved mode would show here
        rng = np.random.default_rng(2026)
        cases = {}
        for f in ("euclidean", "spherical", "hyperbolic"):
            for dim in (2, 3):
                r1 = float(rng.uniform(0.2, 0.5))
                shell = (r1, r1 + float(rng.uniform(0.6, 1.0)))
                cases[f, dim] = [shell, (0.0, float(rng.uniform(0.8, 1.5)))]
        solved = Counter()
        real_solve = slsolver.solve

        def counting_solve(problem, config=None):
            solved[str(problem.bc)] += 1
            return real_solve(problem, config)

        monkeypatch.setattr(slsolver, "solve", counting_solve)
        for r1, r2 in cases[form, n]:
            solved.clear()
            code, out, _ = run(["spectrum", "--form", form, "--n", str(n), "--r1", repr(r1),
                                "--r2", repr(r2), "--kmax", "8", "--jmax", "8",
                                "--certify"], capsys)
            assert code == 0 and "FAIL" not in out
            assert solved == {"neumann": 9, "dirichlet": 5}

    def test_certify_solves_each_radial_problem_once(self, monkeypatch, capsys):
        calls = {"neumann": 0, "dirichlet": 0}
        neumann_pairs = []
        real_solve = slsolver.solve

        def counting_solve(problem, config=None):
            calls[str(problem.bc)] += 1
            if problem.bc == "neumann":
                neumann_pairs.append(config.max_j)
            return real_solve(problem, config)

        monkeypatch.setattr(slsolver, "solve", counting_solve)
        code, out, _ = run(["spectrum", "--form", "hyperbolic", "--n", "2",
                            "--r1", "0.5", "--r2", "1.5", "--certify"], capsys)
        assert code == 0
        assert "FAIL" not in out
        # kmax = jmax = 8: Neumann k = 0..8 once; Dirichlet k = 0..4 for the checks
        assert calls == {"neumann": 9, "dirichlet": 5}
        # and only the Neumann pairs the prefix or the checks read, not 9 * 8 = 72
        assert sum(neumann_pairs) <= 40

    @pytest.mark.parametrize("kmax", ["3", "8"])
    @pytest.mark.parametrize("jmax", ["2", "3", "4", "5", "6", "8"])
    @pytest.mark.parametrize("shell", [
        ("hyperbolic", "2", "0.5", "1.5"), ("euclidean", "3", "1", "2"),
        ("spherical", "2", "0", "1.2"), ("euclidean", "3", "0", "1.5"),
    ], ids=["annulus-n2", "annulus-n3", "ball-n2", "ball-n3"])
    def test_certify_solves_each_radial_problem_at_most_once(self, shell, jmax, kmax,
                                                             monkeypatch, capsys):
        solved = Counter()
        real_solve = slsolver.solve

        def counting_solve(problem, config=None):
            solved[problem.k, str(problem.bc)] += 1
            return real_solve(problem, config)

        monkeypatch.setattr(slsolver, "solve", counting_solve)
        form, n, r1, r2 = shell
        code, out, _ = run(["spectrum", "--form", form, "--n", n, "--r1", r1, "--r2", r2,
                            "--kmax", kmax, "--jmax", jmax, "--count", "1",
                            "--grid-points", "1024", "--certify"], capsys)
        assert code == 0 and "FAIL" not in out
        assert max(solved.values()) == 1, solved

    def test_failed_certification_writes_both_artifacts(self, tmp_path, monkeypatch,
                                                        capsys):
        real = spectrum.certify_lemmas

        def failing(*args, **kwargs):
            cert = real(*args, **kwargs)
            broken = dataclasses.replace(cert.checks[0], passed=False)
            return dataclasses.replace(cert, checks=(broken,) + cert.checks[1:])

        monkeypatch.setattr(spectrum, "certify_lemmas", failing)
        report, table = tmp_path / "s.json", tmp_path / "s.csv"
        code, out, _ = run(["spectrum", "--form", "euclidean", "--n", "2",
                            "--r1", "1", "--r2", "2", "--grid-points", "256",
                            "--count", "4", "--certify", "--json", str(report),
                            "--csv", str(table)], capsys)
        assert code == 4
        assert "FAIL" in out
        assert json.loads(report.read_text())["certification"]["passed"] is False
        assert table.read_text().splitlines()[0] == "i,value,k,j,multiplicity"

    def test_unlocatable_interior_radius_exit_4_with_both_artifacts(self, tmp_path,
                                                                     monkeypatch, capsys):
        def no_root(pair):
            raise slsolver.NoRootError("no interior radius")

        monkeypatch.setattr(spectrum, "locate_b", no_root)
        report, table = tmp_path / "s.json", tmp_path / "s.csv"
        code, out, _ = run(["spectrum", "--form", "euclidean", "--n", "2",
                            "--r1", "1", "--r2", "2", "--grid-points", "1024",
                            "--count", "4", "--certify", "--json", str(report),
                            "--csv", str(table)], capsys)
        assert code == 4
        assert "lowest_pair_interior_radius: FAIL" in out
        assert out.count("FAIL") == 1
        assert json.loads(report.read_text())["certification"]["passed"] is False
        assert table.read_text().splitlines()[0] == "i,value,k,j,multiplicity"

    def test_dimension_below_two_exit_2(self, capsys):
        code, out, err = run(["spectrum", "--form", "euclidean", "--n", "1",
                              "--r1", "1", "--r2", "2"], capsys)
        assert code == 2 and out == ""
        assert err == "error: dimension n must be >= 2\n"

    def test_csv_shape(self, tmp_path, capsys):
        table = tmp_path / "s.csv"
        code, _, _ = run(["spectrum", "--form", "euclidean", "--n", "2",
                          "--r1", "1", "--r2", "2", "--grid-points", "1024",
                          "--csv", str(table)], capsys)
        assert code == 0
        lines = table.read_text().strip().split("\n")
        assert lines[0] == "i,value,k,j,multiplicity"
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 0.0
        # running index advances by multiplicity
        second = lines[2].split(",")
        assert second[0] == "2" and second[4] == "2"
        third = lines[3].split(",")
        assert third[0] == "4"

    def test_long_hyperbolic_ball_without_start_pairs(self, capsys):
        # the Galerkin solve finds no start pairs on [0, 30], so every
        # grid is bisected
        code, out, err = run(["spectrum", "--form", "hyperbolic", "--n", "2",
                              "--r1", "0", "--r2", "30", "--count", "1"], capsys)
        assert code == 0 and err == ""
        assert out == ("# Neumann shell spectrum, form=hyperbolic, n=2, interval=[0, 30], "
                       "certified below 2.83710948711e-24\n"
                       "  i               value    k   j mult\n"
                       "  1                   0    0   1    1\n")

    def test_truncation_exit_3(self, capsys):
        code, _, err = run(["spectrum", "--form", "euclidean", "--n", "2",
                            "--r1", "1", "--r2", "2", "--kmax", "2", "--jmax", "2",
                            "--count", "12", "--grid-points", "256"], capsys)
        assert code == 3
        assert "certified" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_exit_2(self, tmp_path, capsys, count):
        report = tmp_path / "s.json"
        code, _, err = run(["spectrum", "--form", "euclidean", "--n", "2",
                            "--r1", "1", "--r2", "2", "--grid-points", "64",
                            "--count", count, "--json", str(report)], capsys)
        assert code == 2
        assert "count" in err and not report.exists()

    def test_unproductive_enumeration_exit_3(self, capsys):
        code, _, err = run(["spectrum", "--form", "euclidean", "--n", "2",
                            "--r1", "1", "--r2", "2", "--kmax", "1",
                            "--count", "12"], capsys)
        assert code == 3
        assert "truncation" in err


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(dm.spec_to_dict(spec)))
    return path


class TestVerifyCommand:
    def test_exact_annulus_pass(self, tmp_path, capsys):
        spec = DomainSpec.exact_annulus("euclidean", 2, 1.0, 2.0)
        path = write_spec(tmp_path, spec)
        report = tmp_path / "report.json"
        code, out, _ = run(["verify", "--spec", str(path), "--levels", "3",
                            "--json", str(report)], capsys)
        assert code == 0
        assert "PASS" in out
        blob = json.loads(report.read_text())
        assert blob["summary"] == {"total": 1, "pass": 1, "fail": 0}
        assert abs(blob["domains"][0]["margins"][0]) <= blob["domains"][0]["tau"]

    def test_random_family_pass(self, capsys):
        code, out, _ = run(["verify", "--random-family", "s=4 count=1 amplitude=0.08",
                            "--form", "hyperbolic", "--seed", "5", "--levels", "2"],
                           capsys)
        assert code == 0
        assert "summary: 1/1 PASS" in out

    def test_hemisphere_violation_exit_2(self, tmp_path, capsys):
        data = {"form": "spherical", "n": 2, "symmetry_order": "order4",
                "rho_out": {"base": 1.6, "harmonics": []}, "rho_in": None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = run(["verify", "--spec", str(path)], capsys)
        assert code == 2
        assert "hemisphere" in err

    def test_incompatible_harmonic_exit_2(self, tmp_path, capsys):
        data = {"form": "euclidean", "n": 2, "symmetry_order": "order4",
                "rho_out": {"base": 1.0, "harmonics": [{"m": 3, "a": 0.02, "b": 0}]},
                "rho_in": None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = run(["verify", "--spec", str(path)], capsys)
        assert code == 2
        assert "incompatible" in err

    @pytest.mark.parametrize("profile,message", [
        ({"base": 1.0, "harmonics": [{"m": 0, "a": 0.02, "b": 0.0}]},
         "harmonic frequencies must be >= 1"),
        ({"base": 0.0, "harmonics": []}, "outer boundary must be strictly positive"),
    ], ids=["m-zero", "base-zero"])
    def test_spec_profile_out_of_range_exit_2(self, tmp_path, capsys, profile, message):
        data = {"form": "euclidean", "n": 2, "symmetry_order": "order4",
                "rho_out": profile, "rho_in": None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(["verify", "--spec", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("path,value", [
        (("rho_out", "harmonics", 0, "m"), 4.9),
        (("n",), 2.7),
        (("rho_out", "base"), "1.2"),
        (("rho_out", "harmonics", 0, "a"), True),
    ], ids=["m-float", "n-float", "base-string", "a-boolean"])
    def test_spec_value_of_wrong_kind_exit_2(self, tmp_path, capsys, path, value):
        data = {"form": "euclidean", "n": 2, "symmetry_order": "order4",
                "rho_out": {"base": 1.0, "harmonics": [{"m": 4, "a": 0.02, "b": 0.0}]},
                "rho_in": {"base": 0.4, "harmonics": []}}
        *parents, key = path
        target = data
        for step in parents:
            target = target[step]
        target[key] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        code, out, err = run(["verify", "--spec", str(spec), "--levels", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"key {key}=" in err

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "infinity"])
    @pytest.mark.parametrize("where", ["base", "a", "amplitude"])
    def test_non_finite_value_exit_2(self, tmp_path, capsys, where, value):
        # JSON's NaN and Infinity, and a family's amplitude=nan or inf
        if where == "amplitude":
            argv, named = ["--random-family", f"s=4 count=1 amplitude={value}",
                           "--form", "euclidean"], "amplitude"
        else:
            outer = {"base": 1.0, "harmonics": [{"m": 4, "a": 0.02, "b": 0.0}]}
            if where == "base":
                outer["base"] = value
            else:
                outer["harmonics"][0]["a"] = value
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"form": "euclidean", "n": 2,
                                        "symmetry_order": "order4", "rho_out": outer}))
            argv, named = ["--spec", str(spec)], "outer boundary"
        code, out, err = run(["verify", *argv, "--levels", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and named in err and "must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_levels_below_one_exit_2(self, capsys, levels):
        code, out, err = run(["verify", "--random-family", "s=4 count=1",
                              "--form", "euclidean", "--levels", levels], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "levels" in err

    def test_m_below_checked_index_exit_2(self, capsys):
        # a quarter-turn domain checks mu_2 and mu_3
        code, out, err = run(["verify", "--random-family", "s=4 count=1",
                              "--form", "euclidean", "--levels", "1", "--m", "2"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error on domain 1:") and "m=2" in err
        assert "Traceback" not in err

    # m = 700 is below the level's unknowns and above one sector's, m = 2400
    # above both; either is refused before any sector is solved
    @pytest.mark.parametrize("m", ["700", "2400"], ids=["sector", "level"])
    def test_m_above_the_unknowns_exit_2(self, capsys, monkeypatch, m):
        calls = []
        solve_sector = fem2d._sector_eigs
        monkeypatch.setattr(fem2d, "_sector_eigs",
                            lambda *args: calls.append(args) or solve_sector(*args))
        code, out, err = run(["verify", "--random-family", "s=4 count=1",
                              "--form", "euclidean", "--levels", "1", "--m", m], capsys)
        assert code == 2 and out == ""
        assert err == "error on domain 1: need m well below the number of unknowns\n"
        assert calls == []

    def test_missing_source_exit_2(self, capsys):
        code, _, _ = run(["verify"], capsys)
        assert code == 2

    def test_asymmetric_family_exit_2(self, capsys):
        code, out, err = run(["verify", "--random-family", "s=none count=1",
                              "--form", "euclidean", "--levels", "1"], capsys)
        assert code == 2
        assert err.startswith("error on domain 1:") and "needs a declared symmetry class" in err

    def test_family_count_below_one_exit_2(self, capsys):
        code, out, err = run(["verify", "--random-family", "s=4 count=0"], capsys)
        assert code == 2
        assert "count" in err and "summary" not in out

    def test_report_names_the_solved_levels(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, _ = run(["verify", "--random-family", "s=4 count=1 amplitude=0.08",
                          "--form", "hyperbolic", "--seed", "5", "--levels", "3",
                          "--json", str(report)], capsys)
        assert code == 0
        (domain,) = json.loads(report.read_text())["domains"]
        # the probe level 0, then levels up to the cap 3 until the verdict is
        # decided: this holed domain's level-1 values bound it below the shell
        assert domain["spec"]["rho_in"] is not None
        assert [entry["level"] for entry in domain["fem"]["levels"]] == [0, 1]
        assert domain["decided_by"] == "ritz_bound"
        assert all(set(entry) == {"level", "n_unknowns", "h", "eigenvalues"}
                   for entry in domain["fem"]["levels"])

    def test_uncertifiable_resolution_exit_4(self, tmp_path, capsys):
        # one coarse level cannot bring the equality case within tau
        spec = DomainSpec.exact_annulus("euclidean", 2, 1.0, 2.0)
        path = write_spec(tmp_path, spec)
        code, out, _ = run(["verify", "--spec", str(path), "--levels", "1"], capsys)
        assert code == 4
        assert "FAIL" in out

    def test_undecided_cap_run_is_marked(self, tmp_path, capsys):
        # near the disk the margin grows like the amplitude squared: the
        # holed domain is decided by the Ritz bound at level 1 (about 5 tau),
        # the hole-free one reaches the cap at about 0.24 tau and is marked
        report = tmp_path / "report.json"
        code, out, _ = run(["verify", "--random-family", "s=4 count=2 amplitude=0.01",
                            "--form", "euclidean", "--seed", "2026", "--levels", "3",
                            "--json", str(report)], capsys)
        assert code == 0
        domains = json.loads(report.read_text())["domains"]
        assert [d["spec"].get("rho_in") is not None for d in domains] == [True, False]
        assert [d["decided"] for d in domains] == [True, False]
        assert [d["decided_by"] for d in domains] == ["ritz_bound", None]
        assert [len(d["fem"]["levels"]) for d in domains] == [2, 4]   # from level 0
        assert min(domains[0]["margins"]) >= 5 * domains[0]["tau"]
        assert 0 < min(domains[1]["margins"]) < 0.5 * domains[1]["tau"]
        lines = out.splitlines()
        assert lines[0].endswith("  (Ritz bound)")
        assert lines[1].endswith("  (undecided at cap)")

    def test_two_levels_decide_a_holed_domain_by_the_bound(self, tmp_path, capsys):
        # a ladder of two levels has no observed order, so only the bound
        # decides, and only on the holed domain
        report = tmp_path / "report.json"
        code, out, _ = run(["verify", "--random-family", "s=4 count=2 amplitude=0.01",
                            "--form", "euclidean", "--seed", "2026", "--levels", "2",
                            "--json", str(report)], capsys)
        assert code == 0
        domains = json.loads(report.read_text())["domains"]
        assert [d["decided_by"] for d in domains] == ["ritz_bound", None]
        assert [[entry["level"] for entry in d["fem"]["levels"]] for d in domains] == [
            [1, 2], [1, 2]]
        lines = out.splitlines()
        assert lines[0].endswith("  (Ritz bound)")
        assert lines[1].endswith("  (undecided at cap)")

    def test_one_level_without_error_estimate_exit_4(self, tmp_path, capsys):
        # every margin clears the 1e-4 floor, but one level estimates no error
        report = tmp_path / "report.json"
        code, out, _ = run(["verify", "--random-family", "s=4 count=5 amplitude=0.08",
                            "--form", "euclidean", "--seed", "0", "--levels", "1",
                            "--json", str(report)], capsys)
        assert code == 4
        domains = json.loads(report.read_text())["domains"]
        assert all(d["fem"]["est_rel_error"] is None and d["verdict"] == "FAIL"
                   and min(d["margins"]) > d["tau"] for d in domains)
        assert out.count("FAIL") == 5 and out.count("(no error estimate: one level)") == 5
        assert "summary: 0/5 PASS" in out

    def test_out_dir_and_plot_data(self, tmp_path, capsys):
        spec = DomainSpec.exact_annulus("euclidean", 2, 1.0, 2.0)
        path = write_spec(tmp_path, spec)
        out_dir = tmp_path / "artifacts"
        code, _, _ = run(["--out", str(out_dir), "verify", "--spec", str(path),
                          "--levels", "2", "--json", "report.json",
                          "--plot-data", "history.dat"], capsys)
        assert code == 0
        assert (out_dir / "report.json").exists()
        history = (out_dir / "history.dat").read_text()
        assert history.startswith("# domain ")
        assert "mu_1" in history

    def test_config_file_sets_params_and_flags_win(self, tmp_path, capsys):
        path = write_spec(tmp_path, DomainSpec.exact_annulus("euclidean", 2, 1.0, 2.0))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": 2, "m": 4, "seed": 3}))
        report = tmp_path / "report.json"
        base = ["verify", "--spec", str(path), "--config", str(cfg), "--json", str(report)]
        code, _, _ = run(base, capsys)
        assert code == 0
        blob = json.loads(report.read_text())
        assert blob["params"]["levels"] == 2 and blob["params"]["m"] == 4
        assert blob["seed"] == 3
        assert len(blob["domains"][0]["fem"]["levels"]) == 2
        assert len(blob["domains"][0]["fem"]["eigenvalues"]) == 4
        # an explicit flag beats the file value
        code, _, _ = run(base + ["--m", "6"], capsys)
        assert code == 0
        blob = json.loads(report.read_text())
        assert blob["params"]["levels"] == 2 and blob["params"]["m"] == 6

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levles": 2}))
        code, _, err = run(["verify", "--random-family", "s=4 count=1",
                            "--config", str(cfg)], capsys)
        assert code == 2
        assert "levles" in err

    def test_config_value_outside_choices_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"check": "bogus"}))
        code, out, err = run(["moments", "--random-family", "s=4 count=1",
                              "--form", "euclidean", "--config", str(cfg)], capsys)
        assert code == 2
        assert "bogus" in err and "checks pass" not in out

    def test_determinism_byte_identical(self, tmp_path, capsys):
        args = ["verify", "--random-family", "s=4 count=1 amplitude=0.06",
                "--form", "euclidean", "--seed", "9", "--levels", "2"]
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--json", str(r1)]) == 0
        assert cli.main(args + ["--json", str(r2)]) == 0
        capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()

    def test_report_bytes_identical_across_interpreters(self, tmp_path):
        # the promise is narrow: same inputs on the same BLAS thread count
        src = str(Path(cli.__file__).resolve().parents[1])
        reports = []
        for hash_seed in ("1", "2"):
            report = tmp_path / f"report_{hash_seed}.json"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                   "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
            subprocess.run(
                [sys.executable, "-m", "spaceform_spectra.cli", "verify",
                 "--random-family", "s=4 count=1 amplitude=0.06", "--form", "euclidean",
                 "--seed", "9", "--levels", "2", "--json", str(report)],
                env=env, check=True, capture_output=True, timeout=300)
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


def test_module_entry_point_prints_help():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "spaceform_spectra.cli", "--help"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: sfs")


def test_commands_keep_optimize_interpolate_and_special_unloaded(tmp_path):
    # a fresh interpreter: other tests load these modules into this one
    src = str(Path(cli.__file__).resolve().parents[1])
    script = """
import contextlib, io, sys
from spaceform_spectra import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["verify", "--random-family", "s=4 count=1", "--form", "euclidean",
         "--seed", "3", "--levels", "2", "--m", "4"],
        ["spectrum", "--form", "hyperbolic", "--n", "2", "--r1", "0.5", "--r2", "1.5",
         "--kmax", "3", "--jmax", "3", "--count", "4", "--certify"],
        ["moments", "--random-family", "s=central count=1", "--form", "spherical",
         "--seed", "3", "--check", "both"])]
print(codes)
print(sorted(m for m in ("scipy.optimize", "scipy.interpolate", "scipy.special")
             if m in sys.modules))
"""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, check=True,
                         capture_output=True, text=True, timeout=300).stdout.splitlines()
    assert out == ["[0, 0, 0]", "[]"]


@pytest.mark.parametrize("module,unloaded", [("spaceform", "scipy"),
                                             ("slsolver", "scipy.sparse")])
def test_a_module_loads_only_the_layers_below_it(module, unloaded, tmp_path):
    # a fresh interpreter: the package root re-exports nothing, so it
    # imports no other layer
    src = str(Path(cli.__file__).resolve().parents[1])
    script = f"import sys, spaceform_spectra.{module}; print({unloaded!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out == "False\n"


class TestMomentsCommand:
    def test_symmetric_family_passes(self, capsys):
        code, out, _ = run(["moments", "--random-family", "s=4 count=2 amplitude=0.06",
                            "--form", "euclidean", "--seed", "3",
                            "--check", "orthogonality"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("checks pass") == 2

    @pytest.mark.parametrize("family", ["s=2 count=2", "s=central count=2"])
    def test_half_turn_and_central_families_pass_the_central_checks(self, family, tmp_path,
                                                                    capsys):
        # on planar domains the half-turn is the central symmetry: both owe
        # the odd moments, of g = 1 and of the Gaussian, along each axis
        report = tmp_path / "m.json"
        code, _, _ = run(["moments", "--random-family", family, "--check", "orthogonality",
                          "--json", str(report)], capsys)
        assert code == 0
        names = [f"central:g={g} {moment}" for g in ("1", "gauss")
                 for i, j in ((1, 2), (2, 1))
                 for moment in (f"X{i}*X{j}^0", f"X{i}*X{j}^2", f"X{i}^1", f"X{i}^3",
                                f"X{i}^5")]
        domains = json.loads(report.read_text())["domains"]
        assert len(domains) == 6   # every form, two domains each
        for domain in domains:
            assert [c["name"] for c in domain["checks"]] == names
            assert all(c["relative"] <= c["tolerance"] for c in domain["checks"])

    def test_rayleigh_checks(self, tmp_path, capsys):
        spec = DomainSpec.exact_annulus("euclidean", 2, 0.8, 1.6)
        path = write_spec(tmp_path, spec)
        report = tmp_path / "m.json"
        code, _, _ = run(["moments", "--spec", str(path), "--check", "rayleigh",
                          "--json", str(report)], capsys)
        assert code == 0
        blob = json.loads(report.read_text())
        checks = blob["domains"][0]["checks"]
        assert len(checks) == 3
        for c in checks:
            assert abs(c["margin"]) < 1e-7

    @pytest.mark.parametrize("command", ["moments", "verify"])
    def test_inner_radius_outside_the_doubles_exit_2(self, command, tmp_path, capsys):
        # the matched shell's r1 = 1e-300 puts its potential past the
        # doubles: refused before any solve, naming the term
        data = {"form": "euclidean", "n": 2, "symmetry_order": "order4",
                "rho_out": {"base": 1.0, "harmonics": [{"m": 4, "a": 0.02, "b": 0.0}]},
                "rho_in": {"base": 1e-300, "harmonics": []}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run([command, "--spec", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == ("error on domain 1: potential k(k+n-2)/sin_m(r1)^2 = inf at "
                       "r1 = 1e-300 is not a finite double\n")
        assert caught == []

    def test_inner_infimum_once_per_domain(self, capsys, monkeypatch):
        # matched_annulus and the three rayleigh_gk calls of a domain share
        # its grid, which finds inf rho_in once
        calls = []
        original = dm.inner_infimum
        monkeypatch.setattr(dm, "inner_infimum",
                            lambda spec: calls.append(spec) or original(spec))
        code, _, _ = run(["moments", "--random-family", "s=4 count=5 amplitude=0.08",
                          "--form", "all", "--seed", "2026", "--check", "rayleigh"],
                         capsys)
        assert code == 0
        assert len(calls) == 15

    def test_bad_family_string_exit_2(self, capsys):
        code, _, err = run(["moments", "--random-family", "s=7 count=1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("family,message", [
        ("s4", "malformed family token"), ("x=1", "unknown family key")])
    def test_family_token_refused_exit_2(self, capsys, family, message):
        code, out, err = run(["moments", "--random-family", family], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    def test_asymmetric_family_runs_the_rayleigh_checks_alone(self, tmp_path, capsys):
        # no symmetry class, so no vanishing moment is owed
        report = tmp_path / "m.json"
        code, out, _ = run(["moments", "--random-family", "s=none count=2 amplitude=0.06",
                            "--form", "euclidean", "--seed", "3", "--json", str(report)],
                           capsys)
        assert code == 0
        assert out.count("3/3 checks pass") == 2
        for domain in json.loads(report.read_text())["domains"]:
            assert [c["name"] for c in domain["checks"]] == [
                "rayleigh:k=1", "rayleigh:k=2", "rayleigh:k=3"]

    def test_asymmetric_spec_detected_exit_4(self, tmp_path, capsys, monkeypatch):
        # declare quarter-turn symmetry on a valid asymmetric domain after the
        # constructor's check, so the quadrature itself must flag it downstream
        spec = DomainSpec("euclidean", 2, SymmetryOrder.NONE,
                          FourierProfile(1.0, ((1, 0.05, 0.0),)))
        object.__setattr__(spec, "symmetry_order", SymmetryOrder.ORDER4)
        monkeypatch.setattr(cli, "_collect_specs", lambda args: [spec])
        code, out, _ = run(["moments", "--random-family", "ignored",
                            "--check", "orthogonality"], capsys)
        assert code == 4
        assert "FAIL" in out


class TestFlagDefaults:
    """With no flag and no --config, a setting the library has is the library's."""

    def test_verify_reads_verify_config(self, tmp_path, capsys):
        # acceptance domain 1, decided by the Ritz bound at level 1
        path = write_spec(tmp_path, dm.random_family(2026, "euclidean", count=1)[0])
        report = tmp_path / "report.json"
        code, _, _ = run(["verify", "--spec", str(path), "--json", str(report)], capsys)
        assert code == 0
        params = json.loads(report.read_text())["params"]
        assert params["m"] == fem2d.VerifyConfig.m
        assert params["levels"] == fem2d.VerifyConfig.levels[-1]

    def test_sl_reads_solver_config_and_problem(self, tmp_path, capsys):
        report = tmp_path / "pairs.json"
        code, _, _ = run(["sl", "--form", "euclidean", "--n", "2", "--k", "0",
                          "--r1", "1", "--r2", "2", "--json", str(report)], capsys)
        assert code == 0
        problem = json.loads(report.read_text())["problem"]
        assert problem["grid_points"] == slsolver.SolverConfig.grid_points
        assert problem["richardson"] == slsolver.SolverConfig.richardson
        assert problem["bc"] == str(slsolver.SLProblem.bc)

    def test_family_reads_random_family(self, tmp_path, capsys):
        hashes = []
        for family in ("s=4", "s=4 count=5 amplitude=0.08"):
            report = tmp_path / "report.json"
            run(["verify", "--random-family", family, "--form", "euclidean",
                 "--levels", "1", "--json", str(report)], capsys)
            hashes.append([d["spec_hash"] for d in json.loads(report.read_text())["domains"]])
        assert len(hashes[0]) == 5 and hashes[0] == hashes[1]


def readme_commands() -> list[str]:
    """Every ``sfs`` line of the README's code blocks, with ``\\`` continuations joined."""
    commands, fenced, pending = [], False, ""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            line = pending + line.strip()
            pending = line[:-1] if line.endswith("\\") else ""
            if not pending and line.startswith("sfs "):
                commands.append(line)
    return commands


def test_readme_command_lines_parse():
    commands = readme_commands()
    assert len(commands) >= 5
    for line in commands:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line no longer parses: {line}")


FORMS = ["spherical", "euclidean", "hyperbolic"]

# (dest, default, type, choices) of every option string, per subcommand
FLAGS = {
    None: {"--out": ("out", None, None, None)},
    "sl": {
        "--bc": ("bc", "neumann", None, ["neumann", "dirichlet"]),
        "--config": ("config", None, None, None),
        "--csv": ("csv", None, None, None),
        "--form": ("form", None, None, FORMS),
        "--grid-points": ("grid_points", 2048, int, None),
        "--json": ("json", None, None, None),
        "--k": ("k", None, int, None),
        "--max-j": ("max_j", 1, int, None),
        "--n": ("n", None, int, None),
        "--no-richardson": ("no_richardson", False, None, None),
        "--r1": ("r1", None, float, None),
        "--r2": ("r2", None, float, None),
    },
    "spectrum": {
        "--certify": ("certify", False, None, None),
        "--config": ("config", None, None, None),
        "--count": ("count", 12, int, None),
        "--csv": ("csv", None, None, None),
        "--form": ("form", None, None, FORMS),
        "--grid-points": ("grid_points", 2048, int, None),
        "--jmax": ("jmax", 8, int, None),
        "--json": ("json", None, None, None),
        "--kmax": ("kmax", 8, int, None),
        "--n": ("n", None, int, None),
        "--r1": ("r1", None, float, None),
        "--r2": ("r2", None, float, None),
    },
    "verify": {
        "--config": ("config", None, None, None),
        "--form": ("form", "all", None, ["all", *FORMS]),
        "--json": ("json", None, None, None),
        "--levels": ("levels", 3, int, None),
        "--m": ("m", 8, int, None),
        "--plot-data": ("plot_data", None, None, None),
        "--random-family": ("random_family", None, None, None),
        "--seed": ("seed", 0, int, None),
        "--spec": ("spec", None, None, None),
    },
    "moments": {
        "--check": ("check", "both", None, ["orthogonality", "rayleigh", "both"]),
        "--config": ("config", None, None, None),
        "--form": ("form", "all", None, ["all", *FORMS]),
        "--json": ("json", None, None, None),
        "--random-family": ("random_family", None, None, None),
        "--seed": ("seed", 0, int, None),
        "--spec": ("spec", None, None, None),
    },
}


def test_flag_sets_are_pinned():
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction))
    owners = {None: parser, **subparsers.choices}
    assert set(owners) == set(FLAGS)
    for command, owner in owners.items():
        got = {option: (a.dest, a.default, a.type, a.choices)
               for a in owner._actions if a.dest not in ("help", "command")
               for option in a.option_strings}
        assert got == FLAGS[command], command


README_DOMAIN = {"form": "hyperbolic", "n": 2, "symmetry_order": "order4",
                 "rho_out": {"base": 1.2, "harmonics": [{"m": 4, "a": 0.05, "b": -0.02}]},
                 "rho_in": {"base": 0.5, "harmonics": [{"m": 8, "a": 0.01, "b": 0.0}]}}


class TestInputRules:
    """Every JSON input is read by one rule; a breach exits 2 and names the key."""

    @pytest.mark.parametrize("command,blob,key", [
        ("verify", {**{k: v for k, v in README_DOMAIN.items() if k != "rho_in"},
                    "rho_inner": README_DOMAIN["rho_in"]}, "rho_inner"),
        ("verify", {**README_DOMAIN, "rho_out": {
            "base": 1.2, "harmonics": [{"m": 4, "a": 0.05, "bb": -0.02}]}}, "bb"),
        ("verify", {**README_DOMAIN, "rho_in": {}}, "base"),
        ("verify", {**README_DOMAIN, "rho_out": {"base": 1.2, "harmonics": {"m": 4}}},
         "harmonics"),
        ("verify", {**README_DOMAIN, "rho_out": [1.2]}, "rho_out"),
        ("verify", {**README_DOMAIN, "rho_in": 0.5}, "rho_in"),
        ("verify", {**README_DOMAIN, "schema_version": 2}, "schema_version"),
        ("sl", [1, 2], "sl config must be a JSON object"),
    ], ids=["misspelled-key", "misspelled-harmonic-key", "empty-profile",
            "harmonics-object", "profile-array", "profile-number", "schema-version",
            "problem-array"])
    def test_breach_exits_2_naming_the_key(self, command, blob, key, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(blob))
        flag = "--spec" if command == "verify" else "--config"
        code, out, err = run([command, flag, str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err


class TestExitMapping:
    """Every subcommand reaches the same exception-to-exit-code mapping."""

    @pytest.mark.parametrize("argv", [
        ["sl", "--form", "euclidean", "--n", "2", "--k", "0", "--r1", "1", "--r2", "2",
         "--grid-points", "64", "--json"],
        ["spectrum", "--form", "euclidean", "--n", "2", "--r1", "1", "--r2", "2",
         "--grid-points", "256", "--count", "4", "--csv"],
        ["verify", "--random-family", "s=4 count=1 amplitude=0.05", "--form", "euclidean",
         "--levels", "1", "--m", "4", "--plot-data"],
        ["moments", "--random-family", "s=4 count=1 amplitude=0.05", "--form", "euclidean",
         "--check", "orthogonality", "--json"],
    ], ids=["sl-json", "spectrum-csv", "verify-plot-data", "moments-json"])
    def test_unwritable_artifact_exit_2(self, argv, tmp_path, capsys):
        code, _, err = run(argv + [str(tmp_path / "missing" / "artifact")], capsys)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_uncreatable_out_dir_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run(["--out", str(blocker / "sub"), "sl", "--form", "euclidean",
                            "--n", "2", "--k", "0", "--r1", "1", "--r2", "2",
                            "--grid-points", "64", "--json", "pairs.json"], capsys)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["verify", "moments"])
    def test_spec_beside_random_family_exit_2(self, command, tmp_path, capsys):
        # either source alone is valid; together one would be dropped unsaid
        path = write_spec(tmp_path, dm.random_family(2026, "euclidean", count=1)[0])
        code, out, err = run([command, "--spec", str(path), "--random-family", "s=4 count=3"],
                             capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--spec" in err and "--random-family" in err

    @pytest.mark.parametrize("command", ["verify", "moments"])
    def test_negative_seed_of_a_family_exit_2_naming_it(self, command, capsys):
        code, out, err = run([command, "--random-family", "s=4 count=1", "--seed", "-1"],
                             capsys)
        assert code == 2 and out == ""
        assert err == "error: --seed must be >= 0 with --random-family, got -1\n"

    @pytest.mark.parametrize("command,flags,exit_code", [
        ("verify", ["--levels", "1", "--m", "4"], 4),   # one level cannot PASS
        ("moments", ["--check", "orthogonality"], 0)])
    def test_spec_records_any_seed(self, command, flags, exit_code, tmp_path, capsys):
        path = write_spec(tmp_path, dm.random_family(2026, "euclidean", count=1)[0])
        report = tmp_path / "report.json"
        code, _, _ = run([command, "--spec", str(path), "--seed", "-1", *flags,
                          "--json", str(report)], capsys)
        assert code == exit_code
        assert json.loads(report.read_text())["seed"] == -1

    @pytest.mark.parametrize("command", ["verify", "moments"])
    @pytest.mark.parametrize("form", ["hyperbolic", "euclidean"])
    def test_spec_beside_a_form_exit_2(self, command, form, tmp_path, capsys):
        # the file's own form wins, so --form would be dropped unsaid, even
        # when it names the same form
        path = write_spec(tmp_path, dm.random_family(2026, "euclidean", count=1)[0])
        code, out, err = run([command, "--spec", str(path), "--form", form], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--spec" in err and "--form" in err

    def test_missing_input_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(["verify", "--spec", str(tmp_path / "absent.json")], capsys)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("fault", ["residual", "constant_mode"])
    def test_fem_gate_exit_3(self, fault, monkeypatch, capsys):
        # the real solve path up to eigensolve's gates, with the sector
        # solves made to break one of them
        sector_eigs = fem2d._sector_eigs

        def broken(system, k, count):
            vals, residual = sector_eigs(system, k, count)
            return (vals, 2e-9) if fault == "residual" else (vals + 1.0, residual)

        monkeypatch.setattr(fem2d, "_sector_eigs", broken)
        code, out, err = run(["verify", "--random-family", "s=4 count=1 amplitude=0.05",
                              "--form", "euclidean", "--levels", "1", "--m", "4"], capsys)
        assert code == 3
        assert err.startswith("solver failure on domain 1:")

    @pytest.mark.parametrize("exc,code,prefix", [
        (fem2d.FemConvergenceError("residual too large"), 3, "solver failure on domain 1:"),
        (ValueError("bad domain"), 2, "error on domain 1:"),
    ])
    def test_failing_domain_is_named(self, exc, code, prefix, monkeypatch, capsys):
        def raising(spec, config):
            raise exc

        monkeypatch.setattr(fem2d, "verify_theorem", raising)
        got, _, err = run(["verify", "--random-family", "s=4 count=2 amplitude=0.05",
                           "--form", "euclidean", "--levels", "1"], capsys)
        assert got == code
        assert err.startswith(prefix)
