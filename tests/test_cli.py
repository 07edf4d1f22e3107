import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

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

    @pytest.mark.parametrize("values", [{"k": 1.7}, {"richardson": "false"},
                                        {"max_j": 2.9}, {"eig_tol": 1e-12}])
    def test_problem_file_refuses_what_flags_refuse_exit_2(self, tmp_path, capsys,
                                                           values):
        problem = {"form": "euclidean", "n": 2, "k": 1, "r1": 1.0, "r2": 2.0,
                   "grid_points": 64, **values}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code, out, err = run(["sl", "--problem", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and next(iter(values)) in err

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
                                        {"no_richardson": 1, "r2": 2.0}])
    def test_config_value_its_flag_refuses_exit_2(self, tmp_path, capsys, values):
        # --max-j 2.9 and a boolean --k exit 2 on the command line, so they do
        # in the file too; a switch takes only true or false
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        argv = ["sl", "--form", "euclidean", "--n", "2", "--r1", "1",
                "--grid-points", "64", "--config", str(cfg)]
        code, out, err = run(argv + ([] if "k" in values else ["--k", "0"]), capsys)
        assert code == 2 and out == ""
        assert next(iter(values)) in err

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
        code, _, _ = run(["sl", "--problem", str(path), "--json", str(out_json),
                          "--csv", str(out_csv)], capsys)
        assert code == 0
        blob = json.loads(out_json.read_text())
        ref = oracles.first_bessel_derivative_zero(1) ** 2
        assert blob["eigenpairs"][0]["eigenvalue"] == pytest.approx(ref, abs=1e-5)
        header = out_csv.read_text().splitlines()[0]
        assert header == "r,u_j1,u_j2"


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

    def test_certify_solves_each_radial_problem_once(self, monkeypatch, capsys):
        calls = {"neumann": 0, "dirichlet": 0}
        real_solve = slsolver.solve

        def counting_solve(problem, config=None):
            calls[str(problem.bc)] += 1
            return real_solve(problem, config)

        monkeypatch.setattr(slsolver, "solve", counting_solve)
        code, out, _ = run(["spectrum", "--form", "hyperbolic", "--n", "2",
                            "--r1", "0.5", "--r2", "1.5", "--certify"], capsys)
        assert code == 0
        assert "FAIL" not in out
        # kmax = jmax = 8: Neumann k = 0..8 once; Dirichlet k = 0..4 for the checks
        assert calls == {"neumann": 9, "dirichlet": 5}

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

    def test_missing_source_exit_2(self, capsys):
        code, _, _ = run(["verify"], capsys)
        assert code == 2

    def test_family_count_below_one_exit_2(self, capsys):
        code, out, err = run(["verify", "--random-family", "s=4 count=0"], capsys)
        assert code == 2
        assert "count" in err and "summary" not in out

    def test_uncertifiable_resolution_exit_4(self, tmp_path, capsys):
        # one coarse level cannot bring the equality case within tau
        spec = DomainSpec.exact_annulus("euclidean", 2, 1.0, 2.0)
        path = write_spec(tmp_path, spec)
        code, out, _ = run(["verify", "--spec", str(path), "--levels", "1"], capsys)
        assert code == 4
        assert "FAIL" in out

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


class TestMomentsCommand:
    def test_symmetric_family_passes(self, capsys):
        code, out, _ = run(["moments", "--random-family", "s=4 count=2 amplitude=0.06",
                            "--form", "euclidean", "--seed", "3",
                            "--check", "orthogonality"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("checks pass") == 2

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

    def test_bad_family_string_exit_2(self, capsys):
        code, _, err = run(["moments", "--random-family", "s=7 count=1"], capsys)
        assert code == 2

    def test_asymmetric_spec_detected_exit_4(self, tmp_path, capsys, monkeypatch):
        # bypass the constructor check to make sure the quadrature itself
        # flags the broken symmetry downstream
        spec = DomainSpec("euclidean", 2, SymmetryOrder.ORDER4,
                          FourierProfile(1.0, ((1, 0.05, 0.0),)),
                          skip_validation=True)
        monkeypatch.setattr(cli, "_collect_specs", lambda args: [spec])
        code, out, _ = run(["moments", "--random-family", "ignored",
                            "--check", "orthogonality"], capsys)
        assert code == 4
        assert "FAIL" in out


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

    def test_missing_input_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(["verify", "--spec", str(tmp_path / "absent.json")], capsys)
        assert code == 2
        assert err.startswith("error:")

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
