"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -p no:cacheprovider perfbench -q
"""

import inspect
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import run  # pins the BLAS threads before numpy is used

sys.path.insert(0, str(run.SRC))
import tracing  # noqa: E402
import workloads  # noqa: E402
from spaceform_spectra import cli, slsolver  # noqa: E402
from spaceform_spectra.slsolver import SLProblem  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    path = run.OUT / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_wrappers_return_the_result_unchanged(monkeypatch):
    result = SimpleNamespace(n_unknowns=3, stiffness=SimpleNamespace(nnz=5), checks=(),
                             weight=np.zeros(2))
    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        return result

    targets = tracing._targets()
    for owner, attr, _, _ in targets:
        static = isinstance(inspect.getattr_static(owner, attr), staticmethod)
        monkeypatch.setattr(owner, attr, staticmethod(stub) if static else stub)
    tracer = tracing.Tracer()
    with tracer.installed():
        for owner, attr, _, _ in targets:
            assert getattr(owner, attr)(1, key=2) is result
    assert calls == [((1,), {"key": 2})] * len(targets)
    assert [s.name for s in tracer.spans] == [name for _, _, name, _ in targets]
    for owner, attr, _, _ in targets:   # originals are back
        assert getattr(owner, attr) is stub


def test_traced_solve_matches_untraced():
    problem = SLProblem("hyperbolic", 2, 1, 0.4, 1.3)
    plain = slsolver.solve(problem)
    with tracing.Tracer().installed() as tracer:
        traced = slsolver.solve(problem)
    assert [p.eigenvalue for p in traced] == [p.eigenvalue for p in plain]
    assert tracer.counts["slsolver.solve.calls"] == 1


def test_traced_verify_report_is_byte_identical(scratch):
    argv = ["verify", "--random-family", "s=4 count=2 amplitude=0.08",
            "--form", "hyperbolic", "--seed", "2026", "--levels", "2"]
    plain, traced = scratch / "plain.json", scratch / "traced.json"
    assert cli.main([*argv, "--json", str(plain)]) == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main([*argv, "--json", str(traced)]) == 0
    assert plain.read_bytes() == traced.read_bytes()
    totals = tracer.layer_totals()
    assert totals["fem2d.generate_mesh.calls"] == 4
    assert totals["fem2d.eigensolve.s"] > 0


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [tracing.Span(0, None, 1, "cli.main", 0.0, 10.0),
                    tracing.Span(1, 0, 1, "fem2d.verify_theorem", 1.0, 9.0),
                    tracing.Span(2, 1, 1, "slsolver.solve", 2.0, 3.0),
                    tracing.Span(3, 1, 1, "fem2d.eigensolve", 4.0, 8.0)]
    totals = tracer.layer_totals()
    assert totals["cli.self_s"] == 2.0
    assert totals["fem2d.self_s"] == 3.0 + 4.0
    assert totals["slsolver.self_s"] == 1.0
    assert totals["fem2d.verify_theorem.s"] == 8.0


def test_check_uses_tau_and_shell_tolerances():
    ref = {"exit_code": 0, "domains": [{"spec_hash": "h", "verdict": "PASS", "tau": 1e-4,
                                        "extrapolated": [0.0, 2.0]}]}
    moved = json.loads(json.dumps(ref))
    moved["domains"][0]["extrapolated"][1] = 2.0 * (1 + 0.9e-4)
    assert workloads.check("verify", moved, ref) == []
    moved["domains"][0]["extrapolated"][1] = 2.0 * (1 + 1.1e-4)
    assert workloads.check("verify", moved, ref)
    flipped = json.loads(json.dumps(ref))
    flipped["domains"][0]["verdict"] = "FAIL"
    flipped["exit_code"] = 4
    assert len(workloads.check("verify", flipped, ref)) == 2
    assert workloads.check("verify", {"exit_code": 0}, ref)
    short = json.loads(json.dumps(ref))
    short["domains"][0]["extrapolated"].pop()
    assert workloads.check("verify", short, ref)

    shell = {"exit_code": 0, "first_values": [0.0, 3.0], "checks": {"k_interlacing": True}}
    near = {**shell, "first_values": [0.0, 3.0 * (1 + 5e-10)]}
    far = {**shell, "first_values": [0.0, 3.0 * (1 + 5e-9)]}
    assert workloads.check("spectrum", near, shell) == []
    assert workloads.check("spectrum", far, shell)


def test_every_reference_seed_has_a_reference(scratch):
    for name, workload in workloads.WORKLOADS.items():
        stored = workloads.load_reference(name)
        assert sorted(stored) == sorted(str(s) for s in workloads.REFERENCE_SEEDS)
        for fseed in workloads.REFERENCE_SEEDS:
            keys = [item.key for items in workload.passes(fseed, scratch) for item in items]
            assert sorted(keys) == sorted(stored[str(fseed)])
    assert workloads.family_seed(2026) == 2026
    assert workloads.family_seed(123456) in workloads.REFERENCE_SEEDS


def test_benchmark_json_matches_the_script():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_named_in_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "shells_and_moments",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_refuses_to_run_without_the_source_tree(scratch):
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(run.BENCH_DIR, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_order4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
