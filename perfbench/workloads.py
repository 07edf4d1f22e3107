"""Workload definitions and the output check of the sfs benchmark.

A workload is a cycle of *passes*; a pass is a short list of *items*;
an item is one ``sfs`` invocation through ``cli.main`` that writes a
JSON report.  Every input comes from a family seed, and every family
seed in ``REFERENCE_SEEDS`` has a stored reference in ``reference/``:
``extract`` reduces a report to the values that must not drift and
``check`` compares them against the stored ones with the tolerances of
the benchmark's output check.  ``Runner`` times passes and checks them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spaceform_spectra import cli, fem2d
from spaceform_spectra import domains as dm
from spaceform_spectra.spaceform import SpaceForm

FORMS = ("euclidean", "spherical", "hyperbolic")

# Family seeds with a stored reference.  2026 is the acceptance seed and
# 7 the README example; a benchmark seed outside the set maps onto it.
REFERENCE_SEEDS = (1, 2, 3, 4, 5, 6, 7, 2026)

SHELL_REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def family_seed(seed: int) -> int:
    """The family seed a benchmark ``--seed`` selects (same seed, same inputs)."""
    return seed if seed in REFERENCE_SEEDS else REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


@dataclass(frozen=True)
class Item:
    key: str        # reference key, unique within the workload and family
    kind: str       # "verify", "spectrum" or "moments"
    argv: tuple     # sfs arguments, without --json


def run_item(item: Item, report_path: Path) -> int:
    """Run one item through ``cli.main``; its stdout is discarded."""
    report_path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([*item.argv, "--json", str(report_path)])


def read_report(report_path: Path) -> dict | None:
    return json.loads(report_path.read_text()) if report_path.exists() else None


# ---------------------------------------------------------------------------
# passes per workload
# ---------------------------------------------------------------------------

def _verify_order4(fseed: int, work: Path) -> list[list[Item]]:
    # one pass per form; three passes are `--form all --seed fseed`
    family = "s=4 count=5 amplitude=0.08"
    return [[Item(f"{form}/{fseed + offset}", "verify",
                  ("verify", "--random-family", family, "--form", form,
                   "--seed", str(fseed + offset), "--levels", "3", "--m", "8"))]
            for offset, form in enumerate(FORMS)]


def _verify_order2_fine(fseed: int, work: Path) -> list[list[Item]]:
    # the half-turn family `s=2 count=2` over all forms, one domain per
    # pass, interleaved so that consecutive passes change form and hole
    domains = []
    for offset, form in enumerate(FORMS):
        specs = dm.random_family(fseed + offset, SpaceForm(form), n=2,
                                 symmetry=dm.SymmetryOrder.ORDER2, count=2,
                                 amplitude=0.08)
        for idx, spec in enumerate(specs):
            path = work / f"order2-{fseed}-{form}-{idx}.json"
            path.write_text(json.dumps(dm.spec_to_dict(spec), sort_keys=True))
            domains.append((offset, idx, Item(
                f"{form}/{fseed + offset}/{idx}", "verify",
                ("verify", "--spec", str(path), "--levels", "4", "--m", "8"))))
    order = [(0, 0), (1, 1), (2, 0), (0, 1), (1, 0), (2, 1)]
    by_pos = {(offset, idx): item for offset, idx, item in domains}
    return [[by_pos[pos]] for pos in order]


def shell_cases(fseed: int) -> list[tuple[str, int, float, float]]:
    """(form, n, r1, r2): one shell and one ball per form and dimension."""
    rng = np.random.default_rng(fseed)
    cases = []
    for form in FORMS:
        for n in (2, 3):
            r1 = float(rng.uniform(0.2, 0.5))
            cases.append((form, n, r1, r1 + float(rng.uniform(0.6, 1.0))))
            cases.append((form, n, 0.0, float(rng.uniform(0.8, 1.5))))
    return cases


def _shells_and_moments(fseed: int, work: Path) -> list[list[Item]]:
    items = [Item(f"spectrum/{form}/n{n}/{'ball' if r1 == 0 else 'shell'}", "spectrum",
                  ("spectrum", "--form", form, "--n", str(n), "--r1", repr(r1),
                   "--r2", repr(r2), "--kmax", "8", "--jmax", "8", "--certify"))
             for form, n, r1, r2 in shell_cases(fseed)]
    items.append(Item(f"moments/{fseed}", "moments",
                      ("moments", "--random-family", "s=central count=5 amplitude=0.08",
                       "--form", "all", "--seed", str(fseed), "--check", "both")))
    return [items]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    passes: object   # (family seed, work dir) -> list of passes


WORKLOADS = {w.name: w for w in (
    Workload("verify_order4",
             "acceptance family: sfs verify, s=4, all forms, levels 1-3; the FEM "
             "eigensolve dominates", _verify_order4),
    Workload("verify_order2_fine",
             "half-turn family at levels 1-4: large factorizations, index 2 only, "
             "two symmetry sectors, peak memory", _verify_order2_fine),
    Workload("shells_and_moments",
             "sfs spectrum --certify and sfs moments: radial, spectrum and "
             "quadrature layers, no FEM", _shells_and_moments),
)}


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def extract(kind: str, code: int, report: dict | None) -> dict:
    """The parts of a report the output check compares."""
    out: dict = {"exit_code": code}
    if report is None:
        return out
    if kind == "verify":
        out["domains"] = [{
            "spec_hash": d["spec_hash"],
            "verdict": d["verdict"],
            "tau": d["tau"],
            "extrapolated": d["fem"]["extrapolated"],
        } for d in report["domains"]]
    elif kind == "spectrum":
        out["first_values"] = report["first_values"]
        out["checks"] = {c["name"]: c["passed"]
                         for c in report["certification"]["checks"]}
    else:
        out["domains"] = [{
            "checks": {c["name"]: c["passed"] for c in d["checks"]},
            "mu_k1": [c["mu_k1"] for c in d["checks"] if "mu_k1" in c],
        } for d in report["domains"]]
    return out


def _all_close(values: list, refs: list, tol: float) -> bool:
    return len(values) == len(refs) and all(
        math.isfinite(v) and abs(v - r) <= tol * max(abs(r), 1.0)
        for v, r in zip(values, refs))


def check(kind: str, got: dict, ref: dict) -> list[str]:
    """Problems with ``got`` against the reference ``ref``; empty if it passes.

    Exit codes, verdicts and check outcomes must match exactly.  A verify
    eigenvalue may move by the item's own reported tau, a shell value by
    1e-9, both relative to max(|reference|, 1).
    """
    problems = []
    if got["exit_code"] != ref["exit_code"]:
        problems.append(f"exit code {got['exit_code']} != {ref['exit_code']}")
    if set(got) != set(ref):
        return problems + ["report missing or malformed"]
    if kind == "spectrum":
        if got["checks"] != ref["checks"]:
            problems.append(f"check outcomes {got['checks']} != {ref['checks']}")
        if not _all_close(got["first_values"], ref["first_values"], SHELL_REL_TOL):
            problems.append("certified shell values moved beyond 1e-9")
        return problems
    if len(got["domains"]) != len(ref["domains"]):
        return problems + ["domain count differs"]
    for idx, (g, r) in enumerate(zip(got["domains"], ref["domains"]), start=1):
        if kind == "verify":
            if g["spec_hash"] != r["spec_hash"]:
                problems.append(f"domain {idx}: input differs from the reference")
            if g["verdict"] != r["verdict"]:
                problems.append(f"domain {idx}: verdict {g['verdict']} != {r['verdict']}")
            if not _all_close(g["extrapolated"], r["extrapolated"], g["tau"]):
                problems.append(f"domain {idx}: eigenvalue outside tau={g['tau']:.3g}")
        else:
            if g["checks"] != r["checks"]:
                problems.append(f"domain {idx}: check outcomes differ")
            if not _all_close(g["mu_k1"], r["mu_k1"], SHELL_REL_TOL):
                problems.append(f"domain {idx}: shell value moved beyond 1e-9")
    return problems


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())


def warm_up() -> None:
    """Touch every layer once on tiny inputs, so lazy set-up is paid here."""
    spec = dm.random_family(0, SpaceForm.EUCLIDEAN, n=2, count=1)[0]
    fem2d.verify_theorem(spec, fem2d.VerifyConfig(levels=(1, 2), m=4))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["spectrum", "--form", "hyperbolic", "--n", "3", "--r1", "0.5",
                  "--r2", "1.0", "--kmax", "2", "--jmax", "2", "--count", "4",
                  "--certify"])
        cli.main(["moments", "--random-family", "s=central count=1",
                  "--form", "euclidean", "--check", "both"])


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    """Runs passes of one workload and checks every item's report."""

    def __init__(self, workload: Workload, fseed: int, work: Path):
        self.passes = workload.passes(fseed, work)
        self.reference = load_reference(workload.name)[str(fseed)]
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, index: int, tracer=None) -> tuple[float, float]:
        """Run pass ``index`` (cycling); return its wall and CPU seconds.

        Reports are checked after the clock stops.
        """
        items = self.passes[index % len(self.passes)]
        outcomes = []
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        for pos, item in enumerate(items):
            path = self.work / f"report-{pos}.json"
            if tracer is not None:
                tracer.item += 1
            try:
                outcomes.append((item, path, run_item(item, path), None))
            except Exception as exc:  # an item that raises is a failed item
                outcomes.append((item, path, None, f"raised {exc!r}"))
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        for item, path, code, error in outcomes:
            self.attempted += 1
            if error is None:
                got = extract(item.kind, code, read_report(path))
                problems = check(item.kind, got, self.reference[item.key])
            else:
                problems = [error]
            if problems:
                self.failed += 1
                self.problems.append(f"{item.key}: {'; '.join(problems)}")
        return wall, cpu
