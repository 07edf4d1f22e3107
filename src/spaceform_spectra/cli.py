"""Batch front-end: radial solves, shell spectra, domain verification.

Four subcommands map onto the library layers: ``sl`` (one radial
eigenproblem), ``spectrum`` (shell spectrum merged from its radial modes,
plus structural certification), ``verify`` (domain-vs-matched-shell
comparison through the finite-element pipeline) and ``moments`` (symmetry
orthogonality and Rayleigh-bound checks by quadrature).

Exit codes: 0 success, 2 invalid input (an unreadable input file, any
malformed JSON input, a wrong shape included, and an unwritable output
path), 3 solver failure or truncation, 4 a verification check failed.  The
subcommands raise; ``main`` alone turns an exception into an exit code and
a stderr line.  Reports are JSON with
sorted keys and no timestamps, so the same inputs on the same BLAS thread
count produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

import numpy as np

from . import domains as dm
from . import fem2d, slsolver, spectrum
from .spaceform import SpaceForm
from .slsolver import SLProblem, SolverConfig

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_FAIL = 4

_INVALID_ERRORS = (ValueError, OSError)
_SOLVER_ERRORS = (slsolver.ConvergenceError, fem2d.FemConvergenceError,
                  spectrum.CutoffTooLowError)


def _exit_for(exc: Exception) -> int:
    """Print ``exc`` to stderr under its prefix and return its exit code.

    A ``where`` attribute on the exception (``"domain 3"``) is named in
    the message.
    """
    if isinstance(exc, spectrum.CutoffTooLowError):
        code, prefix = EXIT_SOLVER, "truncation"
    elif isinstance(exc, _SOLVER_ERRORS):
        code, prefix = EXIT_SOLVER, "solver failure"
    else:
        code, prefix = EXIT_INVALID, "error"
    where = getattr(exc, "where", None)
    if where:
        prefix += f" on {where}"
    print(f"{prefix}: {exc}", file=sys.stderr)
    return code


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list, rows) -> None:
    """Comma-separated ``header`` then ``rows``; a float is written as its repr."""
    with open(path, "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(map(str, row)) + "\n")


def _config_value(action: argparse.Action, value):
    """A --config value converted as its flag would convert it.

    A number's command-line spelling goes through the flag's ``type`` and
    ``choices``, so ``2.9`` is refused where ``--max-j 2.9`` is; a switch
    keeps its boolean.
    """
    if isinstance(value, bool):
        return value
    spelled = value if isinstance(value, str) else json.dumps(value)
    try:
        converted = action.type(spelled) if action.type else spelled
    except (TypeError, ValueError):
        raise ValueError(f"config {action.dest}={value!r} is not a valid "
                         f"{action.type.__name__}") from None
    if action.choices and converted not in action.choices:
        raise ValueError(f"config {action.dest}={value!r} is not one of "
                         f"{', '.join(action.choices)}")
    return converted


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse ``argv``; with --config, its values become the flags' defaults.

    ``slsolver.read_wire`` reads the file, one optional key per flag: a
    switch takes a JSON boolean, a flag with no ``type`` (a path or a
    string choice) a string, and a typed flag a string or a number.  Each
    value becomes the default on the parser that owns its flag (``--out``
    on the top-level one) and ``argv`` is parsed again, so a flag on the
    command line beats the file and the file beats the flag's own default.
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    (subparsers,) = (a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction))
    owners = {a.dest: (p, a) for p in (parser, subparsers.choices[args.command])
              for a in p._actions if a.dest in vars(args)}
    del owners["command"], owners["config"]
    kinds = {key: (bool,) if isinstance(action, argparse._StoreTrueAction)
             else (str, int, float) if action.type else (str,)
             for key, (_, action) in owners.items()}
    file_values = slsolver.read_wire(_load_json(args.config), kinds,
                                     f"{args.command} config", optional=kinds)
    for key, value in file_values.items():
        owner, action = owners[key]
        owner.set_defaults(**{key: _config_value(action, value)})
    return parser.parse_args(argv)


def _require(args, parser, names) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        parser.error(f"missing required flags: {', '.join('--' + m for m in missing)}")


def _refuse_beside(source: str, args, defaults: dict) -> None:
    """Refuse flags off their defaults beside ``source``, whose file would override them."""
    given = ["--" + key.replace("_", "-") for key, default in defaults.items()
             if getattr(args, key) != default]
    if given:
        raise ValueError(f"give {source} FILE or {', '.join(given)}, not both")


def _place(args, path: str | None) -> str | None:
    """Resolve an artifact path inside --out when one was given."""
    if path is None or getattr(args, "out", None) is None or os.path.isabs(path):
        return path
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, path)


# ---------------------------------------------------------------------------
# sl
# ---------------------------------------------------------------------------

def cmd_sl(args, parser) -> int:
    _require(args, parser, ("form", "n", "k", "r1", "r2"))
    problem = SLProblem(args.form, args.n, args.k, args.r1, args.r2, args.bc)
    config = SolverConfig(grid_points=args.grid_points, richardson=not args.no_richardson,
                          max_j=args.max_j)
    pairs = slsolver.solve(problem, config)

    print(f"# {problem.bc} radial spectrum, form={problem.form}, n={problem.n}, "
          f"k={problem.k}, interval=[{_fmt(problem.r1)}, {_fmt(problem.r2)}]")
    print(f"{'j':>3}  {'eigenvalue':>18}")
    for p in pairs:
        print(f"{p.j:>3}  {_fmt(p.eigenvalue):>18}")

    if args.json:
        payload = {
            "schema_version": 1,
            "problem": slsolver.problem_to_dict(problem, config),
            "eigenpairs": slsolver.pairs_to_dicts(pairs),
        }
        _write_json(_place(args, args.json), payload)
    if args.csv:
        _write_csv(_place(args, args.csv), ["r"] + [f"u_j{p.j}" for p in pairs],
                   np.column_stack([pairs[0].grid] + [p.values for p in pairs]).tolist())
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args, parser) -> int:
    _require(args, parser, ("form", "n", "r1", "r2"))
    spec = spectrum.assemble(args.form, args.n, args.r1, args.r2, args.kmax, args.jmax,
                             SolverConfig(grid_points=args.grid_points))
    values = spec.eigenvalues(args.count)

    print(f"# Neumann shell spectrum, form={spec.form}, n={spec.n}, "
          f"interval=[{_fmt(spec.r1)}, {_fmt(spec.r2)}], "
          f"certified below {_fmt(spec.complete_up_to)}")
    print(f"{'i':>3}  {'value':>18}  {'k':>3} {'j':>3} {'mult':>4}")
    # i, the running index of an entry's first copy, ascends with the entries
    starts = itertools.accumulate((e.multiplicity for e in spec.entries), initial=1)
    rows = [(i, e.value, e.k, e.j, e.multiplicity) for i, e in zip(starts, spec.entries)]
    for i, value, k, j, mult in (row for row in rows if row[0] <= args.count):
        print(f"{i:>3}  {_fmt(value):>18}  {k:>3} {j:>3} {mult:>4}")

    payload = {"schema_version": 1, "spectrum": spec.to_dict(),
               "first_values": values}
    passed = True
    if args.certify:
        cert = spectrum.certify_lemmas(spec)
        for check in cert.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{check.name}: {status} (worst {_fmt(check.worst)}, "
                  f"tol {_fmt(check.tolerance)})")
        payload["certification"] = cert.to_dict()
        passed = cert.passed
    if args.json:
        _write_json(_place(args, args.json), payload)
    if args.csv:
        _write_csv(_place(args, args.csv), ["i", "value", "k", "j", "multiplicity"], rows)
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# shared spec sources for verify / moments
# ---------------------------------------------------------------------------

def _parse_family(text: str) -> dict:
    """The keyword arguments of ``domains.random_family`` that ``text`` sets."""
    out = {}
    for token in text.replace(",", " ").split():
        key, _, value = token.partition("=")
        if not value:
            raise ValueError(f"malformed family token {token!r} (expected key=value)")
        if key == "s":
            out["symmetry"] = value
        elif key == "count":
            out["count"] = int(value)
            if out["count"] < 1:
                raise ValueError(f"family count must be >= 1, got {value}")
        elif key == "amplitude":
            out["amplitude"] = float(value)
            if not np.isfinite(out["amplitude"]):
                raise ValueError(f"family amplitude must be finite, got {value}")
        else:
            raise ValueError(f"unknown family key {key!r}")
    sym_map = {"4": dm.SymmetryOrder.ORDER4, "2": dm.SymmetryOrder.ORDER2,
               "central": dm.SymmetryOrder.CENTRAL, "none": dm.SymmetryOrder.NONE}
    if "symmetry" in out:
        try:
            out["symmetry"] = sym_map[out["symmetry"]]
        except KeyError as exc:
            raise ValueError("family s must be one of 4, 2, central, none") from exc
    return out


def _collect_specs(args) -> list[dm.DomainSpec]:
    if args.spec:
        _refuse_beside("--spec", args, {"random_family": None, "form": "all"})
        return [dm.spec_from_dict(_load_json(args.spec))]
    if not args.random_family:
        raise ValueError("need --spec FILE or --random-family 's=4 count=5 amplitude=0.1'")
    family = _parse_family(args.random_family)
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0 with --random-family, got {args.seed}")
    forms = ([SpaceForm(args.form)] if args.form != "all"
             else [SpaceForm.EUCLIDEAN, SpaceForm.SPHERICAL, SpaceForm.HYPERBOLIC])
    specs: list[dm.DomainSpec] = []
    for offset, form in enumerate(forms):
        specs.extend(dm.random_family(args.seed + offset, form, n=2, **family))
    return specs


@contextlib.contextmanager
def _on_domain(idx: int):
    """Tag an error ``main`` reports with the 1-based domain index."""
    try:
        yield
    except _SOLVER_ERRORS + _INVALID_ERRORS as exc:
        exc.where = f"domain {idx}"
        raise


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, parser) -> int:
    specs = _collect_specs(args)
    config = fem2d.VerifyConfig(levels=tuple(range(1, args.levels + 1)),
                                m=args.m)

    results = []
    blocks: list[str] = []
    failures = 0
    for idx, spec in enumerate(specs, start=1):
        with _on_domain(idx):
            verdict = fem2d.verify_theorem(spec, config)
        status = "PASS" if verdict.passed else "FAIL"
        failures += 0 if verdict.passed else 1
        note = ("  (no error estimate: one level)" if verdict.fem.est_rel_error is None
                else "  (undecided at cap)" if not verdict.decided
                else "  (Ritz bound)" if verdict.decided_by == "ritz_bound" else "")
        print(f"[{idx}/{len(specs)}] {verdict.spec_hash} {status}  form={verdict.form} "
              f"sym={verdict.symmetry}  mu2(shell)={_fmt(verdict.mu_annulus)}  "
              f"min_margin={_fmt(min(verdict.margins))}  tau={_fmt(verdict.tau)}{note}")
        entry = verdict.to_dict()
        entry["spec"] = dm.spec_to_dict(spec)
        results.append(entry)
        if args.plot_data:
            blocks.append(fem2d.convergence_table(
                verdict.fem, label=f"domain {verdict.spec_hash} ({verdict.form})"))

    print(f"summary: {len(specs) - failures}/{len(specs)} PASS")
    if args.plot_data:
        with open(_place(args, args.plot_data), "w") as fh:
            fh.write("\n\n".join(blocks))
    if args.json:
        payload = {
            "schema_version": 1,
            "command": "verify",
            "seed": args.seed,
            "params": {"levels": args.levels, "m": args.m,
                       "family": args.random_family, "form": args.form},
            "domains": results,
            "summary": {"total": len(specs), "pass": len(specs) - failures,
                        "fail": failures},
        }
        _write_json(_place(args, args.json), payload)
    return EXIT_FAIL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def _orthogonality_checks(grid: dm.QuadratureGrid) -> list[dict]:
    """Vanishing-moment checks required by the symmetry class of the grid's domain.

    ``sfs`` reads planar domains only, where the half-turn of ``order2``
    is the central symmetry.
    """
    one = dm.RadialTestFunction.constant(1.0)
    gauss = dm.RadialTestFunction(lambda r: np.exp(-0.5 * r**2),
                                  lambda r: -r * np.exp(-0.5 * r**2))
    checks: list[dict] = []

    def record(name, signed, scale, tol=1e-10):
        rel = abs(signed) / max(scale, 1e-300)
        checks.append({"name": name, "relative": rel, "tolerance": tol,
                       "passed": bool(rel <= tol)})

    def moment(g, powers):
        return (dm.integrate_moment(grid, g, powers),
                dm.integrate_moment(grid, g, powers, absolute=True))

    def planar(i, p, q):  # the powers of X_i^p X_j^q, j the other axis
        return [p, q] if i == 1 else [q, p]

    sym = grid.spec.symmetry_order
    if sym in (dm.SymmetryOrder.CENTRAL, dm.SymmetryOrder.ORDER2):
        for g, gname in ((one, "1"), (gauss, "gauss")):
            for i, j in ((1, 2), (2, 1)):
                for m in (0, 1):
                    record(f"central:g={gname} X{i}*X{j}^{2 * m}",
                           *moment(g, planar(i, 1, 2 * m)))
                for m in (0, 1, 2):
                    record(f"central:g={gname} X{i}^{2 * m + 1}",
                           *moment(g, planar(i, 2 * m + 1, 0)))
    if sym is dm.SymmetryOrder.ORDER4:
        for g, gname in ((one, "1"), (gauss, "gauss")):
            record(f"order4:g={gname} X1*X2", *moment(g, [1, 1]))
            for power in (2, 4):
                x1, x2 = (dm.integrate_moment(grid, g, p) for p in ([power, 0], [0, power]))
                record(f"order4:g={gname} X_i^{power} equal", abs(x1 - x2), abs(x1))
        record("order4:grad (1,2)", dm.grad_pair_integral(grid, gauss, 1, 2),
               dm.grad_pair_integral(grid, gauss, 1, 2, absolute=True))
    return checks


def _rayleigh_checks(grid: dm.QuadratureGrid) -> list[dict]:
    spec = grid.spec
    r1, r2 = dm.matched_annulus(grid)
    checks = []
    for k in (1, 2, 3):
        pair = slsolver.solve(SLProblem(spec.form, spec.n, k, r1, r2),
                              SolverConfig(max_j=1))[0]
        quotient = dm.rayleigh_gk(grid, pair)
        margin = (pair.eigenvalue - quotient) / pair.eigenvalue
        checks.append({"name": f"rayleigh:k={k}", "quotient": quotient,
                       "mu_k1": pair.eigenvalue, "margin": margin,
                       "passed": bool(margin >= -1e-8)})
    return checks


def cmd_moments(args, parser) -> int:
    specs = _collect_specs(args)
    results = []
    failures = 0
    for idx, spec in enumerate(specs, start=1):
        with _on_domain(idx):
            grid = dm.QuadratureGrid.for_spec(spec)
            checks: list[dict] = []
            if args.check in ("orthogonality", "both"):
                checks.extend(_orthogonality_checks(grid))
            if args.check in ("rayleigh", "both"):
                checks.extend(_rayleigh_checks(grid))
        bad = [c for c in checks if not c["passed"]]
        failures += len(bad)
        print(f"[{idx}/{len(specs)}] sym={spec.symmetry_order} form={spec.form}: "
              f"{len(checks) - len(bad)}/{len(checks)} checks pass")
        for c in bad:
            print(f"    FAIL {c['name']}")
        results.append({"symmetry_order": str(spec.symmetry_order),
                        "form": str(spec.form), "checks": checks})

    if args.json:
        _write_json(_place(args, args.json), {
            "schema_version": 1, "command": "moments",
            "seed": args.seed,
            "domains": results,
            "summary": {"failures": failures},
        })
    return EXIT_FAIL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfs",
        description="Spectra of balls, shells and symmetric perturbed shells "
                    "in the three constant-curvature space forms.")
    parser.add_argument("--out",
                        help="directory for report artifacts (relative paths land here)")
    sub = parser.add_subparsers(dest="command", required=True)
    forms = [f.value for f in SpaceForm]

    # Flags that subcommands share live on parent parsers made per call:
    # the children share their actions, on which --config sets defaults.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with default flag values")
    common.add_argument("--json", help="write the report to this JSON file")

    shell = argparse.ArgumentParser(add_help=False)
    shell.add_argument("--form", choices=forms)
    shell.add_argument("--n", type=int)
    shell.add_argument("--r1", type=float)
    shell.add_argument("--r2", type=float)
    shell.add_argument("--grid-points", dest="grid_points", type=int,
                       default=SolverConfig.grid_points)
    shell.add_argument("--csv", help="write the table to this CSV file")

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--spec", help="domain JSON file")
    family.add_argument("--random-family", dest="random_family",
                        help="e.g. 's=4 count=5 amplitude=0.1'")
    family.add_argument("--form", choices=["all"] + forms, default="all")
    family.add_argument("--seed", type=int, default=0)

    p_sl = sub.add_parser("sl", parents=[shell, common],
                          help="solve one radial eigenproblem")
    p_sl.add_argument("--k", type=int)
    p_sl.add_argument("--bc", choices=["neumann", "dirichlet"], default=str(SLProblem.bc))
    p_sl.add_argument("--max-j", dest="max_j", type=int, default=SolverConfig.max_j)
    p_sl.add_argument("--no-richardson", action="store_true",
                      default=not SolverConfig.richardson)
    p_sl.set_defaults(func=cmd_sl)

    p_sp = sub.add_parser("spectrum", parents=[shell, common],
                          help="assemble a shell spectrum")
    p_sp.add_argument("--kmax", type=int, default=8)
    p_sp.add_argument("--jmax", type=int, default=8)
    p_sp.add_argument("--count", type=int, default=12, help="certified eigenvalues to report")
    p_sp.add_argument("--certify", action="store_true",
                      help="append the structural certification report")
    p_sp.set_defaults(func=cmd_spectrum)

    p_vf = sub.add_parser("verify", parents=[family, common],
                          help="compare domains against matched shells")
    p_vf.add_argument("--levels", type=int, default=fem2d.VerifyConfig.levels[-1],
                      help="finest refinement level; a run stops below it once "
                           "its verdict is decided, and one level cannot PASS")
    p_vf.add_argument("--m", type=int, default=fem2d.VerifyConfig.m)
    p_vf.add_argument("--plot-data", dest="plot_data",
                      help="write gnuplot-ready refinement histories here")
    p_vf.set_defaults(func=cmd_verify)

    p_mo = sub.add_parser("moments", parents=[family, common],
                          help="symmetry orthogonality / Rayleigh checks")
    p_mo.add_argument("--check", choices=["orthogonality", "rayleigh", "both"],
                      default="both")
    p_mo.set_defaults(func=cmd_moments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return args.func(args, parser)
    except SystemExit as exc:  # argparse, also parser.error inside a command
        return int(exc.code or 0)
    except _SOLVER_ERRORS + _INVALID_ERRORS as exc:
        return _exit_for(exc)


if __name__ == "__main__":
    sys.exit(main())
