"""Batch front-end: radial solves, shell spectra, domain verification.

Four subcommands map onto the library layers: ``sl`` (one radial
eigenproblem), ``spectrum`` (shell spectrum merged from its radial modes,
plus structural certification), ``verify`` (domain-vs-matched-shell
comparison through the finite-element pipeline) and ``moments`` (symmetry
orthogonality and Rayleigh-bound checks by quadrature).

Exit codes: 0 success, 2 invalid input (an unreadable input file or an
unwritable output path included), 3 solver failure or truncation, 4 a
verification check failed.  The subcommands raise; ``main`` alone turns an
exception into an exit code and a stderr line.  Reports are JSON with
sorted keys and no timestamps, so the same inputs on the same BLAS thread
count produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import domains as dm
from . import fem2d, slsolver, spectrum
from .spaceform import GeometryError, SpaceForm, UnattainableVolumeError
from .slsolver import SLProblem, SolverConfig

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_FAIL = 4

_INVALID_ERRORS = (ValueError, GeometryError, dm.SymmetryError,
                   UnattainableVolumeError, KeyError, OSError,
                   json.JSONDecodeError)
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


# Flag values a subcommand uses when neither the command line nor --config
# sets them. Their argparse defaults are None, so a given flag is told apart
# from an absent one.
_DEFAULTS = {
    "sl": {"bc": "neumann", "grid_points": SolverConfig.grid_points,
           "no_richardson": False},
    "spectrum": {"kmax": 8, "jmax": 8, "count": 12, "certify": False,
                 "grid_points": SolverConfig.grid_points},
    "verify": {"form": "all", "seed": 0, "levels": 3, "m": 8},
    "moments": {"form": "all", "seed": 0, "check": "both"},
}


def _flag_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """Flag name -> argparse action, for ``command`` and the top-level flags."""
    (subparsers,) = (a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for p in (parser, subparsers.choices[command]) for a in p._actions}


def _config_value(action: argparse.Action, value):
    """A --config value, checked and converted as its flag would be.

    A switch takes a JSON boolean.  Any other flag takes a JSON string or
    number, whose command-line spelling goes through the flag's ``type``
    and ``choices``, so ``2.9`` is refused where ``--max-j 2.9`` is.
    """
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise ValueError(f"config {action.dest}={value!r} must be true or false")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config {action.dest}={value!r} must be a string or a number")
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


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill flags left at None: flag > --config file > ``_DEFAULTS``.

    A config key that names no flag of the subcommand, or a value its
    flag would refuse on the command line, is invalid input.
    """
    file_values = _load_json(args.config) if args.config else {}
    if not isinstance(file_values, dict):
        raise ValueError("--config must hold a JSON object of flag values")
    flags = set(vars(args)) - {"command", "func", "config"}
    unknown = sorted(set(file_values) - flags)
    if unknown:
        raise ValueError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    actions = _flag_actions(parser, args.command)
    file_values = {key: _config_value(actions[key], value)
                   for key, value in file_values.items()}
    defaults = _DEFAULTS[args.command]
    for key in flags:
        if getattr(args, key) is None:
            setattr(args, key, file_values.get(key, defaults.get(key)))


def _require(args, parser, names) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        parser.error(f"missing required flags: {', '.join('--' + m for m in missing)}")


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
    if args.problem:
        problem, config = slsolver.problem_from_dict(_load_json(args.problem))
    else:
        _require(args, parser, ("form", "n", "k", "r1", "r2"))
        problem = SLProblem(args.form, args.n, args.k,
                            args.r1, args.r2, args.bc)
        config = SolverConfig(grid_points=args.grid_points,
                              richardson=not args.no_richardson)
    if args.max_j is not None:
        config = dataclasses.replace(config, max_j=args.max_j)
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
        grid = pairs[0].grid
        header = "r," + ",".join(f"u_j{p.j}" for p in pairs)
        rows = [header]
        for idx in range(grid.size):
            rows.append(",".join([repr(float(grid[idx]))]
                                 + [repr(float(p.values[idx])) for p in pairs]))
        with open(_place(args, args.csv), "w") as fh:
            fh.write("\n".join(rows) + "\n")
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
    i = 1
    for e in spec.entries:
        if i > args.count:
            break
        print(f"{i:>3}  {_fmt(e.value):>18}  {e.k:>3} {e.j:>3} {e.multiplicity:>4}")
        i += e.multiplicity

    payload = {"schema_version": 1, "spectrum": spec.to_dict(),
               "first_values": values}
    passed = True
    if args.certify:
        cert = spectrum.certify_lemmas(spec, j_max=min(args.jmax, 5))
        for check in cert.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{check.name}: {status} (worst {_fmt(check.worst)}, "
                  f"tol {_fmt(check.tolerance)})")
        payload["certification"] = cert.to_dict()
        passed = cert.passed
    if args.json:
        _write_json(_place(args, args.json), payload)
    if args.csv:
        with open(_place(args, args.csv), "w") as fh:
            fh.write(spec.to_csv())
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# shared spec sources for verify / moments
# ---------------------------------------------------------------------------

def _parse_family(text: str) -> dict:
    out = {"s": 4, "count": 5, "amplitude": 0.08}
    for token in text.replace(",", " ").split():
        key, _, value = token.partition("=")
        if not value:
            raise ValueError(f"malformed family token {token!r} (expected key=value)")
        if key == "s":
            out["s"] = value
        elif key == "count":
            out["count"] = int(value)
            if out["count"] < 1:
                raise ValueError(f"family count must be >= 1, got {value}")
        elif key == "amplitude":
            out["amplitude"] = float(value)
        else:
            raise ValueError(f"unknown family key {key!r}")
    sym_map = {"4": dm.SymmetryOrder.ORDER4, "2": dm.SymmetryOrder.ORDER2,
               "central": dm.SymmetryOrder.CENTRAL, "none": dm.SymmetryOrder.NONE}
    try:
        out["symmetry"] = sym_map[str(out.pop("s"))]
    except KeyError as exc:
        raise ValueError("family s must be one of 4, 2, central, none") from exc
    return out


def _collect_specs(args) -> list[dm.DomainSpec]:
    if args.spec:
        return [dm.spec_from_dict(_load_json(args.spec))]
    family = _parse_family(args.random_family)
    forms = ([SpaceForm(args.form)] if args.form != "all"
             else [SpaceForm.EUCLIDEAN, SpaceForm.SPHERICAL, SpaceForm.HYPERBOLIC])
    seed = args.seed
    specs: list[dm.DomainSpec] = []
    for offset, form in enumerate(forms):
        specs.extend(dm.random_family(
            seed + offset, form, n=2, symmetry=family["symmetry"],
            count=family["count"], amplitude=family["amplitude"]))
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
    if not args.spec and not args.random_family:
        parser.error("need --spec FILE or --random-family 's=4 count=5 amplitude=0.1'")
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
        print(f"[{idx}/{len(specs)}] {verdict.spec_hash} {status}  form={verdict.form} "
              f"sym={verdict.symmetry}  mu2(shell)={_fmt(verdict.mu_annulus)}  "
              f"min_margin={_fmt(min(verdict.margins))}  tau={_fmt(verdict.tau)}")
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
    spec = grid.spec
    one = dm.RadialTestFunction.constant(1.0)
    gauss = dm.RadialTestFunction(lambda r: np.exp(-0.5 * r**2),
                                  lambda r: -r * np.exp(-0.5 * r**2))
    checks: list[dict] = []
    n = spec.n
    axes = range(1, n + 1)

    def record(name, signed, scale, tol=1e-10):
        rel = abs(signed) / max(scale, 1e-300)
        checks.append({"name": name, "relative": rel, "tolerance": tol,
                       "passed": bool(rel <= tol)})

    def moment(g, powers):
        return (dm.integrate_moment(grid, g, powers),
                dm.integrate_moment(grid, g, powers, absolute=True))

    sym = spec.symmetry_order
    if sym in (dm.SymmetryOrder.CENTRAL, dm.SymmetryOrder.ORDER2):
        for g, gname in ((one, "1"), (gauss, "gauss")):
            for i in axes:
                for j in axes:
                    if i == j:
                        continue
                    for m in (0, 1):
                        powers = [0] * n
                        powers[i - 1] += 1
                        powers[j - 1] += 2 * m
                        record(f"central:g={gname} X{i}*X{j}^{2 * m}", *moment(g, powers))
                for m in (0, 1, 2):
                    powers = [0] * n
                    powers[i - 1] = 2 * m + 1
                    record(f"central:g={gname} X{i}^{2 * m + 1}", *moment(g, powers))
    if sym is dm.SymmetryOrder.ORDER4:
        for g, gname in ((one, "1"), (gauss, "gauss")):
            for i in axes:
                for j in axes:
                    if i < j:
                        record(f"order4:g={gname} X{i}*X{j}", *moment(g, [
                            1 if a + 1 in (i, j) else 0 for a in range(n)]))
            for power in (2, 4):
                vals = [dm.integrate_moment(grid, g, [
                    power if a == i - 1 else 0 for a in range(n)]) for i in axes]
                spread = max(vals) - min(vals)
                record(f"order4:g={gname} X_i^{power} equal", spread, abs(vals[0]))
        for i in axes:
            for j in axes:
                if i < j:
                    signed = dm.grad_pair_integral(grid, gauss, i, j)
                    scale = dm.grad_pair_integral(grid, gauss, i, j, absolute=True)
                    record(f"order4:grad ({i},{j})", signed, scale)
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
    if not args.spec and not args.random_family:
        parser.error("need --spec FILE or --random-family 's=4 count=5 amplitude=0.1'")
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
    parser.add_argument("--out", default=None,
                        help="directory for report artifacts (relative paths land here)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sl = sub.add_parser("sl", help="solve one radial eigenproblem")
    p_sl.add_argument("--problem", help="JSON file with the problem (overrides flags)")
    p_sl.add_argument("--form", choices=[f.value for f in SpaceForm])
    p_sl.add_argument("--n", type=int)
    p_sl.add_argument("--k", type=int)
    p_sl.add_argument("--r1", type=float)
    p_sl.add_argument("--r2", type=float)
    p_sl.add_argument("--bc", choices=["neumann", "dirichlet"])
    p_sl.add_argument("--max-j", dest="max_j", type=int)
    p_sl.add_argument("--grid-points", dest="grid_points", type=int)
    p_sl.add_argument("--no-richardson", action="store_true", default=None)
    p_sl.add_argument("--config", help="JSON file with default flag values")
    p_sl.add_argument("--json", help="write the eigenpairs to this JSON file")
    p_sl.add_argument("--csv", help="write (r, u_j) samples to this CSV file")
    p_sl.set_defaults(func=cmd_sl)

    p_sp = sub.add_parser("spectrum", help="assemble a shell spectrum")
    p_sp.add_argument("--form", choices=[f.value for f in SpaceForm])
    p_sp.add_argument("--n", type=int)
    p_sp.add_argument("--r1", type=float)
    p_sp.add_argument("--r2", type=float)
    p_sp.add_argument("--kmax", type=int)
    p_sp.add_argument("--jmax", type=int)
    p_sp.add_argument("--count", type=int, help="certified eigenvalues to report")
    p_sp.add_argument("--certify", action="store_true", default=None,
                      help="append the structural certification report")
    p_sp.add_argument("--grid-points", dest="grid_points", type=int)
    p_sp.add_argument("--config")
    p_sp.add_argument("--json")
    p_sp.add_argument("--csv")
    p_sp.set_defaults(func=cmd_spectrum)

    p_vf = sub.add_parser("verify", help="compare domains against matched shells")
    p_vf.add_argument("--spec", help="domain JSON file")
    p_vf.add_argument("--random-family", dest="random_family",
                      help="e.g. 's=4 count=5 amplitude=0.1'")
    p_vf.add_argument("--form", choices=["all"] + [f.value for f in SpaceForm])
    p_vf.add_argument("--seed", type=int)
    p_vf.add_argument("--levels", type=int)
    p_vf.add_argument("--m", type=int)
    p_vf.add_argument("--config")
    p_vf.add_argument("--json", help="write the full report here")
    p_vf.add_argument("--plot-data", dest="plot_data",
                      help="write gnuplot-ready refinement histories here")
    p_vf.set_defaults(func=cmd_verify)

    p_mo = sub.add_parser("moments", help="symmetry orthogonality / Rayleigh checks")
    p_mo.add_argument("--spec")
    p_mo.add_argument("--random-family", dest="random_family")
    p_mo.add_argument("--form", choices=["all"] + [f.value for f in SpaceForm])
    p_mo.add_argument("--seed", type=int)
    p_mo.add_argument("--check", choices=["orthogonality", "rayleigh", "both"])
    p_mo.add_argument("--config")
    p_mo.add_argument("--json")
    p_mo.set_defaults(func=cmd_moments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args, parser)
        return args.func(args, parser)
    except SystemExit as exc:  # argparse, also parser.error inside a command
        return int(exc.code or 0)
    except _SOLVER_ERRORS + _INVALID_ERRORS as exc:
        return _exit_for(exc)


if __name__ == "__main__":
    sys.exit(main())
