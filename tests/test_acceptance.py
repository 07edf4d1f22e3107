"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each test also asserts its criterion, so a plain pytest run fails
loudly if any criterion regresses.
"""

import json
import math
import time

import numpy as np
import pytest

from spaceform_spectra import cli
from spaceform_spectra import domains as dm
from spaceform_spectra import fem2d, slsolver, spectrum
from spaceform_spectra import spaceform as sf
from spaceform_spectra.domains import (
    DomainSpec,
    FourierProfile,
    QuadratureGrid,
    RadialTestFunction,
    SphereProfile,
    SymmetryOrder,
)
from spaceform_spectra.slsolver import SLProblem, SolverConfig
from spaceform_spectra.spaceform import SpaceForm, sin_m

import oracles

FORMS = [SpaceForm.SPHERICAL, SpaceForm.HYPERBOLIC, SpaceForm.EUCLIDEAN]
CONFIGS_2D = [(form, 2, 0.3, 1.2) for form in FORMS]
CONFIGS_3D = [(form, 3, 0.5, 1.5) for form in FORMS]
SIX_CONFIGS = CONFIGS_2D + CONFIGS_3D

ONE = RadialTestFunction.constant(1.0)
GAUSS = RadialTestFunction(lambda r: np.exp(-0.5 * r**2),
                           lambda r: -r * np.exp(-0.5 * r**2))


def verdict(number, name, passed, detail):
    line = f"ACCEPTANCE {number:>2} ({name}): {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. hemisphere exactness
# ---------------------------------------------------------------------------

def test_criterion_01_hemisphere_exactness():
    start = time.perf_counter()
    pair = slsolver.solve(
        SLProblem(SpaceForm.SPHERICAL, 2, 1, 0.0, math.pi / 2),
        SolverConfig(grid_points=2048, richardson=True, max_j=1))[0]
    elapsed = time.perf_counter() - start
    err = abs(pair.eigenvalue - 2.0)
    verdict(1, "hemisphere exactness", err <= 1e-6 and elapsed < 1.0,
            f"mu_11 = {pair.eigenvalue:.12g}, |err| = {err:.2e}, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2. Bessel cross-check
# ---------------------------------------------------------------------------

def test_criterion_02_bessel_cross_check():
    neumann_ref = oracles.first_bessel_derivative_zero(1) ** 2
    dirichlet_ref = oracles.first_bessel_zero(0) ** 2

    mu_sl = slsolver.solve(SLProblem(SpaceForm.EUCLIDEAN, 2, 1, 0.0, 1.0),
                           SolverConfig(max_j=1))[0].eigenvalue
    lam_sl = slsolver.solve(SLProblem(SpaceForm.EUCLIDEAN, 2, 0, 0.0, 1.0, "dirichlet"),
                            SolverConfig(max_j=1))[0].eigenvalue
    disk = DomainSpec.exact_annulus("euclidean", 2, 0.0, 1.0)
    fem = fem2d.solve_domain(disk, levels=(1, 2, 3), m=4)
    mu_fem = fem.extrapolated[1]

    err_sl = abs(mu_sl - neumann_ref)
    err_fem = abs(mu_fem - neumann_ref)
    err_dir = abs(lam_sl - dirichlet_ref)
    ok = err_sl <= 1e-6 and err_fem <= 1e-3 and err_dir <= 1e-6
    verdict(2, "Bessel cross-check", ok,
            f"SL err {err_sl:.2e} (tol 1e-6), FEM err {err_fem:.2e} (tol 1e-3), "
            f"Dirichlet err {err_dir:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 3. Neumann/Dirichlet bridge across six configurations
# ---------------------------------------------------------------------------

def test_criterion_03_bridge_suite():
    start = time.perf_counter()
    worst = 0.0
    for form, n, r1, r2 in SIX_CONFIGS:
        mu0 = [p.eigenvalue for p in slsolver.solve(
            SLProblem(form, n, 0, r1, r2), SolverConfig(max_j=6))]
        lam1 = [p.eigenvalue for p in slsolver.solve(
            SLProblem(form, n, 1, r1, r2, "dirichlet"), SolverConfig(max_j=5))]
        worst = max(worst, max(abs(mu0[j + 1] - lam1[j]) for j in range(5)))
    elapsed = time.perf_counter() - start
    verdict(3, "mode-0/mode-1 bridge", worst <= 1e-6 and elapsed < 10.0,
            f"max |mu_(0,j+1) - lambda_(1,j)| = {worst:.2e} over 6 configs, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 4. interlacing suite
# ---------------------------------------------------------------------------

def test_criterion_04_interlacing_suite():
    worst_k = np.inf
    worst_nd = np.inf
    for form, n, r1, r2 in SIX_CONFIGS:
        cfg = SolverConfig(grid_points=1024, max_j=4)
        neumann = {k: slsolver.solve(SLProblem(form, n, k, r1, r2), cfg)
                   for k in range(6)}
        dirichlet = {k: slsolver.solve(SLProblem(form, n, k, r1, r2, "dirichlet"), cfg)
                     for k in range(5)}
        for k in range(5):
            for j in range(4):
                worst_k = min(worst_k, neumann[k + 1][j].eigenvalue
                              - neumann[k][j].eigenvalue)
                worst_nd = min(worst_nd, dirichlet[k][j].eigenvalue
                               - neumann[k][j].eigenvalue)
    ok = worst_k > 1e-8 and worst_nd > 1e-8
    verdict(4, "interlacing", ok,
            f"min mode gap {worst_k:.3e}, min Neumann-Dirichlet gap {worst_nd:.3e} "
            "(margins > 1e-8)")


# ---------------------------------------------------------------------------
# 5. lowest-pair structure
# ---------------------------------------------------------------------------

def test_criterion_05_lowest_pair_suite():
    worst_resid = 0.0
    worst_step = np.inf
    worst_slack = np.inf
    interior = True
    for form, n, r1, r2 in SIX_CONFIGS:
        for k in (1, 2, 3):
            problem = SLProblem(form, n, k, r1, r2)
            pair = slsolver.solve(problem, SolverConfig(max_j=1))[0]
            b = slsolver.locate_b(pair)
            interior &= r1 < b < r2
            resid = abs(pair.eigenvalue - problem.angular_eigenvalue
                        / sin_m(form, b) ** 2) / pair.eigenvalue
            worst_resid = max(worst_resid, resid)
            worst_step = min(worst_step, float(np.min(np.diff(pair.values))))
            pot = problem.angular_eigenvalue / sin_m(form, pair.grid) ** 2
            lhs = (pot - pair.eigenvalue) * pair.values**2
            slack = float(np.min(lhs - lhs[-1]) / max(1.0, abs(lhs[-1])))
            worst_slack = min(worst_slack, slack)
    ok = interior and worst_resid <= 1e-9 and worst_step > 0 and worst_slack >= -1e-10
    verdict(5, "lowest-pair structure", ok,
            f"b interior: {interior}, max residual {worst_resid:.2e}, "
            f"min increment {worst_step:.2e}, min slack {worst_slack:.2e}")


# ---------------------------------------------------------------------------
# 6. orthogonality suite
# ---------------------------------------------------------------------------

def _class_family(symmetry, count, seed):
    rng = np.random.default_rng(seed)
    specs = []
    for idx in range(count):
        form = FORMS[idx % 3]
        n = 3 if symmetry is SymmetryOrder.ORDER2 else (2 if idx % 2 == 0 else 3)
        specs.append(dm.random_spec(rng, form, n, symmetry, amplitude=0.07,
                                    with_hole=idx % 3 != 1))
    return specs


def _required_relative_moments(spec, grid):
    """Worst relative magnitude over the integrals the symmetry forces to zero."""
    n = spec.n
    worst = 0.0

    def rel(g, powers):
        signed = dm.integrate_moment(grid, g, powers)
        scale = dm.integrate_moment(grid, g, powers, absolute=True)
        return abs(signed) / max(scale, 1e-300)

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    sym = spec.symmetry_order
    for g in (ONE, GAUSS):
        if sym is SymmetryOrder.CENTRAL or (sym is SymmetryOrder.ORDER2 and n == 2):
            for i, j in pairs:
                for m in (0, 1):
                    powers = [0] * n
                    powers[i] += 1
                    powers[j] += 2 * m
                    worst = max(worst, rel(g, powers))
            for i in range(n):
                for p in (1, 3, 5):
                    powers = [0] * n
                    powers[i] = p
                    worst = max(worst, rel(g, powers))
        elif sym is SymmetryOrder.ORDER2:
            for i, j in pairs:
                for m in (0, 1, 2, 3):
                    powers = [0] * n
                    powers[i] += 1
                    powers[j] += m
                    worst = max(worst, rel(g, powers))
            for i in range(n):
                for p in (1, 3, 5):
                    powers = [0] * n
                    powers[i] = p
                    worst = max(worst, rel(g, powers))
        else:  # order 4
            for i, j in pairs:
                if i < j:
                    powers = [0] * n
                    powers[i] = powers[j] = 1
                    worst = max(worst, rel(g, powers))
            for p in (2, 4):
                vals = [dm.integrate_moment(grid, g,
                                            [p if a == i else 0 for a in range(n)])
                        for i in range(n)]
                worst = max(worst, (max(vals) - min(vals)) / abs(vals[0]))
    if sym is SymmetryOrder.ORDER4:
        for i, j in pairs:
            if i < j:
                signed = dm.grad_pair_integral(grid, GAUSS, i + 1, j + 1)
                scale = dm.grad_pair_integral(grid, GAUSS, i + 1, j + 1,
                                              absolute=True)
                worst = max(worst, abs(signed) / scale)
    return worst


def test_criterion_06_orthogonality_suite():
    start = time.perf_counter()
    worst = 0.0
    for symmetry, seed in ((SymmetryOrder.CENTRAL, 601),
                           (SymmetryOrder.ORDER2, 602),
                           (SymmetryOrder.ORDER4, 603)):
        for spec in _class_family(symmetry, 20, seed):
            grid = QuadratureGrid.for_spec(spec)
            worst = max(worst, _required_relative_moments(spec, grid))

    # negative controls: declared-asymmetric domains must visibly violate
    controls = [
        DomainSpec("euclidean", 2, SymmetryOrder.NONE,
                   FourierProfile(1.0, ((1, 0.05, 0.0),))),
        DomainSpec("hyperbolic", 3, SymmetryOrder.NONE,
                   SphereProfile(1.0, (("dipole_1", 0.05),))),
    ]
    control_violation = np.inf
    for spec in controls:
        grid = QuadratureGrid.for_spec(spec)
        powers = [1] + [0] * (spec.n - 1)
        signed = dm.integrate_moment(grid, ONE, powers)
        scale = dm.integrate_moment(grid, ONE, powers, absolute=True)
        control_violation = min(control_violation, abs(signed) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and control_violation >= 1e-3 and elapsed < 30.0
    verdict(6, "orthogonality suite", ok,
            f"60 specs: worst relative moment {worst:.2e} (tol 1e-10), "
            f"controls violate by {control_violation:.2e} (>= 1e-3), {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 7. gradient identities against finite differences
# ---------------------------------------------------------------------------

def _chart_x(n, i):
    def fn(r, angles):
        return sf.to_normal_coords(sf.GeodesicPoint(r, tuple(angles)))[i]
    return fn


def test_criterion_07_gradient_identities():
    g_val = lambda r: math.exp(-r) * (1.0 + 0.3 * r * r)           # noqa: E731
    g_der = lambda r: math.exp(-r) * (0.6 * r - 1.0 - 0.3 * r * r)  # noqa: E731
    worst = 0.0
    for form_index, form in enumerate(FORMS):
        rng = np.random.default_rng(700 + form_index)
        for trial in range(50):
            n = 2 if trial % 2 == 0 else 3
            xs = [_chart_x(n, i) for i in range(n)]
            r = rng.uniform(0.1, 1.4)
            angles = [rng.uniform(0.3, math.pi - 0.3) for _ in range(n - 2)]
            angles.append(rng.uniform(0.1, 2 * math.pi - 0.1))
            x = sf.to_normal_coords(sf.GeodesicPoint(r, tuple(angles)))
            sm = sin_m(form, r)
            gv, gd = g_val(r), g_der(r)

            # cross-gradient identity for i < j
            i, j = (0, 1) if n == 2 else sorted(map(int, rng.choice(n, 2, replace=False)))
            fd = oracles.metric_grad_inner_fd(
                form.value,
                lambda rr, aa: g_val(rr) * xs[i](rr, aa),
                lambda rr, aa: g_val(rr) * xs[j](rr, aa), r, angles)
            closed = ((r * gd + gv) ** 2 / r**2 - gv**2 / sm**2) * x[i] * x[j]
            worst = max(worst, abs(fd - closed) / max(abs(closed), abs(fd), 1e-2))

            # normalized-coordinate gradient norm
            idx = int(rng.integers(0, n))
            fd2 = oracles.metric_grad_inner_fd(
                form.value,
                lambda rr, aa: g_val(rr) * xs[idx](rr, aa) / rr,
                lambda rr, aa: g_val(rr) * xs[idx](rr, aa) / rr, r, angles)
            ratio2 = (x[idx] / r) ** 2
            closed2 = gd**2 * ratio2 + gv**2 / sm**2 * (1 - ratio2)
            worst = max(worst, abs(fd2 - closed2) / max(abs(closed2), abs(fd2), 1e-2))
    verdict(7, "gradient identities", worst <= 1e-6,
            f"max relative deviation {worst:.2e} over 50 points x 3 forms (tol 1e-6)")


# ---------------------------------------------------------------------------
# 8. Rayleigh equality and sign
# ---------------------------------------------------------------------------

def test_criterion_08_rayleigh_bound():
    worst_eq = 0.0
    for form in FORMS:
        r2 = 1.1 if form is SpaceForm.SPHERICAL else 1.3
        spec = DomainSpec.exact_annulus(form, 2, 0.4, r2)
        grid = QuadratureGrid.for_spec(spec)
        r1m, r2m = dm.matched_annulus(grid)
        for k in (1, 2, 3):
            pair = slsolver.solve(SLProblem(form, 2, k, r1m, r2m),
                                  SolverConfig(max_j=1))[0]
            quotient = dm.rayleigh_gk(grid, pair)
            worst_eq = max(worst_eq, abs(quotient - pair.eigenvalue) / pair.eigenvalue)

    margins = []
    rng = np.random.default_rng(808)
    for form in FORMS:
        spec = dm.random_spec(rng, form, 2, SymmetryOrder.ORDER4,
                              amplitude=0.08, with_hole=True)
        grid = QuadratureGrid.for_spec(spec)
        r1m, r2m = dm.matched_annulus(grid)
        for k in (1, 2, 3):
            pair = slsolver.solve(SLProblem(form, 2, k, r1m, r2m),
                                  SolverConfig(max_j=1))[0]
            quotient = dm.rayleigh_gk(grid, pair)
            margins.append((pair.eigenvalue - quotient) / pair.eigenvalue)
    sign_ok = all(m >= -1e-10 for m in margins)
    ok = worst_eq <= 1e-8 and sign_ok
    verdict(8, "Rayleigh bound", ok,
            f"equality error {worst_eq:.2e} (tol 1e-8); perturbed margins in "
            f"[{min(margins):.3e}, {max(margins):.3e}] all nonnegative")


# ---------------------------------------------------------------------------
# 9 + 12. end-to-end theorem runs and determinism
# ---------------------------------------------------------------------------

FAMILY_ARGS = ["verify", "--random-family", "s=4 count=5 amplitude=0.08",
               "--form", "all", "--seed", "2026", "--levels", "3", "--m", "8"]


@pytest.fixture(scope="module")
def theorem_run(tmp_path_factory):
    """Exit code, report path, seconds and the level of every eigensolve."""
    path = tmp_path_factory.mktemp("verify") / "report_a.json"
    solved, eigensolve = [], fem2d.eigensolve

    def counting(system, m):
        solved.append(system.mesh.level)
        return eigensolve(system, m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fem2d, "eigensolve", counting)
        start = time.perf_counter()
        code = cli.main(FAMILY_ARGS + ["--json", str(path)])
        elapsed = time.perf_counter() - start
    return code, path, elapsed, solved


def test_acceptance_family_eigensolve_count(theorem_run):
    # a cost guard that does not vary with the machine: the 9 holed domains
    # PASS on the Ritz bound after levels 0-1, the 6 hole-free ones on
    # Richardson after levels 0-2
    _, path, _, solved = theorem_run
    assert len(solved) == 9 * 2 + 6 * 3 == 36
    for domain in json.loads(path.read_text())["domains"]:
        holed = domain["r1"] > 0
        assert [entry["level"] for entry in domain["fem"]["levels"]] == (
            [0, 1] if holed else [0, 1, 2])
        assert domain["decided_by"] == ("ritz_bound" if holed else "richardson")


def test_criterion_09_theorem_end_to_end(theorem_run):
    code, path, elapsed, _ = theorem_run
    report = json.loads(path.read_text())
    domains = report["domains"]
    taus = [d["tau"] for d in domains]
    all_pass = code == 0 and report["summary"]["fail"] == 0

    hole_kinds = {(d["form"], d["r1"] > 0) for d in domains}
    coverage = all((f.value, True) in hole_kinds and (f.value, False) in hole_kinds
                   for f in FORMS)

    equality_ok = True
    eq_details = []
    for form in FORMS:
        r2 = 1.2 if form is SpaceForm.SPHERICAL else 1.4
        spec = DomainSpec.exact_annulus(form, 2, 0.5, r2)
        v = fem2d.verify_theorem(spec)
        equality_ok &= v.passed and abs(min(v.margins)) <= v.tau
        eq_details.append(f"{form.value}: |margin| {abs(min(v.margins)):.1e} <= tau {v.tau:.1e}")

    # harmonic-mean corollary on every quarter-turn PASS case:
    # 1/mu_2 + 1/mu_3 >= 2/mu_2(shell) up to tau
    harmonic_ok = True
    for d in domains:
        mu2, mu3 = d["fem"]["extrapolated"][1], d["fem"]["extrapolated"][2]
        harmonic_ok &= (1.0 / mu2 + 1.0 / mu3
                        >= 2.0 / d["mu_annulus"] * (1.0 - d["tau"]))

    ok = (all_pass and coverage and max(taus) <= 5e-3 and equality_ok
          and harmonic_ok and elapsed < 300.0)
    verdict(9, "theorem end-to-end", ok,
            f"{report['summary']['pass']}/{report['summary']['total']} PASS, "
            f"max tau {max(taus):.2e} (<= 5e-3), holes+no-holes per form: {coverage}, "
            f"equality cases: {equality_ok}, harmonic-mean bound: {harmonic_ok}, "
            f"{elapsed:.0f} s")


def test_criterion_12_determinism(theorem_run, tmp_path):
    _, first_path, _, _ = theorem_run
    second_path = tmp_path / "report_b.json"
    code = cli.main(FAMILY_ARGS + ["--json", str(second_path)])
    identical = first_path.read_bytes() == second_path.read_bytes()
    verdict(12, "determinism", code == 0 and identical,
            f"re-run with the same seed byte-identical: {identical}")


# ---------------------------------------------------------------------------
# 10. multiplicity structure
# ---------------------------------------------------------------------------

def test_criterion_10_multiplicity_structure():
    structure_ok = True
    details = []
    for n, form in zip((2, 3, 4, 5), (FORMS * 2)):
        shell = spectrum.assemble(form, n, 0.4, 1.2, 4, 3,
                                  SolverConfig(grid_points=1024))
        second = shell.entries[1]
        values = shell.eigenvalues(n + 2)
        good = (second.k == 1 and second.j == 1
                and second.multiplicity == n == spectrum.harmonic_dim(n, 1)
                and len(set(values[1:n + 1])) == 1 and values[n + 1] > values[1])
        structure_ok &= good
        details.append(f"n={n}:{'ok' if good else 'BAD'}")

    dims_ok = all(spectrum.harmonic_dim(n, k) == oracles.harmonic_dim_bruteforce(n, k)
                  for n in range(2, 6) for k in range(7))
    verdict(10, "multiplicity structure", structure_ok and dims_ok,
            f"{', '.join(details)}; harmonic dims vs brute force (n<=5, k<=6): {dims_ok}")


# ---------------------------------------------------------------------------
# 11. warped-product profile equation
# ---------------------------------------------------------------------------

def test_criterion_11_warped_product():
    r = np.linspace(1e-3, 1.45, 1000)
    worst = 0.0
    for form in FORMS:
        h, dh, d2h = sf.radial_weight_functions(form)
        worst = max(worst, float(np.max(np.abs(
            sf.warped_product_residual(h, dh, d2h, r)))))
    counter = float(np.max(np.abs(sf.warped_product_residual(
        lambda x: x + x**3, lambda x: 1 + 3 * x**2, lambda x: 6 * x, r))))
    ok = worst <= 1e-9 and counter > 0.1
    verdict(11, "warped-product profile equation", ok,
            f"admitted weights residual {worst:.2e} (tol 1e-9), "
            f"counterexample reaches {counter:.2f} (> 0.1)")
