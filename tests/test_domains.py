import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize
from scipy.interpolate import CubicSpline

from spaceform_spectra import domains as dm
from spaceform_spectra import fem2d, slsolver
from spaceform_spectra import spaceform as sf
from spaceform_spectra.domains import (
    DomainSpec,
    FourierProfile,
    QuadratureGrid,
    RadialTestFunction,
    SphereProfile,
    SymmetryError,
    SymmetryOrder,
    VolumeMismatchError,
)
from spaceform_spectra.slsolver import SLProblem, SolverConfig
from spaceform_spectra.spaceform import GeometryError

import oracles

ONE = RadialTestFunction.constant(1.0)
GAUSS = RadialTestFunction(lambda r: np.exp(-0.5 * r**2),
                           lambda r: -r * np.exp(-0.5 * r**2))


def relative_moment(grid, g, powers):
    signed = dm.integrate_moment(grid, g, powers)
    scale = dm.integrate_moment(grid, g, powers, absolute=True)
    return abs(signed) / max(scale, 1e-300)


class TestSpecValidation:
    def test_accepts_symmetric_fourier(self):
        spec = DomainSpec("euclidean", 2, SymmetryOrder.ORDER4,
                          FourierProfile(1.2, ((4, 0.05, -0.02),)),
                          FourierProfile(0.5, ((8, 0.01, 0.0),)))
        assert spec.has_hole

    def test_rejects_wrong_symmetry(self):
        with pytest.raises(SymmetryError):
            DomainSpec("euclidean", 2, SymmetryOrder.ORDER4,
                       FourierProfile(1.2, ((3, 0.05, 0.0),)))

    def test_rejects_hemisphere_violation(self):
        with pytest.raises(GeometryError):
            DomainSpec("spherical", 2, SymmetryOrder.ORDER4, FourierProfile(1.6))

    def test_rejects_crossing_boundaries(self):
        with pytest.raises(ValueError):
            DomainSpec("euclidean", 2, SymmetryOrder.NONE,
                       FourierProfile(1.0), FourierProfile(1.1))

    def test_sphere_profile_symmetries(self):
        DomainSpec("hyperbolic", 3, SymmetryOrder.ORDER4,
                   SphereProfile(1.1, (("quartic_axes", 0.05),)))
        DomainSpec("hyperbolic", 3, SymmetryOrder.ORDER2,
                   SphereProfile(1.1, (("axis2_1", 0.05), ("odd_prod", 0.03))))
        with pytest.raises(SymmetryError):
            DomainSpec("hyperbolic", 3, SymmetryOrder.ORDER4,
                       SphereProfile(1.1, (("axis2_1", 0.05),)))
        with pytest.raises(SymmetryError):
            DomainSpec("hyperbolic", 3, SymmetryOrder.CENTRAL,
                       SphereProfile(1.1, (("odd_prod", 0.05),)))


class TestQuadratureVolume:
    @pytest.mark.parametrize("form", ["euclidean", "spherical", "hyperbolic"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_annulus_matches_closed_form(self, form, n):
        r2 = 1.2 if form != "spherical" else 1.1
        spec = DomainSpec.exact_annulus(form, n, 0.4, r2)
        grid = QuadratureGrid.for_spec(spec)
        expected = sf.annulus_volume(form, n, 0.4, r2)
        assert dm.volume(grid) == pytest.approx(expected, rel=1e-10)

    def test_unit_disk(self):
        spec = DomainSpec.exact_annulus("euclidean", 2, 0.0, 1.0)
        grid = QuadratureGrid.for_spec(spec)
        assert dm.volume(grid) == pytest.approx(math.pi, rel=1e-12)

    def test_weights_positive(self):
        spec = dm.random_spec(np.random.default_rng(1), "hyperbolic", 3,
                              SymmetryOrder.ORDER4)
        grid = QuadratureGrid.for_spec(spec)
        assert np.all(grid.weight > 0)

    def test_self_convergence_under_order_doubling(self):
        spec = dm.random_spec(np.random.default_rng(2), "spherical", 2,
                              SymmetryOrder.ORDER4, amplitude=0.08)
        coarse = dm.volume(QuadratureGrid.for_spec(spec, 32, 128))
        fine = dm.volume(QuadratureGrid.for_spec(spec, 64, 256))
        assert abs(fine - coarse) / fine < 1e-9

    def test_error_drops_fast_when_doubling_low_orders(self):
        # Gauss rate on an analytic boundary: doubling the order from a
        # deliberately coarse grid gains three orders of magnitude or more
        spec = dm.random_spec(np.random.default_rng(4), "hyperbolic", 2,
                              SymmetryOrder.ORDER4, amplitude=0.08)
        reference = dm.volume(QuadratureGrid.for_spec(spec, 64, 512))
        err_low = abs(dm.volume(QuadratureGrid.for_spec(spec, 3, 16)) - reference)
        err_high = abs(dm.volume(QuadratureGrid.for_spec(spec, 6, 32)) - reference)
        assert err_low >= 1e3 * err_high


def class_specs(symmetry, count, seed):
    """Randomized specs of one symmetry class across forms and dimensions."""
    rng = np.random.default_rng(seed)
    specs = []
    forms = ["euclidean", "spherical", "hyperbolic"]
    for idx in range(count):
        n = 2 if symmetry is not SymmetryOrder.ORDER2 and idx % 2 == 0 else 3
        if symmetry is SymmetryOrder.ORDER2:
            n = 3  # the order-2 assertions require n >= 3
        specs.append(dm.random_spec(rng, forms[idx % 3], n, symmetry,
                                    amplitude=0.07, with_hole=idx % 2 == 0))
    return specs


class TestOrthogonality:
    def test_central_odd_moments_vanish(self):
        for spec in class_specs(SymmetryOrder.CENTRAL, 6, 101):
            grid = QuadratureGrid.for_spec(spec)
            n = spec.n
            for g in (ONE, GAUSS):
                for m in (0, 1):
                    powers = [0] * n
                    powers[0], powers[1] = 1, 2 * m
                    assert relative_moment(grid, g, powers) <= 1e-10
                for m in (0, 1, 2):
                    powers = [0] * n
                    powers[-1] = 2 * m + 1
                    assert relative_moment(grid, g, powers) <= 1e-10

    def test_order2_mixed_moments_vanish(self):
        for spec in class_specs(SymmetryOrder.ORDER2, 6, 202):
            grid = QuadratureGrid.for_spec(spec)
            for g in (ONE, GAUSS):
                for m in (0, 1, 2, 3):
                    assert relative_moment(grid, g, (1, m, 0)) <= 1e-10
                    assert relative_moment(grid, g, (0, 1, m)) <= 1e-10
                assert relative_moment(grid, g, (0, 0, 3)) <= 1e-10

    def test_order4_cross_and_equal_moments(self):
        for spec in class_specs(SymmetryOrder.ORDER4, 6, 303):
            grid = QuadratureGrid.for_spec(spec)
            n = spec.n
            for i in range(n):
                for j in range(i + 1, n):
                    powers = [0] * n
                    powers[i] = powers[j] = 1
                    assert relative_moment(grid, ONE, powers) <= 1e-10
            for power in (2, 4):
                vals = [dm.integrate_moment(grid, GAUSS,
                                            [power if a == i else 0 for a in range(n)])
                        for i in range(n)]
                assert (max(vals) - min(vals)) / abs(vals[0]) <= 1e-10

    def test_order4_gradient_cross_terms_vanish(self):
        for spec in class_specs(SymmetryOrder.ORDER4, 4, 404):
            grid = QuadratureGrid.for_spec(spec)
            signed = dm.grad_pair_integral(grid, GAUSS, 1, 2)
            scale = dm.grad_pair_integral(grid, GAUSS, 1, 2, absolute=True)
            assert abs(signed) / scale <= 1e-10

    def test_negative_control_asymmetric_domain(self):
        spec = DomainSpec("euclidean", 2, SymmetryOrder.NONE,
                          FourierProfile(1.0, ((1, 0.05, 0.0),)))
        grid = QuadratureGrid.for_spec(spec)
        assert relative_moment(grid, ONE, (1, 0)) >= 1e-3

    def test_negative_control_3d(self):
        spec = DomainSpec("hyperbolic", 3, SymmetryOrder.NONE,
                          SphereProfile(1.0, (("dipole_2", 0.05),)))
        grid = QuadratureGrid.for_spec(spec)
        assert relative_moment(grid, ONE, (0, 1, 0)) >= 1e-3


def chart_coords_fn(n):
    """X_i(r, angles) through the chart map, for the FD oracle."""
    def x_i(i):
        def fn(r, angles):
            return sf.to_normal_coords(sf.GeodesicPoint(r, tuple(angles)))[i]
        return fn
    return [x_i(i) for i in range(n)]


class TestGradientIdentities:
    G = staticmethod(lambda r: math.exp(-r) * (1.0 + 0.3 * r * r))
    DG = staticmethod(lambda r: math.exp(-r) * (0.6 * r - 1.0 - 0.3 * r * r))

    @pytest.mark.parametrize("form", ["spherical", "euclidean", "hyperbolic"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_cross_gradient_formula_vs_fd(self, form, n):
        rng = np.random.default_rng(99)
        xs = chart_coords_fn(n)
        for _ in range(25):
            r = rng.uniform(0.1, 1.4)
            angles = [rng.uniform(0.3, math.pi - 0.3) for _ in range(n - 2)]
            angles.append(rng.uniform(0.1, 2 * math.pi - 0.1))
            i, j = (0, 1) if n == 2 else tuple(rng.choice(n, 2, replace=False))
            i, j = int(min(i, j)), int(max(i, j))

            def f(rr, aa, idx=i):
                return self.G(rr) * xs[idx](rr, aa)

            def g(rr, aa, idx=j):
                return self.G(rr) * xs[idx](rr, aa)

            fd = oracles.metric_grad_inner_fd(form, f, g, r, angles)
            x = sf.to_normal_coords(sf.GeodesicPoint(r, tuple(angles)))
            gv, gd = self.G(r), self.DG(r)
            sm = sf.sin_m(form, r)
            closed = ((r * gd + gv) ** 2 / r**2 - gv**2 / sm**2) * x[i] * x[j]
            scale = abs(closed) + abs(fd) + 1e-3
            assert abs(fd - closed) / scale < 1e-6

    @pytest.mark.parametrize("form", ["spherical", "euclidean", "hyperbolic"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_normalized_gradient_norm_vs_fd(self, form, n):
        rng = np.random.default_rng(7)
        xs = chart_coords_fn(n)
        for _ in range(25):
            r = rng.uniform(0.1, 1.4)
            angles = [rng.uniform(0.3, math.pi - 0.3) for _ in range(n - 2)]
            angles.append(rng.uniform(0.1, 2 * math.pi - 0.1))
            i = int(rng.integers(0, n))

            def f(rr, aa, idx=i):
                return self.G(rr) * xs[idx](rr, aa) / rr

            fd = oracles.metric_grad_inner_fd(form, f, f, r, angles)
            x = sf.to_normal_coords(sf.GeodesicPoint(r, tuple(angles)))
            gv, gd = self.G(r), self.DG(r)
            ratio2 = (x[i] / r) ** 2
            closed = gd**2 * ratio2 + gv**2 / sf.sin_m(form, r) ** 2 * (1 - ratio2)
            assert abs(fd - closed) / (abs(closed) + 1e-3) < 1e-6

    @pytest.mark.parametrize("form", ["spherical", "euclidean", "hyperbolic"])
    def test_grad_pair_integral_sums_the_fd_integrand(self, form):
        # an asymmetric holed domain, so the X_1 X_2 integral does not vanish
        spec = DomainSpec(form, 2, SymmetryOrder.NONE,
                          FourierProfile(1.1, ((1, 0.05, 0.0), (2, 0.0, 0.15))),
                          FourierProfile(0.4))
        grid = QuadratureGrid.for_spec(spec, 8, 32)
        xs = chart_coords_fn(2)

        def gauss_x(idx):
            return lambda rr, aa: math.exp(-0.5 * rr**2) * xs[idx](rr, aa)

        total = 0.0
        for w, r, x1, x2 in zip(grid.weight, grid.radius, *grid.coords):
            total += w * oracles.metric_grad_inner_fd(
                form, gauss_x(0), gauss_x(1), r, [math.atan2(x2, x1)])
        assert total == pytest.approx(dm.grad_pair_integral(grid, GAUSS, 1, 2), rel=1e-8)

    def test_euclidean_coordinate_functions(self):
        # G(r) = r: sum of |grad X_i|^2 over i equals the dimension
        for n in (2, 3):
            xs = chart_coords_fn(n)
            total = 0.0
            angles = [0.9] * (n - 2) + [1.3]
            for i in range(n):
                total += oracles.metric_grad_inner_fd(
                    "euclidean", lambda r, a, idx=i: xs[idx](r, a),
                    lambda r, a, idx=i: xs[idx](r, a), 0.8, angles)
            assert total == pytest.approx(n, rel=1e-9)


@pytest.fixture(scope="module")
def shell_grid():
    return QuadratureGrid.for_spec(DomainSpec.exact_annulus("spherical", 2, 0.35, 1.1))


class TestRayleighBound:
    @pytest.mark.parametrize("form", ["euclidean", "spherical", "hyperbolic"])
    def test_equality_on_exact_annuli(self, form):
        r2 = 1.2 if form != "spherical" else 1.1
        spec = DomainSpec.exact_annulus(form, 2, 0.4, r2)
        grid = QuadratureGrid.for_spec(spec)
        r1, r2m = dm.matched_annulus(grid)
        for k in (1, 2, 3):
            pair = slsolver.solve(SLProblem(form, 2, k, r1, r2m),
                                  SolverConfig(max_j=1))[0]
            quotient = dm.rayleigh_gk(grid, pair)
            assert quotient == pytest.approx(pair.eigenvalue, rel=1e-8)

    def test_strict_inequality_on_perturbation(self):
        spec = DomainSpec("euclidean", 2, SymmetryOrder.ORDER4,
                          FourierProfile(1.3, ((4, 0.05, 0.02),)),
                          FourierProfile(0.6, ((4, -0.02, 0.03),)))
        grid = QuadratureGrid.for_spec(spec)
        r1, r2 = dm.matched_annulus(grid)
        pair = slsolver.solve(SLProblem("euclidean", 2, 1, r1, r2),
                              SolverConfig(max_j=1))[0]
        quotient = dm.rayleigh_gk(grid, pair)
        assert quotient < pair.eigenvalue

    def test_ball_like_domain(self):
        spec = DomainSpec("hyperbolic", 2, SymmetryOrder.ORDER4,
                          FourierProfile(1.0, ((4, 0.04, 0.0),)))
        grid = QuadratureGrid.for_spec(spec)
        r1, r2 = dm.matched_annulus(grid)
        assert r1 == 0.0
        pair = slsolver.solve(SLProblem("hyperbolic", 2, 1, 0.0, r2),
                              SolverConfig(max_j=1))[0]
        quotient = dm.rayleigh_gk(grid, pair)
        assert quotient <= pair.eigenvalue * (1 + 1e-10)

    @pytest.mark.parametrize("pair_change,problem_change,message", [
        ({}, {"k": 0}, "need the (k, 1) Neumann pair with k >= 1"),
        ({"j": 2}, {}, "need the (k, 1) Neumann pair with k >= 1"),
        ({}, {"bc": "dirichlet"}, "need the (k, 1) Neumann pair with k >= 1"),
        ({}, {"form": "hyperbolic"}, "pair and domain live on different spaces"),
        ({}, {"n": 3}, "pair and domain live on different spaces"),
    ], ids=["mode-0", "second-pair", "dirichlet", "other-form", "other-dimension"])
    def test_pair_of_another_problem_refused(self, shell_grid, pair_change, problem_change,
                                             message):
        r1, r2 = dm.matched_annulus(shell_grid)
        pair = slsolver.solve(SLProblem("spherical", 2, 1, r1, r2), SolverConfig(max_j=1))[0]
        bad = dataclasses.replace(pair, **pair_change,
                                  problem=dataclasses.replace(pair.problem, **problem_change))
        with pytest.raises(ValueError) as info:
            dm.rayleigh_gk(shell_grid, bad)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_hole_free_domain_refuses_a_shell(self, shell_grid):
        r1, r2 = dm.matched_annulus(shell_grid)
        pair = slsolver.solve(SLProblem("spherical", 2, 1, r1, r2), SolverConfig(max_j=1))[0]
        ball = QuadratureGrid.for_spec(DomainSpec.exact_annulus("spherical", 2, 0.0, 1.1))
        with pytest.raises(VolumeMismatchError,
                           match="^hole-free domain needs an r1 = 0 comparison ball$"):
            dm.rayleigh_gk(ball, pair)

    def test_volume_mismatch_rejected(self, shell_grid):
        bad = slsolver.solve(SLProblem("spherical", 2, 1, 0.35, 1.05),
                             SolverConfig(max_j=1, grid_points=256))[0]
        with pytest.raises(VolumeMismatchError):
            dm.rayleigh_gk(shell_grid, bad)

    def test_inner_ball_must_fit_the_hole(self, shell_grid):
        target = dm.volume(shell_grid)
        r1_bad = 0.5  # pokes out of the hole (inf rho_in = 0.35)
        r2_bad = sf.match_outer_radius("spherical", 2, r1_bad, target)
        bad = slsolver.solve(SLProblem("spherical", 2, 1, r1_bad, r2_bad),
                             SolverConfig(max_j=1, grid_points=256))[0]
        with pytest.raises(VolumeMismatchError):
            dm.rayleigh_gk(shell_grid, bad)


class TestWireFormat:
    def test_round_trip(self):
        spec = DomainSpec("spherical", 2, SymmetryOrder.ORDER4,
                          FourierProfile(1.1, ((4, 0.03, -0.01),)),
                          FourierProfile(0.45, ((8, 0.005, 0.0),)))
        blob = json.dumps(dm.spec_to_dict(spec), sort_keys=True)
        back = dm.spec_from_dict(json.loads(blob))
        assert back == spec

    @pytest.mark.parametrize("symmetry", [SymmetryOrder.ORDER4, SymmetryOrder.ORDER2,
                                          SymmetryOrder.CENTRAL])
    @pytest.mark.parametrize("form", ["euclidean", "spherical", "hyperbolic"])
    @pytest.mark.parametrize("seed", [2026, 7])
    def test_family_domains_survive_the_wire(self, seed, form, symmetry):
        # the spec files `sfs verify --spec` reads are written this way
        specs = dm.random_family(seed, form, symmetry=symmetry, count=2)
        assert [spec.has_hole for spec in specs] == [True, False]
        for spec in specs:
            blob = json.dumps(dm.spec_to_dict(spec), sort_keys=True)
            back = dm.spec_from_dict(json.loads(blob))
            assert back == spec
            assert fem2d.spec_hash(back) == fem2d.spec_hash(spec)

    def test_readme_domain_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        spec = dm.spec_from_dict(json.loads(block))
        assert spec.has_hole and spec.symmetry_order is SymmetryOrder.ORDER4

    def test_rejects_incompatible_harmonics(self):
        data = {"form": "euclidean", "n": 2, "symmetry_order": "order4",
                "rho_out": {"base": 1.0, "harmonics": [{"m": 6, "a": 0.02, "b": 0.0}]},
                "rho_in": None}
        with pytest.raises(ValueError, match="incompatible"):
            dm.spec_from_dict(data)

    def test_rejects_non_planar(self):
        with pytest.raises(ValueError):
            dm.spec_from_dict({"n": 3, "form": "euclidean",
                               "symmetry_order": "order4",
                               "rho_out": {"base": 1.0}})


class TestMatchedAnnulus:
    def test_exact_annulus_is_its_own_match(self):
        spec = DomainSpec.exact_annulus("euclidean", 2, 0.7, 1.6)
        grid = QuadratureGrid.for_spec(spec)
        r1, r2 = dm.matched_annulus(grid)
        assert r1 == pytest.approx(0.7, abs=1e-10)
        assert r2 == pytest.approx(1.6, abs=1e-9)

    def test_extrema_refinement(self):
        spec = DomainSpec("euclidean", 2, SymmetryOrder.ORDER4, FourierProfile(2.0),
                          FourierProfile(1.0, ((4, 0.05, 0.0),)))
        assert dm.inner_infimum(spec) == pytest.approx(0.95, abs=1e-10)

    def test_extrema_refinement_3d(self):
        spec = DomainSpec("euclidean", 3, SymmetryOrder.ORDER4, SphereProfile(2.0),
                          SphereProfile(1.0, (("quartic_axes", 0.05),)))
        # quartic term ranges over [-0.8/3, 0.4] times the coefficient
        assert dm.inner_infimum(spec) == pytest.approx(1.0 - 0.05 * 0.8 / 3.0, abs=1e-8)


class TestScipyFreeNumerics:
    """The minimiser and the spline that stand in for scipy's."""

    @staticmethod
    def _holed_family_domains():
        for seed in range(6):
            for form in ("euclidean", "spherical", "hyperbolic"):
                for symmetry in (SymmetryOrder.ORDER4, SymmetryOrder.ORDER2,
                                 SymmetryOrder.CENTRAL):
                    yield from (spec for spec in dm.random_family(
                        seed, form, symmetry=symmetry, count=3, amplitude=0.25)
                        if spec.has_hole)

    def test_inner_infimum_is_scipy_bounded_brent_bitwise(self):
        """r1 of every matched shell comes from ``inner_infimum``, and moving
        a shell radius by a few ulps moves the published mu_k1 by up to
        4.7e-9, past the 1e-9 shell tolerance of perfbench's output check,
        so the value must equal scipy's exactly, not approximately."""
        specs = list(self._holed_family_domains())
        assert len(specs) == 108
        for spec in specs:
            profile = spec.rho_in
            theta = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
            t0 = theta[int(np.argmin(profile.at_theta(theta)))]
            w = 2 * math.pi / 4096 * 4
            res = optimize.minimize_scalar(
                lambda t: float(profile.at_theta(np.array([t]))[0]),
                bounds=(t0 - w, t0 + w), method="bounded", options={"xatol": 1e-12})
            assert dm.inner_infimum(spec) == res.fun

    @pytest.mark.parametrize("form", ["euclidean", "spherical", "hyperbolic"])
    @pytest.mark.parametrize("r1", [0.0, 0.4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cubic_spline_matches_scipy(self, form, r1, k):
        problem = SLProblem(form, 2, k, r1, 1.3)
        (pair,) = slsolver.solve(problem, SolverConfig(max_j=1))
        clamped = problem.has_inner_boundary or k >= 2
        ref = CubicSpline(pair.grid, pair.values,
                          bc_type=((1, 0.0) if clamped else "not-a-knot", (1, 0.0)))
        evaluate = dm._cubic_spline(pair.grid, pair.values, clamped)
        r = np.concatenate([np.random.default_rng(k).uniform(r1, 1.3, 400),
                            pair.grid, [r1, 1.3]])
        value, derivative = evaluate(r)
        for ours, theirs, tol in ((value, ref(r), 1e-15),
                                  (derivative, ref(r, 1), 1e-14)):
            assert np.max(np.abs(ours - theirs)) <= tol * np.max(np.abs(theirs))

    @pytest.mark.parametrize("r1,r2,cells", [(0.0, 1.3, 4096), (0.4, 1.3, 2048),
                                             (0.5, 0.501, 64)])
    def test_uniform_piece_is_the_searchsorted_piece(self, r1, r2, cells):
        x = slsolver.discretize(SLProblem("euclidean", 2, 1, r1, r2), cells).grid
        r = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                            0.5 * (x[:-1] + x[1:]),
                            np.random.default_rng(cells).uniform(r1, r2, 1000),
                            [r1 - 1.0, r2 + 1.0]])
        expected = np.clip(np.searchsorted(x, r, side="right") - 1, 0, cells - 1)
        assert np.array_equal(dm._uniform_piece(x, r), expected)
