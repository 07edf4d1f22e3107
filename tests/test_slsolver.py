import json
import math

import numpy as np
import pytest

from spaceform_spectra import slsolver as sl
from spaceform_spectra.domains import extend_gk
from spaceform_spectra.slsolver import (
    SLProblem,
    SolverConfig,
    _pencil_rayleigh,
    discretize,
    locate_b,
    solve,
)
from spaceform_spectra.spaceform import GeometryError, SpaceForm, sin_m

import oracles

# the six reference configurations used throughout: (form, n, r1, r2)
CONFIGS = [
    (SpaceForm.SPHERICAL, 2, 0.3, 1.2),
    (SpaceForm.HYPERBOLIC, 2, 0.3, 1.2),
    (SpaceForm.EUCLIDEAN, 2, 0.3, 1.2),
    (SpaceForm.SPHERICAL, 3, 0.5, 1.5),
    (SpaceForm.HYPERBOLIC, 3, 0.5, 1.5),
    (SpaceForm.EUCLIDEAN, 3, 0.5, 1.5),
]


def fast_config(max_j=1, grid=512):
    return SolverConfig(grid_points=grid, richardson=True, max_j=max_j)


class TestProblemValidation:
    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            SLProblem("euclidean", 2, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            SLProblem("euclidean", 2, 0, -0.5, 1.0)

    def test_rejects_hemisphere_violation(self):
        with pytest.raises(GeometryError):
            SLProblem("spherical", 2, 0, 0.0, 2.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SolverConfig(grid_points=32)
        with pytest.raises(ValueError):
            SolverConfig(max_j=0)

    @pytest.mark.parametrize("richardson", [True, False])
    def test_more_pairs_than_active_nodes(self, richardson):
        # 64 cells: 65 nodes on the coarse grid, 129 on the fine one
        config = SolverConfig(grid_points=64, richardson=richardson, max_j=200)
        with pytest.raises(ValueError, match="active nodes"):
            solve(SLProblem("euclidean", 2, 0, 1.0, 2.0), config)


class TestDiscretize:
    def test_annulus_constant_mode_is_null(self):
        system = discretize(SLProblem("euclidean", 2, 0, 1.0, 2.0), 64)
        ones = np.ones(system.diag.size)
        ku = system.diag * ones
        ku[:-1] += system.offdiag
        ku[1:] += system.offdiag
        assert np.max(np.abs(ku)) < 1e-12
        vals, _ = sl._eigen_tridiagonal(system, 1)
        assert abs(vals[0]) < 1e-12

    def test_origin_condition_for_positive_modes(self):
        system = discretize(SLProblem("spherical", 2, 1, 0.0, math.pi / 2), 128)
        # node at r = 0 is eliminated: active range starts at index 1
        assert system.active_start == 1
        assert system.grid[0] == 0.0

    def test_origin_kept_for_mode_zero(self):
        system = discretize(SLProblem("euclidean", 2, 0, 0.0, 1.0), 128)
        assert system.active_start == 0
        assert system.mass[0] > 0.0

    def test_dirichlet_eliminates_boundaries(self):
        system = discretize(SLProblem("euclidean", 2, 0, 1.0, 2.0, "dirichlet"), 64)
        assert system.active_start == 1 and system.active_stop == 64

    def test_second_order_convergence(self):
        ref = oracles.first_bessel_derivative_zero(1) ** 2
        errors = []
        for grid in (64, 128, 256):
            cfg = SolverConfig(grid_points=grid, richardson=False, max_j=1)
            mu = solve(SLProblem("euclidean", 2, 1, 0.0, 1.0), cfg)[0].eigenvalue
            errors.append(abs(mu - ref))
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        assert all(abs(r - 4.0) < 0.6 for r in ratios)

    @pytest.mark.parametrize("problem", [
        SLProblem("hyperbolic", 3, 2, 0.5, 1.5),
        SLProblem("spherical", 2, 0, 0.3, 1.2, "dirichlet"),
    ])
    def test_second_order_against_fine_grid_reference(self, problem):
        # error measured against the 4x grid as the reference solution
        ref = solve(problem, SolverConfig(grid_points=1024, richardson=False,
                                          max_j=1))[0].eigenvalue
        errors = [abs(solve(problem, SolverConfig(grid_points=g, richardson=False,
                                                  max_j=1))[0].eigenvalue - ref)
                  for g in (128, 256)]
        assert abs(errors[0] / errors[1] - 4.0) < 0.6


class TestSolveAgainstClosedForms:
    def test_hemisphere_mode_one(self):
        # u = sin r solves the k=1 problem on [0, pi/2] with eigenvalue 2
        mu = solve(SLProblem("spherical", 2, 1, 0.0, math.pi / 2),
                   SolverConfig(max_j=1))[0].eigenvalue
        assert mu == pytest.approx(2.0, abs=1e-6)

    def test_disk_neumann_bessel(self):
        mu = solve(SLProblem("euclidean", 2, 1, 0.0, 1.0),
                   SolverConfig(max_j=1))[0].eigenvalue
        assert mu == pytest.approx(oracles.first_bessel_derivative_zero(1) ** 2, abs=1e-5)

    def test_disk_dirichlet_bessel(self):
        lam = solve(SLProblem("euclidean", 2, 0, 0.0, 1.0, "dirichlet"),
                    SolverConfig(max_j=1))[0].eigenvalue
        assert lam == pytest.approx(oracles.first_bessel_zero(0) ** 2, abs=1e-5)

    def test_disk_higher_dirichlet_modes(self):
        # lambda_{k,1} = j_{k,1}^2 for the unit disk
        for k in (1, 2):
            lam = solve(SLProblem("euclidean", 2, k, 0.0, 1.0, "dirichlet"),
                        SolverConfig(grid_points=1024, max_j=1))[0].eigenvalue
            assert lam == pytest.approx(oracles.first_bessel_zero(k) ** 2, rel=1e-7)


class TestPrefixStability:
    # certify_lemmas reuses the pairs assemble solved with a larger max_j,
    # so the first j values must not depend on how many more were asked for
    @pytest.mark.parametrize("form,n,r1,r2",
                             CONFIGS + [(SpaceForm.EUCLIDEAN, 2, 1.0, 2.0)])
    def test_first_values_independent_of_max_j(self, form, n, r1, r2):
        j = 4
        for bc in ("neumann", "dirichlet"):
            for k in (0, 1, 3):
                problem = SLProblem(form, n, k, r1, r2, bc)
                few = [p.eigenvalue for p in solve(problem, SolverConfig(max_j=j))]
                more = [p.eigenvalue for p in solve(problem, SolverConfig(max_j=j + 2))]
                assert few == pytest.approx(more[:j], rel=1e-12, abs=1e-12)


@pytest.fixture(scope="module")
def hyperbolic_pairs():
    return solve(SLProblem("hyperbolic", 2, 1, 0.3, 1.2),
                 SolverConfig(grid_points=1024, max_j=6))


def stored_rayleigh(pair):
    """Rayleigh quotient of the stored eigenvector on a pencil rebuilt at its grid."""
    system = discretize(pair.problem, pair.grid.size - 1)
    u = pair.values[system.active_start:system.active_stop]
    return float(_pencil_rayleigh(system, u[:, None])[0])


class TestEigenpairStructure:
    def test_eigenvalues_strictly_increasing(self, hyperbolic_pairs):
        vals = [p.eigenvalue for p in hyperbolic_pairs]
        assert all(b - a > 1e-8 for a, b in zip(vals, vals[1:]))

    def test_node_counts(self, hyperbolic_pairs):
        for p in hyperbolic_pairs:
            assert p.sign_changes() == p.j - 1

    def test_normalization(self, hyperbolic_pairs):
        for p in hyperbolic_pairs:
            w = sin_m(p.problem.form, p.grid) ** (p.problem.n - 1)
            integral = np.trapezoid(p.values**2 * w, p.grid)
            assert integral == pytest.approx(1.0, rel=1e-3)
            assert p.values[-1] > 0

    def test_rayleigh_consistency(self, hyperbolic_pairs):
        for p in hyperbolic_pairs:
            assert stored_rayleigh(p) == pytest.approx(p.eigenvalue_grid, rel=1e-9)

    def test_rayleigh_consistency_across_configs(self):
        for form, n, r1, r2 in CONFIGS:
            for k in (0, 2):
                pairs = solve(SLProblem(form, n, k, r1, r2), fast_config(max_j=2))
                for p in pairs:
                    if p.eigenvalue_grid > 1e-8:
                        assert stored_rayleigh(p) == pytest.approx(p.eigenvalue_grid, rel=1e-9)


class TestInterlacing:
    @pytest.mark.parametrize("form,n,r1,r2", CONFIGS)
    def test_monotone_in_k_and_neumann_below_dirichlet(self, form, n, r1, r2):
        cfg = fast_config(max_j=4)
        neumann = {k: solve(SLProblem(form, n, k, r1, r2), cfg) for k in range(6)}
        dirichlet = {k: solve(SLProblem(form, n, k, r1, r2, "dirichlet"), cfg)
                     for k in range(5)}
        for k in range(5):
            for j in range(4):
                if k < 5:
                    assert (neumann[k + 1][j].eigenvalue
                            - neumann[k][j].eigenvalue) > 1e-8
                assert (dirichlet[k][j].eigenvalue
                        - neumann[k][j].eigenvalue) > 1e-8


class TestNeumannDirichletBridge:
    @pytest.mark.parametrize("form,n,r1,r2", CONFIGS[:3])
    def test_shifted_equality(self, form, n, r1, r2):
        cfg_n = fast_config(max_j=6, grid=1024)
        cfg_d = fast_config(max_j=5, grid=1024)
        mu0 = [p.eigenvalue for p in solve(SLProblem(form, n, 0, r1, r2), cfg_n)]
        lam1 = [p.eigenvalue for p in
                solve(SLProblem(form, n, 1, r1, r2, "dirichlet"), cfg_d)]
        for j in range(5):
            assert abs(mu0[j + 1] - lam1[j]) < 1e-6


class TestLowestPair:
    @pytest.mark.parametrize("form,n,r1,r2", CONFIGS)
    def test_locate_b_interior_and_residual(self, form, n, r1, r2):
        for k in (1, 2, 3):
            problem = SLProblem(form, n, k, r1, r2)
            pair = solve(problem, fast_config())[0]
            b = locate_b(pair)
            assert r1 < b < r2
            resid = abs(pair.eigenvalue
                        - problem.angular_eigenvalue / sin_m(form, b) ** 2)
            assert resid <= 1e-9 * pair.eigenvalue

    def test_locate_b_euclidean_closed_form(self):
        problem = SLProblem("euclidean", 2, 1, 1.0, 2.0)
        pair = solve(problem, fast_config())[0]
        assert locate_b(pair) == pytest.approx(1.0 / math.sqrt(pair.eigenvalue), rel=1e-12)

    def test_locate_b_spherical_closed_form(self):
        problem = SLProblem("spherical", 2, 1, 0.3, 1.2)
        pair = solve(problem, fast_config())[0]
        assert locate_b(pair) == pytest.approx(
            math.asin(math.sqrt(1.0 / pair.eigenvalue)), rel=1e-12)

    def test_locate_b_preconditions(self):
        problem = SLProblem("euclidean", 2, 0, 1.0, 2.0)
        pair = solve(problem, fast_config())[0]
        with pytest.raises(ValueError):
            locate_b(pair)
        ball = SLProblem("euclidean", 2, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            locate_b(solve(ball, fast_config())[0])

    @pytest.mark.parametrize("form,n,r1,r2", CONFIGS)
    def test_strictly_increasing_on_the_annulus(self, form, n, r1, r2):
        for k in (1, 2, 3):
            pair = solve(SLProblem(form, n, k, r1, r2), fast_config())[0]
            assert np.min(np.diff(pair.values)) > 0.0

    @pytest.mark.parametrize("form,n,r1,r2", CONFIGS)
    def test_pointwise_comparison_bound(self, form, n, r1, r2):
        for k in (1, 2, 3):
            problem = SLProblem(form, n, k, r1, r2)
            pair = solve(problem, fast_config())[0]
            pot = problem.angular_eigenvalue / sin_m(form, pair.grid) ** 2
            lhs = (pot - pair.eigenvalue) * pair.values**2
            rhs = lhs[-1]
            assert np.min(lhs - rhs) >= -1e-10 * max(1.0, abs(rhs))


@pytest.fixture(scope="module")
def gk():
    problem = SLProblem("euclidean", 2, 1, 1.0, 2.0)
    pair = solve(problem, fast_config(grid=1024))[0]
    return pair, extend_gk(pair)


class TestExtendGk:
    def test_continuity_at_outer_radius(self, gk):
        pair, g = gk
        assert g.value(2.0) == pytest.approx(pair.values[-1], abs=1e-12)
        assert g.value(2.7) == pair.values[-1]

    def test_derivative_beyond_outer_radius(self, gk):
        _, g = gk
        assert g.derivative(2.3) == 0.0
        # Neumann pair: derivative vanishes at the outer radius too
        assert abs(g.derivative(2.0)) < 1e-12

    def test_interpolation_hits_nodes(self, gk):
        pair, g = gk
        idx = pair.grid.size // 2
        assert g.value(pair.grid[idx]) == pytest.approx(pair.values[idx], abs=1e-14)
        mid = 0.5 * (pair.grid[idx] + pair.grid[idx + 1])
        lo, hi = sorted((pair.values[idx], pair.values[idx + 1]))
        assert lo - 1e-6 <= g.value(mid) <= hi + 1e-6

    def test_query_below_inner_radius(self, gk):
        _, g = gk
        with pytest.raises(GeometryError):
            g.value(0.5)

    def test_requires_neumann_lowest_pair(self):
        problem = SLProblem("euclidean", 2, 1, 1.0, 2.0, "dirichlet")
        pair = solve(problem, fast_config())[0]
        with pytest.raises(ValueError):
            extend_gk(pair)


class TestWireFormats:
    def test_problem_round_trip(self):
        problem = SLProblem("hyperbolic", 3, 2, 0.5, 1.5, "dirichlet")
        config = SolverConfig(grid_points=256, max_j=3)
        data = sl.problem_to_dict(problem, config)
        back_problem, back_config = sl.problem_from_dict(json.loads(json.dumps(data)))
        assert back_problem == problem
        assert back_config == config

    def test_absent_settings_take_solver_defaults(self):
        _, config = sl.problem_from_dict({"form": "euclidean", "n": 2, "k": 0,
                                          "r1": 0.0, "r2": 1.0})
        assert config == SolverConfig()

    @pytest.mark.parametrize("values", [{"k": 1.7}, {"k": True}, {"r2": "1"},
                                        {"r1": False}, {"richardson": "false"},
                                        {"richardson": 1}, {"max_j": 2.9},
                                        {"grid_points": "512"}])
    def test_rejects_values_of_the_wrong_json_kind(self, values):
        data = {"form": "euclidean", "n": 2, "k": 0, "r1": 0.0, "r2": 1.0, **values}
        with pytest.raises(ValueError, match=next(iter(values))):
            sl.problem_from_dict(data)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            sl.problem_from_dict({"form": "euclidean", "n": 2, "k": 0,
                                  "r1": 0.0, "r2": 1.0, "wavelength": 7})

    def test_pairs_json_and_csv(self):
        pairs = solve(SLProblem("euclidean", 2, 1, 1.0, 2.0), fast_config(max_j=2, grid=128))
        blob = json.loads(json.dumps(sl.pairs_to_dicts(pairs)))
        assert [e["j"] for e in blob] == [1, 2]
        assert len(blob[0]["grid"]) == len(blob[0]["values"]) == 257
