import dataclasses
import json
import math
import warnings

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
    @pytest.mark.parametrize("form,n,k,r1,r2,message", [
        ("euclidean", 2, 1, 1e-300, 1.0,
         "potential k(k+n-2)/sin_m(r1)^2 = inf at r1 = 1e-300 is not a finite double"),
        ("euclidean", 2, 1, 1e-160, 1.0,
         "potential k(k+n-2)/sin_m(r1)^2 = inf at r1 = 1e-160 is not a finite double"),
        ("euclidean", 3, 0, 1e-300, 1.0,
         "weight sin_m(r)^(n-1) = 0 at r = 1e-300 is not a positive finite double"),
        ("hyperbolic", 3, 1, 0.5, 400.0,
         "weight sin_m(r)^(n-1) = inf at r = 400 is not a positive finite double"),
    ], ids=["potential-inf", "potential-denormal", "weight-zero", "weight-inf"])
    def test_rejects_terms_outside_the_doubles(self, form, n, k, r1, r2, message):
        # refused with the term named, and with no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                SLProblem(form, n, k, r1, r2)
        assert str(info.value) == message

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

    @pytest.mark.parametrize("richardson,max_j,solves", [
        (True, 63, True), (True, 64, False), (False, 62, True), (False, 63, False)])
    def test_pair_counts_grids_n_and_2n_hold(self, richardson, max_j, solves):
        # Dirichlet, 64 cells: 63 active nodes on grid N, 127 on 2N.  N holds
        # max_j pairs with Richardson and max_j + 1 without; bisecting N,
        # too coarse for the start pairs, must not refuse a count they accept.
        config = SolverConfig(grid_points=64, richardson=richardson, max_j=max_j)
        problem = SLProblem("euclidean", 2, 0, 1.0, 2.0, "dirichlet")
        if solves:
            pairs = solve(problem, config)
            assert [p.sign_changes() for p in pairs] == list(range(max_j))
        else:
            with pytest.raises(ValueError, match="active nodes"):
                solve(problem, config)


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


def bisection_reference(problem, config):
    """Published values and eigenvectors of full-grid bisection:
    ``_eigen_tridiagonal`` on grid N and, with Richardson, on 2N, the
    extrapolation by hand."""
    N = config.grid_points
    fine = discretize(problem, 2 * N if config.richardson else N)
    vals_fine, vecs_fine = sl._eigen_tridiagonal(fine, config.max_j + 1)
    published = vals_fine[:config.max_j]
    if config.richardson:
        vals_coarse, _ = sl._eigen_tridiagonal(discretize(problem, N), config.max_j)
        published = published + (published - vals_coarse) / 3.0
    return published, [sl._finalize_vector(fine, vecs_fine[:, j])
                       for j in range(config.max_j)]


def assert_matches_bisection(problem, pairs, config):
    published, vectors = bisection_reference(problem, config)
    for p, value, vector in zip(pairs, published, vectors):
        if problem.k == 0 and problem.bc is sl.BoundaryCondition.NEUMANN and p.j == 1:
            assert abs(p.eigenvalue) < 1e-8 and abs(value) < 1e-8   # the constant
        else:
            assert p.eigenvalue == pytest.approx(value, rel=1e-12)
        assert np.max(np.abs(p.values - vector)) < 1e-8
        assert p.sign_changes() == p.j - 1


class TestClimbFromStartPairs:
    # solve starts each pair on grids N and 2N from its Galerkin start pair
    # and climbs by inverse iteration, bisecting nothing; its pairs must be
    # those of bisection on N and 2N
    @pytest.mark.parametrize("form", list(SpaceForm))
    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_full_grid_bisection(self, form, n):
        config = SolverConfig(max_j=8)
        for r1, r2 in ((0.4, 1.3), (0.0, 1.1), (0.3, 0.4), (0.0, math.pi / 2)):
            for bc in ("neumann", "dirichlet"):
                for k in (*range(9), 12, 16):
                    if (r1, r2, form, k, bc) == (0.3, 0.4, SpaceForm.EUCLIDEAN, 0, "neumann"):
                        continue   # test_constant_mode_of_a_thin_euclidean_shell
                    problem = SLProblem(form, n, k, r1, r2, bc)
                    assert_matches_bisection(problem, solve(problem, config), config)

    @pytest.mark.xfail(strict=True, reason="the Rayleigh quotient's row sums cancel "
                       "terms of size w/h and leave about 1e-7 on this constant mode")
    @pytest.mark.parametrize("n", [2, 3])
    def test_constant_mode_of_a_thin_euclidean_shell(self, n):
        # bisection and the climb both give 1.7e-7 (n = 2) and -7.1e-8 (n = 3)
        problem = SLProblem("euclidean", n, 0, 0.3, 0.4)
        config = SolverConfig(max_j=8)
        assert_matches_bisection(problem, solve(problem, config), config)

    @pytest.mark.xfail(strict=True, reason="the Rayleigh quotient's row sums cancel "
                       "terms of size w/h, which swamp mu_11 on a thin shell")
    @pytest.mark.parametrize("r2", [0.501, 0.5001])
    def test_lowest_mode_one_value_of_a_thin_euclidean_shell(self, r2):
        # the constant's Rayleigh quotient rho bounds mu_11 above by min-max
        # and meets it as the shell thins; mu_11 comes out 4.73e-4 low on
        # [0.5, 0.501] and 15.6 % high on [0.5, 0.5001], with no warning
        r1 = 0.5
        rho = math.log(r2 / r1) / ((r2**2 - r1**2) / 2)
        mu = solve(SLProblem("euclidean", 2, 1, r1, r2), SolverConfig())[0].eigenvalue
        assert abs(mu - rho) <= 1e-9 * rho

    def test_wrong_index_falls_back_to_bisection(self, monkeypatch):
        # a climbed vector with the wrong sign-change count is not published
        def alternating(d, e, shift, y, *stop):
            return np.where(np.arange(d.size) % 2 == 0, 1.0, -1.0)

        started = []
        real_spectral = sl._spectral_pairs

        def spectral(system, count, sampled):
            started.append(count)
            return real_spectral(system, count, sampled)

        monkeypatch.setattr(sl, "_inverse_iteration", alternating)
        monkeypatch.setattr(sl, "_spectral_pairs", spectral)
        problem = SLProblem("hyperbolic", 3, 2, 0.5, 1.5)
        config = SolverConfig(max_j=4)
        published, _ = bisection_reference(problem, config)
        assert [p.eigenvalue for p in solve(problem, config)] == pytest.approx(
            published, rel=1e-12)
        assert started == [5]

    def test_exactly_singular_shift_keeps_the_vector(self):
        # the path-graph Laplacian: shift 0 is an eigenvalue and gtsv meets
        # an exactly zero pivot; the constant vector is its eigenvector, so
        # its residual is 0 and it is kept
        d, e = np.array([1.0, 2.0, 1.0]), np.array([-1.0, -1.0])
        start = np.full(3, 0.5)
        for delta in (0.0, 0.5):
            assert np.array_equal(sl._inverse_iteration(d, e, 0.0, start, delta), start)

    def test_poor_vector_at_an_exactly_singular_shift_certifies_nothing(self):
        # the same zero pivot gives no step, and this start's residual is
        # far above 1e-10 delta, so no vector is kept and the grid is bisected
        d, e = np.array([1.0, 2.0, 1.0]), np.array([-1.0, -1.0])
        assert sl._inverse_iteration(d, e, 0.0, np.array([0.3, 0.5, 0.7]), 0.5) is None

    def test_a_solve_past_the_doubles_certifies_nothing(self):
        # the solve's 1e-600 underflows to 0, so its norm certifies no vector
        d, e = np.full(3, 1e300), np.full(2, -1.0)
        assert sl._inverse_iteration(d, e, 0.0, np.full(3, 1e-300), 1.0) is None

    def test_vector_stop_certifies_the_angle(self, monkeypatch):
        # a start within 1e-6 of the second eigenvector, shifted within
        # 1e-6 delta of its eigenvalue: one step brings the residual r
        # under 1e-10 delta, and by Davis-Kahan the angle to the eigenvector
        # is at most r / gap <= r / delta, since the true gap is at least delta
        d, e, _ = sl._standard_form(discretize(SLProblem("spherical", 3, 2, 0.4, 1.3), 64))
        A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        values, vectors = np.linalg.eigh(A)
        delta = 0.5 * min(values[2] - values[1], values[1] - values[0])
        start = vectors[:, 1] + 1e-6 * np.random.default_rng(1).standard_normal(d.size)
        solves = []
        real_gtsv = sl.dgtsv

        def counting_gtsv(*args):
            solves.append(None)
            return real_gtsv(*args)

        monkeypatch.setattr(sl, "dgtsv", counting_gtsv)
        z = sl._inverse_iteration(d, e, values[1] + 1e-6 * delta, start, delta)
        assert len(solves) == 1
        sine = np.linalg.norm(z - (z @ vectors[:, 1]) * vectors[:, 1])
        assert sine <= 1e-10
        # from a random start the first step leaves about 1e-6 of the rest
        # of the spectrum, which the stop must not take for a certificate;
        # the second, the last, certifies
        solves.clear()
        far = np.random.default_rng(2).standard_normal(d.size)
        z = sl._inverse_iteration(d, e, values[1] + 1e-6 * delta, far, delta)
        assert len(solves) == 2
        assert np.linalg.norm(z - (z @ vectors[:, 1]) * vectors[:, 1]) <= 1e-10

    def test_residual_from_the_solve_alone(self):
        # |A z - rho z| of one inverse-iteration step, read off the solve,
        # against the residual formed with A itself
        d, e, _ = sl._standard_form(discretize(SLProblem("spherical", 3, 2, 0.4, 1.3), 64))
        A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        y = np.random.default_rng(0).standard_normal(d.size)
        shift = np.linalg.eigvalsh(A)[1] * (1 + 1e-3)
        x = np.linalg.solve(A - shift * np.eye(d.size), y)
        norm = np.linalg.norm(x)
        z = x / norm
        r = sl._rayleigh_residual(y, z, norm)
        rho = z @ A @ z
        assert r == pytest.approx(np.linalg.norm(A @ z - rho * z), rel=1e-9)

    def test_no_start_pairs_bisects_every_grid(self):
        # on [0.5, 30] the weight sinh^2 spans 26 decades and sygvd finds
        # K + M not positive definite: there are no start pairs
        problem = SLProblem("hyperbolic", 3, 1, 0.5, 30)
        assert sl._spectral_pairs(discretize(problem, 4096), 2, 1) is None
        config = SolverConfig()
        assert_matches_bisection(problem, solve(problem, config), config)

    def test_constant_mode_of_a_spherical_shell(self):
        # the seed-5 shell, whose constant mode meets an exactly zero pivot
        problem = SLProblem("spherical", 3, 0, 0.4997528345195214, 1.3607004791547166)
        config = SolverConfig(max_j=8)
        assert_matches_bisection(problem, solve(problem, config), config)


class TestCoarseGrids:
    # each grid with fewer than 32 cells per start pair is bisected and
    # each finer one climbs from its own Galerkin samples, so every pair
    # is that of bisection on the full grids, with no near-tie to warn of,
    # up to 62 pairs on 64 cells
    @pytest.mark.parametrize("form,k,r1,r2", [
        pytest.param("euclidean", 0, 0.5, 0.501, marks=pytest.mark.xfail(
            strict=True, reason="the Rayleigh quotient's row sums cancel terms of "
            "size w/h and leave 1e-6 to 2e-5 on the constant mode of this thin shell")),
        ("euclidean", 2, 0.5, 0.501),
        ("hyperbolic", 0, 0.5, 1.5),
        ("hyperbolic", 2, 0.5, 1.5),
        # on 512 cells with max_j 8, pair 8 misses its vector certificate
        # after 2 steps, so that grid is bisected too
        ("euclidean", 8, 0.4, 1.3),
    ])
    def test_agree_with_full_grid_bisection(self, form, k, r1, r2):
        problem = SLProblem(form, 2, k, r1, r2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", sl.NearDegeneracyWarning)
            for grid in (64, 128, 256):
                for richardson in (True, False):
                    for max_j in (2, 8, 30, 62):
                        config = SolverConfig(grid_points=grid, richardson=richardson,
                                              max_j=max_j)
                        assert_matches_bisection(problem, solve(problem, config), config)


class TestSpectralPairs:
    # the Galerkin start pairs alone, against closed forms
    @pytest.mark.parametrize("problem,value", [
        (SLProblem("spherical", 2, 1, 0.0, math.pi / 2), 2.0),   # u = sin r
        (SLProblem("euclidean", 2, 1, 0.0, 1.0), oracles.first_bessel_derivative_zero(1) ** 2),
        (SLProblem("euclidean", 2, 0, 0.0, 1.0, "dirichlet"), oracles.first_bessel_zero(0) ** 2),
        # u = sin(pi (r - 0.5)) / r: both ends eliminated
        (SLProblem("euclidean", 3, 0, 0.5, 1.5, "dirichlet"), math.pi ** 2),
    ])
    def test_lowest_value_and_start_vectors(self, problem, value):
        system = discretize(problem, 2048)
        values, samples = sl._spectral_pairs(system, 4, 3)
        assert values.shape == (4,) and samples.shape == (2049, 3)
        assert values[0] == pytest.approx(value, rel=1e-10)
        assert np.all(np.diff(values) > 0)
        assert [sl._sign_changes(u) for u in samples.T] == [0, 1, 2]
        # zero at the eliminated nodes
        inactive = np.ones(samples.shape[0], bool)
        inactive[system.active_start:system.active_stop] = False
        assert np.all(samples[inactive] == 0.0)

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("r1", [0.0, 0.4])
    def test_each_grid_starts_from_its_own_nodes(self, monkeypatch, r1, bc):
        # one Galerkin solve, sampled on 2N; grid N's start vectors are
        # those samples at its even nodes, bit for bit, and 2N's all of them
        sampled, climbed = [], []
        real_spectral, real_climb = sl._spectral_pairs, sl._climb

        def spectral(system, count, want):
            values, samples = real_spectral(system, count, want)
            sampled.append((system.grid.size - 1, count, want, samples))
            return values, samples

        def climb(system, values, starts, *args, **kwargs):
            climbed.append((system, starts.copy()))
            return real_climb(system, values, starts, *args, **kwargs)

        monkeypatch.setattr(sl, "_spectral_pairs", spectral)
        monkeypatch.setattr(sl, "_climb", climb)
        solve(SLProblem("spherical", 3, 1, r1, 1.3, bc), SolverConfig(max_j=4))
        [(cells, count, want, samples)] = sampled
        assert (cells, count, want) == (4096, 5, 4)
        assert [system.grid.size - 1 for system, _ in climbed] == [2048, 4096]
        for system, starts in climbed:
            stride = 4096 // (system.grid.size - 1)
            own = samples[::stride][system.active_start:system.active_stop]
            assert np.array_equal(starts, own)
            assert np.array_equal(system.grid, discretize(
                system.problem, 4096).grid[::stride])


class TestNearDegeneracy:
    def test_gap_below_the_threshold_warns_once(self, monkeypatch):
        # the probe gap mu_2 - mu_1 is the smallest of this mode; a threshold
        # above it and below the next gap trips the warning at j = 1
        problem = SLProblem("euclidean", 2, 0, 1.0, 2.0, "neumann")
        config = SolverConfig(grid_points=256, max_j=3)
        mu = [p.eigenvalue for p in solve(problem, config)]
        assert 1.5 * (mu[1] - mu[0]) < mu[2] - mu[1]
        monkeypatch.setattr(sl, "DEGENERACY_GAP", 1.5 * (mu[1] - mu[0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            again = [p.eigenvalue for p in solve(problem, config)]
        assert again == mu
        assert [w.category for w in caught] == [sl.NearDegeneracyWarning]
        assert "near j=1 (k=0, bc=neumann, grid=512)" in str(caught[0].message)


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
    def test_pairs_of_one_solve_share_one_read_only_grid(self, hyperbolic_pairs):
        grid = hyperbolic_pairs[0].grid
        assert all(p.grid is grid for p in hyperbolic_pairs)
        assert not grid.flags.writeable

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

    # mu = k(k+n-2)/sin_m(b)^2 = 1/sin_m(b)^2 has no root b in the interval
    @pytest.mark.parametrize("form,r1,r2,mu,message", [
        ("spherical", 0.3, 1.2, 0.5, "sin^2(b) = 2 > 1: eigenvalue too small"),
        ("euclidean", 1.0, 2.0, 4.0, "b=0.5 escaped (1.0, 2.0); mu=4 is inconsistent "
                                     "with the interior characterization"),
        ("euclidean", 1.0, 2.0, 0.16, "b=2.5 escaped (1.0, 2.0); mu=0.16 is inconsistent "
                                      "with the interior characterization"),
    ], ids=["sphere-above-one", "below-r1", "above-r2"])
    def test_locate_b_refuses_an_eigenvalue_with_no_interior_radius(self, form, r1, r2,
                                                                    mu, message):
        pair = solve(SLProblem(form, 2, 1, r1, r2), fast_config())[0]
        with pytest.raises(sl.NoRootError) as info:
            locate_b(dataclasses.replace(pair, eigenvalue=mu))
        assert str(info.value) == message

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
        # the report's problem record holds every field of the problem and
        # of its solver settings
        problem = SLProblem("hyperbolic", 3, 2, 0.5, 1.5, "dirichlet")
        config = SolverConfig(grid_points=256, max_j=3)
        data = json.loads(json.dumps(sl.problem_to_dict(problem, config)))
        settings = {key: data.pop(key) for key in ("grid_points", "richardson", "max_j")}
        assert SLProblem(**data) == problem
        assert SolverConfig(**settings) == config

    def test_pairs_json_and_csv(self):
        pairs = solve(SLProblem("euclidean", 2, 1, 1.0, 2.0), fast_config(max_j=2, grid=128))
        blob = json.loads(json.dumps(sl.pairs_to_dicts(pairs)))
        assert [e["j"] for e in blob] == [1, 2]
        assert len(blob[0]["grid"]) == len(blob[0]["values"]) == 257
