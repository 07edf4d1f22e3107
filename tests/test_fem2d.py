import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg as sparse_linalg

from spaceform_spectra import domains as dm
from spaceform_spectra import fem2d, slsolver, spectrum
from spaceform_spectra.domains import DomainSpec, FourierProfile, SymmetryOrder
from spaceform_spectra.fem2d import (
    DegenerateDomainError,
    FemConvergenceError,
    FemEigenResult,
    VerifyConfig,
    assemble,
    decide,
    eigensolve,
    generate_mesh,
    solve_domain,
    verify_theorem,
)
from spaceform_spectra.slsolver import SLProblem, SolverConfig
from spaceform_spectra.spaceform import SpaceForm

import oracles

ANNULUS = DomainSpec.exact_annulus("euclidean", 2, 1.0, 2.0)
ORDER4_SHELL = DomainSpec("euclidean", 2, SymmetryOrder.ORDER4,
                          FourierProfile(1.25, ((4, 0.06, -0.04),)),
                          FourierProfile(0.55, ((4, 0.02, 0.02),)))
ORDER4_DISK = DomainSpec("spherical", 2, SymmetryOrder.ORDER4,
                         FourierProfile(1.1, ((4, 0.05, 0.03),)))
HALF_TURN_SHELL = DomainSpec("hyperbolic", 2, SymmetryOrder.ORDER2,
                             FourierProfile(1.3, ((2, 0.08, 0.03),)),
                             FourierProfile(0.5, ((2, 0.02, 0.0),)))


@pytest.fixture(scope="module")
def disk_result():
    disk = DomainSpec.exact_annulus("euclidean", 2, 0.0, 1.0)
    return solve_domain(disk, levels=(1, 2, 3), m=6)


@pytest.fixture(scope="module")
def annulus_result():
    return solve_domain(ANNULUS, levels=(1, 2, 3), m=8)


def mesh_triangles(mesh):
    return oracles.polar_mesh_connectivity(mesh.n_radial, mesh.n_angular)[0]


def mesh_triangle_coords(mesh):
    return oracles.triangle_coords(mesh.vertices, mesh_triangles(mesh))


def oracle_assembly(mesh, rule):
    """``oracles.exact_map_assembly`` of the mesh's domain under ``rule``."""
    spec = mesh.spec
    inner = ((spec.rho_in.base, spec.rho_in.harmonics) if spec.has_hole
             else (fem2d.HOLE_FREE_INNER_RADIUS, ()))
    return oracles.exact_map_assembly(str(spec.form), inner,
                                      (spec.rho_out.base, spec.rho_out.harmonics),
                                      mesh.n_radial, mesh.n_angular, rule)


# the holed domains of the acceptance family (seed 2026, three forms)
HOLED_ACCEPTANCE = {f"{form}-{idx}": spec
                    for form in ("euclidean", "spherical", "hyperbolic")
                    for idx, spec in enumerate(dm.random_family(2026, form, count=5))
                    if spec.has_hole}


class TestMeshGeneration:
    def test_structured_counts_and_orientation(self):
        mesh = generate_mesh(ANNULUS, 0)
        assert mesh.n_radial == 12 and mesh.n_angular == 48
        assert mesh.n_vertices == 13 * 48
        assert mesh_triangles(mesh).shape[0] == 2 * 12 * 48
        areas = oracles.chart_areas(mesh_triangle_coords(mesh))
        assert np.all(areas > 0)

    def test_refinement_quadruples_triangles(self):
        t0 = mesh_triangles(generate_mesh(ANNULUS, 0)).shape[0]
        t1 = mesh_triangles(generate_mesh(ANNULUS, 1)).shape[0]
        assert t1 == 4 * t0

    def test_vertex_set_invariant_under_quarter_rotation(self):
        spec = DomainSpec("euclidean", 2, SymmetryOrder.ORDER4,
                          FourierProfile(1.3, ((4, 0.06, 0.03),)),
                          FourierProfile(0.6, ((8, 0.02, -0.01),)))
        mesh = generate_mesh(spec, 1)
        rotated = mesh.vertices.copy()
        rotated[:, 1] = np.mod(rotated[:, 1] + math.pi / 2, 2 * math.pi)
        original = {(round(r, 10), round(t, 10)) for r, t in mesh.vertices}
        mapped = {(round(r, 10), round(t, 10)) for r, t in rotated}
        assert original == mapped

    def test_degenerate_resolution_rejected(self):
        # the outer boundary lies inside the artificial inner circle
        tiny_disk = DomainSpec.exact_annulus("euclidean", 2, 0.0, 5e-4)
        with pytest.raises(DegenerateDomainError, match="touch or cross"):
            generate_mesh(tiny_disk, 0)

    def test_hole_free_uses_artificial_inner_circle(self):
        disk = DomainSpec.exact_annulus("euclidean", 2, 0.0, 1.0)
        mesh = generate_mesh(disk, 0)
        assert not disk.has_hole
        assert mesh.vertices[:, 0].min() == pytest.approx(fem2d.HOLE_FREE_INNER_RADIUS)

    @pytest.mark.parametrize("form", ["euclidean", "spherical", "hyperbolic"])
    def test_inner_circle_shift_below_tau_floor(self, form, monkeypatch):
        disk = DomainSpec.exact_annulus(form, 2, 0.0, 1.0)
        mu_2 = []
        for radius in (1e-3, 1e-4):
            monkeypatch.setattr(fem2d, "HOLE_FREE_INNER_RADIUS", radius)
            mu_2.append(solve_domain(disk, levels=(2,), m=4).eigenvalues[1])
        assert abs(mu_2[0] - mu_2[1]) <= fem2d.TAU_FLOOR * mu_2[1]

    def test_requires_planar_spec(self):
        spec3 = DomainSpec.exact_annulus("euclidean", 3, 0.5, 1.0)
        with pytest.raises(ValueError):
            generate_mesh(spec3, 1)


@pytest.fixture(scope="module")
def system():
    return assemble(generate_mesh(ANNULUS, 1))


class TestAssembly:
    def test_constant_in_stiffness_null_space(self, system):
        ones = np.ones(system.n_unknowns)
        assert np.max(np.abs(system.stiffness @ ones)) < 1e-12

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("spec", [ANNULUS, *HOLED_ACCEPTANCE.values()],
                             ids=["annulus", *HOLED_ACCEPTANCE])
    def test_mass_row_sums_accumulate_quadrature_volume(self, spec, level):
        # partition of unity: sum_ij M_ij integrates the density D s over the
        # (t, theta) rectangle, the domain's volume on its exact map
        mass = assemble(generate_mesh(spec, level)).mass
        volume = dm.volume(dm.QuadratureGrid.for_spec(spec))
        assert float(mass.sum()) == pytest.approx(volume, rel=1e-12)

    def test_mass_is_symmetric_positive(self, system):
        diff = system.mass - system.mass.T
        assert abs(diff).max() < 1e-14
        # positive definite via a few random quadratic forms
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.normal(size=system.n_unknowns)
            assert v @ (system.mass @ v) > 0

    @pytest.mark.parametrize("form", ["euclidean", "spherical", "hyperbolic"])
    @pytest.mark.parametrize("hole", [True, False], ids=["shell", "hole-free"])
    def test_stencil_matches_element_assembly(self, form, hole):
        # the oracle sums one element matrix per triangle of the whole mesh,
        # pulling the metric back through the Jacobian of the map at each
        # point of the same rule
        spec = DomainSpec(form, 2, SymmetryOrder.ORDER4,
                          FourierProfile(1.2, ((4, 0.06, -0.04),)),
                          FourierProfile(0.5, ((4, 0.02, 0.02),)) if hole else None)
        for level in range(4):
            mesh = generate_mesh(spec, level)
            system = assemble(mesh)
            reference = oracle_assembly(mesh, (fem2d._DUNAVANT_POINTS,
                                               fem2d._DUNAVANT_WEIGHTS))
            for matrix, ref in zip((system.stiffness, system.mass), reference):
                assert np.array_equal(matrix.indptr, ref.indptr)
                assert np.array_equal(matrix.indices, ref.indices)
                scale = np.max(np.abs(ref.data))
                assert np.max(np.abs(matrix.data - ref.data)) <= 1e-13 * scale

    @pytest.mark.parametrize("degree", range(6))
    def test_dunavant_rule_integrates_degree_five(self, degree):
        # x^i y^j over the triangle (0, 0), (1, 0), (0, 1), x and y the
        # second and third barycentric coordinates, divided by its area 1/2
        x, y = fem2d._DUNAVANT_POINTS[:, 1], fem2d._DUNAVANT_POINTS[:, 2]
        for i in range(degree + 1):
            j = degree - i
            exact = 2 * math.factorial(i) * math.factorial(j) / math.factorial(degree + 2)
            assert fem2d._DUNAVANT_WEIGHTS @ (x**i * y**j) == pytest.approx(exact, rel=1e-14)

    def test_full_matrices_hold_only_their_nonzeros(self):
        # tocsr of the DIA matrix leaves data and indices in buffers sized for
        # every diagonal slot: 332,926 slots for 259,200 stiffness entries here
        spec = dm.random_family(2026, "hyperbolic", symmetry=SymmetryOrder.ORDER2,
                                count=1)[0]
        system = assemble(generate_mesh(spec, 3))

        def buffer(array):
            while array.base is not None:
                array = array.base
            return array

        for matrix in (system.stiffness, system.mass):
            assert buffer(matrix.data).size == buffer(matrix.indices).size == matrix.nnz

    def test_peak_memory_is_a_small_multiple_of_the_result(self):
        # summing per-triangle COO triples peaked above 8x the bytes of K and M
        mesh = generate_mesh(ANNULUS, 3)
        tracemalloc.start()
        try:
            system = assemble(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = sum(array.nbytes for matrix in (system.stiffness, system.mass)
                     for array in (matrix.data, matrix.indices, matrix.indptr))
        assert peak < 4 * result


class TestEigensolve:
    def test_disk_bessel_reference(self, disk_result):
        ref = oracles.first_bessel_derivative_zero(1) ** 2
        assert disk_result.eigenvalues[1] == pytest.approx(ref, abs=1e-2)
        assert disk_result.extrapolated[1] == pytest.approx(ref, abs=1e-3)

    def test_disk_pair_degeneracy(self, disk_result):
        gap = abs(disk_result.eigenvalues[1] - disk_result.eigenvalues[2])
        assert gap / disk_result.eigenvalues[1] < 5e-3

    def test_zero_mode(self, disk_result):
        assert abs(disk_result.eigenvalues[0]) <= 1e-8
        # its level-to-level changes are rounding noise, not a convergence order
        assert disk_result.observed_order[0] is None

    def test_error_estimate_relative_below_one(self):
        # mu_2 of the radius-3 disk is about 0.377; only the constant mode's
        # estimate is absolute
        disk = DomainSpec.exact_annulus("euclidean", 2, 0.0, 3.0)
        result = solve_domain(disk, levels=(1, 2, 3), m=4)
        extra, finest = np.array(result.extrapolated), np.array(result.eigenvalues)
        assert extra[1] < 1.0
        assert result.est_rel_error[1:] == pytest.approx(
            tuple(np.abs(extra - finest)[1:] / extra[1:]), rel=1e-12)
        assert result.est_rel_error[0] == abs(extra[0] - finest[0])

    def test_convergence_from_above_at_order_two(self, disk_result):
        values = np.array([lvl[2] for lvl in disk_result.levels])
        assert np.all(np.diff(values[:, 1]) < 0)  # decreasing toward the limit
        order = disk_result.observed_order[1]
        assert 1.7 <= order <= 2.3

    def test_spherical_cap(self):
        cap = DomainSpec.exact_annulus("spherical", 2, 0.0, math.pi / 2)
        res = solve_domain(cap, levels=(1, 2), m=4)
        assert res.eigenvalues[1] == pytest.approx(2.0, abs=1e-2)

    @pytest.mark.parametrize("form,r2", [("spherical", 1.2), ("hyperbolic", 1.5)])
    def test_order_two_on_curved_forms(self, form, r2):
        shell = DomainSpec.exact_annulus(form, 2, 0.5, r2)
        res = solve_domain(shell, levels=(1, 2, 3), m=4)
        per_level = np.array([lvl[2] for lvl in res.levels])
        assert np.all(np.diff(per_level[:, 1]) < 0)  # from above
        assert 1.7 <= res.observed_order[1] <= 2.3

    def test_annulus_cross_oracle(self, annulus_result):
        shell = spectrum.assemble(SpaceForm.EUCLIDEAN, 2, 1.0, 2.0, 8, 8,
                                  SolverConfig(grid_points=1024))
        reference = shell.eigenvalues(6)
        for i in range(1, 6):
            rel = abs(annulus_result.eigenvalues[i] - reference[i]) / reference[i]
            assert rel <= 5e-3

    @pytest.mark.parametrize("form,r1,r2", [
        ("spherical", 0.4, 1.2), ("hyperbolic", 0.5, 1.6)])
    def test_cross_oracle_on_curved_forms(self, form, r1, r2):
        shell_spec = DomainSpec.exact_annulus(form, 2, r1, r2)
        fem = solve_domain(shell_spec, levels=(1, 2, 3), m=8)
        reference = spectrum.assemble(SpaceForm(form), 2, r1, r2, 8, 8,
                                      SolverConfig(grid_points=1024)).eigenvalues(6)
        for i in range(1, 6):
            rel = abs(fem.eigenvalues[i] - reference[i]) / reference[i]
            assert rel <= 5e-3
        # the quarter-turn pair stays numerically degenerate
        assert abs(fem.eigenvalues[1] - fem.eigenvalues[2]) / fem.eigenvalues[1] <= 5e-3

    def test_residual_tracking(self, annulus_result):
        assert annulus_result.max_residual <= 1e-9

    def test_sparse_path_level0_mesh(self):
        system = assemble(generate_mesh(ANNULUS, 0))
        assert system.n_unknowns == 13 * 48
        res = eigensolve(system, m=4)
        assert FemEigenResult.from_levels([res]).extrapolated is None
        mu11 = slsolver.solve(SLProblem("euclidean", 2, 1, 1.0, 2.0),
                              SolverConfig(max_j=1))[0].eigenvalue
        assert res.eigenvalues[1] == pytest.approx(mu11, rel=2e-2)

    @pytest.mark.parametrize("spec,level", [
        pytest.param(DomainSpec("hyperbolic", 2, SymmetryOrder.ORDER4,
                                FourierProfile(1.2, ((4, 0.05, 0.0),)),
                                FourierProfile(0.5, ((4, 0.0, 0.02),))), 1, id="spec0"),
        # hole-free: the r = 1e-3 inner ring puts lambda_max(K, M) near 4.4e7,
        # which a dense eigh(K, M) would resolve only to about 1.6e-9 relative
        pytest.param(DomainSpec("spherical", 2, SymmetryOrder.ORDER4,
                                FourierProfile(1.1, ((4, 0.04, -0.03),))), 1, id="spec1"),
        pytest.param(DomainSpec.exact_annulus("euclidean", 2, 0.0, 1.0), 0,
                     id="disk-level0"),
        pytest.param(HALF_TURN_SHELL, 1, id="half-turn"),
    ])
    def test_sparse_path_matches_dense(self, spec, level):
        system = assemble(generate_mesh(spec, level))
        sparse_vals = np.array(eigensolve(system, m=8).eigenvalues)
        dense_vals = oracles.dense_shift_invert(system.stiffness, system.mass, 8,
                                                fem2d.SHIFT)
        scale = np.maximum(np.abs(dense_vals), 1.0)
        assert np.max(np.abs(sparse_vals - dense_vals) / scale) <= 1e-10

    def test_result_serialization(self, disk_result):
        # strict JSON: no NaN or Infinity anywhere in the report
        blob = json.loads(json.dumps(disk_result.to_dict(), sort_keys=True, allow_nan=False))
        assert len(blob["levels"]) == 3
        assert blob["observed_order"][0] is None
        assert blob["extrapolated"][1] == disk_result.extrapolated[1]


class TestVerifyTheorem:
    def test_exact_annulus_equality_case(self):
        spec = DomainSpec.exact_annulus("hyperbolic", 2, 0.5, 1.3)
        verdict = verify_theorem(spec)
        assert verdict.passed
        # equality up to the reported tolerance
        assert abs(min(verdict.margins)) <= verdict.tau

    def test_perturbed_order4_passes_with_margin(self):
        spec = DomainSpec("euclidean", 2, SymmetryOrder.ORDER4,
                          FourierProfile(1.25, ((4, 0.06, -0.04),)),
                          FourierProfile(0.55, ((4, 0.02, 0.02),)))
        verdict = verify_theorem(spec)
        assert verdict.passed
        assert len(verdict.checked_indices) == 2
        assert min(verdict.margins) > verdict.tau

    def test_order2_checks_single_index(self):
        spec = DomainSpec("euclidean", 2, SymmetryOrder.ORDER2,
                          FourierProfile(1.2, ((2, 0.08, 0.0),)))
        verdict = verify_theorem(spec, VerifyConfig(levels=(1, 2), m=6))
        assert verdict.checked_indices == (2,)
        assert verdict.passed

    def test_insufficient_resolution_fails_honestly(self):
        # a single coarse level cannot certify the equality case: the
        # discrete eigenvalue sits above the limit by more than tau
        spec = DomainSpec.exact_annulus("euclidean", 2, 1.0, 2.0)
        verdict = verify_theorem(spec, VerifyConfig(levels=(1,), m=4))
        assert not verdict.passed

    @pytest.mark.parametrize("levels,m,accepted", [
        ((1, 2, 3), 8, True),
        ((0,), 2, True),
        ((3, 4), 4, True),
        ((), 8, False),
        ((-1, 0), 8, False),
        ((1, 3), 8, False),
        ((2, 1), 8, False),
        ((1, 1), 8, False),
        ((1, 2), 1, False),
    ])
    def test_config_refuses_what_it_cannot_run(self, levels, m, accepted):
        # the Richardson step takes each level of the ladder to halve h
        if accepted:
            assert VerifyConfig(levels=levels, m=m).levels == levels
        else:
            with pytest.raises(ValueError):
                VerifyConfig(levels=levels, m=m)

    def test_solve_domain_refuses_a_gapped_ladder(self):
        with pytest.raises(ValueError, match="consecutive"):
            solve_domain(ANNULUS, levels=(1, 3), m=4)

    def test_m_below_a_checked_index_is_refused(self):
        # quarter-turn symmetry checks mu_3
        with pytest.raises(ValueError, match="m=2"):
            verify_theorem(ORDER4_SHELL, VerifyConfig(levels=(1,), m=2))

    def test_requires_symmetry_class(self):
        spec = DomainSpec("euclidean", 2, SymmetryOrder.NONE,
                          FourierProfile(1.0, ((1, 0.03, 0.0),)))
        with pytest.raises(dm.SymmetryError):
            verify_theorem(spec)

    def test_harmonic_mean_bound(self):
        spec = DomainSpec("hyperbolic", 2, SymmetryOrder.ORDER4,
                          FourierProfile(1.2, ((4, 0.05, 0.0),)),
                          FourierProfile(0.5, ((4, 0.0, 0.02),)))
        verdict = verify_theorem(spec, VerifyConfig(levels=(1, 2), m=6))
        assert verdict.passed
        mu2, mu3 = verdict.fem.extrapolated[1], verdict.fem.extrapolated[2]
        lhs = 1.0 / mu2 + 1.0 / mu3
        rhs = 2.0 / verdict.mu_annulus
        assert lhs >= rhs * (1 - verdict.tau)

    def test_convergence_table_is_gnuplot_ready(self, disk_result):
        table = fem2d.convergence_table(disk_result, label="disk")
        lines = table.strip().split("\n")
        assert lines[0] == "# disk"
        assert lines[1].startswith("# h  n_unknowns  mu_1")
        data_rows = [ln for ln in lines if not ln.startswith("#")]
        assert len(data_rows) == 3
        cols = data_rows[0].split()
        assert len(cols) == 2 + len(disk_result.eigenvalues)
        float(cols[0])  # h parses as a number
        assert lines[-1].startswith("# extrapolated:")


@pytest.fixture
def solved(monkeypatch):
    """Levels meshed and levels eigensolved while the test runs."""
    record = {"meshed": [], "solved": []}
    generate, solve = fem2d.generate_mesh, fem2d.eigensolve

    def meshing(spec, level):
        record["meshed"].append(level)
        return generate(spec, level)

    def solving(system, m):
        record["solved"].append(system.mesh.level)
        return solve(system, m)

    monkeypatch.setattr(fem2d, "generate_mesh", meshing)
    monkeypatch.setattr(fem2d, "eigensolve", solving)
    return record


class TestStopRule:
    def test_clear_pass_stops_at_level_one(self, solved):
        # a holed mesh covers the domain exactly, so its level-1 values bound
        # the domain's from above and lie clearly below the shell's mu_2
        verdict = verify_theorem(ORDER4_SHELL)
        assert solved["meshed"] == [0, 1]
        assert solved["solved"] == [0, 1]
        assert [entry["level"] for entry in verdict.fem.to_dict()["levels"]] == [0, 1]
        assert verdict.passed and verdict.decided
        assert verdict.decided_by == verdict.to_dict()["decided_by"] == "ritz_bound"
        assert all(verdict.fem.eigenvalues[i - 1] * (1 + fem2d.RITZ_ALLOWANCE)
                   < verdict.mu_annulus for i in verdict.checked_indices)

    def test_clear_hole_free_pass_stops_at_level_two(self, solved):
        # a hole-free mesh leaves out a small disk, so only Richardson decides
        verdict = verify_theorem(ORDER4_DISK)
        assert solved["meshed"] == [0, 1, 2]
        assert solved["solved"] == [0, 1, 2]
        assert [entry["level"] for entry in verdict.fem.to_dict()["levels"]] == [0, 1, 2]
        assert verdict.passed and verdict.decided
        assert verdict.decided_by == "richardson"
        assert min(verdict.margins) >= fem2d.STOP_MARGIN * verdict.tau
        low, high = fem2d.ORDER_BAND
        assert all(low <= verdict.fem.observed_order[i - 1] <= high
                   for i in verdict.checked_indices)

    def test_threshold_case_reaches_the_cap(self, solved, annulus_result):
        # margin about 0: no level below the cap decides the equality case,
        # and the cap reports what the fixed ladder 1, 2, 3 gives
        verdict = verify_theorem(ANNULUS)
        assert solved["meshed"] == [0, 1, 2, 3]
        assert solved["solved"] == [0, 1, 2, 3]
        fem, fixed = verdict.fem, annulus_result
        assert fem.levels[1:] == fixed.levels
        assert fem.extrapolated == fixed.extrapolated
        assert fem.est_rel_error == fixed.est_rel_error
        assert fem.observed_order == fixed.observed_order

        (shell,) = slsolver.solve(SLProblem("euclidean", 2, 1, verdict.r1, verdict.r2),
                                  SolverConfig())
        radial = abs(shell.eigenvalue - shell.eigenvalue_grid) / shell.eigenvalue
        tau = max(fem2d.TAU_FLOOR, 3.0 * max(fixed.est_rel_error[1:3]) + radial)
        margins = tuple((shell.eigenvalue - fixed.extrapolated[i]) / shell.eigenvalue
                        for i in (1, 2))
        assert verdict.tau == tau
        assert verdict.margins == margins

    def test_short_ladder_solves_no_probe_level(self, solved):
        verdict = verify_theorem(ORDER4_SHELL, VerifyConfig(levels=(1, 2), m=4))
        assert solved["meshed"] == [1, 2]
        assert solved["solved"] == [1, 2]
        assert [solve.level for solve in verdict.fem.levels] == [1, 2]

    @pytest.mark.parametrize("margins, orders, decided", [
        ((2.0, 3.0), (2.0, 2.0), True),
        ((-2.0, 3.0), (2.0, 2.0), True),
        ((1.9, 3.0), (2.0, 2.0), False),
        ((-1.9, 3.0), (2.0, 2.0), False),
        ((3.0, 3.0), (1.4, 2.0), False),
        ((3.0, 3.0), (2.0, 2.6), False),
        ((3.0, 3.0), (2.0, None), False),
        ((-3.0,), (None,), False),
    ])
    def test_stop_predicate(self, margins, orders, decided):
        # est = 2**-12 on every index makes tau = 3 * est exact, and with
        # mu_shell = 1 the margins of 2 and 3 tau come out exact
        tau = 3 * 2.0**-12
        indices = tuple(range(2, 2 + len(margins)))
        fem = synthetic_history(tuple(m * tau for m in margins), orders, est=2.0**-12)
        decision = decide(1.0, 0.0, fem, indices, ritz=False)
        assert decision.tau == tau
        assert decision.orders == orders
        assert decision.decided is decided
        assert decision.decided_by == ("richardson" if decided else None)
        assert decision.passed is all(m >= -1 for m in margins)

    @pytest.mark.parametrize("radial", [0.0, 5e-4])
    def test_one_level_never_passes(self, radial):
        # not even on the Ritz bound, which the values would clear
        fem = synthetic_history((0.5, 0.5), (None, None), est=None)
        decision = decide(1.0, radial, fem, (2, 3), ritz=True)
        assert decision.margins == (0.5, 0.5)
        assert decision.tau == max(fem2d.TAU_FLOOR, radial)
        assert decision.orders == (None, None)
        assert decision.decided is False
        assert decision.passed is False

    @pytest.mark.parametrize("est, radial, tau", [(1e-3, 2e-4, 3.0 * 1e-3 + 2e-4),
                                                  (1e-5, 1e-5, fem2d.TAU_FLOOR)],
                             ids=["richardson-sets-tau", "floor-sets-tau"])
    def test_tau_is_three_richardson_corrections_plus_radial(self, est, radial, tau):
        fem = synthetic_history((0.5, 0.5), (2.0, 2.0), est=est)
        assert decide(1.0, radial, fem, (2, 3), ritz=False).tau == tau

    def test_a_margin_of_exactly_minus_tau_passes(self):
        tau = 3 * 2.0**-12
        fem = synthetic_history((-tau,), (2.0,), est=2.0**-12)
        decision = decide(1.0, 0.0, fem, (2,), ritz=False)
        assert decision.margins == (-tau,)
        assert decision.passed is True
        assert decision.decided is False

    @pytest.mark.parametrize("ritz, finest, radial, decided_by", [
        (True, (0.9, 0.95), 0.0, "ritz_bound"),
        (False, (0.9, 0.95), 0.0, None),
        # mu_3 (1 + RITZ_ALLOWANCE) just above the shell's mu_2
        (True, (0.9, 1.0 - 0.5 * fem2d.RITZ_ALLOWANCE), 0.0, None),
        (True, (0.9, 1.0 - 2 * fem2d.RITZ_ALLOWANCE), 0.0, "ritz_bound"),
        # the shell's own error takes its share first
        (True, (0.9, 0.9995), 1e-3, None),
        (True, (0.9, 0.9985), 1e-3, "ritz_bound"),
    ])
    def test_ritz_bound_decides_a_pass(self, ritz, finest, radial, decided_by):
        # two levels give no observed order, so Richardson cannot decide
        fem = FemEigenResult.from_levels([level_solve(0, (0.0, 1.1, 1.2)),
                                          level_solve(1, (0.0, *finest))])
        decision = decide(1.0, radial, fem, (2, 3), ritz=ritz)
        assert decision.decided_by == decided_by
        assert decision.decided is (decided_by is not None)
        assert decision.margins == tuple(1.0 - e for e in fem.extrapolated[1:3])
        if decided_by:
            assert decision.passed is True


def level_solve(level, eigenvalues):
    return fem2d.LevelSolve(n_unknowns=0, h=0.0, eigenvalues=eigenvalues, level=level,
                            residual=0.0)


def synthetic_history(margins, orders, est):
    """FemEigenResult whose indices 2, 3, ... lie ``margins`` below mu = 1.

    ``est`` is every index's Richardson correction; None makes a one-level
    history, with no extrapolation and no observed orders.
    """
    values = (0.0, *(1.0 - margin for margin in margins))
    if est is None:
        return FemEigenResult.from_levels([level_solve(1, values)])
    return FemEigenResult(levels=(), eigenvalues=values, extrapolated=values,
                          est_rel_error=(est,) * len(values),
                          observed_order=(None, *orders), max_residual=0.0)


# half-turn domains, rho_out = 1.2 + A cos 2 theta with or without a round
# hole: the theorem covers mu_2 only, and their mu_3 lies far above the
# matched shell's mu_2
HALF_TURN_NEGATIVES = {
    f"{form}-A{amplitude}-{'holed' if hole else 'hole-free'}":
        DomainSpec(form, 2, SymmetryOrder.ORDER2,
                   FourierProfile(1.2, ((2, amplitude, 0.0),)), hole)
    for form in ("euclidean", "spherical", "hyperbolic")
    for amplitude in (0.1, 0.2)
    for hole in (FourierProfile(0.45), None)
}
# mu_3's observed order over levels 0-2 was 3.2, outside ORDER_BAND, on the
# (r, theta) chart's polygonal boundary
OUT_OF_BAND = "hyperbolic-A0.2-holed"


@pytest.fixture(scope="module")
def half_turn_histories():
    """Matched shell mu_2, its radial correction and the level 0-2 history
    of every HALF_TURN_NEGATIVES domain, the shell taken as verify_theorem
    takes it."""
    histories = {}
    for name, spec in HALF_TURN_NEGATIVES.items():
        r1, r2 = dm.matched_annulus(dm.QuadratureGrid.for_spec(spec))
        (shell,) = slsolver.solve(SLProblem(spec.form, 2, 1, r1, r2), SolverConfig())
        radial = abs(shell.eigenvalue - shell.eigenvalue_grid) / shell.eigenvalue
        levels = solve_domain(spec, levels=(0, 1, 2), m=4).levels
        histories[name] = shell.eigenvalue, radial, levels
    return histories


def ladder_decisions(history, indices, name):
    """``decide`` after each level of the ladder 0, 1, 2, as verify_theorem
    calls it on the domain ``name``."""
    mu_shell, radial, levels = history
    ritz = HALF_TURN_NEGATIVES[name].has_hole
    return [decide(mu_shell, radial, FemEigenResult.from_levels(levels[:k]), indices, ritz=ritz)
            for k in range(1, len(levels) + 1)]


class TestTrueNegatives:
    @pytest.mark.parametrize("name", list(HALF_TURN_NEGATIVES))
    def test_mu3_against_the_shell_is_decided_and_fails(self, half_turn_histories, name):
        *below_cap, cap = ladder_decisions(half_turn_histories[name], (2, 3), name)
        assert not any(decision.decided for decision in below_cap)
        assert cap.decided is True
        assert cap.decided_by == "richardson"
        assert cap.passed is False
        assert cap.margins[1] <= -fem2d.STOP_MARGIN * cap.tau

    @pytest.mark.parametrize("name", list(HALF_TURN_NEGATIVES))
    def test_mu2_against_the_shell_passes(self, half_turn_histories, name):
        decisions = ladder_decisions(half_turn_histories[name], (2,), name)
        # the bound decides a holed domain once it has two levels
        assert [d.decided_by for d in decisions] == (
            [None, "ritz_bound", "ritz_bound"] if HALF_TURN_NEGATIVES[name].has_hole
            else [None, None, "richardson"])
        cap = decisions[-1]
        assert cap.decided is True
        assert cap.passed is True
        assert cap.margins[0] >= fem2d.STOP_MARGIN * cap.tau

    @pytest.mark.parametrize("name", ["euclidean-A0.1-holed", "euclidean-A0.1-hole-free"])
    def test_verify_theorem_reaches_the_same_decision(self, half_turn_histories, name):
        # the holed domain stops at level 1 on the bound, the hole-free one
        # at level 2 on Richardson
        verdict = verify_theorem(HALF_TURN_NEGATIVES[name], VerifyConfig(levels=(0, 1, 2), m=4))
        decisions = ladder_decisions(half_turn_histories[name], (2,), name)
        stop = next(k for k, decision in enumerate(decisions) if decision.decided)
        assert stop == (1 if HALF_TURN_NEGATIVES[name].has_hole else 2)
        assert verdict.fem.levels == half_turn_histories[name][2][:stop + 1]
        assert (verdict.margins, verdict.tau, verdict.decided_by, verdict.passed) == (
            decisions[stop].margins, decisions[stop].tau, decisions[stop].decided_by,
            decisions[stop].passed)

    def test_the_out_of_band_order_was_the_charts_and_the_negative_is_decided(
            self, half_turn_histories):
        """mu_3 of the holed hyperbolic domain with A = 0.2 is about 36 %
        above the shell's mu_2.  On the (r, theta) chart, whose boundary is
        straight between rays, its observed order over levels 0-2 read 3.2,
        outside ORDER_BAND, and a level-2 cap left it undecided.  On the
        exact map the order is 2.0 and ``decide`` FAILs it, decided."""
        cap = ladder_decisions(half_turn_histories[OUT_OF_BAND], (2, 3), OUT_OF_BAND)[-1]
        assert all(1.95 <= order <= 2.05 for order in cap.orders)
        assert cap.margins[1] <= -fem2d.STOP_MARGIN * cap.tau
        assert cap.decided is True
        assert cap.decided_by == "richardson"
        assert cap.passed is False


HOLED = {**HOLED_ACCEPTANCE,
         **{name: spec for name, spec in HALF_TURN_NEGATIVES.items() if spec.has_hole}}


# holed domains whose level 3 is solved too, one per form and family
LEVEL3 = ("spherical-2", "hyperbolic-4", "euclidean-A0.2-holed")
# a round hole much narrower than the first ring: A_thetatheta = D / s
# varies by a factor of about 40 across it
SMALL_HOLE = DomainSpec("euclidean", 2, SymmetryOrder.ORDER4,
                        FourierProfile(1.0, ((4, 0.02, 0.0),)), FourierProfile(1e-3))


@pytest.fixture(scope="module")
def holed_values():
    """mu_1..mu_8 of a HOLED domain at a level, each solved once."""
    cache = {}

    def values(name, level):
        if (name, level) not in cache:
            system = assemble(generate_mesh(HOLED[name], level))
            cache[name, level] = np.array(eigensolve(system, 8).eigenvalues)
        return cache[name, level]
    return values


class TestRitzBound:
    """What a PASS by the Rayleigh-Ritz bound rests on: the mesh of a holed
    domain covers it exactly and the levels are nested, so by min-max every
    level's values lie above the domain's and do not rise under refinement,
    up to the quadrature of the element entries, which ``quadrature_term``
    estimates for the mesh at hand and RITZ_ALLOWANCE must cover."""

    @pytest.mark.parametrize("name", list(HOLED))
    def test_levels_do_not_rise(self, name, holed_values):
        # compared without a tolerance on purpose: the smallest decrease
        # measured, 6.7e-5 relative from level 2 to 3, is far above both
        # the solver's rounding and the quadrature term
        levels = range(4) if name in LEVEL3 else range(3)
        values = np.array([holed_values(name, level) for level in levels])
        assert np.all(np.diff(values[:, 1:], axis=0) <= 0)

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("name", list(HOLED_ACCEPTANCE))
    def test_a_finer_quadrature_moves_the_values_by_less_than_the_term(
            self, name, level, holed_values):
        # each triangle split in four, each quarter under a 16-point conical
        # Gauss rule of degree 6: the same P1 space, integrated to about 1e-13
        mesh = generate_mesh(HOLED_ACCEPTANCE[name], level)
        got = holed_values(name, level)
        finer = oracles.split_in_four(oracles.conical_gauss_rule(4))
        stiffness, mass = oracle_assembly(mesh, finer)
        ref = np.sort(sparse_linalg.eigsh(stiffness, k=8, M=mass, sigma=fem2d.SHIFT,
                                          which="LM", return_eigenvectors=False))
        shift = np.max(np.abs(got[1:] - ref[1:]) / ref[1:])
        assert shift <= fem2d.quadrature_term(mesh)
        assert shift <= fem2d.RITZ_ALLOWANCE / 100

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("name", list(HOLED))
    def test_the_allowance_covers_the_quadrature_of_the_families(self, name, level):
        # measured at most 1.3e-6 at level 1 over the holed domains of the
        # quarter- and half-turn families of the eight benchmark seeds
        assert fem2d.quadrature_term(generate_mesh(HOLED[name], level)) <= fem2d.RITZ_ALLOWANCE / 5

    @pytest.mark.parametrize("level", range(4))
    def test_a_small_hole_exceeds_the_allowance(self, level):
        assert fem2d.quadrature_term(generate_mesh(SMALL_HOLE, level)) > 100 * fem2d.RITZ_ALLOWANCE

    @pytest.mark.parametrize("form", ["euclidean", "spherical", "hyperbolic"])
    def test_a_small_hole_is_not_decided_by_the_bound(self, form):
        spec = DomainSpec(form, 2, SymmetryOrder.ORDER4, SMALL_HOLE.rho_out, SMALL_HOLE.rho_in)
        verdict = verify_theorem(spec, VerifyConfig(levels=(0, 1, 2), m=4))
        # the values clear the bound's margin, so the quadrature check is
        # what keeps the bound from deciding
        (shell,) = slsolver.solve(SLProblem(form, 2, 1, verdict.r1, verdict.r2), SolverConfig())
        radial = abs(shell.eigenvalue - shell.eigenvalue_grid) / shell.eigenvalue
        offered = decide(shell.eigenvalue, radial, verdict.fem, verdict.checked_indices, ritz=True)
        assert offered.decided_by == "ritz_bound"
        assert verdict.decided_by != "ritz_bound"

    def test_blocks_of_rings_give_the_same_term(self, monkeypatch):
        mesh = generate_mesh(HOLED["euclidean-0"], 2)
        whole = fem2d.quadrature_term(mesh)
        monkeypatch.setattr(fem2d, "SPLIT_BLOCK", 1)
        assert fem2d.quadrature_term(mesh) == pytest.approx(whole, rel=1e-12)

    @pytest.mark.parametrize("size", [2, 3])
    def test_relative_spread_is_the_root_sum_of_squares_of_the_pencil(self, size):
        rng = np.random.default_rng(size)
        for _ in range(5):
            root = rng.normal(size=(size, size))
            matrix = root @ root.T + 0.1 * np.eye(size)
            delta = rng.normal(size=(size, size))
            delta = 1e-3 * (delta + delta.T)
            pencil = scipy.linalg.eigh(delta, matrix, eigvals_only=True)
            spread = fem2d._relative_spread(matrix[:, :, None], delta[:, :, None])
            assert spread == pytest.approx(np.sqrt(np.sum(pencil**2)), rel=1e-10)


class TestSymmetrySectors:
    @pytest.mark.parametrize("spec", [ORDER4_SHELL, ORDER4_DISK, HALF_TURN_SHELL],
                             ids=["order4-shell", "order4-hole-free", "half-turn"])
    def test_conjugate_gradient_path_matches_cholesky(self, spec, monkeypatch):
        system = assemble(generate_mesh(spec, 1))
        factored = eigensolve(system)
        monkeypatch.setattr(fem2d, "DIRECT_MAX_UNKNOWNS", 0)
        iterated = eigensolve(system)
        assert iterated.residual <= 1e-10
        ref = np.array(factored.eigenvalues)
        got = np.array(iterated.eigenvalues)
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-10

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("spec", [ORDER4_SHELL, ORDER4_DISK, HALF_TURN_SHELL],
                             ids=["order4-shell", "order4-hole-free", "half-turn"])
    def test_every_sector_is_the_bloch_restriction_of_the_full_matrices(self, spec, level):
        # P_k copies a wedge vector onto turn t of the full mesh, times
        # omega_k**t; the rotation commutes with K and M, so P_k^H A P_k is
        # order times sector k's A, which pins where its phases sit
        system = assemble(generate_mesh(spec, level))
        n, order = system.n_unknowns, system.order
        width = system.mesh.n_angular // order
        ring, ray = np.divmod(np.arange(n), system.mesh.n_angular)
        turn, wedge_ray = np.divmod(ray, width)
        full = (system.stiffness - fem2d.SHIFT * system.mass, system.mass)
        wedge_vertex = ring * width + wedge_ray
        for k in range(order):
            phases = np.exp(2j * math.pi * k * turn / order)
            bloch = scipy.sparse.csr_matrix((phases, (np.arange(n), wedge_vertex)),
                                            shape=(n, n // order))
            for matrix, sector in zip(full, system.sector(k)):
                got = (bloch.conj().T @ matrix @ bloch).toarray() / order
                ref = sector.toarray()
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), k

    @pytest.mark.parametrize("spec", [ORDER4_SHELL, HALF_TURN_SHELL, ANNULUS],
                             ids=["order4", "half-turn", "round"])
    def test_phase_is_real_exactly_where_the_sector_is(self, spec):
        # one rule: a float phase is +-1, and its sector matrices are real
        system = assemble(generate_mesh(spec, 0))
        for k in range(system.order):
            omega = system.phase(k)
            assert omega == pytest.approx(np.exp(2j * math.pi * k / system.order), abs=1e-15)
            real = isinstance(omega, float)
            assert real == (omega in (1.0, -1.0))
            assert all(np.isrealobj(matrix.data) == real for matrix in system.sector(k))

    def test_averaged_inverse_is_exact_on_a_round_shell(self):
        # every ray of a round shell carries the same coefficients
        system = assemble(generate_mesh(ANNULUS, 1))
        rng = np.random.default_rng(0)
        for k in range(system.order // 2 + 1):
            shifted, _ = system.sector(k)
            b = rng.normal(size=shifted.shape[0]).astype(shifted.dtype)
            x = fem2d._averaged_inverse(system, k)(b)
            assert np.linalg.norm(shifted @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("spec", [ORDER4_SHELL, ORDER4_DISK, HALF_TURN_SHELL],
                             ids=["order4-shell", "order4-hole-free", "half-turn"])
    def test_banded_cholesky_solves_every_direct_sector(self, spec, level):
        # ring-major order puts every coupling, the wrap-arounds included,
        # within width + 1 of the diagonal, for the real phases +-1 and the
        # complex phase i alike
        system = assemble(generate_mesh(spec, level))
        width = system.mesh.n_angular // system.order
        rng = np.random.default_rng(level)
        dtypes = set()
        for k in range(system.order // 2 + 1):
            shifted, _ = system.sector(k)
            n = shifted.shape[0]
            assert n <= fem2d.DIRECT_MAX_UNKNOWNS
            assert fem2d._upper_band(shifted).shape[0] - 1 == width + 1
            b = rng.normal(size=n)
            if np.iscomplexobj(shifted.data):
                b = b + 1j * rng.normal(size=n)
            x = scipy.linalg.cho_solve_banded((fem2d._cholesky_factor(shifted), False), b)
            # normwise backward error: the constant-mode sector has ||x|| up
            # to 1e3 ||b||, so a bound on ||b|| alone would measure its
            # conditioning, not the factor
            scale = sparse_linalg.norm(shifted, 1) * np.linalg.norm(x) + np.linalg.norm(b)
            assert np.linalg.norm(shifted @ x - b) <= 1e-14 * scale
            dtypes.add(shifted.dtype.kind)
        assert dtypes == ({"f", "c"} if system.order == 4 else {"f"})

    def test_banded_cholesky_refuses_a_matrix_that_is_not_positive_definite(self):
        shifted, _ = assemble(generate_mesh(ORDER4_SHELL, 0)).sector(0)
        factor = None
        with pytest.raises(FemConvergenceError):
            factor = fem2d._cholesky_factor(-shifted)
        assert factor is None

    @pytest.mark.parametrize("spec", [ORDER4_DISK, HALF_TURN_SHELL],
                             ids=["order4-hole-free", "half-turn"])
    def test_fine_level_is_not_factorized(self, spec, monkeypatch):
        # level 3: every sector is above DIRECT_MAX_UNKNOWNS, so no factor
        # is made and the eigensolve's arrays stay within twice the bytes of
        # the full K and M (the banded factors would take them past it)
        system = assemble(generate_mesh(spec, 3))
        full = sum(array.nbytes for matrix in (system.stiffness, system.mass)
                   for array in (matrix.data, matrix.indices, matrix.indptr))
        factorized = []
        monkeypatch.setattr(fem2d, "_cholesky_factor",
                            lambda *args, **kwargs: factorized.append(args))
        tracemalloc.start()
        try:
            result = eigensolve(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factorized == []
        assert peak < 2 * full
        assert result.residual <= 1e-10

    @pytest.mark.parametrize("spec", [ORDER4_DISK, HALF_TURN_SHELL],
                             ids=["order4-hole-free", "half-turn"])
    def test_direct_level_factors_each_sector_once(self, spec, monkeypatch):
        # the positive control of the test above: the same hook sees every
        # factor the direct path makes
        system = assemble(generate_mesh(spec, 2))
        factor, sizes = fem2d._cholesky_factor, []

        def recording(A):
            sizes.append(A.shape[0])
            return factor(A)

        monkeypatch.setattr(fem2d, "_cholesky_factor", recording)
        eigensolve(system)
        assert len(sizes) == system.order // 2 + 1 == (3 if system.order == 4 else 2)
        assert max(sizes) <= fem2d.DIRECT_MAX_UNKNOWNS

    @pytest.mark.parametrize("k", [0, 1], ids=["real", "complex"])
    def test_standard_form_matches_dense_oracle(self, k):
        # Lanczos on U^-H M U^-1 against the dense shift-invert of the
        # sector's own pencil
        system = assemble(generate_mesh(ORDER4_SHELL, 1))
        shifted, mass = system.sector(k)
        assert np.iscomplexobj(shifted.data) == (k == 1)
        vals, residual = fem2d._sector_eigs(system, k, 6)
        ref = oracles.dense_shift_invert(shifted + fem2d.SHIFT * mass, mass, 6, fem2d.SHIFT)
        scale = np.maximum(np.abs(ref), 1.0)   # absolute for the constant mode
        assert np.max(np.abs(np.sort(vals) - ref) / scale) <= 1e-12
        assert residual <= 1e-9


def full_count_solve(system, m):
    """``eigensolve`` with every sector asked for all of the lowest m it
    can hold: m for a real phase, ceil(m / 2) for a complex one, which
    stands for its conjugate too."""
    sector_eigs = fem2d._sector_eigs

    def full(system, k, count):
        copies = 2 if np.iscomplexobj(system.sector(k)[0].data) else 1
        return sector_eigs(system, k, -(-m // copies))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fem2d, "_sector_eigs", full)
        return fem2d.eigensolve(system, m)


class TestSolveLevelGates:
    @pytest.mark.parametrize("residual,fails", [(1e-9, False), (2e-9, True)])
    def test_residual_gate(self, system, residual, fails, monkeypatch):
        sector_eigs = fem2d._sector_eigs
        monkeypatch.setattr(fem2d, "_sector_eigs",
                            lambda system, k, count: (sector_eigs(system, k, count)[0],
                                                      residual))
        if fails:
            with pytest.raises(FemConvergenceError, match="eigen residual 2.000e-09"):
                fem2d.eigensolve(system, 4)
        else:
            assert fem2d.eigensolve(system, 4).residual == residual

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_eigenvalues_refused(self, system, m, monkeypatch):
        calls = []
        monkeypatch.setattr(fem2d, "_sector_eigs", lambda *args: calls.append(args))
        with pytest.raises(ValueError) as info:
            fem2d.eigensolve(system, m)
        assert str(info.value) == "ask for at least two eigenvalues"
        assert calls == []

    def test_nonzero_constant_mode(self, system, monkeypatch):
        sector_eigs = fem2d._sector_eigs

        def shifted(system, k, count):
            vals, residual = sector_eigs(system, k, count)
            return vals + 1e-3, residual

        monkeypatch.setattr(fem2d, "_sector_eigs", shifted)
        with pytest.raises(FemConvergenceError, match="constant mode came out at 1.000e-03"):
            fem2d.eigensolve(system, 4)


class TestSectorCounts:
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("spec", [ORDER4_SHELL, ORDER4_DISK, HALF_TURN_SHELL],
                             ids=["order4-shell", "order4-hole-free", "half-turn"])
    def test_short_counts_give_the_full_count_values(self, spec, level):
        system = assemble(generate_mesh(spec, level))
        got = np.array(fem2d.eigensolve(system, 8).eigenvalues)
        ref = np.array(full_count_solve(system, 8).eigenvalues)
        scale = np.maximum(np.abs(ref), 1.0)   # absolute for the constant mode
        assert np.max(np.abs(got - ref) / scale) <= 1e-12

    def test_sector_ending_below_the_mth_value_is_solved_again(self, monkeypatch):
        # the real sector 0 first returns its lowest value alone, which lies
        # below the 8th merged one, so the values past it could be among the
        # lowest 8: it is solved again at its full count
        system = assemble(generate_mesh(ORDER4_SHELL, 1))
        sector_eigs, calls = fem2d._sector_eigs, []

        def truncated(system, k, count):
            calls.append((k, count))
            vals, residual = sector_eigs(system, k, count)
            return (np.sort(vals)[:1], residual) if calls == [(0, 3)] else (vals, residual)

        monkeypatch.setattr(fem2d, "_sector_eigs", truncated)
        got = fem2d.eigensolve(system, 8)
        assert calls == [(0, 3), (1, 3), (2, 3), (0, 8)]
        monkeypatch.undo()
        ref = np.array(full_count_solve(system, 8).eigenvalues)
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(np.array(got.eigenvalues) - ref) / scale) <= 1e-12
