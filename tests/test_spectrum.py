import json

import pytest

from spaceform_spectra import spectrum
from spaceform_spectra.slsolver import SolverConfig
from spaceform_spectra.spaceform import SpaceForm, sin_m
from spaceform_spectra.spectrum import (
    CutoffTooLowError,
    assemble,
    certify_lemmas,
    harmonic_dim,
)

import oracles


class TestHarmonicDim:
    def test_known_values(self):
        assert harmonic_dim(3, 2) == 5
        assert harmonic_dim(2, 0) == 1
        assert harmonic_dim(2, 5) == 2
        assert harmonic_dim(4, 1) == 4

    def test_planar_modes_all_dimension_two(self):
        # span{Re z^k, Im z^k}
        for k in range(1, 9):
            assert harmonic_dim(2, k) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", range(7))
    def test_against_bruteforce_rank(self, n, k):
        assert harmonic_dim(n, k) == oracles.harmonic_dim_bruteforce(n, k)


@pytest.fixture(scope="module")
def euclid_annulus():
    return assemble(SpaceForm.EUCLIDEAN, 2, 1.0, 2.0, 8, 8,
                    SolverConfig(grid_points=1024))


class TestAssemble:
    def test_first_entry_is_the_constant(self, euclid_annulus):
        first = euclid_annulus.entries[0]
        assert (first.value, first.k, first.j, first.multiplicity) == (0.0, 0, 1, 1)

    def test_low_pair_shares_mode(self, euclid_annulus):
        # positions 2 and 3 come from the same (k=1, j=1) entry
        second = euclid_annulus.entries[1]
        assert (second.k, second.j, second.multiplicity) == (1, 1, 2)
        values = euclid_annulus.eigenvalues(3)
        assert values[1] == values[2] == second.value

    def test_flattened_order_nondecreasing(self, euclid_annulus):
        count = sum(e.multiplicity for e in euclid_annulus.entries)
        values = euclid_annulus.eigenvalues(count)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0 < values[1]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_low_multiplicity_matches_dimension(self, n):
        spec = assemble(SpaceForm.HYPERBOLIC, n, 0.4, 1.2, 4, 3,
                        SolverConfig(grid_points=512))
        second = spec.entries[1]
        assert (second.k, second.j) == (1, 1)
        assert second.multiplicity == n == harmonic_dim(n, 1)
        values = spec.eigenvalues(n + 2)
        assert len(set(values[1:n + 1])) == 1
        assert values[n + 1] > values[1]

    def test_spherical_three_dim_shell(self):
        spec = assemble(SpaceForm.SPHERICAL, 3, 0.2, 1.0, 4, 3,
                        SolverConfig(grid_points=512))
        values = spec.eigenvalues(4)
        assert values[1] == values[2] == values[3]

    def test_cutoff_bounds_certified_values(self):
        spec = assemble(SpaceForm.EUCLIDEAN, 2, 1.0, 2.0, 8, 8,
                        SolverConfig(grid_points=1024))
        bound = 8 * (8 + 2 - 2) / sin_m(SpaceForm.EUCLIDEAN, 2.0) ** 2
        for v in spec.eigenvalues(12):
            assert v < bound
        assert all(e.value < spec.complete_up_to for e in spec.entries)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_refused(self, euclid_annulus, count):
        with pytest.raises(ValueError, match="count"):
            euclid_annulus.eigenvalues(count)

    def test_cutoff_error_when_truncated(self):
        spec = assemble(SpaceForm.EUCLIDEAN, 2, 1.0, 2.0, 2, 2,
                        SolverConfig(grid_points=256))
        with pytest.raises(CutoffTooLowError):
            spec.eigenvalues(12)

    def test_ball_is_allowed(self):
        spec = assemble(SpaceForm.EUCLIDEAN, 2, 0.0, 1.0, 3, 3,
                        SolverConfig(grid_points=512))
        assert spec.entries[0].value == 0.0
        mu2 = spec.eigenvalues(2)[1]
        assert mu2 == pytest.approx(oracles.first_bessel_derivative_zero(1) ** 2, rel=1e-8)

    def test_deterministic_tie_break(self):
        entries = (
            spectrum.SpectrumEntry(1.0, 2, 1, 2),
            spectrum.SpectrumEntry(1.0, 0, 3, 1),
        )
        ordered = sorted(entries, key=lambda e: (e.value, e.k, e.j))
        assert ordered[0].k == 0

    def test_validates_arguments(self):
        with pytest.raises(CutoffTooLowError):
            assemble(SpaceForm.EUCLIDEAN, 2, 1.0, 2.0, 1, 8)
        with pytest.raises(CutoffTooLowError):
            assemble(SpaceForm.EUCLIDEAN, 2, 1.0, 2.0, 8, 1)


class TestSerialization:
    def test_csv_shape(self, euclid_annulus):
        lines = euclid_annulus.to_csv().strip().split("\n")
        assert lines[0] == "i,value,k,j,multiplicity"
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 0.0
        # running index advances by multiplicity
        second = lines[2].split(",")
        assert second[0] == "2" and second[4] == "2"
        third = lines[3].split(",")
        assert third[0] == "4"

    def test_dict_round_trip(self, euclid_annulus):
        blob = json.loads(json.dumps(euclid_annulus.to_dict()))
        assert blob["form"] == "euclidean"
        assert blob["entries"][0]["value"] == 0.0


class TestCertifyLemmas:
    @pytest.mark.parametrize("form,n,r1,r2", [
        (SpaceForm.HYPERBOLIC, 2, 0.5, 1.5),
        (SpaceForm.EUCLIDEAN, 3, 1.0, 2.0),
        (SpaceForm.SPHERICAL, 2, 0.2, 1.4),
    ])
    def test_all_checks_pass_on_annuli(self, form, n, r1, r2):
        shell = assemble(form, n, r1, r2, 5, 5, SolverConfig(grid_points=1024))
        report = certify_lemmas(shell, j_max=4)
        assert report.passed
        names = {c.name for c in report.checks}
        assert names == {
            "neumann_dirichlet_bridge", "k_interlacing", "neumann_below_dirichlet",
            "lowest_pair_interior_radius", "lowest_pair_monotone",
            "lowest_pair_pointwise_bound",
        }
        bridge = next(c for c in report.checks if c.name == "neumann_dirichlet_bridge")
        assert bridge.worst < 1e-6

    def test_ball_skips_annulus_only_checks(self):
        shell = assemble(SpaceForm.EUCLIDEAN, 2, 0.0, 1.0, 5, 4,
                         SolverConfig(grid_points=512))
        report = certify_lemmas(shell, j_max=3)
        assert report.passed
        names = {c.name for c in report.checks}
        assert "lowest_pair_interior_radius" not in names
        assert "neumann_dirichlet_bridge" in names

    @pytest.mark.parametrize("form,n,r1,r2", [
        (SpaceForm.HYPERBOLIC, 2, 0.5, 1.5),
        (SpaceForm.EUCLIDEAN, 2, 1.0, 2.0),
        (SpaceForm.SPHERICAL, 3, 0.0, 1.2),
    ])
    def test_assembled_pairs_certify_like_a_fresh_solve(self, form, n, r1, r2):
        # the (2, 2) shell holds too few pairs for any Neumann mode the checks
        # read, so it re-solves them all and stands in for a fresh solve
        config = SolverConfig(grid_points=1024)
        reused = certify_lemmas(assemble(form, n, r1, r2, 8, 8, config), j_max=5)
        fresh = certify_lemmas(assemble(form, n, r1, r2, 2, 2, config), j_max=5)
        assert [c.name for c in reused.checks] == [c.name for c in fresh.checks]
        for a, b in zip(reused.checks, fresh.checks):
            assert a.passed == b.passed
            # residual-type worsts are eigenvalue differences at rounding level
            assert abs(a.worst - b.worst) <= 1e-9 * max(abs(b.worst), 1.0)

    def test_assembled_pairs_reused_only_when_they_fit(self, monkeypatch):
        form, n, r1, r2 = SpaceForm.EUCLIDEAN, 2, 0.5, 1.5
        config = SolverConfig(grid_points=256)
        solved = []
        real_solve = spectrum.slsolver.solve

        def counting_solve(problem, cfg):
            solved.append((str(problem.bc), problem.k, cfg.grid_points))
            return real_solve(problem, cfg)

        monkeypatch.setattr(spectrum.slsolver, "solve", counting_solve)

        def neumann_solves(shell):
            solved.clear()
            certify_lemmas(shell, j_max=3)
            # every solve runs on the shell's own grid
            assert {grid for _, _, grid in solved} == {256}
            return sorted(k for bc, k, _ in solved if bc == "neumann")

        # modes k <= 3 only; then j_max = 3, one pair short for the bridge's k = 0
        assert neumann_solves(assemble(form, n, r1, r2, 3, 4, config)) == [4, 5]
        assert neumann_solves(assemble(form, n, r1, r2, 8, 3, config)) == [0]

    def test_json_payload(self):
        shell = assemble(SpaceForm.EUCLIDEAN, 2, 0.5, 1.5, 5, 4,
                         SolverConfig(grid_points=512))
        report = certify_lemmas(shell, j_max=3)
        blob = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert blob["passed"] is True
        assert all("worst" in c for c in blob["checks"])
