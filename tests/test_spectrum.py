import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from spaceform_spectra import spectrum
from spaceform_spectra.slsolver import SLProblem, SolverConfig, solve
from spaceform_spectra.spaceform import SpaceForm, sin_m
from spaceform_spectra.spectrum import (
    AnnulusSpectrum,
    CutoffTooLowError,
    SpectrumEntry,
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


def every_mode_at_j_max(form, n, r1, r2, k_max, j_max, config):
    """The shell assembled by solving every mode at j_max: a reference for
    the pairs ``assemble`` leaves out."""
    base = replace(config, max_j=j_max)
    pairs = {k: tuple(solve(SLProblem(form, n, k, r1, r2), base)) for k in range(k_max + 1)}
    values = {k: [p.eigenvalue for p in mode] for k, mode in pairs.items()}
    values[0][0] = 0.0
    cutoff = min(min(vals[-1] for vals in values.values()),
                 (k_max + 1) * (k_max + n - 1) / sin_m(SpaceForm(form), r2) ** 2)
    entries = sorted(SpectrumEntry(v, k, j + 1, harmonic_dim(n, k))
                     for k, vals in values.items() for j, v in enumerate(vals) if v < cutoff)
    return AnnulusSpectrum(SpaceForm(form), n, r1, r2, tuple(entries), cutoff,
                           neumann_pairs=pairs, solver_config=base)


def shell_cases(seed):
    """(form, n, r1, r2, k_max, j_max): one shell and one ball per form and
    dimension, drawn as the ``shells_and_moments`` benchmark draws them."""
    rng = np.random.default_rng(seed)
    cases = []
    for form in ("euclidean", "spherical", "hyperbolic"):
        for n in (2, 3):
            r1 = float(rng.uniform(0.2, 0.5))
            cases.append((form, n, r1, r1 + float(rng.uniform(0.6, 1.0)), 8, 8))
            cases.append((form, n, 0.0, float(rng.uniform(0.8, 1.5)), 8, 8))
    return cases


# the omitted-mode bound 41^2/4 lies above mu_{0,6}, so mode 0 is solved again
RESOLVED = ("euclidean", 2, 1.0, 2.0, 40, 10)


class TestPairsSolved:
    @pytest.mark.parametrize("case", shell_cases(2026) + shell_cases(7) + [RESOLVED],
                             ids=lambda c: "{}-n{}-r{:.3f}-{:.3f}-k{}-j{}".format(*c))
    def test_same_prefix_as_every_mode_at_j_max(self, case):
        *shell, k_max, j_max = case
        config = SolverConfig(grid_points=1024)
        spec = assemble(*shell, k_max, j_max, config)
        ref = every_mode_at_j_max(*shell, k_max, j_max, config)
        assert spec.complete_up_to == ref.complete_up_to
        assert ([(e.k, e.j, e.multiplicity) for e in spec.entries]
                == [(e.k, e.j, e.multiplicity) for e in ref.entries])
        for e, r in zip(spec.entries, ref.entries):
            assert abs(e.value - r.value) <= 1e-13 * r.value
        assert ([(c.name, c.passed) for c in certify_lemmas(spec).checks]
                == [(c.name, c.passed) for c in certify_lemmas(ref).checks])

    def test_a_mode_below_the_cutoff_is_solved_again_at_j_max(self, monkeypatch):
        *shell, k_max, j_max = RESOLVED
        solved = []
        real_solve = spectrum.slsolver.solve

        def counting_solve(problem, cfg):
            solved.append((problem.k, cfg.max_j))
            return real_solve(problem, cfg)

        monkeypatch.setattr(spectrum.slsolver, "solve", counting_solve)
        spec = assemble(*shell, k_max, j_max, SolverConfig(grid_points=1024))
        per_mode = Counter(k for k, _ in solved)
        assert sorted(per_mode) == list(range(k_max + 1))
        again = [k for k, count in per_mode.items() if count == 2]
        assert again and max(per_mode.values()) == 2
        for k in again:
            assert [j for mode, j in solved if mode == k][-1] == j_max
            assert len(spec.neumann_pairs[k]) == j_max
        # the solve at j_max comes on top of fewer pairs than every mode at j_max
        assert sum(j for _, j in solved) < (k_max + 1) * j_max


class TestRadialCost:
    def test_gtsv_solves_of_one_certified_shell(self, monkeypatch):
        # a deterministic cost guard: each pair starts on grids N and 2N
        # from its Galerkin start pair and stops once its residual
        # certifies its vector, after at most 2 steps; nothing is
        # bisected.  Fixed steps, 3 on N and 2 on 2N for every pair and
        # the probe, made 335 solves here, and climbing from a bisected
        # base grid 175.
        calls, bisected = [], []
        real_gtsv = spectrum.slsolver.dgtsv
        real_bisect = spectrum.slsolver._eigen_tridiagonal

        def counting_gtsv(*args):
            calls.append(None)
            return real_gtsv(*args)

        def counting_bisect(*args):
            bisected.append(None)
            return real_bisect(*args)

        monkeypatch.setattr(spectrum.slsolver, "dgtsv", counting_gtsv)
        monkeypatch.setattr(spectrum.slsolver, "_eigen_tridiagonal", counting_bisect)
        shell = assemble(SpaceForm.HYPERBOLIC, 3, 0.5, 1.5, 8, 8)
        assert certify_lemmas(shell).passed
        assert len(calls) == 106
        assert bisected == []

    def test_a_grid_with_an_uncertified_pair_is_bisected(self, monkeypatch):
        # Euclidean [0.4, 1.3], k = 8, 256 cells, max_j 8: grid N is too
        # coarse for the start pairs and 2N climbs, but pair 8 misses its
        # vector certificate after 2 steps, so 2N is bisected too
        bisected, climbed = [], []
        slsolver = spectrum.slsolver
        real_bisect, real_climb = slsolver._eigen_tridiagonal, slsolver._climb

        def counting_bisect(system, count):
            bisected.append((system.grid.size - 1, count))
            return real_bisect(system, count)

        def counting_climb(system, *args):
            result = real_climb(system, *args)
            climbed.append((system.grid.size - 1, result is not None))
            return result

        monkeypatch.setattr(slsolver, "_eigen_tridiagonal", counting_bisect)
        monkeypatch.setattr(slsolver, "_climb", counting_climb)
        pairs = solve(SLProblem("euclidean", 2, 8, 0.4, 1.3),
                      SolverConfig(grid_points=256, max_j=8))
        assert bisected == [(256, 9), (512, 9)]
        assert climbed == [(512, False)]
        assert [p.sign_changes() for p in pairs] == list(range(8))

    @pytest.mark.parametrize("grid,bisections,spectral,climbed", [
        # 64 and 128 cells are both fewer than 32 per start pair for
        # max_j = 8 (9 with the probe): each grid is bisected once and the
        # Galerkin solve skipped
        (64, [(64, 9), (128, 9)], [], []),
        # 256 cells are too few and 512 enough: grid N is bisected and 2N
        # climbs from the one Galerkin solve, sampled on its own nodes
        (256, [(256, 9)], [(512, 9)], [512]),
    ])
    def test_a_grid_too_coarse_for_the_start_pairs_is_bisected(
            self, monkeypatch, grid, bisections, spectral, climbed):
        calls = {"bisect": [], "spectral": [], "climb": []}
        slsolver = spectrum.slsolver
        real_bisect, real_spectral, real_climb = (
            slsolver._eigen_tridiagonal, slsolver._spectral_pairs, slsolver._climb)

        def counting_bisect(system, count):
            calls["bisect"].append((system.grid.size - 1, count))
            return real_bisect(system, count)

        def counting_spectral(system, count, sampled):
            calls["spectral"].append((system.grid.size - 1, count))
            return real_spectral(system, count, sampled)

        def counting_climb(system, *args, **kwargs):
            calls["climb"].append(system.grid.size - 1)
            return real_climb(system, *args, **kwargs)

        monkeypatch.setattr(slsolver, "_eigen_tridiagonal", counting_bisect)
        monkeypatch.setattr(slsolver, "_spectral_pairs", counting_spectral)
        monkeypatch.setattr(slsolver, "_climb", counting_climb)
        pairs = solve(SLProblem("hyperbolic", 3, 2, 0.5, 1.5),
                      SolverConfig(grid_points=grid, max_j=8))
        assert calls == {"bisect": bisections, "spectral": spectral, "climb": climbed}
        assert [p.sign_changes() for p in pairs] == list(range(8))


class TestSerialization:
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
        report = certify_lemmas(shell)
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
        report = certify_lemmas(shell)
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
        # a shell built by hand with no pairs solves every mode the checks
        # read at the depth of its config, as a fresh solve
        config = SolverConfig(grid_points=1024)
        reused = certify_lemmas(assemble(form, n, r1, r2, 8, 8, config))
        fresh = certify_lemmas(AnnulusSpectrum(SpaceForm(form), n, r1, r2, (), 0.0,
                                               solver_config=replace(config, max_j=5)))
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
            certify_lemmas(shell)
            # every solve runs on the shell's own grid
            assert {grid for _, _, grid in solved} == {256}
            return sorted(k for bc, k, _ in solved if bc == "neumann")

        # modes k <= 3 only, so the checks solve modes 4 and 5 themselves
        assert neumann_solves(assemble(form, n, r1, r2, 3, 4, config)) == [4, 5]
        # j_max = 3: mode 0 holds the j_max + 1 pairs the bridge reads
        assert neumann_solves(assemble(form, n, r1, r2, 8, 3, config)) == []

    @pytest.mark.parametrize("j_max", [2, 3, 4, 5, 6])
    def test_depth_comes_from_the_shell(self, j_max, monkeypatch):
        shell = assemble(SpaceForm.EUCLIDEAN, 2, 0.5, 1.5, 8, j_max,
                         SolverConfig(grid_points=256))
        # mode 0 holds the j + 1 pairs the bridge reads, one past j_max at
        # depths up to CERTIFY_J, and no entry comes from past j_max
        depth = min(j_max, spectrum.CERTIFY_J)
        assert len(shell.neumann_pairs[0]) == max(j_max, depth + 1)
        assert max(e.j for e in shell.entries) <= j_max
        read = []
        real_solve = spectrum.slsolver.solve

        def recording_solve(problem, cfg):
            read.append((str(problem.bc), problem.k, cfg.max_j))
            return real_solve(problem, cfg)

        monkeypatch.setattr(spectrum.slsolver, "solve", recording_solve)
        report = certify_lemmas(shell)
        assert report.passed
        assert ("dirichlet", 1, depth) in read

    def test_unlocatable_interior_radius_fails_its_check(self, monkeypatch):
        shell = assemble(SpaceForm.EUCLIDEAN, 2, 0.5, 1.5, 5, 4,
                         SolverConfig(grid_points=256))

        def no_root(pair):
            raise spectrum.slsolver.NoRootError("no interior radius")

        monkeypatch.setattr(spectrum, "locate_b", no_root)
        report = certify_lemmas(shell)
        verdicts = {c.name: c.passed for c in report.checks}
        assert verdicts.pop("lowest_pair_interior_radius") is False
        assert all(verdicts.values())
        assert not report.passed

    # the lowest mode-1 value moved where 1/sin_m(b)^2 = mu has no interior root
    @pytest.mark.parametrize("form,r1,r2,mu", [
        (SpaceForm.SPHERICAL, 0.5, 1.2, 0.5), (SpaceForm.EUCLIDEAN, 0.5, 1.5, 0.4)],
        ids=["sphere-above-one", "above-r2"])
    def test_pair_with_no_interior_radius_fails_its_check(self, form, r1, r2, mu):
        shell = assemble(form, 2, r1, r2, 5, 4, SolverConfig(grid_points=256))
        first, *rest = shell.neumann_pairs[1]
        moved = replace(shell, neumann_pairs={**shell.neumann_pairs,
                                              1: (replace(first, eigenvalue=mu), *rest)})
        with pytest.raises(spectrum.slsolver.NoRootError):
            spectrum.locate_b(moved.neumann_pairs[1][0])
        report = certify_lemmas(moved)
        checks = {c.name: c for c in report.checks}
        assert checks["lowest_pair_interior_radius"].passed is False
        assert not report.passed

    def test_one_unlocatable_mode_fails_only_the_interior_radius(self, monkeypatch):
        # the lowest pair of mode 2 still counts for the other two checks
        shell = assemble(SpaceForm.EUCLIDEAN, 2, 0.5, 1.5, 5, 4,
                         SolverConfig(grid_points=256))
        intact = {c.name: c for c in certify_lemmas(shell).checks}
        real = spectrum.locate_b

        def no_root_for_mode_2(pair):
            if pair.problem.k == 2:
                raise spectrum.slsolver.NoRootError("no interior radius")
            return real(pair)

        monkeypatch.setattr(spectrum, "locate_b", no_root_for_mode_2)
        checks = {c.name: c for c in certify_lemmas(shell).checks}
        interior = checks.pop("lowest_pair_interior_radius")
        assert not interior.passed and interior.detail.get("k") != 2
        assert checks == {name: c for name, c in intact.items() if name in checks}
        assert all(c.passed for c in checks.values())

    def test_json_payload(self):
        shell = assemble(SpaceForm.EUCLIDEAN, 2, 0.5, 1.5, 5, 4,
                         SolverConfig(grid_points=512))
        report = certify_lemmas(shell)
        blob = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert blob["passed"] is True
        assert all("worst" in c for c in blob["checks"])
