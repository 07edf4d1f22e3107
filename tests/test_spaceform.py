import importlib
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import spaceform_spectra
from spaceform_spectra import domains as dm
from spaceform_spectra import spaceform as sf
from spaceform_spectra.spaceform import (
    GeodesicPoint,
    GeometryError,
    SpaceForm,
    UnattainableVolumeError,
)

import oracles

FORMS = [SpaceForm.SPHERICAL, SpaceForm.EUCLIDEAN, SpaceForm.HYPERBOLIC]


class TestSinM:
    def test_branch_values(self):
        assert sf.sin_m(SpaceForm.SPHERICAL, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
        assert sf.sin_m(SpaceForm.HYPERBOLIC, 0.0) == 0.0
        assert sf.sin_m(SpaceForm.EUCLIDEAN, 2.5) == 2.5

    def test_zero_is_exact(self):
        for form in FORMS:
            assert sf.sin_m(form, 0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(GeometryError):
            sf.sin_m(SpaceForm.EUCLIDEAN, -0.1)
        with pytest.raises(GeometryError):
            sf.sin_m(SpaceForm.SPHERICAL, math.pi + 0.1)

    def test_derivative_matches_weight_derivative(self):
        # central differences against h' of the radial weight functions
        step = 1e-6
        for form in FORMS:
            r = np.linspace(step, 3.0 if form is not SpaceForm.SPHERICAL else math.pi - step, 500)
            fd = (sf.sin_m(form, r + step) - sf.sin_m(form, r - step)) / (2 * step)
            assert np.max(np.abs(fd - sf.radial_weight_functions(form)[1](r))) < 1e-8

    def test_strict_positivity(self):
        r = np.linspace(1e-6, math.pi - 1e-6, 100)
        assert np.all(sf.sin_m(SpaceForm.SPHERICAL, r) > 0)
        r = np.linspace(1e-6, 10.0, 100)
        assert np.all(sf.sin_m(SpaceForm.EUCLIDEAN, r) > 0)
        assert np.all(sf.sin_m(SpaceForm.HYPERBOLIC, r) > 0)


class TestWarpedProductProfile:
    def test_admitted_weights_satisfy_the_ode(self):
        r = np.linspace(1e-3, 1.5, 1000)
        for form in FORMS:
            h, dh, d2h = sf.radial_weight_functions(form)
            resid = sf.warped_product_residual(h, dh, d2h, r)
            assert np.max(np.abs(resid)) <= 1e-9

    def test_profile_is_sin_m(self):
        r = np.linspace(0.0, 1.5, 7)
        for form in FORMS:
            h = sf.radial_weight_functions(form)[0]
            assert np.array_equal(h(r), sf.sin_m(form, r))
            with pytest.raises(GeometryError):
                h(-0.1)

    def test_counterexample_weight_fails(self):
        r = np.linspace(1e-3, 1.5, 1000)
        resid = sf.warped_product_residual(
            lambda x: x + x**3, lambda x: 1 + 3 * x**2, lambda x: 6 * x, r)
        assert np.max(np.abs(resid)) > 0.1


class TestVolumes:
    def test_unit_disk(self):
        assert sf.annulus_volume(SpaceForm.EUCLIDEAN, 2, 0.0, 1.0) == pytest.approx(math.pi, rel=1e-13)

    def test_hemisphere_cap(self):
        # closed form 2 pi (1 - cos r2)
        assert sf.annulus_volume(SpaceForm.SPHERICAL, 2, 0.0, math.pi / 2) == pytest.approx(2 * math.pi, rel=1e-13)

    def test_hyperbolic_shell(self):
        expected = 2 * math.pi * (math.cosh(1.0) - math.cosh(0.5))
        assert sf.annulus_volume(SpaceForm.HYPERBOLIC, 2, 0.5, 1.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r1", [0.0, 0.3])
    def test_closed_forms(self, form, n, r1):
        # the fixed two-panel rule over the whole range a shell can take:
        # up to the hemisphere on the sphere, out to r2 = 20 elsewhere
        top = math.pi / 2 if form is SpaceForm.SPHERICAL else 20.0
        for r2 in np.linspace(r1, top, 41)[1:]:
            got = sf.annulus_volume(form, n, r1, r2)
            assert got == pytest.approx(
                oracles.annulus_volume_closed_form(form.value, n, r1, r2), rel=1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            form = FORMS[rng.integers(0, 3)]
            n = int(rng.integers(2, 6))
            r = np.sort(rng.uniform(0.05, 1.5, size=3))
            whole = sf.annulus_volume(form, n, r[0], r[2])
            split = (sf.annulus_volume(form, n, r[0], r[1])
                     + sf.annulus_volume(form, n, r[1], r[2]))
            assert split == pytest.approx(whole, rel=1e-12)

    def test_ordering_errors(self):
        with pytest.raises(GeometryError):
            sf.annulus_volume(SpaceForm.EUCLIDEAN, 2, 1.0, 1.0)
        with pytest.raises(GeometryError):
            sf.annulus_volume(SpaceForm.SPHERICAL, 2, 0.0, 2.0)


class TestMatchOuterRadius:
    def test_unit_disk_inverse(self):
        assert sf.match_outer_radius(SpaceForm.EUCLIDEAN, 2, 0.0, math.pi) == pytest.approx(1.0, abs=1e-11)

    def test_euclidean_annulus(self):
        # pi (R2^2 - 1) = 3 pi
        assert sf.match_outer_radius(SpaceForm.EUCLIDEAN, 2, 1.0, 3 * math.pi) == pytest.approx(2.0, abs=1e-11)

    def test_spherical_cap_inverse(self):
        assert sf.match_outer_radius(SpaceForm.SPHERICAL, 2, 0.0, 2 * math.pi) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_right_inverse_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            form = FORMS[rng.integers(0, 3)]
            n = int(rng.integers(2, 6))
            r1 = float(rng.uniform(0.0, 0.6))
            r2 = float(rng.uniform(r1 + 0.1, 1.5 if form is SpaceForm.SPHERICAL else 2.5))
            if form is SpaceForm.SPHERICAL:
                r2 = min(r2, math.pi / 2)
            target = sf.annulus_volume(form, n, r1, r2)
            back = sf.match_outer_radius(form, n, r1, target)
            assert back == pytest.approx(r2, rel=1e-9)

    def test_unattainable_spherical_volume(self):
        with pytest.raises(UnattainableVolumeError):
            sf.match_outer_radius(SpaceForm.SPHERICAL, 2, 0.0, 4 * math.pi)


class TestNormalCoordinates:
    def test_axis_point(self):
        x = sf.to_normal_coords(GeodesicPoint(1.0, (0.0,)))
        assert np.allclose(x, [1.0, 0.0])

    def test_quarter_angle(self):
        x = sf.to_normal_coords(GeodesicPoint(2.0, (math.pi / 2,)))
        assert x == pytest.approx([0.0, 2.0], abs=1e-15)

    def test_three_dimensional_pole(self):
        x = sf.to_normal_coords(GeodesicPoint(1.0, (math.pi / 2, math.pi / 2)))
        assert x == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_norm_is_radius(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            angles = [rng.uniform(0, math.pi) for _ in range(n - 2)]
            angles.append(rng.uniform(0, 2 * math.pi))
            point = GeodesicPoint(rng.uniform(0, 2.5), tuple(angles))
            x = sf.to_normal_coords(point)
            assert np.linalg.norm(x) == pytest.approx(point.r, abs=1e-14 * max(1, point.r))


class TestRotate:
    """Quarter turns of the normal-coordinate chart, as the order-4 symmetry
    generators build them; axes are 0-based here."""

    DIMS = (2, 3, 5)

    @staticmethod
    def planes(n):
        return [(i, j) for i in range(n) for j in range(i + 1, n)]

    def test_quarter_turn(self):
        rng = np.random.default_rng(2)
        for n in self.DIMS:
            for i, j in self.planes(n):
                x = rng.normal(size=n)
                y = dm._quarter_turn(n, i, j) @ x
                assert (y[i], y[j]) == (-x[j], x[i])

    def test_half_turn(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(np.linalg.matrix_power(dm._quarter_turn(2, 0, 1), 2) @ x,
                              [-1.0, -2.0])

    def test_fixed_axis(self):
        rng = np.random.default_rng(3)
        for n in self.DIMS:
            for i, j in self.planes(n):
                x = rng.normal(size=n)
                y = dm._quarter_turn(n, i, j) @ x
                others = [a for a in range(n) if a not in (i, j)]
                assert np.array_equal(y[others], x[others])

    def test_two_quarters_equal_half(self):
        # the square of each order-4 generator is the matching order-2 pair flip
        for n in self.DIMS:
            quarters = dm.symmetry_generators(n, dm.SymmetryOrder.ORDER4)
            flips = dm.symmetry_generators(n, dm.SymmetryOrder.ORDER2)
            assert len(quarters) == len(flips) == len(self.planes(n))
            for q, flip, (i, j) in zip(quarters, flips, self.planes(n)):
                assert np.array_equal(q @ q, flip)
                assert np.array_equal(flip, dm._pair_flip(n, i, j))

    def test_four_quarters_identity(self):
        for n in self.DIMS:
            for q in dm.symmetry_generators(n, dm.SymmetryOrder.ORDER4):
                assert np.array_equal(np.linalg.matrix_power(q, 4), np.eye(n))

    def test_norm_preserved_exactly(self):
        # entries are only permuted and negated, so the generator is orthogonal
        for n in self.DIMS:
            for q in dm.symmetry_generators(n, dm.SymmetryOrder.ORDER4):
                assert np.array_equal(q.T @ q, np.eye(n))
                assert np.array_equal(np.sort(np.abs(q), axis=None),
                                      np.sort(np.abs(np.eye(n)), axis=None))


class TestConstantsReference:
    def test_known_areas(self):
        table = sf.constants_reference()
        assert table["unit_sphere_area"]["2"] == pytest.approx(2 * math.pi, rel=1e-13)
        assert table["unit_sphere_area"]["3"] == pytest.approx(4 * math.pi, rel=1e-13)
        assert table["unit_sphere_area"]["4"] == pytest.approx(2 * math.pi**2, rel=1e-13)

    def test_committed_reference_is_current(self):
        committed = Path(__file__).parent.parent / "docs" / "constants.json"
        assert json.loads(committed.read_text()) == sf.constants_reference()


class TestPublicNames:
    def test_every_all_entry_resolves(self):
        # a stale __all__ entry breaks nothing but `from module import *`
        modules = [importlib.import_module(f"spaceform_spectra.{info.name}")
                   for info in pkgutil.iter_modules(spaceform_spectra.__path__)]
        exporting = {m.__name__.rsplit(".", 1)[1]: m for m in modules
                     if hasattr(m, "__all__")}
        assert set(exporting) >= {"spaceform", "slsolver", "spectrum", "domains", "fem2d"}
        for name, module in exporting.items():
            missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
            assert not missing, (name, missing)
