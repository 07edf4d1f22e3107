"""Geometry of the three simply connected space forms.

Curvature is normalized to +1 / 0 / -1; in geodesic polar coordinates
around a base point the metric reads ``dr^2 + sin_m(r)^2 g_0`` with
``g_0`` the round metric on the unit (n-1)-sphere and ``sin_m`` equal to
``sin r``, ``r`` or ``sinh r`` depending on the curvature sign.  This
module holds that radial profile, shell volumes (one fixed two-panel
Gauss-Legendre rule, see ``annulus_volume``), volume matching and the
normal-coordinate chart.

All functions are pure and accept scalars or numpy arrays where it makes
sense; nothing here mutates shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "SpaceForm",
    "GeometryError",
    "UnattainableVolumeError",
    "GeodesicPoint",
    "sin_m",
    "radial_weight_functions",
    "warped_product_residual",
    "unit_sphere_area",
    "annulus_volume",
    "match_outer_radius",
    "to_normal_coords",
    "constants_reference",
]

HEMISPHERE_RADIUS = math.pi / 2


class GeometryError(ValueError):
    """Raised when an argument leaves the chart or violates a radius bound."""


class UnattainableVolumeError(GeometryError):
    """Requested shell volume exceeds what fits inside the admissible cap."""


class SpaceForm(str, Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"

    def __str__(self) -> str:  # keep CLI/JSON output plain
        return self.value


def _as_form(form) -> SpaceForm:
    if isinstance(form, SpaceForm):
        return form
    try:
        return SpaceForm(str(form).lower())
    except ValueError as exc:
        raise GeometryError(f"unknown space form {form!r}") from exc


def sin_m(form: SpaceForm, r):
    """Radial metric profile: sin r / r / sinh r by curvature sign.

    Exactly zero at r = 0.  Rejects r < 0 and, on the sphere, r > pi
    (where the polar chart ends).
    """
    form = _as_form(form)
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise GeometryError("radius must be nonnegative")
    if form is SpaceForm.SPHERICAL:
        if np.any(arr > math.pi + 1e-12):
            raise GeometryError("spherical radius exceeds pi")
        out = np.sin(arr)
    elif form is SpaceForm.HYPERBOLIC:
        out = np.sinh(arr)
    else:
        out = arr.copy()
    return out if out.ndim else float(out)


def radial_weight_functions(form: SpaceForm):
    """(h, h', h'') callables of the given form: h is ``sin_m`` and h'' = -K h."""
    form = _as_form(form)
    h = partial(sin_m, form)
    dh, curvature = {SpaceForm.SPHERICAL: (np.cos, 1.0), SpaceForm.EUCLIDEAN: (np.ones_like, 0.0),
                     SpaceForm.HYPERBOLIC: (np.cosh, -1.0)}[form]
    return h, dh, lambda r: -curvature * h(r)


def warped_product_residual(h, dh, d2h, r):
    """Residual h h'' - (h')^2 + 1 of the warped-product profile equation.

    Vanishes identically exactly for the profiles r, sin r and sinh r;
    any other warping function fails somewhere.
    """
    arr = np.asarray(r, dtype=float)
    out = np.asarray(h(arr)) * np.asarray(d2h(arr)) - np.asarray(dh(arr)) ** 2 + 1.0
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Volumes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _gl_segment(f, a: float, b: float) -> float:
    x, w = _gl_rule(15)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(w, f(mid + half * x)))


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise GeometryError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def annulus_volume(form: SpaceForm, n: int, r1: float, r2: float) -> float:
    """Volume of the geodesic shell between radii r1 < r2.

    Integrates sin_m^{n-1} over [r1, r2] by 15-point Gauss-Legendre on
    each half and multiplies by the area of the unit (n-1)-sphere.  The
    rule is exact for Euclidean n <= 30; in hyperbolic space it is within
    2e-14 relative while (n - 1) r2 <= 40 and 6e-13 at 48, and past that
    it loses accuracy gradually without refusing.  On the sphere the shell
    must stay inside the closed hemisphere (r2 <= pi/2).
    """
    form = _as_form(form)
    if n < 2:
        raise GeometryError("dimension must be >= 2")
    if not (0 <= r1 < r2):
        raise GeometryError(f"need 0 <= r1 < r2, got r1={r1}, r2={r2}")
    if form is SpaceForm.SPHERICAL and r2 > HEMISPHERE_RADIUS + 1e-12:
        raise GeometryError("outer radius exceeds the hemisphere bound pi/2")

    def f(r):
        return sin_m(form, r) ** (n - 1)
    mid = 0.5 * (r1 + r2)
    return unit_sphere_area(n) * (_gl_segment(f, r1, mid) + _gl_segment(f, mid, r2))


def match_outer_radius(form: SpaceForm, n: int, r1: float, target_volume: float) -> float:
    """Outer radius R2 such that the shell over [r1, R2] has the target volume.

    Bisection on the strictly increasing volume function; the result
    satisfies |vol - target| <= 1e-10 * target.  Raises
    UnattainableVolumeError when the spherical hemisphere cap is too small.
    """
    form = _as_form(form)
    if target_volume <= 0:
        raise GeometryError("target volume must be positive")
    if r1 < 0:
        raise GeometryError("inner radius must be nonnegative")

    def vol(r2: float) -> float:
        return annulus_volume(form, n, r1, r2)

    if form is SpaceForm.SPHERICAL:
        hi = HEMISPHERE_RADIUS
        if r1 >= hi:
            raise GeometryError("inner radius must lie inside the hemisphere")
        cap = vol(hi)
        if target_volume > cap * (1 + 1e-12):
            raise UnattainableVolumeError(
                f"volume {target_volume:.6g} exceeds hemisphere capacity {cap:.6g}")
        if target_volume >= cap:
            return hi
    else:
        hi = r1 + 1.0
        while vol(hi) < target_volume:
            hi = r1 + 2.0 * (hi - r1)
    lo = r1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if vol(mid) < target_volume:
            lo = mid
        else:
            hi = mid
    r2 = 0.5 * (lo + hi)
    if abs(vol(r2) - target_volume) > 1e-10 * target_volume:
        raise GeometryError("volume matching failed to converge")  # pragma: no cover
    return r2


# ---------------------------------------------------------------------------
# Normal-coordinate chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicPoint:
    """Point in geodesic polar coordinates around the base point.

    ``theta`` holds the n-1 hyperspherical angles; the interior ones live
    in [0, pi], the last in [0, 2 pi).
    """

    r: float
    theta: tuple

    def __post_init__(self):
        if self.r < 0:
            raise GeometryError("geodesic radius must be nonnegative")
        if len(self.theta) < 1:
            raise GeometryError("need at least one angle (ambient dimension >= 2)")
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        for t in self.theta[:-1]:
            if not (-1e-12 <= t <= math.pi + 1e-12):
                raise GeometryError(f"interior angle {t} outside [0, pi]")

    @property
    def n(self) -> int:
        return len(self.theta) + 1


def to_normal_coords(point: GeodesicPoint) -> np.ndarray:
    """Chart map (r, phi_2, ..., phi_n) -> (X_1, ..., X_n) with |X| = r.

    X_1 = r cos phi_2, then each X_i picks up the running product of
    sines with a final cosine, and X_n closes with the full sine product.
    """
    n = point.n
    x = np.empty(n)
    prod = point.r
    for i in range(n - 1):
        x[i] = prod * math.cos(point.theta[i])
        prod *= math.sin(point.theta[i])
    x[n - 1] = prod
    return x


# ---------------------------------------------------------------------------
# Generated constants reference
# ---------------------------------------------------------------------------

def constants_reference(max_n: int = 10) -> dict:
    """Table of pi and unit-sphere areas omega_{n-1} for 2 <= n <= max_n."""
    return {
        "pi": math.pi,
        "unit_sphere_area": {str(n): unit_sphere_area(n) for n in range(2, max_n + 1)},
    }
